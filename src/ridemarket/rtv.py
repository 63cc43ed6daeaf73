"""Shareability graphs: request-vehicle, request-request and trip level.

The construction follows the usual two-stage pattern: a coarse pairwise
graph first, then exhaustive trip enumeration that only considers request
sets whose subsets were already feasible.  A market structure acts on the
finished graph purely as a subgraph filter.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import UnmappedEntityError
from .model import (
    DROPOFF,
    PICKUP,
    Request,
    Stop,
    Trip,
    Vehicle,
)
from .network import RoadNetwork

EPS = 1e-9

STRUCTURE_KINDS = (
    "single",
    "segmented",
    "bilateral",
    "central",
    "cooperative",
    "marketplace",
)

MAX_ROUTE_STOPS = 8


@dataclass(frozen=True)
class Constraints:
    """Service quality bounds and market parameters for one scenario."""

    detour_factor: float = 1.25
    max_wait_s: float = 300.0
    max_pickup_s: float = 300.0
    unserved_penalty: float = 10.0
    gamma: float = 0.1
    interval_s: float = 30.0

    def __post_init__(self) -> None:
        if self.detour_factor < 1.0:
            raise ValueError("detour factor below 1 forbids even direct rides")
        if self.max_wait_s < 0 or self.max_pickup_s < 0:
            raise ValueError("wait bounds must be non-negative")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.interval_s <= 0:
            raise ValueError("decision interval must be positive")
        if self.unserved_penalty < 0:
            raise ValueError("unserved penalty must be non-negative")


@dataclass(frozen=True)
class MarketStructure:
    """Which platform boundaries constrain matching, plus any alliance."""

    kind: str
    alliance: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRUCTURE_KINDS:
            raise ValueError(f"unknown market structure kind {self.kind!r}")


@dataclass
class RvGraph:
    """Pairwise shareability: request-request and request-vehicle edges."""

    rr_edges: list[tuple[str, str]]
    rv_edges: list[tuple[str, str]]

    def rr_set(self) -> set[tuple[str, str]]:
        return set(self.rr_edges)

    def rv_set(self) -> set[tuple[str, str]]:
        return set(self.rv_edges)


@dataclass
class RtvGraph:
    """Trip-level graph: feasible trips and their vehicle edges."""

    requests: list[str]
    vehicles: list[str]
    trips: list[tuple[str, ...]]
    tv_edges: dict[tuple[tuple[str, ...], str], Trip]

    def edges_sorted(self) -> list[Trip]:
        return [self.tv_edges[k] for k in sorted(self.tv_edges)]


@dataclass
class RouteResult:
    """Outcome of the exhaustive stop-order search for one candidate."""

    route: tuple[Stop, ...]
    total_distance: float
    pickup_times: dict[str, float]
    dropoff_times: dict[str, float]


def _pickup_deadline(req: Request, now: float, constraints: Constraints) -> float:
    """Latest admissible pickup instant for a not-yet-assigned request."""
    return min(req.request_time + constraints.max_wait_s, now + constraints.max_pickup_s)


def schedule_distance(vehicle: Vehicle, net: RoadNetwork) -> float:
    """Length of the vehicle's currently committed route from its position."""
    total = 0.0
    pos = vehicle.position
    for stop in vehicle.schedule:
        total += net.distance_or_inf(pos, stop.node)
        pos = stop.node
    return total


def best_route(
    vehicle: Vehicle,
    new_requests: Iterable[Request],
    registry: Mapping[str, Request],
    net: RoadNetwork,
    constraints: Constraints,
    now: float,
) -> RouteResult | None:
    """Minimum-distance feasible stop order serving commitments plus new riders.

    Returns None when no order satisfies capacity, pickup deadlines and the
    per-rider detour bound.  The search is an exhaustive depth-first walk
    over stop permutations with distance and deadline pruning, capped at
    MAX_ROUTE_STOPS stops.
    """
    new_list = sorted(new_requests, key=lambda r: r.id)
    stops: list[Stop] = []
    deadlines: dict[str, float] = {}
    ride_start: dict[str, float] = {}  # onboard riders: actual pickup instant
    for rid in sorted(vehicle.onboard):
        req = registry[rid]
        stops.append(Stop(req.destination, rid, DROPOFF))
        ride_start[rid] = req.pickup_time if req.pickup_time is not None else now
    for rid in sorted(vehicle.assigned):
        req = registry[rid]
        stops.append(Stop(req.origin, rid, PICKUP))
        stops.append(Stop(req.destination, rid, DROPOFF))
        deadlines[rid] = (
            req.pickup_deadline
            if req.pickup_deadline is not None
            else _pickup_deadline(req, now, constraints)
        )
    for req in new_list:
        stops.append(Stop(req.origin, req.id, PICKUP))
        stops.append(Stop(req.destination, req.id, DROPOFF))
        deadlines[req.id] = _pickup_deadline(req, now, constraints)
    if len(stops) > MAX_ROUTE_STOPS:
        return None
    stops.sort(key=lambda s: (s.request, s.kind))

    chi = constraints.detour_factor
    best: list[RouteResult | None] = [None]
    best_dist = [float("inf")]

    def recurse(
        pos: str,
        time: float,
        dist: float,
        load: int,
        remaining: list[Stop],
        picked: dict[str, float],
        dropped: dict[str, float],
        order: list[Stop],
    ) -> None:
        if dist >= best_dist[0]:
            return
        if not remaining:
            best_dist[0] = dist
            best[0] = RouteResult(
                route=tuple(order),
                total_distance=dist,
                pickup_times=dict(picked),
                dropoff_times=dict(dropped),
            )
            return
        for idx, stop in enumerate(remaining):
            rid = stop.request
            if stop.kind == DROPOFF and rid not in picked and rid not in ride_start:
                continue
            if stop.kind == PICKUP and load + 1 > vehicle.capacity:
                continue
            leg = net.distance_or_inf(pos, stop.node)
            if leg == float("inf") or dist + leg >= best_dist[0]:
                continue
            arrive = time + leg / net.speed
            if stop.kind == PICKUP:
                req = registry[rid]
                arrive = max(arrive, req.request_time)
                if arrive > deadlines[rid] + EPS:
                    continue
                picked[rid] = arrive
                recurse(pos=stop.node, time=arrive, dist=dist + leg, load=load + 1,
                        remaining=remaining[:idx] + remaining[idx + 1:],
                        picked=picked, dropped=dropped, order=order + [stop])
                del picked[rid]
            else:
                req = registry[rid]
                start = picked.get(rid, ride_start.get(rid))
                if arrive - start > chi * req.direct_duration + EPS:
                    continue
                dropped[rid] = arrive
                recurse(pos=stop.node, time=arrive, dist=dist + leg, load=load - 1,
                        remaining=remaining[:idx] + remaining[idx + 1:],
                        picked=picked, dropped=dropped, order=order + [stop])
                del dropped[rid]

    recurse(
        pos=vehicle.position,
        time=now,
        dist=0.0,
        load=len(vehicle.onboard),
        remaining=stops,
        picked={},
        dropped={},
        order=[],
    )
    return best[0]


RouteCache = dict


def _cached_route(
    vehicle: Vehicle,
    new_requests: list[Request],
    registry: Mapping[str, Request],
    net: RoadNetwork,
    constraints: Constraints,
    now: float,
    cache: RouteCache | None,
) -> RouteResult | None:
    if cache is None:
        return best_route(vehicle, new_requests, registry, net, constraints, now)
    key = (
        vehicle.id,
        tuple(vehicle.schedule),
        vehicle.position,
        tuple(sorted(r.id for r in new_requests)),
        now,
    )
    if key not in cache:
        cache[key] = best_route(vehicle, new_requests, registry, net, constraints, now)
    return cache[key]


def pair_shareable(
    first: Request,
    second: Request,
    net: RoadNetwork,
    constraints: Constraints,
) -> bool:
    """Can one empty vehicle serve both requests within every bound?

    The probe vehicle starts at the earlier request's origin at that
    request's release time, the most favourable position any real vehicle
    could occupy.
    """
    earlier, later = sorted((first, second), key=lambda r: (r.request_time, r.id))
    probe = Vehicle(id="__probe__", platform="", position=earlier.origin)
    registry = {earlier.id: earlier, later.id: later}
    found = best_route(
        probe, [earlier, later], registry, net, constraints, now=earlier.request_time
    )
    return found is not None


def build_rv_graph(
    requests: Iterable[Request],
    vehicles: Iterable[Vehicle],
    net: RoadNetwork,
    now: float,
    constraints: Constraints,
    cache: RouteCache | None = None,
    registry: Mapping[str, Request] | None = None,
) -> RvGraph:
    """Pairwise feasibility graph over waiting requests and vehicles.

    When any vehicle already carries commitments, ``registry`` must also
    cover those riders so their stops can be re-planned.
    """
    reqs = sorted(requests, key=lambda r: r.id)
    vehs = sorted(vehicles, key=lambda v: v.id)
    registry = {**(registry or {}), **{r.id: r for r in reqs}}
    for r in reqs:
        if r.direct_duration <= 0:
            raise ValueError(
                f"request {r.id} has no direct-trip values; "
                "call fill_direct() before building graphs"
            )
    rv: list[tuple[str, str]] = []
    for req in reqs:
        for veh in vehs:
            if _cached_route(veh, [req], registry, net, constraints, now, cache):
                rv.append((req.id, veh.id))
    rr: list[tuple[str, str]] = []
    for a, b in itertools.combinations(reqs, 2):
        if pair_shareable(a, b, net, constraints):
            rr.append(tuple(sorted((a.id, b.id))))
    return RvGraph(rr_edges=sorted(rr), rv_edges=sorted(rv))


def enumerate_trips(
    rv: RvGraph,
    vehicles: Iterable[Vehicle],
    requests: Iterable[Request],
    net: RoadNetwork,
    constraints: Constraints,
    now: float,
    capacity: int = 4,
    cache: RouteCache | None = None,
    registry: Mapping[str, Request] | None = None,
) -> RtvGraph:
    """Exhaustive trip enumeration over the pairwise graph.

    A request set of size k is only tried for a vehicle when all of its
    size-(k-1) subsets were feasible for that vehicle, which is a valid
    pruning because dropping a rider from a feasible route stays feasible.
    """
    reqs = sorted(requests, key=lambda r: r.id)
    vehs = sorted(vehicles, key=lambda v: v.id)
    registry = {**(registry or {}), **{r.id: r for r in reqs}}
    rr = rv.rr_set()
    rv_set = rv.rv_set()
    tv_edges: dict[tuple[tuple[str, ...], str], Trip] = {}

    for veh in vehs:
        baseline = schedule_distance(veh, net)
        group_base = len(veh.committed())
        feasible: dict[int, set[tuple[str, ...]]] = {1: set()}
        singles = [r for r in reqs if (r.id, veh.id) in rv_set]
        for req in singles:
            found = _cached_route(veh, [req], registry, net, constraints, now, cache)
            if found is None:
                continue
            key = (req.id,)
            feasible[1].add(key)
            tv_edges[(key, veh.id)] = _make_trip(
                key, veh, found, baseline, group_base, registry
            )
        max_size = min(capacity, len(singles))
        for size in range(2, max_size + 1):
            feasible[size] = set()
            candidates: set[tuple[str, ...]] = set()
            if size == 2:
                for a, b in itertools.combinations(sorted(feasible[1]), 2):
                    pair = tuple(sorted((a[0], b[0])))
                    if pair in rr:
                        candidates.add(pair)
            else:
                smaller = sorted(feasible[size - 1])
                for t1, t2 in itertools.combinations(smaller, 2):
                    union = tuple(sorted(set(t1) | set(t2)))
                    if len(union) != size or union in candidates:
                        continue
                    subs_ok = all(
                        tuple(sorted(set(union) - {r})) in feasible[size - 1]
                        for r in union
                    )
                    if subs_ok:
                        candidates.add(union)
            for key in sorted(candidates):
                found = _cached_route(
                    veh, [registry[r] for r in key], registry, net, constraints, now, cache
                )
                if found is None:
                    continue
                feasible[size].add(key)
                tv_edges[(key, veh.id)] = _make_trip(
                    key, veh, found, baseline, group_base, registry
                )

    trips = sorted({k[0] for k in tv_edges})
    return RtvGraph(
        requests=[r.id for r in reqs],
        vehicles=[v.id for v in vehs],
        trips=trips,
        tv_edges=tv_edges,
    )


def _make_trip(
    key: tuple[str, ...],
    veh: Vehicle,
    found: RouteResult,
    baseline: float,
    group_base: int,
    registry: Mapping[str, Request],
) -> Trip:
    delays = {
        r: found.dropoff_times[r]
        - (registry[r].request_time + registry[r].direct_duration)
        for r in key
    }
    direct = {
        r: (registry[r].direct_distance, registry[r].direct_duration) for r in key
    }
    return Trip(
        requests=key,
        vehicle=veh.id,
        route=found.route,
        total_distance=found.total_distance,
        incremental_distance=found.total_distance - baseline,
        per_request_delay=delays,
        per_request_direct=direct,
        group_size=group_base + len(key),
    )


def build_rtv_graph(
    requests: Iterable[Request],
    vehicles: Iterable[Vehicle],
    net: RoadNetwork,
    now: float,
    constraints: Constraints,
    capacity: int = 4,
    cache: RouteCache | None = None,
    registry: Mapping[str, Request] | None = None,
) -> RtvGraph:
    """Convenience: pairwise graph then trip enumeration in one call."""
    reqs = list(requests)
    vehs = list(vehicles)
    rv = build_rv_graph(reqs, vehs, net, now, constraints, cache=cache,
                        registry=registry)
    return enumerate_trips(
        rv, vehs, reqs, net, constraints, now, capacity=capacity, cache=cache,
        registry=registry,
    )


def apply_market_structure(
    graph: RtvGraph,
    structure: MarketStructure,
    platform_of_request: Mapping[str, str],
    platform_of_vehicle: Mapping[str, str],
) -> RtvGraph:
    """Filter the trip graph down to what one market structure permits.

    Single keeps everything.  Segmented keeps only same-platform trips
    served by that platform's vehicles.  Cooperative dissolves boundaries
    within the alliance.  The trading and marketplace structures start from
    the segmented graph; their cross-platform edges come from the trading
    or auction stage, not from matching.
    """

    def request_group(rid: str) -> str:
        try:
            platform = platform_of_request[rid]
        except KeyError:
            raise UnmappedEntityError(f"request {rid!r} has no platform") from None
        return _group(platform)

    def vehicle_group(vid: str) -> str:
        try:
            platform = platform_of_vehicle[vid]
        except KeyError:
            raise UnmappedEntityError(f"vehicle {vid!r} has no platform") from None
        return _group(platform)

    if structure.kind == "single":
        def _group(platform: str) -> str:
            return "__pool__"
    elif structure.kind == "cooperative":
        alliance = structure.alliance or frozenset(platform_of_vehicle.values())
        def _group(platform: str) -> str:
            return "__alliance__" if platform in alliance else platform
    else:
        def _group(platform: str) -> str:
            return platform

    tv = {}
    for (key, vid), trip in graph.tv_edges.items():
        groups = {request_group(r) for r in key}
        if len(groups) == 1 and vehicle_group(vid) in groups:
            tv[(key, vid)] = trip
    return RtvGraph(
        requests=list(graph.requests),
        vehicles=list(graph.vehicles),
        trips=sorted({k[0] for k in tv}),
        tv_edges=tv,
    )
