"""Shareability graphs: request-vehicle and trip level.

The construction follows the usual two-stage pattern: the feasible
request-vehicle pairs first, then exhaustive trip enumeration that only
considers request sets whose subsets were already feasible.  The
request-vehicle edges are exact: ``best_route`` is the only stop-order
search, and what skips it is exact too.  An idle vehicle's single has one
stop order, computed in closed form with ``best_route``'s own float
operations; reach bounds on shortest paths skip a pair whose pickup misses
its deadline, or that makes a committed stop miss its own, and an idle
vehicle's request pair whose second pickup comes too late in either order;
idle vehicles with the same position and capacity are searched once.  Trip
enumeration also tests each request pair it tries with ``pair_shareable``,
a heuristic probe, not a relaxation: it can reject a pair that a real
vehicle could serve together.  A market structure acts on the finished
graph purely as a subgraph filter.

The engine builds the graph once per decision stage (bilateral once more
after its match).  The auction, matching and central trading solve
restrictions of it (``RtvGraph.restrict``), equal to the subset's build.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ValidationError
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

# Seconds of float rounding allowed for when the reach bound of
# build_rv_graph compares one shortest path with a route's per-leg time
# sum: the two differ by ulps (about 1e-12 s at 1e4 s), so the bound
# skips no pair the route search would accept.
REACH_SLACK = 1e-6

STRUCTURE_KINDS = (
    "single",
    "segmented",
    "bilateral",
    "central",
    "cooperative",
    "marketplace",
)

MAX_ROUTE_STOPS = 8

_STOP_ORDER = operator.itemgetter(0, 1)  # (request, kind) of a stop record
_BITS = tuple(1 << i for i in range(MAX_ROUTE_STOPS + 1))
_INF = float("inf")


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
        for f in fields(self):
            if not abs(getattr(self, f.name)) < _INF:  # NaN compares False
                raise ValidationError(f"constraint {f.name} must be finite")
        if self.detour_factor < 1.0:
            raise ValidationError("detour factor below 1 forbids even direct rides")
        if self.max_wait_s < 0 or self.max_pickup_s < 0:
            raise ValidationError("wait bounds must be non-negative")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValidationError("gamma must lie in [0, 1]")
        if self.interval_s <= 0:
            raise ValidationError("decision interval must be positive")
        if self.unserved_penalty < 0:
            raise ValidationError("unserved penalty must be non-negative")


@dataclass(frozen=True)
class MarketStructure:
    """Which platform boundaries constrain matching, plus any alliance."""

    kind: str
    alliance: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRUCTURE_KINDS:
            raise ValidationError(f"unknown market structure kind {self.kind!r}")


@dataclass
class RouteResult:
    """Outcome of the exhaustive stop-order search for one candidate."""

    route: tuple[Stop, ...]
    total_distance: float
    pickup_times: dict[str, float]
    dropoff_times: dict[str, float]


@dataclass
class RtvGraph:
    """Trip-level graph: feasible trips and their vehicle edges."""

    requests: list[str]
    vehicles: list[str]
    tv_edges: dict[tuple[tuple[str, ...], str], Trip]

    @property
    def trips(self) -> list[tuple[str, ...]]:
        """Request sets with at least one vehicle edge, sorted."""
        return sorted({key for key, _ in self.tv_edges})

    def edges_sorted(self) -> list[Trip]:
        return [self.tv_edges[k] for k in sorted(self.tv_edges)]

    def restrict(
        self, request_ids: Iterable[str], vehicle_ids: Iterable[str]
    ) -> RtvGraph:
        """The subgraph over the named requests and vehicles.

        It equals the build over that subset at the same ``now``, registry
        and vehicle states: a trip's route depends only on its own requests
        and vehicle, and enumeration tries a request set exactly when all
        of its subsets are feasible.
        """
        requests, vehicles = set(request_ids), set(vehicle_ids)
        unknown = sorted(requests.difference(self.requests)) + sorted(
            vehicles.difference(self.vehicles))
        if unknown:
            raise ValidationError(f"{unknown} not in the trip graph")
        return RtvGraph(
            requests=sorted(requests),
            vehicles=sorted(vehicles),
            tv_edges={(key, vid): trip for (key, vid), trip in self.tv_edges.items()
                      if vid in vehicles and requests.issuperset(key)},
        )


def pickup_deadline(req: Request, now: float, constraints: Constraints) -> float:
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
    MAX_ROUTE_STOPS stops.  Stops are tried in ``(request, kind)`` order and
    only a strictly shorter route replaces the best, so among equally short
    routes the first in that order wins.
    """
    chi = constraints.detour_factor
    # One record per stop: (request, kind, node, limit, aux).  A pickup
    # must arrive by ``limit``, its deadline plus EPS, and not before
    # ``aux``, the release time.  A dropoff must arrive within ``limit`` of
    # the ride start: ``aux`` for a rider already onboard, else the
    # arrival at the pickup.
    recs: list[tuple] = []
    for req, onboard, at in _commitments(vehicle, registry, constraints, now):
        if onboard:
            recs.append((req.id, DROPOFF, req.destination,
                         chi * req.direct_duration + EPS, at))
        else:
            recs.append((req.id, PICKUP, req.origin, at + EPS, req.request_time))
            recs.append((req.id, DROPOFF, req.destination,
                         chi * req.direct_duration + EPS, None))
    for req in new_requests:
        deadline = pickup_deadline(req, now, constraints)
        recs.append((req.id, PICKUP, req.origin, deadline + EPS, req.request_time))
        recs.append((req.id, DROPOFF, req.destination,
                     chi * req.direct_duration + EPS, None))
    if len(recs) > MAX_ROUTE_STOPS:
        return None
    if not recs:
        return RouteResult(route=(), total_distance=0.0, pickup_times={},
                           dropoff_times={})
    recs.sort(key=_STOP_ORDER)

    # Per-stop columns, plus col, the node index of each stop.  Sorting
    # puts a rider's dropoff right before its pickup, so a dropoff with no
    # aux waits for stop i + 1 and reads the ride start from start[i + 1],
    # where the search writes the arrival at that pickup.
    n = len(recs)
    _, kinds, nodes, limit, aux = zip(*recs)
    start = list(aux)
    bits = _BITS
    n_nodes = len(net.nodes)
    col = list(map(net.node_index, nodes))
    flat = net.flat_distances()  # flat[base + col[i]]: leg to stop i
    speed = net.speed
    capacity = vehicle.capacity

    best_dist = float("inf")
    best_order: list[int] | None = None
    best_times: list[float] = []
    order = [0] * n  # order[d]: stop visited at depth d
    times = [0.0] * n  # times[d]: arrival there
    last = n - 1

    def recurse(base: int, time: float, dist: float, load: int,
                visited: int, depth: int) -> None:
        nonlocal best_dist, best_order, best_times
        for i in range(n):
            if visited & bits[i]:
                continue
            pickup = kinds[i] == PICKUP
            if pickup:
                if load >= capacity:
                    continue
            elif aux[i] is None and not visited & bits[i + 1]:
                continue
            leg = flat[base + col[i]]
            total = dist + leg  # inf for an unreachable stop
            if total >= best_dist:
                continue
            arrive = time + leg / speed
            if pickup:
                arrive = max(arrive, aux[i])
                if arrive > limit[i]:
                    continue
                start[i] = arrive
            elif arrive - start[i if aux[i] is not None else i + 1] > limit[i]:
                continue
            order[depth] = i
            times[depth] = arrive
            if depth == last:
                best_dist, best_order, best_times = total, order[:], times[:]
            else:
                recurse(col[i] * n_nodes, arrive, total,
                        load + 1 if pickup else load - 1, visited | bits[i],
                        depth + 1)

    recurse(net.node_index(vehicle.position) * n_nodes, now, 0.0,
            len(vehicle.onboard), 0, 0)
    if best_order is None:
        return None
    route = []
    pickup_times = {}
    dropoff_times = {}
    for i, t in zip(best_order, best_times):
        rid, kind, node = recs[i][:3]
        route.append(Stop(node, rid, kind))
        (pickup_times if kind == PICKUP else dropoff_times)[rid] = t
    return RouteResult(
        route=tuple(route),
        total_distance=best_dist,
        pickup_times=pickup_times,
        dropoff_times=dropoff_times,
    )


def pair_shareable(
    first: Request,
    second: Request,
    net: RoadNetwork,
    constraints: Constraints,
) -> bool:
    """Can one empty probe vehicle serve both requests within every bound?

    The probe starts at the earlier request's origin at that request's
    release time.  This is not the most favourable case, so the test is
    not a relaxation: a real vehicle elsewhere, at a later ``now`` with
    other pickup deadlines, can serve a pair the probe cannot (for
    example by picking up the later request first).
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
    registry: Mapping[str, Request] | None = None,
) -> dict[tuple[str, str], RouteResult]:
    """The route of each feasible (request id, vehicle id) pair, keyed in
    sorted order.

    When any vehicle already carries commitments, ``registry`` must also
    cover those riders so their stops can be re-planned.
    """
    reqs = sorted(requests, key=lambda r: r.id)
    vehs = sorted(vehicles, key=lambda v: v.id)
    registry = {**(registry or {}), **{r.id: r for r in reqs}}
    for r in reqs:
        if r.direct_duration <= 0:
            raise ValidationError(
                f"request {r.id} has no direct-trip values; "
                "call fill_direct() before building graphs"
            )
    rv: dict[tuple[str, str], RouteResult] = {}
    # Earliest pickup of each (vehicle, request) pair: straight from the
    # vehicle's position, as no stop order can beat the shortest path.  A
    # pair that misses the deadline even so has no feasible route.
    speed = net.speed
    reach = now + net.distance_block(
        [v.position for v in vehs], [r.origin for r in reqs]
    ) / speed
    deadlines = [pickup_deadline(r, now, constraints) for r in reqs]
    can_reach = (reach <= np.array(deadlines) + (EPS + REACH_SLACK)).tolist()
    flat = net.flat_distances()
    n_nodes = len(net.nodes)
    chi = constraints.detour_factor
    base = [net.node_index(v.position) * n_nodes for v in vehs]
    # None for an idle vehicle, else its committed stops with deadlines.
    stops = [_committed_stops(v, base[k], registry, net, constraints, now)
             for k, v in enumerate(vehs)]
    # Both lists are sorted by id, so the keys arrive in sorted order.
    for j, req in enumerate(reqs):
        rid, rt = req.id, req.request_time
        o = net.node_index(req.origin)
        row_o = o * n_nodes
        limit = deadlines[j] + EPS
        late = deadlines[j] + (EPS + REACH_SLACK)
        leg2 = flat[row_o + net.node_index(req.destination)]
        ride_limit = chi * req.direct_duration + EPS
        route = (Stop(req.origin, rid, PICKUP), Stop(req.destination, rid, DROPOFF))
        for k, veh in enumerate(vehs):
            if not can_reach[k][j]:
                continue
            if stops[k] is None:
                # An idle vehicle has one stop order, pickup then dropoff:
                # best_route's arithmetic for it, in the same order.
                if veh.capacity < 1:
                    continue
                leg1 = flat[base[k] + o]
                arrive = max(now + leg1 / speed, rt)
                total = leg1 + leg2  # best_route's 0.0 + leg1 is leg1
                drop = arrive + leg2 / speed
                if total < _INF and arrive <= limit and drop - arrive <= ride_limit:
                    rv[(rid, veh.id)] = RouteResult(route, total, {rid: arrive},
                                                    {rid: drop})
                continue
            # The pickup comes before or after each committed stop s.  Skip
            # the pair when, for some s, both orders miss a deadline even on
            # shortest paths (REACH_SLACK covers the rounding, as above).
            at_o = max(now + flat[base[k] + o] / speed, rt)
            for s, row_s, to_s, due in stops[k]:
                if (at_o + flat[row_o + s] / speed > due
                        and max(now + (to_s + flat[row_s + o]) / speed, rt) > late):
                    break
            else:
                found = best_route(veh, [req], registry, net, constraints, now)
                if found is not None:
                    rv[(rid, veh.id)] = found
    return rv


def _committed_stops(
    vehicle: Vehicle,
    base: int,
    registry: Mapping[str, Request],
    net: RoadNetwork,
    constraints: Constraints,
    now: float,
) -> list[tuple[int, int, float, float]] | None:
    """The reach-bound view of a vehicle's commitments; None when idle.

    One record per committed stop with an absolute deadline, an onboard
    rider's dropoff or an assigned rider's pickup: its node index, the
    start of its row in ``flat_distances``, the distance to it from the
    vehicle's position (``base`` is the start of that row), and its
    deadline plus ``EPS + REACH_SLACK``.  The times match best_route's.
    """
    if not vehicle.onboard and not vehicle.assigned:
        return None
    flat = net.flat_distances()
    n_nodes = len(net.nodes)
    slack = EPS + REACH_SLACK
    out = []
    for req, onboard, at in _commitments(vehicle, registry, constraints, now):
        if onboard:
            node = req.destination
            deadline = at + constraints.detour_factor * req.direct_duration
        else:
            node, deadline = req.origin, at
        s = net.node_index(node)
        out.append((s, s * n_nodes, flat[base + s], deadline + slack))
    return out


def _commitments(
    vehicle: Vehicle,
    registry: Mapping[str, Request],
    constraints: Constraints,
    now: float,
) -> Iterator[tuple[Request, bool, float]]:
    """Each committed rider as ``(request, onboard, at)``: ``at`` is an
    onboard rider's ride start (its ``pickup_time``, else ``now``) or an
    assigned rider's stored ``pickup_deadline``, else ``pickup_deadline``."""
    for rid in vehicle.onboard:
        req = registry[rid]
        yield req, True, req.pickup_time if req.pickup_time is not None else now
    for rid in vehicle.assigned:
        req = registry[rid]
        yield req, False, (
            req.pickup_deadline
            if req.pickup_deadline is not None
            else pickup_deadline(req, now, constraints)
        )


def enumerate_trips(
    rv: Mapping[tuple[str, str], RouteResult],
    vehicles: Iterable[Vehicle],
    requests: Iterable[Request],
    net: RoadNetwork,
    constraints: Constraints,
    now: float,
    registry: Mapping[str, Request] | None = None,
) -> RtvGraph:
    """Exhaustive trip enumeration from the routes ``build_rv_graph`` gives.

    A request set of size k is only tried for a vehicle when all of its
    size-(k-1) subsets were feasible for that vehicle (and a pair only when
    ``pair_shareable``, asked once per pair and call, accepts it), which is
    a valid pruning because dropping a rider from a feasible route stays
    feasible.  Trips stop at MAX_ROUTE_STOPS // 2 requests; ``best_route``
    enforces each vehicle's own capacity.  An idle vehicle skips a pair
    when neither pickup order reaches the second pickup by its deadline,
    even on shortest paths from the first pickup time of its single's
    route.  Idle twins are enumerated once: an idle vehicle's routes
    depend only on its position and capacity (``build_rv_graph`` gives
    twins the same singles), so an idle vehicle whose (position, capacity)
    an earlier one already had gets a copy of that vehicle's trips under
    its own id, with no route search.
    """
    reqs = sorted(requests, key=lambda r: r.id)
    vehs = sorted(vehicles, key=lambda v: v.id)
    registry = {**(registry or {}), **{r.id: r for r in reqs}}
    shareable: dict[tuple[str, ...], bool] = {}  # pair_shareable per probed pair
    tv_edges: dict[tuple[tuple[str, ...], str], Trip] = {}
    flat = net.flat_distances()
    n_nodes = len(net.nodes)
    speed = net.speed
    # Per request: origin node index, release time, and latest pickup plus
    # EPS + REACH_SLACK, as in build_rv_graph's reach bound.
    pickup = {
        r.id: (net.node_index(r.origin), r.request_time,
               pickup_deadline(r, now, constraints) + (EPS + REACH_SLACK))
        for r in reqs
    }
    # rv is in sorted key order, so each vehicle's singles are too.
    routes_of: dict[str, dict[str, RouteResult]] = {}
    for (rid, vid), found in rv.items():
        if rid in pickup:
            routes_of.setdefault(vid, {})[rid] = found

    # The trips of the first idle vehicle at each (position, capacity).
    idle_trips: dict[tuple[str, int], list[Trip]] = {}
    for veh in vehs:
        idle = not veh.onboard and not veh.assigned
        twin = idle_trips.get((veh.position, veh.capacity)) if idle else None
        if twin is not None:
            vid = veh.id
            for t in twin:
                tv_edges[(t.requests, vid)] = Trip(
                    t.requests, vid, t.route, t.incremental_distance,
                    t.total_delay, t.group_size)
            continue
        baseline = schedule_distance(veh, net)
        group_base = len(veh.committed())
        routes = routes_of.get(veh.id, {})
        singles = list(routes)
        own = [_make_trip((rid,), veh, routes[rid], baseline, group_base, registry)
               for rid in singles]
        smaller = {(rid,) for rid in singles}
        for size in range(2, min(MAX_ROUTE_STOPS // 2, len(singles)) + 1):
            candidates = [
                t + (rid,)
                for t in sorted(smaller)
                for rid in singles
                if rid > t[-1]
                and all(t[:i] + t[i + 1:] + (rid,) in smaller for i in range(size - 1))
            ]
            smaller = set()
            for key in candidates:
                if size == 2:
                    a, b = key
                    o_a, release_a, late_a = pickup[a]
                    o_b, release_b, late_b = pickup[b]
                    if idle and (
                            max(routes[a].pickup_times[a] + flat[o_a * n_nodes + o_b] / speed,
                                release_b) > late_b
                            and max(routes[b].pickup_times[b]
                                    + flat[o_b * n_nodes + o_a] / speed,
                                    release_a) > late_a):
                        continue
                    if key not in shareable:
                        shareable[key] = pair_shareable(registry[a], registry[b],
                                                        net, constraints)
                    if not shareable[key]:
                        continue
                found = best_route(
                    veh, [registry[r] for r in key], registry, net, constraints, now
                )
                if found is None:
                    continue
                smaller.add(key)
                own.append(_make_trip(key, veh, found, baseline, group_base, registry))
        for t in own:
            tv_edges[(t.requests, t.vehicle)] = t
        if idle:
            idle_trips[(veh.position, veh.capacity)] = own

    return RtvGraph(
        requests=[r.id for r in reqs],
        vehicles=[v.id for v in vehs],
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
    return Trip(
        requests=key,
        vehicle=veh.id,
        route=found.route,
        incremental_distance=found.total_distance - baseline,
        total_delay=sum(
            found.dropoff_times[r]
            - (registry[r].request_time + registry[r].direct_duration)
            for r in key
        ),
        group_size=group_base + len(key),
    )


def build_rtv_graph(
    requests: Iterable[Request],
    vehicles: Iterable[Vehicle],
    net: RoadNetwork,
    now: float,
    constraints: Constraints,
    registry: Mapping[str, Request] | None = None,
) -> RtvGraph:
    """Convenience: request-vehicle routes then trip enumeration in one call."""
    reqs = list(requests)
    vehs = list(vehicles)
    rv = build_rv_graph(reqs, vehs, net, now, constraints, registry=registry)
    return enumerate_trips(rv, vehs, reqs, net, constraints, now, registry=registry)


def apply_market_structure(
    graph: RtvGraph,
    structure: MarketStructure,
    platform_of_request: Mapping[str, str],
    platform_of_vehicle: Mapping[str, str],
) -> RtvGraph:
    """Filter the trip graph down to what one market structure permits.

    Single keeps everything.  Segmented keeps only same-platform trips
    served by that platform's vehicles.  Cooperative dissolves boundaries
    within the alliance, every platform when none is named.  The trading
    and marketplace structures start from the segmented graph; their
    cross-platform edges come from the trading or auction stage, not from
    matching.
    """

    def platform_of(of: Mapping[str, str], kind: str, eid: str) -> str:
        try:
            return of[eid]
        except KeyError:
            raise ValidationError(f"{kind} {eid!r} has no platform") from None

    if structure.kind == "cooperative" and structure.alliance:
        alliance = structure.alliance
        def _group(platform: str) -> str:
            return "__alliance__" if platform in alliance else platform
    elif structure.kind in ("single", "cooperative"):
        # the default alliance is every platform, fleetless ones included
        def _group(platform: str) -> str:
            return "__pool__"
    else:
        def _group(platform: str) -> str:
            return platform

    # Per call: the one group of a trip key's requests (None when they span
    # several), and each vehicle's group, looked up where the edge loop
    # first needs them, so an unmapped id raises at the same edge.
    key_group: dict[tuple[str, ...], str | None] = {}
    vehicle_group: dict[str, str] = {}
    tv = {}
    for (key, vid), trip in graph.tv_edges.items():
        if key not in key_group:
            groups = {_group(platform_of(platform_of_request, "request", r)) for r in key}
            key_group[key] = groups.pop() if len(groups) == 1 else None
        group = key_group[key]
        if group is None:
            continue
        if vid not in vehicle_group:
            vehicle_group[vid] = _group(platform_of(platform_of_vehicle, "vehicle", vid))
        if vehicle_group[vid] == group:
            tv[(key, vid)] = trip
    return RtvGraph(
        requests=list(graph.requests),
        vehicles=list(graph.vehicles),
        tv_edges=tv,
    )
