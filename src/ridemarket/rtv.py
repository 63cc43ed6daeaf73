"""Shareability graphs: request-vehicle and trip level.

The construction follows the usual two-stage pattern: the feasible
request-vehicle pairs first, then exhaustive trip enumeration that only
considers request sets whose subsets were already feasible.  The
request-vehicle edges are exact: ``best_route`` is the only stop-order
search, and what skips it is exact too.  An idle vehicle's single has one
stop order and its request pair six, three for each rider picked up
first; both are computed in closed form with ``best_route``'s own float
operations, in its order, and give the ``Trip`` it would.  Reach bounds on
shortest paths skip a pair whose earliest pickup, computed once per pair,
misses its deadline, or that makes a committed stop miss its own, and, for
every vehicle, a request pair whose second pickup comes too late in either
order; idle vehicles with the same position and capacity are searched
once.  The search, the closed forms and every reach bound read one table
of stop records (``stop_table``): each build makes one, which holds its
sorted requests and vehicles, and both stages read it.  Trip enumeration
also tests each request pair it tries with ``pair_shareable``, a heuristic
probe, not a relaxation: it can reject a pair that a real vehicle could
serve together.  A market structure acts on the finished graph purely as
a subgraph filter.

The engine builds the graph once per decision stage (bilateral once more
after its match).  The auction, matching and central trading solve
restrictions of it (``RtvGraph.restrict``), equal to the subset's build.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, NamedTuple

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
_POOLED = object()  # group of pooled platforms, equal to no platform id
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


class StopTable(NamedTuple):
    """One graph build's inputs and stop records, made by ``stop_table``.

    ``requests`` and ``vehicles`` are the build's, sorted by id.  ``riders``
    maps each request id to its (pickup, dropoff) records, and ``fleet``
    each vehicle id to the node index of its position, the records of the
    riders its schedule holds (none when it is idle) and the length of its
    committed route (``schedule_distance``).
    """

    net: RoadNetwork
    now: float
    constraints: Constraints
    requests: list[Request]
    vehicles: list[Vehicle]
    riders: dict[str, tuple[tuple, tuple]]
    fleet: dict[str, tuple[int, tuple[tuple, ...], float]]


def stop_table(
    requests: Iterable[Request],
    vehicles: Iterable[Vehicle],
    registry: Mapping[str, Request],
    net: RoadNetwork,
    constraints: Constraints,
    now: float,
) -> StopTable:
    """The snapshot of one build: its requests and vehicles sorted by id,
    and every stop record that ``best_route`` and the reach bounds read.

    Raises ValidationError for a request without direct-trip values, for
    a scheduled pickup whose request has no stored ``pickup_deadline`` and
    for an onboard rider without a ``pickup_time``.

    A record is ``(request, kind, node, node index, limit, aux, late)``.  A
    pickup must arrive by ``limit``, its deadline plus EPS, and not before
    ``aux``, the release time.  A dropoff must arrive within ``limit`` of
    the ride start: ``aux`` for a rider already onboard, else the arrival
    at the pickup.  ``late`` is the stop's absolute deadline plus
    ``EPS + REACH_SLACK``, or None for a dropoff timed from its pickup.  A
    new request's deadline is ``pickup_deadline``.  A vehicle's records come
    from one pass over its schedule: a pickup stop gives its rider's pickup,
    at the stored ``pickup_deadline``, and dropoff records; a dropoff stop
    whose rider has no pickup in the schedule is an onboard rider's, whose
    ride started at its ``pickup_time``.  ``registry`` must
    cover the scheduled riders, and ``requests`` take precedence over it.
    """
    chi = constraints.detour_factor
    slack = EPS + REACH_SLACK
    index = net.node_index

    def pickup(req: Request, deadline: float) -> tuple:
        return (req.id, PICKUP, req.origin, index(req.origin), deadline + EPS,
                req.request_time, deadline + slack)

    def dropoff(req: Request, start: float | None = None) -> tuple:
        late = None if start is None else (start + chi * req.direct_duration) + slack
        return (req.id, DROPOFF, req.destination, index(req.destination),
                chi * req.direct_duration + EPS, start, late)

    requests = sorted(requests, key=lambda r: r.id)
    vehicles = sorted(vehicles, key=lambda v: v.id)
    for r in requests:
        if r.direct_duration <= 0:
            raise ValidationError(
                f"request {r.id} has no direct-trip values; "
                "call fill_direct() before building graphs"
            )
    riders = {r.id: (pickup(r, pickup_deadline(r, now, constraints)), dropoff(r))
              for r in requests}
    registry = {**registry, **{r.id: r for r in requests}}
    fleet = {}
    for veh in vehicles:
        recs: list[tuple] = []
        picked = set()  # riders whose pickup the schedule holds
        for stop in veh.schedule:
            req = registry[stop.request]
            if stop.kind == PICKUP:
                if req.pickup_deadline is None:
                    raise ValidationError(
                        f"request {req.id} is scheduled for pickup but has no "
                        "stored pickup_deadline")
                picked.add(req.id)
                recs += pickup(req, req.pickup_deadline), dropoff(req)
            elif req.id not in picked:
                if req.pickup_time is None:
                    raise ValidationError(
                        f"request {req.id} is onboard but has no pickup_time")
                recs.append(dropoff(req, req.pickup_time))
        fleet[veh.id] = (index(veh.position), tuple(recs), schedule_distance(veh, net))
    return StopTable(net, now, constraints, requests, vehicles, riders, fleet)


def best_route(
    vehicle: Vehicle,
    new_requests: Iterable[Request],
    stops: StopTable,
) -> Trip | None:
    """The trip of a minimum-distance feasible stop order serving the
    vehicle's commitments plus the new riders.

    Returns None when no order satisfies capacity, pickup deadlines and the
    per-rider detour bound.  The search is an exhaustive depth-first walk
    over stop permutations with distance and deadline pruning, capped at
    MAX_ROUTE_STOPS stops.  Stops are tried in ``(request, kind)`` order and
    only a strictly shorter route replaces the best, so among equally short
    routes the first in that order wins.  ``stops`` must hold the vehicle
    and every new request.  The trip's ``requests`` are the new riders'
    ids, sorted; its delay sums over them in that order.
    """
    position, committed, baseline = stops.fleet[vehicle.id]
    new = {req.id: req for req in new_requests}
    recs = list(committed)
    for rid in new:
        recs += stops.riders[rid]
    if len(recs) > MAX_ROUTE_STOPS:
        return None
    if not recs:
        return Trip((), vehicle.id, (), 0.0 - baseline, 0, 0)
    recs.sort(key=_STOP_ORDER)

    # Per-stop columns; col holds each stop's node index.  Sorting puts a
    # rider's dropoff right before its pickup, so a dropoff with no aux
    # waits for stop i + 1 and reads the ride start from start[i + 1],
    # where the search writes the arrival at that pickup.
    n = len(recs)
    ids, kinds, nodes, col, limit, aux, _ = zip(*recs)
    start = list(aux)
    bits = _BITS
    net = stops.net
    n_nodes = len(net.nodes)
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

    # every rider has a dropoff record; an onboard one has no pickup record
    group_size = kinds.count(DROPOFF)
    recurse(position * n_nodes, stops.now, 0.0, group_size - kinds.count(PICKUP), 0, 0)
    if best_order is None:
        return None
    at = [0.0] * n  # arrival at each stop
    for i, t in zip(best_order, best_times):
        at[i] = t
    return Trip(
        requests=tuple(sorted(new)),
        vehicle=vehicle.id,
        route=tuple(Stop(nodes[i], ids[i], kinds[i]) for i in best_order),
        incremental_distance=best_dist - baseline,
        # the stops are in id order, so the delays sum in id order
        total_delay=sum(at[i] - (new[rid].request_time + new[rid].direct_duration)
                        for i, rid in enumerate(ids)
                        if kinds[i] == DROPOFF and rid in new),
        group_size=group_size,
    )


def _idle_pair(vehicle: Vehicle, a: Request, b: Request, stops: StopTable) -> Trip | None:
    """``best_route(vehicle, [a, b], stops)`` for an idle vehicle and two
    new riders with ``a.id < b.id``, in closed form.

    ``half(p, q)`` evaluates the three stop orders that pick up p's rider
    first: p's rider alone and then q's, and both aboard with p's or with
    q's rider dropped first.  Each order's times and length use
    ``best_route``'s float operations in its order.  The search tries the
    stop records in the order (D_a, P_a, D_b, P_b), so it meets the six
    orders as ``candidates`` lists them, and only a strictly shorter order
    replaces the best; so the result equals the search's.
    """
    if vehicle.capacity < 1:
        return None
    both = vehicle.capacity >= 2  # both riders may be on board at once
    net = stops.net
    flat = net.flat_distances()
    n, speed, now = len(net.nodes), net.speed, stops.now
    position, _, baseline = stops.fleet[vehicle.id]
    row = position * n

    def half(p: tuple, q: tuple) -> tuple:
        # (length, stop records, drop of p, drop of q) of each feasible order,
        # else None
        (pp, dp), (pq, dq) = p, q
        # record fields 3, 4 and 5: node index, limit and release time
        op, xp, oq, xq = pp[3], dp[3], pq[3], dq[3]
        l0 = flat[row + op]
        t0 = max(now + l0 / speed, pp[5])
        if t0 > pp[4]:
            return None, None, None
        # P_p D_p P_q D_q
        l1 = flat[op * n + xp]
        t1 = t0 + l1 / speed
        l2 = flat[xp * n + oq]
        t2 = max(t1 + l2 / speed, pq[5])
        l3 = flat[oq * n + xq]
        t3 = t2 + l3 / speed
        alone = ((l0 + l1 + l2 + l3, (pp, dp, pq, dq), t1, t3)
                 if t1 - t0 <= dp[4] and t2 <= pq[4] and t3 - t2 <= dq[4] else None)
        l1 = flat[op * n + oq]
        t1 = max(t0 + l1 / speed, pq[5])
        if not both or t1 > pq[4]:
            return alone, None, None
        # P_p P_q D_p D_q
        l2 = flat[oq * n + xp]
        t2 = t1 + l2 / speed
        l3 = flat[xp * n + xq]
        t3 = t2 + l3 / speed
        p_out = ((l0 + l1 + l2 + l3, (pp, pq, dp, dq), t2, t3)
                 if t2 - t0 <= dp[4] and t3 - t1 <= dq[4] else None)
        # P_p P_q D_q D_p
        l2 = flat[oq * n + xq]
        t2 = t1 + l2 / speed
        l3 = flat[xq * n + xp]
        t3 = t2 + l3 / speed
        q_out = ((l0 + l1 + l2 + l3, (pp, pq, dq, dp), t3, t2)
                 if t2 - t1 <= dq[4] and t3 - t0 <= dp[4] else None)
        return alone, p_out, q_out

    # x_out_y: x's rider picked up first and y's dropped first
    a_alone, a_out_a, a_out_b = half(stops.riders[a.id], stops.riders[b.id])
    b_alone, b_out_b, b_out_a = half(stops.riders[b.id], stops.riders[a.id])
    candidates = (a_alone, a_out_a, a_out_b, b_out_a, b_out_b, b_alone)
    best, found = _INF, None
    for cand in candidates:
        if cand is not None and cand[0] < best:
            best, found = cand[0], cand
    if found is None:
        return None
    _, order, drop_p, drop_q = found
    # the route starts with the pickup of p's rider
    drop_a, drop_b = (drop_p, drop_q) if order[0][0] == a.id else (drop_q, drop_p)
    return Trip(
        requests=(a.id, b.id),
        vehicle=vehicle.id,
        route=tuple(Stop(rec[2], rec[0], rec[1]) for rec in order),
        incremental_distance=best - baseline,
        # best_route sums the delays in id order, from 0
        total_delay=sum((drop_a - (a.request_time + a.direct_duration),
                         drop_b - (b.request_time + b.direct_duration))),
        group_size=2,
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
    stops = stop_table([earlier, later], [probe], {}, net, constraints,
                       now=earlier.request_time)
    a, b = sorted((first, second), key=lambda r: r.id)
    return _idle_pair(probe, a, b, stops) is not None  # the probe is idle


def build_rv_graph(stops: StopTable) -> dict[tuple[str, str], Trip]:
    """The one-request trip of each feasible (request id, vehicle id) pair
    of the build ``stops`` holds, keyed in sorted order.

    Each pair's earliest pickup is computed once: ``max(now + leg / speed,
    release)`` on the shortest path from the vehicle, as no stop order
    beats it.  A pair whose earliest pickup misses the pickup's ``late``
    (record field 6) has no feasible route.  An idle vehicle's pair is
    then computed in closed form, a busy vehicle's goes through the
    committed-stop bound below and then ``best_route``.
    """
    reqs, vehs, net, now = stops.requests, stops.vehicles, stops.net, stops.now
    rv: dict[tuple[str, str], Trip] = {}
    speed = net.speed
    flat = net.flat_distances()
    n_nodes = len(net.nodes)
    fleet = [stops.fleet[v.id] for v in vehs]
    rows = [position * n_nodes for position, _, _ in fleet]
    # None for an idle vehicle, else its committed stops with an absolute
    # deadline, an onboard rider's dropoff or an assigned rider's pickup:
    # node index, start of its row in ``flat``, distance to it from the
    # vehicle, and ``late``.
    bounds = [[(s, s * n_nodes, flat[row_v + s], due)
               for _, _, _, s, _, _, due in committed if due is not None]
              if committed else None
              for row_v, (_, committed, _) in zip(rows, fleet)]
    # Both lists are sorted by id, so the keys arrive in sorted order.
    for req in reqs:
        rid = req.id
        (_, _, _, o, limit, rt, late), (_, _, _, d, ride_limit, _, _) = stops.riders[rid]
        row_o = o * n_nodes
        leg2 = flat[row_o + d]
        route = (Stop(req.origin, rid, PICKUP), Stop(req.destination, rid, DROPOFF))
        for veh, row_v, bound in zip(vehs, rows, bounds):
            leg1 = flat[row_v + o]
            at_o = max(now + leg1 / speed, rt)  # the earliest pickup
            if at_o > late:
                continue
            if bound is None:
                # An idle vehicle has one stop order, pickup then dropoff:
                # best_route's arithmetic for it, in the same order.
                if veh.capacity < 1:
                    continue
                total = leg1 + leg2  # best_route's 0.0 + leg1 is leg1
                drop = at_o + leg2 / speed
                if total < _INF and at_o <= limit and drop - at_o <= ride_limit:
                    rv[(rid, veh.id)] = Trip(
                        (rid,), veh.id, route, total,
                        drop - (req.request_time + req.direct_duration), 1)
                continue
            # The pickup comes before or after each committed stop s.  Skip
            # the pair when, for some s, both orders miss a deadline even on
            # shortest paths (REACH_SLACK in ``late`` covers the rounding).
            for s, row_s, to_s, due in bound:
                if (at_o + flat[row_o + s] / speed > due
                        and max(now + (to_s + flat[row_s + o]) / speed, rt) > late):
                    break
            else:
                found = best_route(veh, [req], stops)
                if found is not None:
                    rv[(rid, veh.id)] = found
    return rv


def enumerate_trips(
    rv: Mapping[tuple[str, str], Trip],
    stops: StopTable,
) -> RtvGraph:
    """Exhaustive trip enumeration from the one-request trips
    ``build_rv_graph`` gives for the same ``stops``, which it keeps as they
    are.

    A request set of size k is only tried for a vehicle when all of its
    size-(k-1) subsets were feasible for that vehicle (and a pair only when
    ``pair_shareable``, asked once per pair and call, accepts it), which is
    a valid pruning because dropping a rider from a feasible route stays
    feasible.  Trips stop at MAX_ROUTE_STOPS // 2 requests; ``best_route``
    enforces each vehicle's own capacity.  Every vehicle skips a pair when
    neither pickup order reaches the second pickup by its deadline, even on
    shortest paths from the earliest first pickup: committed stops and
    waits only add time.  An idle vehicle's pair trips come from
    ``_idle_pair``, a closed form equal to ``best_route``.  Idle twins are
    enumerated once: an idle vehicle's routes depend only on its position
    and capacity (``build_rv_graph`` gives twins equal singles), so an idle
    vehicle whose (position, capacity) an earlier one already had gets a
    copy of that vehicle's larger trips under its own id, with no route
    search.
    """
    net, now, riders = stops.net, stops.now, stops.riders
    by_id = {r.id: r for r in stops.requests}
    shareable: dict[tuple[str, ...], bool] = {}  # pair_shareable per probed pair
    tv_edges: dict[tuple[tuple[str, ...], str], Trip] = {}
    flat = net.flat_distances()
    n_nodes = len(net.nodes)
    speed = net.speed

    # Each vehicle's singles, in request id order as rv's keys are sorted.
    singles_of: dict[str, list[Trip]] = {v.id: [] for v in stops.vehicles}
    for (_, vid), trip in rv.items():
        singles_of[vid].append(trip)
    # The trips of the first idle vehicle at each (position, capacity).
    idle_trips: dict[tuple[str, int], list[Trip]] = {}
    for veh in stops.vehicles:
        vid = veh.id
        own = singles_of[vid]
        twin = idle_trips.get((veh.position, veh.capacity)) if veh.idle else None
        if twin is not None:
            # its singles equal the twin's; the larger trips are copied
            own += [Trip(t.requests, vid, t.route, t.incremental_distance,
                         t.total_delay, t.group_size)
                    for t in twin if len(t.requests) > 1]
            for t in own:
                tv_edges[(t.requests, vid)] = t
            continue
        singles = [t.requests[0] for t in own]
        smaller = {t.requests for t in own}
        # Each single's pickup is reached no earlier than on the shortest
        # path from the vehicle, even with committed stops and waits first:
        # (that time, node index, release, late).
        row_v = stops.fleet[vid][0] * n_nodes
        earliest = {}
        for rid in singles:
            _, _, _, o, _, release, late = riders[rid][0]
            earliest[rid] = (max(now + flat[row_v + o] / speed, release), o, release, late)
        for size in range(2, min(MAX_ROUTE_STOPS // 2, len(singles)) + 1):
            # every one-request subset of a pair is a single
            candidates = [
                t + (rid,)
                for t in sorted(smaller)
                for rid in singles
                if rid > t[-1]
                and (size == 2 or all(t[:i] + t[i + 1:] + (rid,) in smaller
                                      for i in range(size - 1)))
            ]
            smaller = set()
            for key in candidates:
                if size == 2:
                    # Skip the pair when neither pickup order reaches the
                    # second pickup by its ``late`` on shortest paths
                    # (REACH_SLACK in ``late`` covers the rounding).
                    a, b = key
                    at_a, o_a, release_a, late_a = earliest[a]
                    at_b, o_b, release_b, late_b = earliest[b]
                    if (max(at_a + flat[o_a * n_nodes + o_b] / speed, release_b) > late_b
                            and max(at_b + flat[o_b * n_nodes + o_a] / speed,
                                    release_a) > late_a):
                        continue
                    if key not in shareable:
                        shareable[key] = pair_shareable(by_id[a], by_id[b],
                                                        net, stops.constraints)
                    if not shareable[key]:
                        continue
                if size == 2 and veh.idle:
                    found = _idle_pair(veh, by_id[key[0]], by_id[key[1]], stops)
                else:
                    found = best_route(veh, [by_id[r] for r in key], stops)
                if found is None:
                    continue
                smaller.add(key)
                own.append(found)
        for t in own:
            tv_edges[(t.requests, vid)] = t
        if veh.idle:
            idle_trips[(veh.position, veh.capacity)] = own

    return RtvGraph(
        requests=[r.id for r in stops.requests],
        vehicles=[v.id for v in stops.vehicles],
        tv_edges=tv_edges,
    )


def build_rtv_graph(
    requests: Iterable[Request],
    vehicles: Iterable[Vehicle],
    net: RoadNetwork,
    now: float,
    constraints: Constraints,
    registry: Mapping[str, Request] | None = None,
) -> RtvGraph:
    """Request-vehicle routes, then trip enumeration, on one stop table.

    When any vehicle already carries commitments, ``registry`` must also
    cover those riders so their stops can be re-planned.
    """
    stops = stop_table(requests, vehicles, registry or {}, net, constraints, now)
    return enumerate_trips(build_rv_graph(stops), stops)


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
        def _group(platform: str) -> object:
            return _POOLED if platform in alliance else platform
    elif structure.kind in ("single", "cooperative"):
        # the default alliance is every platform, fleetless ones included
        def _group(platform: str) -> object:
            return _POOLED
    else:
        def _group(platform: str) -> object:
            return platform

    # Per call: the one group of a trip key's requests (None when they span
    # several), and each vehicle's group, looked up where the edge loop
    # first needs them, so an unmapped id raises at the same edge.
    key_group: dict[tuple[str, ...], object] = {}
    vehicle_group: dict[str, object] = {}
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
