"""Shareability graphs: route search oracle, trip closure, structure filters."""
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ridemarket import rtv
from ridemarket.errors import ValidationError
from ridemarket.model import DROPOFF, PICKUP, Request, Stop, Trip, Vehicle, fill_direct
from ridemarket.network import RoadNetwork, make_grid
from ridemarket.rtv import (
    EPS,
    MAX_ROUTE_STOPS,
    Constraints,
    MarketStructure,
    apply_market_structure,
    best_route,
    build_rtv_graph,
    build_rv_graph,
    pair_shareable,
    stop_table,
)


def _riders(vehicle, requests, registry, constraints, now):
    """Each rider's request and pickup deadline, None when onboard.

    The vehicle's riders are those of its schedule.  Onboard riders, with
    only a dropoff stop left, need only their dropoff, timed from their
    pickup_time; assigned riders, whose pickup stop is scheduled, keep their
    pickup_deadline.
    """
    assigned = {s.request for s in vehicle.schedule if s.kind == PICKUP}
    riders = {}
    for stop in vehicle.schedule:
        r = registry[stop.request]
        riders[r.id] = (r, r.pickup_deadline if r.id in assigned else None)
    for r in requests:
        riders[r.id] = (r, min(r.request_time + constraints.max_wait_s,
                               now + constraints.max_pickup_s))
    return riders


def _replay(vehicle, order, riders, net, constraints, now):
    """Drive one stop order from the vehicle's position at now under the
    feasibility rules.  Returns (distance, pickup times, dropoff times),
    each time dict in visiting order, or None when a stop breaks a bound.
    """
    pos, time, dist = vehicle.position, now, 0.0
    picked = {rid: r.pickup_time for rid, (r, deadline) in riders.items()
              if deadline is None}
    load = len(picked)
    pickups, dropoffs = {}, {}
    for stop in order:
        r, deadline = riders[stop.request]
        leg = net.distance_or_inf(pos, stop.node)
        arrive = time + leg / net.speed
        if leg == float("inf"):
            return None
        if stop.kind == PICKUP:
            arrive = max(arrive, r.request_time)
            if load + 1 > vehicle.capacity or arrive > deadline + EPS:
                return None
            picked[r.id] = pickups[r.id] = arrive
            load += 1
        elif r.id not in picked or (
            arrive - picked[r.id]
            > constraints.detour_factor * r.direct_duration + EPS
        ):
            return None
        else:
            dropoffs[r.id] = arrive
            load -= 1
        pos, time, dist = stop.node, arrive, dist + leg
    return dist, pickups, dropoffs


def _route_oracle(vehicle, requests, registry, net, constraints, now):
    """Exhaustive stop-permutation search mirroring the feasibility rules.

    Takes the first minimum-distance feasible order in
    itertools.permutations order over the stops sorted by (request, kind).
    Returns the Trip best_route should give for it, with that order's
    pickup and dropoff times, or None when no order is feasible.
    """
    riders = _riders(vehicle, requests, registry, constraints, now)
    stops = []
    for rid, (r, deadline) in riders.items():
        if deadline is not None:
            stops.append(Stop(r.origin, rid, PICKUP))
        stops.append(Stop(r.destination, rid, DROPOFF))
    if len(stops) > MAX_ROUTE_STOPS:
        return None
    stops.sort(key=lambda s: (s.request, s.kind))
    best = None
    for order in itertools.permutations(stops):
        run = _replay(vehicle, order, riders, net, constraints, now)
        if run is not None and (best is None or run[0] < best[1][0]):
            best = (order, run)
    if best is None:
        return None
    order, (dist, pickups, dropoffs) = best
    ids = sorted(r.id for r in requests)
    trip = Trip(
        requests=tuple(ids),
        vehicle=vehicle.id,
        route=order,
        incremental_distance=dist - rtv.schedule_distance(vehicle, net),
        total_delay=sum(dropoffs[rid] - (riders[rid][0].request_time
                                         + riders[rid][0].direct_duration)
                        for rid in ids),
        group_size=len(riders),
    )
    return trip, pickups, dropoffs


def _search(vehicle, requests, registry, net, constraints, now):
    """best_route on a stop table over just this vehicle and these requests."""
    stops = stop_table(requests, [vehicle], registry, net, constraints, now)
    return best_route(vehicle, requests, stops)


def _rider(rng, nodes, rid, **fields):
    o, d = rng.choice(nodes, size=2, replace=False)
    return Request(id=rid, origin=o, destination=d, platform="A", **fields)


def test_best_route_matches_permutation_oracle():
    net = make_grid(5, 5, edge_len=250.0, speed=9.0)
    nodes = sorted(net.node_set())
    cons = Constraints()
    rng = np.random.default_rng(21)
    feasible = {"idle": 0, "onboard": 0, "assigned": 0}
    for trial in range(200):
        now = float(rng.integers(60, 180))
        capacity = int(rng.integers(1, 5))
        veh = Vehicle(id="v0", platform="A",
                      position=nodes[int(rng.integers(0, len(nodes)))],
                      capacity=capacity)
        committed = []
        for i in range(int(rng.integers(0, min(capacity, 2) + 1))):
            committed.append(_rider(rng, nodes, f"o{i}", request_time=0.0,
                                    pickup_time=now - float(rng.integers(0, 60))))
            veh.schedule.append(Stop(committed[-1].destination, f"o{i}", DROPOFF))
        if rng.random() < 0.5:
            committed.append(_rider(rng, nodes, "a0", request_time=now - 30.0,
                                    pickup_deadline=now + float(rng.integers(60, 400))))
            veh.schedule += [Stop(committed[-1].origin, "a0", PICKUP),
                             Stop(committed[-1].destination, "a0", DROPOFF)]
        n_new = int(rng.integers(1, 4 if not committed else 3))
        # some riders are released after now, so the vehicle may wait
        reqs = [_rider(rng, nodes, f"r{i}", request_time=float(rng.integers(0, now + 60)))
                for i in range(n_new)]
        reqs = fill_direct(net, reqs)
        registry = {r.id: r for r in fill_direct(net, committed) + reqs}
        got = _search(veh, reqs, registry, net, cons, now)
        want = _route_oracle(veh, reqs, registry, net, cons, now)
        if want is None:
            assert got is None
            continue
        trip, pickups, dropoffs = want
        assert got == trip
        riders = _riders(veh, reqs, registry, cons, now)
        _, got_pickups, got_dropoffs = _replay(veh, got.route, riders, net, cons, now)
        assert list(got_pickups.items()) == list(pickups.items())
        assert list(got_dropoffs.items()) == list(dropoffs.items())
        kinds = {stop.kind for stop in veh.schedule}
        kind = "assigned" if PICKUP in kinds else "onboard" if kinds else "idle"
        feasible[kind] += 1
    # the sample exercises the feasible branch of every kind of vehicle
    assert min(feasible.values()) >= 10, feasible


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_stop_table_serves_every_search(data):
    # best_route on the table of a whole build equals best_route on a table
    # over only the searched vehicle and requests, and the permutation oracle
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    net = make_grid(4, 4, edge_len=250.0, speed=9.0)
    nodes = sorted(net.node_set())
    cons = Constraints(max_pickup_s=float(rng.choice([120.0, 300.0])))
    now = float(rng.integers(60, 180))
    vehs, committed = [], []
    for k in range(3):  # idle, carrying a rider, and on its way to one
        veh = Vehicle(id=f"v{k}", platform="A", capacity=int(rng.integers(1, 5)),
                      position=nodes[int(rng.integers(0, len(nodes)))])
        if k == 1:
            committed.append(_rider(rng, nodes, "o1", request_time=0.0,
                                    pickup_time=now - float(rng.integers(0, 60))))
            veh.schedule = [Stop(committed[-1].destination, "o1", DROPOFF)]
        elif k == 2:
            committed.append(_rider(rng, nodes, "a2", request_time=now - 30.0,
                                    pickup_deadline=now + float(rng.integers(60, 400))))
            veh.schedule = [Stop(committed[-1].origin, "a2", PICKUP),
                            Stop(committed[-1].destination, "a2", DROPOFF)]
        vehs.append(veh)
    reqs = fill_direct(net, [
        _rider(rng, nodes, f"r{i}", request_time=float(rng.integers(0, now + 60)))
        for i in range(4)])
    registry = {r.id: r for r in fill_direct(net, committed)}
    whole = stop_table(reqs, vehs, registry, net, cons, now)
    everyone = {**registry, **{r.id: r for r in reqs}}
    for veh in vehs:
        for size in (1, 2):
            for key in itertools.combinations(reqs, size):
                searched = list(key)
                got = best_route(veh, searched, whole)
                assert got == _search(veh, searched, registry, net, cons, now)
                want = _route_oracle(veh, searched, everyone, net, cons, now)
                if want is None:
                    assert got is None
                    continue
                trip, pickups, dropoffs = want
                assert got == trip
                riders = _riders(veh, searched, everyone, cons, now)
                _, got_pickups, got_dropoffs = _replay(veh, got.route, riders, net,
                                                       cons, now)
                assert list(got_pickups.items()) == list(pickups.items())
                assert list(got_dropoffs.items()) == list(dropoffs.items())


def test_best_route_times_are_consistent():
    net = make_grid(4, 4, edge_len=300.0, speed=10.0)
    cons = Constraints()
    reqs = fill_direct(net, [
        Request(id="a", origin="0", destination="15", request_time=0.0, platform="A"),
        Request(id="b", origin="1", destination="14", request_time=10.0, platform="A"),
    ])
    veh = Vehicle(id="v0", platform="A", position="0")
    registry = {r.id: r for r in reqs}
    found = _search(veh, reqs, registry, net, cons, now=0.0)
    assert found is not None
    riders = _riders(veh, reqs, registry, cons, 0.0)
    _, pickups, dropoffs = _replay(veh, found.route, riders, net, cons, 0.0)
    for r in reqs:
        pick = pickups[r.id]
        drop = dropoffs[r.id]
        assert pick >= r.request_time
        assert drop - pick <= cons.detour_factor * r.direct_duration + EPS


def _one_way_net(rng):
    """A small directed network with non-integer edge lengths: the one-way
    cycle 1 -> ... -> k-1 -> 1 fed by 0 -> 1, plus random one-way edges,
    none into node 0.  Every node reaches another, no other node reaches
    node 0, and leg sums round."""
    k = int(rng.integers(3, 7))
    ring = [(i, i + 1) for i in range(k - 1)] + [(k - 1, 1)]
    extra = [(u, v) for u in range(k) for v in range(1, k)
             if u != v and (u, v) not in ring and rng.random() < 0.25]
    return RoadNetwork(nodes=[str(i) for i in range(k)],
                       edges=[(str(u), str(v), float(rng.uniform(50.0, 300.0)))
                              for u, v in ring + extra],
                       speed=9.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_idle_pair_closed_form_equals_the_search(data):
    # An idle vehicle's two-request trip in closed form is best_route's.
    # Small grids of equal edges tie many stop orders; one-way networks
    # give unreachable legs and inexact sums; shared nodes give zero legs;
    # releases after now make the vehicle wait; short wait bounds and a
    # detour factor of 1 bind.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        net = make_grid(int(rng.integers(2, 5)), int(rng.integers(2, 5)),
                        edge_len=float(rng.choice([180.0, 250.0])), speed=9.0)
    else:
        net = _one_way_net(rng)
    nodes = sorted(net.node_set())
    shared = list(rng.choice(nodes, size=2, replace=False))
    cons = Constraints(detour_factor=float(rng.choice([1.0, 1.25, 2.0])),
                       max_wait_s=float(rng.choice([40.0, 120.0, 300.0])),
                       max_pickup_s=float(rng.choice([40.0, 120.0, 300.0])))
    now = 60.0

    def node():
        pool = shared if rng.random() < 0.5 else nodes
        return pool[int(rng.integers(0, len(pool)))]

    def rider(rid):
        o, d = node(), node()
        while d == o or net.distance_or_inf(o, d) == float("inf"):
            d = nodes[int(rng.integers(0, len(nodes)))]
        return Request(id=rid, origin=o, destination=d, platform="A",
                       request_time=float(rng.integers(0, 2 * now)))

    a, b = fill_direct(net, [rider("a"), rider("b")])
    veh = Vehicle(id="v", platform="A", position=node(),
                  capacity=int(rng.choice([0, 1, 2, 4])))
    stops = stop_table([a, b], [veh], {}, net, cons, now)
    assert rtv._idle_pair(veh, a, b, stops) == best_route(veh, [a, b], stops)


def test_idle_pair_ties_keep_the_search_order():
    # both riders go from node 0 to node 2 and the vehicle stands at 0: all
    # four orders that carry both riders at once have the same length, and
    # the search keeps the first, both pickups then a's dropoff
    net = make_grid(1, 3, edge_len=200.0, speed=10.0)
    a, b = fill_direct(net, [
        Request(id=rid, origin="0", destination="2", request_time=0.0, platform="A")
        for rid in ("a", "b")])
    veh = Vehicle(id="v", platform="A", position="0", capacity=2)
    stops = stop_table([a, b], [veh], {}, net, Constraints(), now=0.0)
    got = rtv._idle_pair(veh, a, b, stops)
    assert got == best_route(veh, [a, b], stops)
    assert got.route == (Stop("0", "a", PICKUP), Stop("0", "b", PICKUP),
                         Stop("2", "a", DROPOFF), Stop("2", "b", DROPOFF))
    assert got.incremental_distance == 400.0 and got.group_size == 2


def test_pair_shareable_is_symmetric_and_sane():
    net = make_grid(6, 6, edge_len=400.0, speed=8.0)
    cons = Constraints()
    # identical itineraries released together are always poolable
    same = fill_direct(net, [
        Request(id="a", origin="0", destination="35", request_time=0.0, platform="A"),
        Request(id="b", origin="0", destination="35", request_time=0.0, platform="B"),
    ])
    assert pair_shareable(same[0], same[1], net, cons)
    assert pair_shareable(same[1], same[0], net, cons)
    # released too far apart in time: the second cannot wait for the first
    apart = fill_direct(net, [
        Request(id="a", origin="0", destination="35", request_time=0.0, platform="A"),
        Request(id="b", origin="35", destination="0", request_time=2000.0, platform="B"),
    ])
    assert not pair_shareable(apart[0], apart[1], net, cons)


# 200 m edges at 10 m/s: every leg takes a whole number of seconds, so a
# release time can put a pickup exactly on its deadline.
_REACH_NET = make_grid(4, 4, edge_len=200.0, speed=10.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reach_bound_keeps_exactly_the_routable_pairs(data):
    net = _REACH_NET
    node = st.sampled_from(sorted(net.node_set(), key=int))
    cons = Constraints(max_wait_s=120.0,
                       max_pickup_s=data.draw(st.sampled_from([40.0, 120.0, 300.0])))
    now = float(data.draw(st.integers(120, 400)))

    def trip(rid, **fields):
        o = data.draw(node)
        d = data.draw(node.filter(lambda x: x != o))
        return Request(id=rid, origin=o, destination=d, platform="A", **fields)

    vehicles, committed = [], []
    for k in range(data.draw(st.integers(1, 4))):
        veh = Vehicle(id=f"v{k}", platform="A", position=data.draw(node),
                      capacity=data.draw(st.integers(0, 4)))
        if data.draw(st.booleans()):
            rider = trip(f"o{k}", request_time=0.0)
            if data.draw(st.booleans()):
                start = now - data.draw(st.integers(0, 60))
            else:  # a direct dropoff uses up the detour budget, give or take
                direct = net.travel_time(rider.origin, rider.destination)
                start = (now + net.travel_time(veh.position, rider.destination)
                         - cons.detour_factor * direct + data.draw(st.integers(-20, 20)))
            rider.pickup_time = start
            committed.append(rider)
            veh.schedule.append(Stop(rider.destination, rider.id, DROPOFF))
        if data.draw(st.booleans()):
            deadline = now + data.draw(st.integers(0, 300))
            committed.append(trip(f"a{k}", request_time=now - 60.0,
                                  pickup_deadline=deadline))
            veh.schedule += [Stop(committed[-1].origin, f"a{k}", PICKUP),
                             Stop(committed[-1].destination, f"a{k}", DROPOFF)]
        vehicles.append(veh)
    reqs = []
    for i in range(data.draw(st.integers(1, 5))):
        req = trip(f"r{i}", request_time=0.0)
        by = data.draw(st.sampled_from([None] + vehicles))
        if by is None:
            earliest = max(0, int(now) - 200)
            req.request_time = float(data.draw(st.integers(earliest, int(now))))
        else:  # released so that a direct pickup by ``by`` meets max_wait_s exactly
            arrival = now + net.travel_time(by.position, req.origin)
            req.request_time = arrival - cons.max_wait_s
        reqs.append(req)
    reqs = fill_direct(net, reqs)
    registry = {r.id: r for r in fill_direct(net, committed)}

    rv = build_rv_graph(stop_table(reqs, vehicles, registry, net, cons, now))
    everyone = {**registry, **{r.id: r for r in reqs}}
    searched = {(r.id, v.id): _search(v, [r], everyone, net, cons, now)
                for r in reqs for v in vehicles}
    routable = [(key, searched[key]) for key in sorted(searched)
                if searched[key] is not None]
    # Trip equality is exact: the closed form for idle vehicles gives
    # bit-identical distances and delays
    assert list(rv.items()) == routable


def test_reach_bound_keeps_pickup_on_its_deadline():
    net = _REACH_NET
    cons = Constraints(max_wait_s=120.0, max_pickup_s=300.0)
    veh = Vehicle(id="v0", platform="A", position="0")  # 40 s from node 2
    for release, kept in ((220.0, True), (219.0, False)):
        req = fill_direct(net, [Request(id="r0", origin="2", destination="15",
                                        request_time=release, platform="A")])
        rv = build_rv_graph(stop_table(req, [veh], {}, net, cons, 300.0))
        assert list(rv) == ([("r0", "v0")] if kept else [])


def test_reach_bounds_keep_routes_within_eps_of_a_deadline():
    # Three routes, each with a single stop order that misses a deadline by
    # EPS / 2, which the route search accepts; so must the bounds.
    net = _REACH_NET  # 20 s per edge; node (row, col) is "4 * row + col"
    cons = Constraints(max_wait_s=30.0, max_pickup_s=300.0)
    now, late = 300.0, EPS / 2

    def rider(rid, o, d, release, **fields):
        return Request(id=rid, origin=o, destination=d, request_time=release,
                       platform="A", **fields)

    # r0 is due at node 1 at now + 20; r1 at node 2 at now + 40 - late
    reqs = fill_direct(net, [rider("r0", "1", "2", now - 10.0),
                             rider("r1", "2", "3", now + 10.0 - late)])
    # v0 picks r0 on the way to o0's dropoff at node 3 (100 s budget), which
    # it reaches at now + 60 = o0's deadline + late; dropping o0 first
    # leaves r0 behind.
    # v1 must drop o1 at node 1 by now + 20 (75 s budget), then picks r1.
    # Idle v2 picks r0, then r1; r1 first leaves r0 behind.  v0 and v1 can
    # do the same on their way, so the pair bound keeps all three.
    committed = fill_direct(net, [
        rider("o0", "4", "3", 0.0, pickup_time=now + 60.0 - 100.0 - late),
        rider("o1", "8", "1", 0.0, pickup_time=now + 20.0 - 75.0),
    ])
    vehs = [Vehicle(id=f"v{k}", platform="A", position="0") for k in range(3)]
    vehs[0].schedule = [Stop("3", "o0", DROPOFF)]
    vehs[1].schedule = [Stop("1", "o1", DROPOFF)]
    registry = {r.id: r for r in committed}
    rv = build_rv_graph(stop_table(reqs, vehs, registry, net, cons, now))
    everyone = {**registry, **{r.id: r for r in reqs}}
    assert ("r0", "v0") in rv and ("r1", "v1") in rv
    for (rid, vid), found in rv.items():
        veh = vehs[int(vid[1:])]
        assert found == _search(veh, [everyone[rid]], everyone, net, cons, now)
    graph = build_rtv_graph(reqs, vehs, net, now, cons, registry=registry)
    for vid in ("v0", "v1", "v2"):
        assert (("r0", "r1"), vid) in graph.tv_edges


def test_reach_slack_keeps_pickups_behind_a_committed_stop():
    # The vehicle's shortest path to both pickups runs through its committed
    # stop c, and the reach bounds' shortest-path times round one ulp above
    # the search's per-leg sums: (100 + 0.1/3) + 0.3/3 < 100 + 0.4/3, and
    # the gap survives 0.4/3 more.  Each pickup's deadline plus EPS lies on
    # the search's arrival, so only REACH_SLACK keeps a's single (the reach
    # skip of build_rv_graph) and the pair (enumerate_trips' pair reach test).
    speed, now = 3.0, 100.0
    net = RoadNetwork(nodes=["x", "c", "s", "o", "d"],
                      edges=[("x", "c", 0.1), ("c", "s", 0.3), ("s", "o", 0.4),
                             ("o", "d", 0.6)],
                      speed=speed)
    at_s = (now + 0.1 / speed) + 0.3 / speed
    at_o = at_s + 0.4 / speed
    assert at_s < now + net.distance("x", "s") / speed
    assert at_o < (now + net.distance("x", "s") / speed) + net.distance("s", "o") / speed

    def due_on(arrival):
        # a release, and with max_wait_s = 0 a deadline, whose limit is arrival
        deadline = arrival - EPS
        while deadline + EPS > arrival:
            deadline = math.nextafter(deadline, -math.inf)
        while deadline + EPS < arrival:
            deadline = math.nextafter(deadline, math.inf)
        assert deadline + EPS == arrival
        return deadline

    onboard, a, r = fill_direct(net, [
        Request(id="b", origin="x", destination="c", request_time=0.0,
                platform="A", pickup_time=now),
        Request(id="a", origin="s", destination="d", request_time=due_on(at_s),
                platform="A"),
        Request(id="r", origin="o", destination="d", request_time=due_on(at_o),
                platform="A"),
    ])
    veh = Vehicle(id="v", platform="A", position="x",
                  schedule=[Stop("c", "b", DROPOFF)])
    cons = Constraints(max_wait_s=0.0)
    stops = stop_table([a, r], [veh], {"b": onboard}, net, cons, now)
    graph = build_rtv_graph([a, r], [veh], net, now, cons, registry={"b": onboard})
    by_id = {"a": a, "r": r}
    assert graph.tv_edges == {
        (key, "v"): best_route(veh, [by_id[rid] for rid in key], stops)
        for key in (("a",), ("a", "r"), ("r",))}
    pair = graph.tv_edges[(("a", "r"), "v")]
    assert [(s.request, s.kind) for s in pair.route] == [
        ("b", DROPOFF), ("a", PICKUP), ("r", PICKUP), ("a", DROPOFF), ("r", DROPOFF)]


def test_stop_records_come_from_the_schedule():
    # a is assigned (its pickup is scheduled), b is onboard (only its dropoff)
    net = _REACH_NET
    cons = Constraints()
    now, chi, slack = 300.0, cons.detour_factor, EPS + rtv.REACH_SLACK
    a, b = fill_direct(net, [
        Request(id="a", origin="1", destination="14", request_time=250.0,
                platform="A", pickup_deadline=420.0),
        Request(id="b", origin="4", destination="2", request_time=100.0,
                platform="A", pickup_time=290.0),
    ])
    index = net.node_index
    veh = Vehicle(id="v0", platform="A", position="1",
                  schedule=[Stop("1", "a", PICKUP), Stop("2", "b", DROPOFF),
                            Stop("14", "a", DROPOFF)])
    idle = Vehicle(id="v1", platform="A", position="5")
    table = stop_table([], [veh, idle], {"a": a, "b": b}, net, cons, now)
    position, records, baseline = table.fleet["v0"]
    assert position == index("1")
    assert baseline == rtv.schedule_distance(veh, net)
    assert sorted(records, key=lambda r: (r[0], r[1])) == [
        ("a", DROPOFF, "14", index("14"), chi * a.direct_duration + EPS, None, None),
        ("a", PICKUP, "1", index("1"), 420.0 + EPS, 250.0, 420.0 + slack),
        ("b", DROPOFF, "2", index("2"), chi * b.direct_duration + EPS, 290.0,
         (290.0 + chi * b.direct_duration) + slack),
    ]
    assert idle.idle and table.fleet["v1"] == (index("5"), (), 0.0)
    # the route search starts with b onboard, counts both riders and keeps
    # the schedule, the one shortest order
    found = best_route(veh, [], table)
    assert found == Trip((), "v0", tuple(veh.schedule), 0.0, 0, 2)
    # with one seat, b onboard must leave before a boards
    veh.capacity = 1
    found = best_route(veh, [], table)
    assert [(s.request, s.kind) for s in found.route] == [
        ("b", DROPOFF), ("a", PICKUP), ("a", DROPOFF)]


def test_scheduled_pickup_needs_a_stored_deadline():
    # A committed pickup keeps the deadline it was given at commit; one
    # taken from the build's ``now`` would move later with every build.
    net = _REACH_NET
    a = fill_direct(net, [Request(id="a", origin="1", destination="14",
                                  request_time=250.0, platform="A")])[0]
    veh = Vehicle(id="v0", platform="A", position="5",
                  schedule=[Stop("1", "a", PICKUP), Stop("14", "a", DROPOFF)])
    with pytest.raises(ValidationError, match="request a .*pickup_deadline"):
        stop_table([], [veh], {"a": a}, net, Constraints(), 300.0)


def test_rv_graph_requires_direct_values():
    net = make_grid(3, 3, edge_len=200.0, speed=10.0)
    bad = Request(id="r0", origin="0", destination="8", request_time=0.0, platform="A")
    veh = Vehicle(id="v0", platform="A", position="0")
    with pytest.raises(ValidationError, match="fill_direct"):
        build_rv_graph(stop_table([bad], [veh], {}, net, Constraints(), 0.0))


def _random_instance(rng, net, nodes, n_req, n_veh):
    reqs = []
    for i in range(n_req):
        o, d = rng.choice(nodes, size=2, replace=False)
        reqs.append(Request(id=f"r{i}", origin=o, destination=d,
                            request_time=float(rng.integers(0, 60)),
                            platform=("A", "B")[i % 2]))
    reqs = fill_direct(net, reqs)
    vehs = [Vehicle(id=f"v{k}", platform=("A", "B")[k % 2],
                    position=nodes[int(rng.integers(0, len(nodes)))], capacity=4)
            for k in range(n_veh)]
    return reqs, vehs


def test_trip_enumeration_structural_properties():
    net = make_grid(5, 5, edge_len=220.0, speed=9.0)
    nodes = sorted(net.node_set())
    cons = Constraints()
    rng = np.random.default_rng(33)
    saw_pool = False
    for _ in range(25):
        reqs, vehs = _random_instance(rng, net, nodes, int(rng.integers(3, 7)), 3)
        rv = build_rv_graph(stop_table(reqs, vehs, {}, net, cons, 60.0))
        graph = build_rtv_graph(reqs, vehs, net, 60.0, cons)
        registry = {r.id: r for r in reqs}
        veh_by_id = {v.id: v for v in vehs}
        rvs = set(rv)
        for (key, vid), trip in graph.tv_edges.items():
            assert trip.requests == key
            assert trip.vehicle == vid
            if len(key) == 1:
                assert (key[0], vid) in rvs
            else:
                saw_pool = True
                for a, b in itertools.combinations(key, 2):
                    assert pair_shareable(registry[a], registry[b], net, cons)
                # closure: dropping any rider leaves a feasible trip
                for r in key:
                    sub = tuple(sorted(set(key) - {r}))
                    assert (sub, vid) in graph.tv_edges
            # route visits each rider's pickup before its dropoff
            seen = set()
            for stop in trip.route:
                if stop.kind == "dropoff":
                    assert ("pickup", stop.request) in seen
                seen.add((stop.kind, stop.request))
            # every rider's delay, replayed on the route search's route, is
            # non-negative and sums in key order to the trip's total
            searched = [registry[r] for r in key]
            found = _search(veh_by_id[vid], searched, registry, net, cons, 60.0)
            riders = _riders(veh_by_id[vid], searched, registry, cons, 60.0)
            _, _, dropoffs = _replay(veh_by_id[vid], found.route, riders, net, cons, 60.0)
            delays = [dropoffs[r]
                      - (registry[r].request_time + registry[r].direct_duration)
                      for r in key]
            assert all(d >= -EPS for d in delays)
            assert sum(delays) == trip.total_delay
    assert saw_pool


def test_rtv_build_searches_each_route_once(monkeypatch):
    # the rv stage hands each single's trip to trip enumeration, so one
    # build searches each (vehicle, request set) at most once
    net = make_grid(5, 5, edge_len=220.0, speed=9.0)
    nodes = sorted(net.node_set())
    cons = Constraints()
    rng = np.random.default_rng(5)
    now = 60.0
    searched: Counter = Counter()
    built = []
    search, build_rv = rtv.best_route, rtv.build_rv_graph

    def counted_search(vehicle, new_requests, *args, **kwargs):
        new_requests = list(new_requests)
        searched[(vehicle.id, frozenset(r.id for r in new_requests))] += 1
        return search(vehicle, new_requests, *args, **kwargs)

    def kept_build(*args, **kwargs):
        built.append(build_rv(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(rtv, "best_route", counted_search)
    monkeypatch.setattr(rtv, "build_rv_graph", kept_build)
    pooled = set()
    busy_pairs = 0
    for _ in range(12):
        reqs, vehs = _random_instance(rng, net, nodes, 6, 3)
        onboard = _rider(rng, nodes, "o0", request_time=0.0, pickup_time=now - 20.0)
        assigned = _rider(rng, nodes, "a0", request_time=now - 30.0,
                          pickup_deadline=now + 240.0)
        committed = fill_direct(net, [onboard, assigned])
        vehs[1].schedule = [Stop(onboard.destination, "o0", DROPOFF)]
        vehs[2].schedule = [Stop(assigned.origin, "a0", PICKUP),
                            Stop(assigned.destination, "a0", DROPOFF)]
        # v3 is idle v0's twin, whose trips are copied with no search
        vehs.append(Vehicle(id="v3", platform="A", position=vehs[0].position,
                            capacity=vehs[0].capacity))
        searched.clear()
        built.clear()
        graph = build_rtv_graph(reqs, vehs, net, now, cons,
                                registry={r.id: r for r in committed})
        assert max(searched.values()) == 1
        assert all(vid != "v3" for vid, _ in searched)
        # idle v0's two-request trips come from the closed form
        assert all(len(key) != 2 for vid, key in searched if vid == "v0")
        busy_pairs += sum(len(key) == 2 for vid, key in searched if vid != "v0")
        (rv,) = built
        singles = {(key[0], vid): trip for (key, vid), trip in graph.tv_edges.items()
                   if len(key) == 1}
        assert sorted(singles) == list(rv)
        veh_by_id = {v.id: v for v in vehs}
        everyone = {**{r.id: r for r in committed}, **{r.id: r for r in reqs}}
        for (rid, vid), trip in singles.items():
            assert trip is rv[(rid, vid)]
            veh = veh_by_id[vid]
            riders = _riders(veh, [everyone[rid]], everyone, cons, now)
            dist, _, _ = _replay(veh, trip.route, riders, net, cons, now)
            baseline = rtv.schedule_distance(veh, net)
            assert trip.incremental_distance == dist - baseline
        pooled |= {vid for key, vid in graph.tv_edges if len(key) > 1}
    # shared trips were enumerated for the idle, onboard and assigned
    # vehicles, and copied for the twin
    assert pooled == {"v0", "v1", "v2", "v3"}
    assert busy_pairs > 0


def test_rtv_build_probes_only_pairs_it_tries(monkeypatch):
    # trip enumeration asks pair_shareable about a pair only when some
    # vehicle has both requests as singles, and at most once per build
    net = make_grid(5, 5, edge_len=220.0, speed=9.0)
    nodes = sorted(net.node_set())
    cons = Constraints(max_pickup_s=150.0)
    rng = np.random.default_rng(9)
    now = 60.0
    probed: Counter = Counter()
    probe = rtv.pair_shareable

    def counted_probe(first, second, *args, **kwargs):
        probed[frozenset((first.id, second.id))] += 1
        return probe(first, second, *args, **kwargs)

    monkeypatch.setattr(rtv, "pair_shareable", counted_probe)
    skipped = 0
    for _ in range(12):
        reqs, vehs = _random_instance(rng, net, nodes, 7, 3)
        onboard = _rider(rng, nodes, "o0", request_time=0.0, pickup_time=now - 20.0)
        assigned = _rider(rng, nodes, "a0", request_time=now - 30.0,
                          pickup_deadline=now + 240.0)
        committed = fill_direct(net, [onboard, assigned])
        vehs[1].schedule = [Stop(onboard.destination, "o0", DROPOFF)]
        vehs[2].schedule = [Stop(assigned.origin, "a0", PICKUP),
                            Stop(assigned.destination, "a0", DROPOFF)]
        probed.clear()
        graph = build_rtv_graph(reqs, vehs, net, now, cons,
                                registry={r.id: r for r in committed})
        assert not probed or max(probed.values()) == 1
        singles = {vid: {key[0] for key, v in graph.tv_edges if v == vid and len(key) == 1}
                   for vid in graph.vehicles}
        for pair in probed:
            assert any(pair <= ids for ids in singles.values())
        skipped += len(reqs) * (len(reqs) - 1) // 2 - len(probed)
    # some pairs were never probed, as no vehicle could serve both alone
    assert skipped > 0


def _unbounded_trips(reqs, vehs, net, cons, now, registry):
    """Trip enumeration with no reach bound and no closed form: every single,
    every shareable pair and every larger candidate goes to best_route."""
    everyone = {**registry, **{r.id: r for r in reqs}}
    ids = sorted(r.id for r in reqs)
    shareable = {(a, b) for a, b in itertools.combinations(ids, 2)
                 if pair_shareable(everyone[a], everyone[b], net, cons)}
    tv_edges = {}
    for veh in sorted(vehs, key=lambda v: v.id):
        feasible = {()}
        for size in range(1, MAX_ROUTE_STOPS // 2 + 1):
            smaller, feasible = feasible, set()
            for key in itertools.combinations(ids, size):
                if size == 2 and key not in shareable:
                    continue
                if any(key[:i] + key[i + 1:] not in smaller for i in range(size)):
                    continue
                found = _search(veh, [everyone[r] for r in key], everyone, net,
                                   cons, now)
                if found is not None:
                    feasible.add(key)
                    tv_edges[(key, veh.id)] = found
    return tv_edges


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bounds_skip_only_infeasible_searches(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # 180 m edges take 20 s, so whole-second deadlines fall on arrivals
    net = make_grid(int(rng.integers(3, 6)), int(rng.integers(3, 6)),
                    edge_len=float(rng.choice([rng.integers(150, 300), 180])), speed=9.0)
    nodes = sorted(net.node_set())
    cons = Constraints(max_pickup_s=float(rng.choice([60.0, 150.0, 300.0])))
    now = 60.0
    reqs, vehs = _random_instance(rng, net, nodes, int(rng.integers(1, 8)),
                                  int(rng.integers(1, 7)))
    committed = []
    for r in reqs:  # some released after now, so a vehicle may wait
        r.request_time = float(rng.integers(0, 120))
    if rng.random() < 0.5:  # on one or two depots: idle twins copy their trips
        depots = [nodes[int(rng.integers(0, len(nodes)))] for _ in range(rng.integers(1, 3))]
        for veh in vehs:
            veh.position = depots[int(rng.integers(0, len(depots)))]
    # idle, carrying a rider, on its way to one, or both at capacity 1-2,
    # where the pair reach bound has committed stops to route around
    for k, veh in enumerate(vehs):
        veh.capacity = int(rng.integers(0, 5))
        kind = int(rng.integers(0, 4))
        if kind in (1, 3):
            rider = _rider(rng, nodes, f"o{k}", request_time=0.0,
                           pickup_time=now - float(rng.integers(0, 120)))
            veh.schedule.append(Stop(rider.destination, rider.id, DROPOFF))
            committed.append(rider)
        if kind in (2, 3):
            rider = _rider(rng, nodes, f"a{k}", request_time=now - 30.0,
                           pickup_deadline=now + float(rng.integers(30, 300)))
            veh.schedule += [Stop(rider.origin, rider.id, PICKUP),
                             Stop(rider.destination, rider.id, DROPOFF)]
            committed.append(rider)
        if kind == 3:
            veh.capacity = int(rng.integers(1, 3))
    registry = {r.id: r for r in fill_direct(net, committed)}
    graph = build_rtv_graph(reqs, vehs, net, now, cons, registry=registry)
    want = _unbounded_trips(reqs, vehs, net, cons, now, registry)
    assert list(graph.tv_edges.items()) == list(want.items())


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_restriction_equals_the_build_over_the_subset(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    net = make_grid(int(rng.integers(3, 6)), int(rng.integers(3, 6)),
                    edge_len=float(rng.integers(150, 300)), speed=9.0)
    nodes = sorted(net.node_set())
    cons = Constraints()
    now = 60.0
    reqs, vehs = _random_instance(rng, net, nodes, int(rng.integers(1, 8)),
                                  int(rng.integers(1, 5)))
    committed = []
    for k, veh in enumerate(vehs):  # idle, carrying a rider, or on its way to one
        kind = int(rng.integers(0, 3))
        if kind == 1:
            rider = _rider(rng, nodes, f"o{k}", request_time=0.0, pickup_time=now - 20.0)
            veh.schedule = [Stop(rider.destination, rider.id, DROPOFF)]
        elif kind == 2:
            rider = _rider(rng, nodes, f"a{k}", request_time=now - 30.0,
                           pickup_deadline=now + 240.0)
            veh.schedule = [Stop(rider.origin, rider.id, PICKUP),
                            Stop(rider.destination, rider.id, DROPOFF)]
        else:
            continue
        committed.append(rider)
    registry = {r.id: r for r in fill_direct(net, committed)}
    whole = build_rtv_graph(reqs, vehs, net, now, cons, registry=registry)
    for _ in range(3):
        sub_reqs = [r for r in reqs if data.draw(st.booleans())]
        sub_vehs = [v for v in vehs if data.draw(st.booleans())]
        part = whole.restrict([r.id for r in reversed(sub_reqs)],
                              [v.id for v in reversed(sub_vehs)])
        want = build_rtv_graph(sub_reqs, sub_vehs, net, now, cons, registry=registry)
        assert part.requests == want.requests
        assert part.vehicles == want.vehicles
        assert list(part.tv_edges.items()) == list(want.tv_edges.items())
    with pytest.raises(ValidationError, match=r"^\['r99'\] not in the trip graph$"):
        whole.restrict(["r99"], whole.vehicles)
    with pytest.raises(ValidationError, match=r"^\['v99'\] not in the trip graph$"):
        whole.restrict(whole.requests, ["v99"])


def test_one_stop_table_per_build(monkeypatch):
    # both stages read the build's one table; only a pair probe makes another
    net = make_grid(5, 5, edge_len=220.0, speed=9.0)
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(9)
    made: Counter = Counter()
    table, probe = rtv.stop_table, rtv.pair_shareable

    def counted_table(*args, **kwargs):
        made["tables"] += 1
        return table(*args, **kwargs)

    def counted_probe(*args, **kwargs):
        made["probes"] += 1
        return probe(*args, **kwargs)

    monkeypatch.setattr(rtv, "stop_table", counted_table)
    monkeypatch.setattr(rtv, "pair_shareable", counted_probe)
    probed = 0
    for _ in range(6):
        reqs, vehs = _random_instance(rng, net, nodes, 7, 3)
        onboard = fill_direct(net, [_rider(rng, nodes, "o0", request_time=0.0,
                                           pickup_time=40.0)])
        vehs[1].schedule = [Stop(onboard[0].destination, "o0", DROPOFF)]
        made.clear()
        build_rtv_graph(reqs, vehs, net, 60.0, Constraints(),
                        registry={"o0": onboard[0]})
        assert made["tables"] == 1 + made["probes"]
        probed += made["probes"]
    assert probed > 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_graph_build_ignores_input_order(data):
    # the same requests, vehicles and registry in any order give the same
    # graph, down to the order of its edges
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    net = make_grid(int(rng.integers(3, 6)), int(rng.integers(3, 6)),
                    edge_len=float(rng.integers(150, 300)), speed=9.0)
    nodes = sorted(net.node_set())
    cons = Constraints()
    now = 60.0
    reqs, vehs = _random_instance(rng, net, nodes, int(rng.integers(1, 8)),
                                  int(rng.integers(1, 7)))
    depots = [nodes[int(rng.integers(0, len(nodes)))] for _ in range(2)]
    committed = []
    for k, veh in enumerate(vehs):  # idle, carrying a rider, or on its way to one
        veh.position = depots[int(rng.integers(0, 2))]  # idle twins share one
        veh.capacity = int(rng.integers(1, 5))
        kind = int(rng.integers(0, 3))
        if kind == 1:
            rider = _rider(rng, nodes, f"o{k}", request_time=0.0,
                           pickup_time=now - float(rng.integers(0, 120)))
            veh.schedule = [Stop(rider.destination, rider.id, DROPOFF)]
        elif kind == 2:
            rider = _rider(rng, nodes, f"a{k}", request_time=now - 30.0,
                           pickup_deadline=now + float(rng.integers(30, 300)))
            veh.schedule = [Stop(rider.origin, rider.id, PICKUP),
                            Stop(rider.destination, rider.id, DROPOFF)]
        else:
            continue
        committed.append(rider)
    registry = {r.id: r for r in fill_direct(net, committed) + reqs}
    want = build_rtv_graph(reqs, vehs, net, now, cons, registry=registry)
    keys = list(registry)
    for _ in range(3):
        shuffled = {keys[i]: registry[keys[i]] for i in rng.permutation(len(keys))}
        got = build_rtv_graph([reqs[i] for i in rng.permutation(len(reqs))],
                              [vehs[i] for i in rng.permutation(len(vehs))],
                              net, now, cons, registry=shuffled)
        assert got.requests == want.requests
        assert got.vehicles == want.vehicles
        assert list(got.tv_edges.items()) == list(want.tv_edges.items())


def test_outsider_platform_id_is_never_a_pooled_group():
    # a platform outside a partial alliance keeps a group of its own,
    # whatever its id
    net = make_grid(5, 5, edge_len=220.0, speed=9.0)
    nodes = sorted(net.node_set())
    reqs, vehs = _random_instance(np.random.default_rng(44), net, nodes, 6, 4)
    graph = build_rtv_graph(reqs, vehs, net, 60.0, Constraints())
    assert graph.tv_edges
    coop = MarketStructure(kind="cooperative", alliance=frozenset({"A", "B"}))
    member_fleet = {v.id: "A" for v in vehs}
    for outsider in ("C", "__alliance__", "__pool__"):
        p_req = {r.id: outsider for r in reqs}
        kept = apply_market_structure(graph, coop, p_req, member_fleet)
        assert kept.tv_edges == {}
        own_fleet = {v.id: outsider for v in vehs}
        kept = apply_market_structure(graph, coop, p_req, own_fleet)
        assert kept.tv_edges == graph.tv_edges
    members = {r.id: "B" for r in reqs}
    assert apply_market_structure(graph, coop, members, member_fleet).tv_edges == \
        graph.tv_edges


def test_market_structure_filters():
    net = make_grid(5, 5, edge_len=220.0, speed=9.0)
    nodes = sorted(net.node_set())
    cons = Constraints()
    rng = np.random.default_rng(44)
    reqs, vehs = _random_instance(rng, net, nodes, 6, 4)
    graph = build_rtv_graph(reqs, vehs, net, 60.0, cons)
    p_req = {r.id: r.platform for r in reqs}
    p_veh = {v.id: v.platform for v in vehs}

    pooled = apply_market_structure(graph, MarketStructure(kind="single"), p_req, p_veh)
    assert pooled.tv_edges == graph.tv_edges  # one operator keeps everything

    seg = apply_market_structure(graph, MarketStructure(kind="segmented"), p_req, p_veh)
    for (key, vid) in seg.tv_edges:
        platforms = {p_req[r] for r in key} | {p_veh[vid]}
        assert len(platforms) == 1
    assert set(seg.tv_edges) <= set(graph.tv_edges)

    coop = apply_market_structure(
        graph,
        MarketStructure(kind="cooperative", alliance=frozenset({"A", "B"})),
        p_req,
        p_veh,
    )
    assert coop.tv_edges == graph.tv_edges  # grand alliance pools everything
    # the default alliance is every platform, also one without vehicles
    no_b = {vid: "A" for vid in p_veh}
    for alliance in (None, frozenset()):
        coop = apply_market_structure(
            graph, MarketStructure(kind="cooperative", alliance=alliance), p_req, no_b
        )
        assert coop.tv_edges == graph.tv_edges

    for kind in ("bilateral", "central", "marketplace"):
        filtered = apply_market_structure(graph, MarketStructure(kind=kind), p_req, p_veh)
        assert set(filtered.tv_edges) == set(seg.tv_edges)

    # an unmapped id raises at the first edge that needs it: every request
    # of each edge, then the vehicle of a trip whose requests share a group
    def first_unmapped(p_req, p_veh, same_group):
        for key, vid in graph.tv_edges:
            for rid in key:
                if rid not in p_req:
                    return rid
            if same_group(key) and vid not in p_veh:
                return vid

    for kind, same_group in (("single", lambda key: True),
                             ("segmented", lambda key: len({p_req[r] for r in key}) == 1)):
        for r_gone, v_gone in itertools.product(sorted(p_req), sorted(p_veh)):
            some_req = {r: p for r, p in p_req.items() if r != r_gone}
            some_veh = {v: p for v, p in p_veh.items() if v != v_gone}
            want = first_unmapped(some_req, some_veh, same_group)
            with pytest.raises(ValidationError, match=f"'{want}' has no platform$"):
                apply_market_structure(graph, MarketStructure(kind=kind), some_req, some_veh)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["detour_factor", "max_wait_s", "max_pickup_s",
                                  "unserved_penalty", "gamma", "interval_s"])
def test_constraints_reject_non_finite_fields(name, value):
    with pytest.raises(ValidationError, match=f"constraint {name} must be finite"):
        Constraints(**{name: value})


def test_unknown_structure_kind_rejected():
    with pytest.raises(ValidationError):
        MarketStructure(kind="oligopoly")


def test_trips_drop_expired_pickup_windows():
    net = make_grid(4, 4, edge_len=300.0, speed=10.0)
    cons = Constraints()
    reqs = fill_direct(net, [
        Request(id="r0", origin="5", destination="10", request_time=0.0, platform="A"),
    ])
    veh = Vehicle(id="v0", platform="A", position="5")
    # at now=0 the request is reachable; far past its wait window it is not
    early = build_rtv_graph(reqs, [veh], net, 0.0, cons)
    assert ((("r0",), "v0")) in early.tv_edges
    late = build_rtv_graph(reqs, [veh], net, 1000.0, cons)
    assert late.tv_edges == {}
