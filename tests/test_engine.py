"""Episode engine: resolution, dispatch loop, billing and coalition values."""
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ridemarket import rtv
from ridemarket.engine import (
    MAX_EPOCHS,
    MAX_FLEET,
    PlatformSpec,
    Scenario,
    _coalition_scenario,
    build_coalition_game,
    characteristic_value,
    epoch_budget,
    resolve_scenario,
    run,
    run_detailed,
)
from ridemarket.errors import DrainError, TooLargeError, ValidationError
from ridemarket.io import metrics_to_dict
from ridemarket.model import (
    METERS_PER_MILE,
    PricingScheme,
    Request,
    rider_fare,
)
from ridemarket.network import make_grid
from ridemarket.rtv import Constraints, MarketStructure
from ridemarket.mechanisms import shapley


def _requests(rng, nodes, n, platforms, spread_s=300):
    out = []
    for i in range(n):
        o, d = rng.choice(nodes, size=2, replace=False)
        out.append(Request(id=f"r{i}", origin=o, destination=d,
                           request_time=float(rng.integers(0, spread_s)),
                           platform=platforms[i % len(platforms)]))
    return out


def _scenario(net, reqs, specs, kind, seed=0, alliance=frozenset(), **kw):
    kw.setdefault("constraints", Constraints())
    return Scenario(
        net=net, requests=list(reqs), platforms=list(specs),
        structure=MarketStructure(kind=kind, alliance=alliance),
        pricing=PricingScheme(), seed=seed, **kw,
    )


@pytest.fixture(scope="module")
def net():
    return make_grid(6, 6, edge_len=400.0, speed=8.0)


# ---------------------------------------------------------------------------
# scenario resolution
# ---------------------------------------------------------------------------

def test_resolution_is_deterministic(net):
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(1)
    reqs = _requests(rng, nodes, 8, ["A", "B"])
    sc = _scenario(net, reqs, [PlatformSpec("A", 2), PlatformSpec("B", 2)], "segmented", seed=9)
    r1, v1 = resolve_scenario(sc)
    r2, v2 = resolve_scenario(sc)
    assert [(r.id, r.platform, r.direct_distance) for r in r1] == \
        [(r.id, r.platform, r.direct_distance) for r in r2]
    assert [(v.id, v.position) for v in v1] == [(v.id, v.position) for v in v2]
    assert all(v.id.startswith(("A-", "B-")) for v in v1)


def test_resolution_seed_changes_placement(net):
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(1)
    reqs = _requests(rng, nodes, 8, ["A", "B"])
    specs = [PlatformSpec("A", 3), PlatformSpec("B", 3)]
    _, v1 = resolve_scenario(_scenario(net, reqs, specs, "segmented", seed=1))
    _, v2 = resolve_scenario(_scenario(net, reqs, specs, "segmented", seed=2))
    assert [v.position for v in v1] != [v.position for v in v2]


def test_blank_platform_demand_split_is_even(net):
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(2)
    reqs = _requests(rng, nodes, 11, [""])
    specs = [PlatformSpec("A", 1), PlatformSpec("B", 1), PlatformSpec("C", 1)]
    resolved, _ = resolve_scenario(_scenario(net, reqs, specs, "segmented", seed=3))
    counts = {}
    for r in resolved:
        assert r.platform in {"A", "B", "C"}
        assert r.origin_platform == r.platform
        counts[r.platform] = counts.get(r.platform, 0) + 1
    assert max(counts.values()) - min(counts.values()) <= 1


def test_explicit_fleet_positions_and_direct_values(net):
    reqs = [Request(id="r0", origin="0", destination="35", request_time=0.0, platform="A")]
    specs = [PlatformSpec("A", 2, positions=("7", "28"))]
    resolved, vehicles = resolve_scenario(_scenario(net, reqs, specs, "single", seed=5))
    assert [(v.id, v.position) for v in vehicles] == [("A-000", "7"), ("A-001", "28")]
    assert resolved[0].direct_distance == pytest.approx(net.distance("0", "35"))
    # the scenario's own request objects stay untouched
    assert reqs[0].direct_distance == 0.0


@pytest.mark.parametrize("fleet", [2.5, True, "2", None])
def test_platform_fleet_must_be_an_integer(fleet):
    with pytest.raises(ValidationError, match=r"^platform A: fleet must be an integer"):
        PlatformSpec("A", fleet)


@pytest.mark.parametrize("pid", ["", "A,B", ","])
def test_platform_id_must_be_a_coalition_member_name(pid):
    # coalition keys are comma-joined ids, and "" on a request means untagged
    with pytest.raises(ValidationError, match=f"^platform id {pid!r} must be"):
        PlatformSpec(pid, 1)


def test_scenario_validation(net):
    req = Request(id="r0", origin="0", destination="1", request_time=0.0, platform="A")
    dup = [req, Request(id="r0", origin="1", destination="2", request_time=0.0, platform="A")]
    with pytest.raises(ValidationError):
        _scenario(net, dup, [PlatformSpec("A", 1)], "single")
    ghost = [Request(id="r1", origin="0", destination="1", request_time=0.0, platform="Z")]
    with pytest.raises(ValidationError):
        _scenario(net, ghost, [PlatformSpec("A", 1)], "single")
    off_map = [Request(id="r1", origin="99", destination="1", request_time=0.0, platform="A")]
    with pytest.raises(ValidationError):
        _scenario(net, off_map, [PlatformSpec("A", 1)], "single")
    with pytest.raises(ValidationError):
        _scenario(net, [req], [PlatformSpec("A", 1)], "cooperative",
                  alliance=frozenset({"A", "Z"}))


@pytest.mark.parametrize("horizon_s", [float("nan"), float("inf"), float("-inf")])
def test_scenario_rejects_non_finite_horizon(net, horizon_s):
    req = Request(id="r0", origin="0", destination="1", request_time=0.0, platform="A")
    with pytest.raises(ValidationError, match="horizon_s must be finite"):
        _scenario(net, [req], [PlatformSpec("A", 1)], "single", horizon_s=horizon_s)


def test_fleet_above_bound_fails_before_allocating():
    assert PlatformSpec("A", MAX_FLEET).fleet == MAX_FLEET
    with pytest.raises(TooLargeError, match=f"at most {MAX_FLEET}, got {10**12}"):
        PlatformSpec("A", 10**12)


def test_total_fleet_above_bound_fails_before_allocating(net):
    half = MAX_FLEET // 2
    at_bound = Scenario(net=net, requests=[], platforms=[
        PlatformSpec("A", half), PlatformSpec("B", MAX_FLEET - half)])
    assert sum(p.fleet for p in at_bound.platforms) == MAX_FLEET
    many = [PlatformSpec(f"P{i:02d}", MAX_FLEET) for i in range(30)]
    with pytest.raises(TooLargeError,
                       match=f"total fleet of at most {MAX_FLEET}, got {30 * MAX_FLEET}"):
        Scenario(net=net, requests=[], platforms=many)


def test_epoch_budget_is_bounded():
    c = Constraints()
    assert epoch_budget(1200.0, c) == 50 + 10_000
    assert epoch_budget(MAX_EPOCHS * 29.0, c) <= MAX_EPOCHS
    for horizon_s in (MAX_EPOCHS * 30.0, 1e12, float("inf"), float("nan")):
        with pytest.raises(TooLargeError, match=f"expected at most {MAX_EPOCHS}"):
            epoch_budget(horizon_s, c)
    with pytest.raises(TooLargeError):
        epoch_budget(600.0, Constraints(interval_s=1e-4))


# ---------------------------------------------------------------------------
# episode runs
# ---------------------------------------------------------------------------

def test_run_is_deterministic_and_pure(net):
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(7)
    reqs = _requests(rng, nodes, 14, ["A", "B", ""])
    specs = [PlatformSpec("A", 2), PlatformSpec("B", 2)]
    sc = _scenario(net, reqs, specs, "bilateral", seed=11)
    m1 = run(sc)
    m2 = run(sc)
    assert json.dumps(metrics_to_dict(m1), sort_keys=True) == \
        json.dumps(metrics_to_dict(m2), sort_keys=True)
    # run() must not mutate the scenario's request objects
    assert all(r.state == "waiting" and r.fare_paid is None for r in sc.requests)


def test_money_conservation_all_structures(net):
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(13)
    reqs = _requests(rng, nodes, 16, ["A", "B", "C"])
    specs = [PlatformSpec("A", 2), PlatformSpec("B", 2), PlatformSpec("C", 2)]
    for kind in ("single", "segmented", "cooperative", "bilateral", "central", "marketplace"):
        alliance = frozenset({"A", "B", "C"}) if kind == "cooperative" else frozenset()
        m = run(_scenario(net, reqs, specs, kind, seed=17, alliance=alliance,
                          compute_allocations=False))
        assert m.total_fares - m.total_driver_pay == m.total_profit + m.broker_balance
        assert m.total_profit == sum(p.profit for p in m.per_platform.values())
        paid = sum(p.info_paid for p in m.per_platform.values())
        received = sum(p.info_received for p in m.per_platform.values())
        if kind == "marketplace":
            assert m.broker_balance == paid
            assert m.broker_balance == sum(a.payment for a in m.auction_log)
        else:
            assert paid == received
            assert m.broker_balance == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_money_balances_and_reruns_are_byte_identical(seed):
    rng = np.random.default_rng(seed)
    net = make_grid(int(rng.integers(3, 6)), int(rng.integers(3, 6)),
                    edge_len=float(rng.integers(200, 500)), speed=8.0)
    nodes = sorted(net.node_set())
    platforms = ["A", "B", "C"][: int(rng.integers(2, 4))]
    reqs = _requests(rng, nodes, int(rng.integers(1, 13)), platforms + [""],
                     spread_s=int(rng.integers(30, 600)))
    specs = [PlatformSpec(p, int(rng.integers(0, 4))) for p in platforms]
    for kind in rtv.STRUCTURE_KINDS:
        alliance = frozenset(rng.choice(platforms, size=2, replace=False)) \
            if kind == "cooperative" else frozenset()
        sc = _scenario(net, reqs, specs, kind, seed=int(rng.integers(0, 1000)),
                       alliance=alliance, compute_allocations=bool(rng.integers(0, 2)))
        m = run(sc)
        assert m.total_fares - m.total_driver_pay == m.total_profit + m.broker_balance
        assert json.dumps(metrics_to_dict(m), sort_keys=True) == \
            json.dumps(metrics_to_dict(run(sc)), sort_keys=True)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_request_is_served_or_expires_by_a_legal_path(seed):
    # each Request object of every simulation in a run, coalition
    # re-simulations included, goes waiting -> assigned -> onboard -> served
    # or waiting -> expired, and the run ends with no request open
    rng = np.random.default_rng(seed)
    net = make_grid(int(rng.integers(3, 6)), int(rng.integers(3, 6)),
                    edge_len=float(rng.integers(200, 500)), speed=8.0)
    nodes = sorted(net.node_set())
    platforms = ["A", "B", "C"][: int(rng.integers(2, 4))]
    reqs = _requests(rng, nodes, int(rng.integers(1, 13)), platforms + [""],
                     spread_s=int(rng.integers(30, 600)))
    specs = [PlatformSpec(p, int(rng.integers(0, 4))) for p in platforms]
    set_state = Request.set_state
    for kind in rtv.STRUCTURE_KINDS:
        paths: dict[int, tuple[Request, list[str]]] = {}

        def recorded(request, new):
            paths.setdefault(id(request), (request, []))[1].append(new)
            set_state(request, new)

        alliance = frozenset(rng.choice(platforms, size=2, replace=False)) \
            if kind == "cooperative" else frozenset()
        sc = _scenario(net, reqs, specs, kind, seed=int(rng.integers(0, 1000)),
                       alliance=alliance, compute_allocations=bool(rng.integers(0, 2)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Request, "set_state", recorded)
            m = run(sc)
        assert m.served + m.expired == m.n_requests == len(reqs)
        assert {r.id for r, _ in paths.values()} == {r.id for r in reqs}
        for _, path in paths.values():
            assert path in (["assigned", "onboard", "served"], ["expired"])


def test_single_equals_grand_cooperative(net):
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(19)
    reqs = _requests(rng, nodes, 15, ["A", "B"])
    specs = [PlatformSpec("A", 3), PlatformSpec("B", 3)]
    single = run(_scenario(net, reqs, specs, "single", seed=23))
    coop = run(_scenario(net, reqs, specs, "cooperative", seed=23,
                         alliance=frozenset({"A", "B"}), compute_allocations=False))
    a, b = metrics_to_dict(single), metrics_to_dict(coop)
    for k in ("structure", "allocations", "coalition_values"):
        a.pop(k), b.pop(k)
    assert a == b


def test_expiry_when_no_vehicle_can_come(net):
    reqs = [Request(id="r0", origin="0", destination="35", request_time=0.0, platform="A")]
    m = run(_scenario(net, reqs, [PlatformSpec("A", 0)], "single", seed=0,
                      horizon_s=600.0))
    assert m.served == 0
    assert m.expired == 1
    assert m.pct_unsatisfied == pytest.approx(100.0)
    assert m.total_fares == 0 and m.total_vmt_miles == 0.0


def test_served_expired_account_for_everything(net):
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(29)
    reqs = _requests(rng, nodes, 20, ["A", "B"])
    specs = [PlatformSpec("A", 1), PlatformSpec("B", 1)]  # scarce fleet
    m = run(_scenario(net, reqs, specs, "segmented", seed=31))
    assert m.served + m.expired == m.n_requests
    assert m.pct_unsatisfied == pytest.approx(100.0 * m.expired / m.n_requests)
    assert m.avg_wait_s >= 0.0
    assert m.total_trips == sum(p.trips for p in m.per_platform.values())


def test_dedicated_billing_for_lone_rider(net):
    scheme = PricingScheme()
    reqs = [Request(id="r0", origin="0", destination="35", request_time=0.0, platform="A")]
    specs = [PlatformSpec("A", 1, positions=("0",))]
    m = run(_scenario(net, reqs, specs, "single", seed=0))
    direct_d = net.distance("0", "35")
    direct_t = net.travel_time("0", "35")
    assert m.served == 1
    assert m.total_fares == rider_fare(scheme, False, direct_d, direct_t)
    assert m.per_platform["A"].revenue == m.total_fares
    assert m.per_platform["A"].vehicles_used == 1


def test_shared_billing_for_pooled_riders(net):
    scheme = PricingScheme()
    # identical itineraries pool into one two-rider run: both pay shared fares
    reqs = [
        Request(id="r0", origin="0", destination="35", request_time=0.0, platform="A"),
        Request(id="r1", origin="0", destination="35", request_time=0.0, platform="A"),
    ]
    specs = [PlatformSpec("A", 1, positions=("0",))]
    m = run(_scenario(net, reqs, specs, "single", seed=0))
    direct_d = net.distance("0", "35")
    direct_t = net.travel_time("0", "35")
    assert m.served == 2
    assert m.total_trips == 1
    assert m.total_fares == 2 * rider_fare(scheme, True, direct_d, direct_t)
    # one vehicle drove the shared route once
    assert m.total_vmt_miles == pytest.approx(direct_d / METERS_PER_MILE)


@pytest.mark.parametrize("late, epoch", [(rtv.EPS / 2, 30.0), (2 * rtv.EPS, 60.0)])
def test_admission_edge_is_the_stop_tables_eps(net, late, epoch):
    # released just after the epoch at 30 s: within EPS it is admitted then,
    # and a vehicle at its origin picks it up at once; beyond EPS it waits
    assert Constraints().interval_s == 30.0
    reqs = [Request(id="r0", origin="0", destination="35", request_time=30.0 + late,
                    platform="A")]
    specs = [PlatformSpec("A", 1, positions=("0",))]
    state = run_detailed(_scenario(net, reqs, specs, "single", seed=0))
    assert state.metrics.served == 1
    assert state.requests["r0"].pickup_time == epoch


def test_horizon_auto_extends_to_serve_late_requests(net):
    reqs = [Request(id="r0", origin="0", destination="35", request_time=500.0, platform="A")]
    specs = [PlatformSpec("A", 1, positions=("0",))]
    m = run(_scenario(net, reqs, specs, "single", seed=0))  # horizon_s defaults to auto
    assert m.served == 1


# ---------------------------------------------------------------------------
# coalition values and allocations
# ---------------------------------------------------------------------------

def test_characteristic_value_of_grand_coalition(net):
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(37)
    reqs = _requests(rng, nodes, 12, ["A", "B"])
    specs = [PlatformSpec("A", 2), PlatformSpec("B", 2)]
    sc = _scenario(net, reqs, specs, "cooperative", seed=41,
                   alliance=frozenset({"A", "B"}))
    m = run(sc)
    grand = characteristic_value(sc, ("A", "B"))
    assert grand == m.total_fares - m.total_driver_pay
    assert m.coalition_values["A,B"] == grand
    assert set(m.coalition_values) == {"A", "B", "A,B"}


def _outcomes(state):
    requests = {
        rid: (r.state, r.platform, r.origin_platform, r.assigned_vehicle,
              r.pickup_time, r.served_time, r.fare_paid, r.traded)
        for rid, r in state.requests.items()
    }
    vehicles = {
        vid: (v.platform, v.position, v.odometer, v.schedule)
        for vid, v in state.vehicles.items()
    }
    metrics = metrics_to_dict(state.metrics)
    # the structure is the scenario's; the name labels the sub-scenario
    metrics.pop("structure"), metrics.pop("scenario")
    return requests, vehicles, metrics


def _random_market(rng, tied=False):
    """A small grid, two or three platforms, their demand and fleets.

    A tied market has quarter-mile blocks, at least four requests and a
    vehicle on every platform; under ``_tied_keywords`` its optimal
    matchings tie often.
    """
    block = METERS_PER_MILE / 4 if tied else float(rng.integers(200, 500))
    net = make_grid(int(rng.integers(3, 6)), int(rng.integers(3, 6)),
                    edge_len=block, speed=8.0)
    nodes = sorted(net.node_set())
    platforms = ["A", "B", "C"][: int(rng.integers(2, 4))]
    # blank tags go through the seeded demand split
    reqs = _requests(rng, nodes, int(rng.integers(4 if tied else 1, 13)), platforms + [""],
                     spread_s=int(rng.integers(30, 600)))
    specs = []
    for p in platforms:
        fleet = int(rng.integers(int(tied), 4))  # untied, a zero fleet now and then
        positions = tuple(str(n) for n in rng.choice(nodes, size=fleet)) \
            if rng.integers(0, 2) else None
        specs.append(PlatformSpec(p, fleet, positions))
    return net, platforms, reqs, specs


def _tied_keywords(rng):
    # an unserved penalty of whole blocks: under min_vmt_penalty many trips
    # add exactly their riders' penalty and tie with leaving them unserved
    return {"objective": "min_vmt_penalty",
            "constraints": Constraints(unserved_penalty=int(rng.integers(1, 9)) / 4)}


def _member_outcomes(state, members):
    """The members' requests, vehicles and ledgers at the end of a run."""
    requests, vehicles, metrics = _outcomes(state)
    return (
        {rid: o for rid, o in requests.items() if state.requests[rid].platform in members},
        {vid: o for vid, o in vehicles.items() if o[0] in members},
        {p: metrics["platforms"][p] for p in members},
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_grand_coalition_rerun_repeats_the_cooperative_run(seed):
    # an alliance of every platform: its grand coalition's re-simulation is
    # this very episode
    rng = np.random.default_rng(seed)
    net, platforms, reqs, specs = _random_market(rng)
    alliance = frozenset(platforms) if rng.integers(0, 2) else frozenset()
    sc = _scenario(net, reqs, specs, "cooperative", seed=int(rng.integers(0, 1000)),
                   alliance=alliance, compute_allocations=False)
    assert _outcomes(run_detailed(sc)) == \
        _outcomes(run_detailed(_coalition_scenario(sc, platforms)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_partial_alliance_evolves_as_its_coalition_alone(seed):
    # the outsiders are matched beside the alliance but never with it, and
    # the tie-break decomposes over such groups, so the members end the run
    # as their grand coalition's re-simulation does; this is why
    # allocations take v(alliance) from the run
    rng = np.random.default_rng(seed)
    net, platforms, reqs, specs = _random_market(rng, tied=True)
    size = int(rng.integers(1, len(platforms)))
    alliance = frozenset(str(p) for p in rng.choice(platforms, size=size, replace=False))
    sc = _scenario(net, reqs, specs, "cooperative", seed=int(rng.integers(0, 1000)),
                   alliance=alliance, compute_allocations=False, **_tied_keywords(rng))
    assert _member_outcomes(run_detailed(sc), alliance) == \
        _member_outcomes(run_detailed(_coalition_scenario(sc, alliance)), alliance)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_segmented_run_is_each_platform_alone(seed):
    # a segmented stage graph splits into the platforms, so each platform's
    # requests, vehicles and ledger end the run as in a run of its own
    rng = np.random.default_rng(seed)
    net, platforms, reqs, specs = _random_market(rng, tied=True)
    sc = _scenario(net, reqs, specs, "segmented", seed=int(rng.integers(0, 1000)),
                   **_tied_keywords(rng))
    state = run_detailed(sc)
    for p in platforms:
        assert _member_outcomes(state, {p}) == \
            _member_outcomes(run_detailed(_coalition_scenario(sc, [p])), {p})


def _three_platform_alliance(net, alliance):
    reqs = _requests(np.random.default_rng(67), sorted(net.node_set()), 14,
                     ["A", "B", "C", ""])
    specs = [PlatformSpec("A", 2), PlatformSpec("B", 1), PlatformSpec("C", 2)]
    return _scenario(net, reqs, specs, "cooperative", seed=71, alliance=alliance)


def test_full_alliance_takes_grand_value_from_the_run(net, monkeypatch):
    sc = _three_platform_alliance(net, frozenset({"A", "B", "C"}))
    game = build_coalition_game(sc)  # re-simulates all seven coalitions
    called = []
    value = characteristic_value
    monkeypatch.setattr("ridemarket.engine.characteristic_value",
                        lambda s, c: called.append(tuple(c)) or value(s, c))
    m = run(sc)
    assert len(called) == 2**3 - 2 and ("A", "B", "C") not in called
    assert m.coalition_values == {",".join(sorted(k)): v for k, v in game.values.items()}
    assert m.coalition_values["A,B,C"] == m.total_fares - m.total_driver_pay


def test_partial_alliance_takes_its_value_from_the_run(net, monkeypatch):
    # C is outside the alliance, so the run matches A, B and C in one
    # assignment; the tie-break decomposes over the disjoint groups {A, B}
    # and {C}, so the run's A+B profit is v({A, B}) and only the proper
    # coalitions are re-simulated
    sc = _three_platform_alliance(net, frozenset({"A", "B"}))
    expected = {
        ",".join(c): characteristic_value(sc, c) for c in (("A",), ("B",), ("A", "B"))
    }
    called = []
    value = characteristic_value
    monkeypatch.setattr("ridemarket.engine.characteristic_value",
                        lambda s, c: called.append(tuple(c)) or value(s, c))
    m = run(sc)
    assert sorted(called) == [("A",), ("B",)]
    assert m.coalition_values == expected
    assert m.coalition_values["A,B"] == sum(
        m.per_platform[p].revenue - m.per_platform[p].driver_cost for p in ("A", "B"))


def test_characteristic_value_solo_uses_own_fleet_only(net):
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(43)
    reqs = _requests(rng, nodes, 10, ["A", "B"])
    specs = [PlatformSpec("A", 2), PlatformSpec("B", 2)]
    sc = _scenario(net, reqs, specs, "cooperative", seed=47,
                   alliance=frozenset({"A", "B"}))
    solo = characteristic_value(sc, ("A",))
    # A alone serves at most its own demand: profit bounded by its own fares
    seg = run(_scenario(net, reqs, specs, "segmented", seed=47))
    assert solo == seg.per_platform["A"].revenue - seg.per_platform["A"].driver_cost


def test_allocations_attached_for_cooperative(net):
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(53)
    reqs = _requests(rng, nodes, 12, ["A", "B"])
    specs = [PlatformSpec("A", 2), PlatformSpec("B", 2)]
    sc = _scenario(net, reqs, specs, "cooperative", seed=59,
                   alliance=frozenset({"A", "B"}))
    m = run(sc)
    assert m.allocations is not None
    shap = m.allocations["shapley"]
    game = build_coalition_game(sc)  # characteristic values in fixed-point units
    phi = shapley(game)
    for pid in ("A", "B"):
        assert shap[pid] == pytest.approx(float(phi.amounts[pid]) / 1000.0, abs=1e-9)
    assert sum(shap.values()) == \
        pytest.approx(game.value(frozenset({"A", "B"})) / 1000.0, abs=1e-6)
    assert m.allocations["epm"]["status"] in {"ok", "core_empty", "undefined"}
    assert m.allocations["contribution"]["status"] in {"ok", "core_empty", "undefined"}


def _small_alliance(net, specs):
    reqs = _requests(np.random.default_rng(53), sorted(net.node_set()), 8, ["A", "B"])
    return _scenario(net, reqs, specs, "cooperative", seed=59,
                     alliance=frozenset({"A", "B"}))


def test_allocation_rule_error_is_undefined(net):
    # B has no fleet, so its standalone value is 0 and the EPM ratios are
    # undefined; the rule's own MarketError is written into the results
    sc = _small_alliance(net, [PlatformSpec("A", 2), PlatformSpec("B", 0)])
    m = run(sc)
    assert m.coalition_values["B"] == 0
    epm = m.allocations["epm"]
    assert epm["status"] == "undefined"
    assert epm["reason"].startswith("non-positive standalone value for ['B']")


def test_allocation_programming_error_propagates(net, monkeypatch):
    def broken(game):
        raise TypeError("broken rule")

    monkeypatch.setattr("ridemarket.engine.epm_allocate", broken)
    sc = _small_alliance(net, [PlatformSpec("A", 2), PlatformSpec("B", 2)])
    with pytest.raises(TypeError, match="broken rule"):
        run(sc)


def test_non_cooperative_runs_have_no_allocations(net):
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(61)
    reqs = _requests(rng, nodes, 8, ["A", "B"])
    specs = [PlatformSpec("A", 2), PlatformSpec("B", 2)]
    m = run(_scenario(net, reqs, specs, "segmented", seed=67))
    assert m.allocations is None
    assert m.coalition_values is None


# ---------------------------------------------------------------------------
# trading episodes
# ---------------------------------------------------------------------------

def _starved_setup(net):
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(71)
    reqs = []
    for i in range(6):
        o, d = rng.choice(nodes, size=2, replace=False)
        reqs.append(Request(id=f"r{i}", origin=o, destination=d,
                            request_time=float(i * 20), platform="A"))
    specs = [PlatformSpec("A", 1), PlatformSpec("B", 3)]
    return reqs, specs


@pytest.mark.parametrize("kind, builds", [
    ("single", 1), ("segmented", 1), ("cooperative", 1), ("central", 1),
    ("marketplace", 1),
    # bilateral valuations see whole fleets, which its match has just changed
    ("bilateral", 2),
])
def test_one_trip_graph_per_decision_stage(net, monkeypatch, kind, builds):
    reqs, specs = _starved_setup(net)
    per_epoch: Counter = Counter()
    build = rtv.build_rv_graph

    def counted(stops):
        per_epoch[stops.now] += 1
        return build(stops)

    monkeypatch.setattr(rtv, "build_rv_graph", counted)
    alliance = frozenset({"A", "B"}) if kind == "cooperative" else frozenset()
    m = run(_scenario(net, reqs, specs, kind, seed=73, alliance=alliance,
                      compute_allocations=False))
    # the trading or auction stage ran, on the structures that have one
    traded = bool(m.n_trades or m.auction_log)
    assert traded == (kind in ("bilateral", "central", "marketplace"))
    assert max(per_epoch.values()) == builds


def test_trading_beats_segmented_when_one_side_is_starved(net):
    reqs, specs = _starved_setup(net)
    seg = run(_scenario(net, reqs, specs, "segmented", seed=73))
    for kind in ("bilateral", "central"):
        m = run(_scenario(net, reqs, specs, kind, seed=73))
        assert m.served >= seg.served
        assert m.n_trades == len(m.trade_log)
        for t in m.trade_log:
            assert t.info_price >= 0
            assert t.seller != t.buyer


def test_trade_log_requests_are_unique_and_resolved(net):
    reqs, specs = _starved_setup(net)
    for kind in ("marketplace", "bilateral", "central"):
        state = run_detailed(_scenario(net, reqs, specs, kind, seed=79))
        m = state.metrics
        traded = {t.request: t for t in m.trade_log}
        assert len(traded) == len(m.trade_log)
        assert m.served + m.expired == m.n_requests
        # each mechanism moves the requests it sells or trades, and no other
        awarded = {a.request: a.platform for a in m.auction_log}
        assert len(awarded) == len(m.auction_log)
        assert awarded if kind == "marketplace" else traded
        for rid, r in state.requests.items():
            if rid in awarded:
                assert r.platform == awarded[rid]
            elif rid in traded:
                t = traded[rid]
                assert (r.platform, r.origin_platform, r.traded) == (t.buyer, t.seller, True)
            else:
                assert r.platform == r.origin_platform and not r.traded


def test_stalled_fleet_is_a_drain_error(net, monkeypatch):
    # vehicles that never move keep their riders assigned past every epoch
    monkeypatch.setattr("ridemarket.engine._Simulation._advance",
                        lambda self, now, dt: None)
    reqs = _requests(np.random.default_rng(1), sorted(net.node_set()), 3, ["A"])
    sc = _scenario(net, reqs, [PlatformSpec("A", 6)], "single")
    with pytest.raises(DrainError, match=r"after \d+ epochs \(now \d+ s\): "
                                         r"3 of 3 requests still open"):
        run(sc)
