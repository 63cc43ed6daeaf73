"""Episode engine: resolution, dispatch loop, billing and coalition values."""
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ridemarket import rtv
from ridemarket.engine import (
    MAX_FLEET,
    PlatformSpec,
    Scenario,
    build_coalition_game,
    characteristic_value,
    resolve_scenario,
    run,
)
from ridemarket.errors import DrainError, TooLargeError, ValidationError
from ridemarket.io import metrics_to_dict
from ridemarket.model import (
    METERS_PER_MILE,
    PricingScheme,
    Request,
    dedicated_fare,
    shared_fare,
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
    return Scenario(
        net=net, requests=list(reqs), platforms=list(specs),
        structure=MarketStructure(kind=kind, alliance=alliance),
        constraints=Constraints(), pricing=PricingScheme(), seed=seed, **kw,
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


def test_fleet_above_bound_fails_before_allocating():
    assert PlatformSpec("A", MAX_FLEET).fleet == MAX_FLEET
    with pytest.raises(TooLargeError, match=f"at most {MAX_FLEET}, got {10**12}"):
        PlatformSpec("A", 10**12)


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
    assert m.total_fares == dedicated_fare(scheme, direct_d, direct_t)
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
    assert m.total_fares == 2 * shared_fare(scheme, direct_d, direct_t)
    # one vehicle drove the shared route once
    assert m.total_vmt_miles == pytest.approx(direct_d / METERS_PER_MILE)


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

    def counted(requests, vehicles, road, now, *args, **kwargs):
        per_epoch[now] += 1
        return build(requests, vehicles, road, now, *args, **kwargs)

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
    for kind in ("bilateral", "central"):
        m = run(_scenario(net, reqs, specs, kind, seed=79))
        traded = [t.request for t in m.trade_log]
        assert len(traded) == len(set(traded))
        assert m.served + m.expired == m.n_requests


def test_stalled_fleet_is_a_drain_error(net, monkeypatch):
    # vehicles that never move keep their riders assigned past every epoch
    monkeypatch.setattr("ridemarket.engine._Simulation._advance",
                        lambda self, now, dt: None)
    reqs = _requests(np.random.default_rng(1), sorted(net.node_set()), 3, ["A"])
    sc = _scenario(net, reqs, [PlatformSpec("A", 6)], "single")
    with pytest.raises(DrainError, match=r"after \d+ epochs \(now \d+ s\): "
                                         r"3 of 3 requests still open"):
        run(sc)
