"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  Each
criterion prints exactly one ``PASS``/``FAIL`` summary before asserting,
so a failing gate still reports the numbers behind the verdict.
"""
import itertools
import time
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from ridemarket.engine import PlatformSpec, Scenario, run, run_detailed
from ridemarket.io import write_results
from ridemarket.mechanisms import (
    Allocation,
    Bid,
    CoalitionGame,
    contribution_allocate,
    epm_allocate,
    in_core,
    run_single_item_auction,
    shapley,
)
from ridemarket.model import EXPIRED, SERVED, PricingScheme, Request, Vehicle, fill_direct
from ridemarket.network import make_grid
from ridemarket.rtv import Constraints, MarketStructure, apply_market_structure, build_rtv_graph
from ridemarket.solve import (
    OBJECTIVES,
    AssignmentProblem,
    LinearProgram,
    brute_force_assignment,
    solve_assignment,
    solve_lp,
)

STRUCTURES = ["single", "segmented", "cooperative", "bilateral", "central", "marketplace"]


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}  {label:<28s} {verdict}  ({detail})")


# ---------------------------------------------------------------------------
# shared instance generators
# ---------------------------------------------------------------------------

def _assignment_instance(k, net, nodes):
    """Small random matching instance within the brute-force guard."""
    rng = np.random.default_rng([9100, k])
    n_req = int(rng.integers(1, 9))
    n_veh = int(rng.integers(1, 6))
    reqs = []
    for i in range(n_req):
        o, d = rng.choice(nodes, size=2, replace=False)
        reqs.append(Request(id=f"r{i}", origin=o, destination=d,
                            request_time=float(rng.integers(0, 121)), platform="A"))
    vehs = [Vehicle(id=f"v{j}", platform="A",
                    position=nodes[rng.integers(0, len(nodes))]) for j in range(n_veh)]
    return fill_direct(net, reqs), vehs


def _static_instance(k, nodes):
    """20 requests, 8 vehicles, 2-3 platforms at a fixed snapshot time."""
    rng = np.random.default_rng([9200, k])
    pids = ["A", "B", "C"][: 2 + k % 2]
    reqs = []
    for i in range(20):
        o, d = rng.choice(nodes, size=2, replace=False)
        reqs.append(Request(id=f"r{i:02d}", origin=o, destination=d,
                            request_time=float(rng.integers(0, 61)),
                            platform=pids[i % len(pids)]))
    positions = {pid: [] for pid in pids}
    for j in range(8):
        positions[pids[j % len(pids)]].append(nodes[rng.integers(0, len(nodes))])
    return reqs, pids, positions


def _episode_scenario(net, seed, kind):
    """40 requests over 20 minutes, 12 vehicles, 2 platforms.

    Demand is skewed (70% on platform A) against a 4/8 fleet split so
    segmentation actually strands requests and trading has work to do.
    """
    rng = np.random.default_rng([9300, seed])
    nodes = sorted(net.node_set())
    reqs = []
    for i in range(40):
        o, d = rng.choice(nodes, size=2, replace=False)
        reqs.append(Request(id=f"r{i:02d}", origin=o, destination=d,
                            request_time=float(rng.integers(0, 1200)),
                            platform="A" if i % 10 < 7 else "B"))
    alliance = frozenset({"A", "B"}) if kind == "cooperative" else frozenset()
    return Scenario(
        net=net,
        requests=reqs,
        platforms=[PlatformSpec("A", 4), PlatformSpec("B", 8)],
        structure=MarketStructure(kind=kind, alliance=alliance),
        constraints=Constraints(),
        pricing=PricingScheme(),
        seed=seed,
        horizon_s=1200.0,
        objective="min_vmt_penalty",
        name=f"episode-{seed:02d}",
        compute_allocations=False,
    )


def _random_game(rng, players):
    values = {}
    for size in range(1, len(players) + 1):
        for combo in itertools.combinations(players, size):
            base = sum(values.get(frozenset({p}), 0.0) for p in combo)
            values[frozenset(combo)] = base + float(rng.uniform(0.0, 10.0)) if size > 1 \
                else float(rng.uniform(1.0, 10.0))
    return CoalitionGame(players=players, values=values)


def _superadditive_game(rng, players):
    """Random superadditive game via max over all two-part splits."""
    values = {}
    for size in range(1, len(players) + 1):
        for combo in itertools.combinations(players, size):
            s = frozenset(combo)
            best = float(rng.uniform(1.0, 10.0)) if size == 1 else float(rng.uniform(0.0, 5.0))
            for r in range(1, size):
                for part in itertools.combinations(combo, r):
                    a = frozenset(part)
                    best = max(best, values[a] + values[s - a])
            values[s] = best + float(rng.uniform(0.0, 2.0)) if size > 1 else best
    return CoalitionGame(players=players, values=values)


def _shapley_oracle(game):
    """All-permutation marginal-contribution average with exact fractions."""
    players = game.players
    totals = {p: Fraction(0) for p in players}
    for order in itertools.permutations(players):
        seen = []
        for p in order:
            before = Fraction(game.value(seen)) if seen else Fraction(0)
            seen.append(p)
            totals[p] += Fraction(game.value(seen)) - before
    n_fact = factorial(len(players))
    return {p: t / n_fact for p, t in totals.items()}


# ---------------------------------------------------------------------------
# shared episode sweep (criteria 3, 7, 8, 9)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep():
    net = make_grid(6, 6, edge_len=400.0, speed=8.0)
    t0 = time.perf_counter()
    states = {kind: [] for kind in STRUCTURES}
    for seed in range(50):
        for kind in STRUCTURES:
            states[kind].append(run_detailed(_episode_scenario(net, seed, kind)))
    elapsed = time.perf_counter() - t0
    return {"net": net, "states": states, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_exact_assignment():
    net = make_grid(5, 5, edge_len=400.0, speed=8.0)
    nodes = sorted(net.node_set())
    cons = Constraints()
    scheme = PricingScheme()
    t0 = time.perf_counter()
    exact = 0
    for k in range(200):
        reqs, vehs = _assignment_instance(k, net, nodes)
        graph = build_rtv_graph(reqs, vehs, net, 120.0, cons)
        problem = AssignmentProblem(
            graph=graph, objective=OBJECTIVES[k % 3],
            penalty=cons.unserved_penalty, scheme=scheme, net=net,
            registry={r.id: r for r in reqs})
        if solve_assignment(problem).objective_micro == \
                brute_force_assignment(problem).objective_micro:
            exact += 1
    elapsed = time.perf_counter() - t0
    ok = exact == 200 and elapsed < 60.0
    _report(1, "exact assignment", ok, f"{exact}/200 match oracle, {elapsed:.1f}s")
    assert ok


def test_criterion_02_pooling_never_hurts():
    net = make_grid(6, 6, edge_len=400.0, speed=8.0)
    nodes = sorted(net.node_set())
    cons = Constraints()
    scheme = PricingScheme()
    monotone = 0
    strict = 0
    for k in range(100):
        reqs, pids, positions = _static_instance(k, nodes)
        reqs = fill_direct(net, reqs)
        vehs = [Vehicle(id=f"{pid}-{i}", platform=pid, position=node)
                for pid in pids for i, node in enumerate(positions[pid])]
        graph = build_rtv_graph(reqs, vehs, net, 60.0, cons)
        por = {r.id: r.platform for r in reqs}
        pov = {v.id: v.platform for v in vehs}

        def value(kind):
            sub = apply_market_structure(graph, MarketStructure(kind), por, pov)
            return solve_assignment(AssignmentProblem(
                graph=sub, objective="min_vmt_penalty",
                penalty=cons.unserved_penalty, scheme=scheme, net=net)).objective_micro

        full, seg = value("single"), value("segmented")
        monotone += full <= seg
        strict += full < seg
    ok = monotone == 100 and strict >= 30
    _report(2, "pooling never hurts", ok,
            f"{monotone}/100 monotone, strict in {strict} (need >= 30)")
    assert ok


def test_criterion_03_structure_ordering(sweep):
    states = sweep["states"]

    def mean(kind, attr):
        return float(np.mean([getattr(s.metrics, attr) for s in states[kind]]))

    pairs_equal = all(
        a.metrics.total_vmt_miles == b.metrics.total_vmt_miles
        for a, b in zip(states["single"], states["cooperative"])
    )
    vmt_single = mean("single", "total_vmt_miles")
    vmt_coop = mean("cooperative", "total_vmt_miles")
    vmt_seg = mean("segmented", "total_vmt_miles")
    unsat_seg = mean("segmented", "pct_unsatisfied")
    unsat_bi = mean("bilateral", "pct_unsatisfied")
    unsat_ce = mean("central", "pct_unsatisfied")
    trades_bi = mean("bilateral", "n_trades")
    trades_ce = mean("central", "n_trades")
    ok = (
        pairs_equal
        and vmt_single <= vmt_coop <= vmt_seg
        and unsat_bi <= unsat_seg
        and unsat_ce <= unsat_seg
        and trades_bi >= trades_ce
        and sweep["elapsed"] < 600.0
    )
    _report(3, "structure ordering", ok,
            f"vmt {vmt_single:.1f}={vmt_coop:.1f}<={vmt_seg:.1f}, "
            f"unsat {unsat_bi:.2f}/{unsat_ce:.2f}<={unsat_seg:.2f}, "
            f"trades {trades_bi:.2f}>={trades_ce:.2f}, {sweep['elapsed']:.0f}s")
    assert ok


def test_criterion_04_shapley_oracle():
    rng = np.random.default_rng(9400)
    names = ("a", "b", "c", "d", "e")
    worst = 0.0
    for k in range(100):
        game = _random_game(rng, names[: 2 + k % 4])
        got = shapley(game)
        want = _shapley_oracle(game)
        for p in game.players:
            worst = max(worst, abs(float(got.amounts[p]) - float(want[p])))
        worst = max(worst, abs(float(got.total()) - game.grand_value()))

    # symmetry: interchangeable players get equal payoffs
    sym = CoalitionGame(players=("x", "y", "z"), values={
        frozenset({"x"}): 1.0, frozenset({"y"}): 1.0, frozenset({"z"}): 4.0,
        frozenset({"x", "y"}): 3.0, frozenset({"x", "z"}): 6.0,
        frozenset({"y", "z"}): 6.0, frozenset({"x", "y", "z"}): 9.0})
    s = shapley(sym)
    axioms = s.amounts["x"] == s.amounts["y"]

    # null player: contributes nothing everywhere, gets nothing
    null = CoalitionGame(players=("x", "y"), values={
        frozenset({"x"}): 5.0, frozenset({"y"}): 0.0, frozenset({"x", "y"}): 5.0})
    axioms = axioms and shapley(null).amounts["y"] == 0

    # additivity: payoff of the sum game is the sum of payoffs
    g1 = _random_game(rng, ("x", "y", "z"))
    g2 = _random_game(rng, ("x", "y", "z"))
    combined = CoalitionGame(players=("x", "y", "z"), values={
        s_: g1.values[s_] + g2.values[s_] for s_ in g1.values})
    lhs = shapley(combined)
    r1, r2 = shapley(g1), shapley(g2)
    for p in ("x", "y", "z"):
        worst = max(worst, abs(float(lhs.amounts[p])
                               - float(r1.amounts[p] + r2.amounts[p])))

    ok = worst <= 1e-9 and axioms
    _report(4, "Shapley permutation oracle", ok,
            f"100 games, max deviation {worst:.2e}, axioms {'ok' if axioms else 'BAD'}")
    assert ok


def test_criterion_05_core_allocations():
    rng = np.random.default_rng(9500)
    names = ("a", "b", "c", "d")
    returned = checked = 0
    all_in_core = True
    for k in range(100):
        game = _superadditive_game(rng, names[: 2 + k % 3])
        for out in (epm_allocate(game),
                    contribution_allocate(game, {p: 1.0 for p in game.players})):
            checked += 1
            if out is None:
                continue
            returned += 1
            all_in_core = all_in_core and in_core(game, out[0])

    majority = CoalitionGame(players=("x", "y", "z"), values={
        frozenset({"x"}): 0.001, frozenset({"y"}): 0.001, frozenset({"z"}): 0.001,
        frozenset({"x", "y"}): 1.0, frozenset({"x", "z"}): 1.0,
        frozenset({"y", "z"}): 1.0, frozenset({"x", "y", "z"}): 1.0})
    empty_detected = (epm_allocate(majority) is None
                      and contribution_allocate(majority, {p: 1.0 for p in "xyz"}) is None)

    two = CoalitionGame(players=("1", "2"), values={
        frozenset({"1"}): 10.0, frozenset({"2"}): 20.0, frozenset({"1", "2"}): 36.0})
    alloc, alpha = epm_allocate(two)
    closed_form = (alloc.amounts["1"] == 12.0 and alloc.amounts["2"] == 24.0
                   and alpha == 0.0)

    ok = all_in_core and empty_detected and closed_form and returned > 0
    _report(5, "core allocations", ok,
            f"{returned}/{checked} returned all in core, "
            f"empty-core {'detected' if empty_detected else 'MISSED'}, "
            f"closed form {'exact' if closed_form else 'OFF'}")
    assert ok


def test_criterion_06_auction_invariants():
    rng = np.random.default_rng(9600)
    gammas = (0.05, 0.1, 0.25, 0.5)
    ok = True
    sales = 0
    for k in range(1000):
        gamma = gammas[k % 4]
        n = int(rng.integers(2, 6))
        bids = [Bid(platform=f"p{i}", amount=int(rng.integers(0, 20001)))
                for i in range(n)]
        outcome = run_single_item_auction(bids, gamma)
        top = max(b.amount for b in bids)
        if outcome is None:
            ok = ok and top == 0
            continue
        sales += 1
        second = max((b.amount for b in bids if b.platform != outcome.winner), default=0)
        ok = (ok and outcome.winning_amount == top
              and outcome.winner == min(b.platform for b in bids if b.amount == top)
              and outcome.payment == round(gamma * second))
        # raising the winning bid must not move the outcome
        bumped = [Bid(b.platform, b.amount + int(rng.integers(1, 5001))
                      if b.platform == outcome.winner else b.amount) for b in bids]
        after = run_single_item_auction(bumped, gamma)
        ok = ok and after.winner == outcome.winner and after.payment == outcome.payment
    _report(6, "auction invariants", ok, f"{sales}/1000 sales, all invariants held")
    assert ok


def test_criterion_07_money_conservation(sweep):
    episodes = 0
    ok = True
    for kind in STRUCTURES:
        for state in sweep["states"][kind]:
            m = state.metrics
            episodes += 1
            ok = ok and (m.total_fares - m.total_driver_pay
                         == m.total_profit + m.broker_balance)
            ok = ok and sum(p.profit for p in m.per_platform.values()) == m.total_profit
            if kind == "central":
                ok = ok and m.broker_balance == 0
            if kind == "marketplace":
                ok = ok and m.broker_balance == sum(a.payment for a in m.auction_log)

    # the static comparison scenarios, replayed as episodes
    net = sweep["net"]
    nodes = sorted(net.node_set())
    for k in range(100):
        reqs, pids, positions = _static_instance(k, nodes)
        for kind in ("single", "segmented"):
            sc = Scenario(
                net=net,
                requests=[Request(r.id, r.origin, r.destination,
                                  r.request_time, r.platform) for r in reqs],
                platforms=[PlatformSpec(pid, len(positions[pid]), tuple(positions[pid]))
                           for pid in pids],
                structure=MarketStructure(kind),
                constraints=Constraints(), pricing=PricingScheme(),
                seed=k, objective="min_vmt_penalty", name=f"static-{k:02d}",
                compute_allocations=False)
            m = run(sc)
            episodes += 1
            ok = ok and (m.total_fares - m.total_driver_pay
                         == m.total_profit + m.broker_balance)
            ok = ok and sum(p.profit for p in m.per_platform.values()) == m.total_profit
    _report(7, "money conservation", ok, f"{episodes} episodes balance exactly")
    assert ok


def test_criterion_08_trading_hygiene(sweep):
    trades = 0
    ok = True
    for kind in STRUCTURES:
        for state in sweep["states"][kind]:
            m = state.metrics
            ids = [t.request for t in m.trade_log]
            ok = ok and len(ids) == len(set(ids))
            moved = [(t.request, t.buyer) for t in m.trade_log]
            moved += [(a.request, a.platform) for a in m.auction_log]
            for rid, buyer in moved:
                trades += 1
                req = state.requests[rid]
                if req.state == SERVED:
                    ok = ok and req.platform == buyer
                else:
                    ok = ok and req.state == EXPIRED
    _report(8, "trading hygiene", ok,
            f"{trades} transfers, each served by buyer or expired")
    assert ok


def test_criterion_09_determinism(sweep, tmp_path):
    net = sweep["net"]
    identical = 0
    for seed in range(50):
        for kind in STRUCTURES:
            first = tmp_path / f"{kind}-{seed}-a.json"
            second = tmp_path / f"{kind}-{seed}-b.json"
            write_results(sweep["states"][kind][seed].metrics, first)
            write_results(run(_episode_scenario(net, seed, kind)), second)
            identical += first.read_bytes() == second.read_bytes()
    ok = identical == 300

    diverged = 0
    probes = 0
    for seed in range(5):
        for kind in ("bilateral", "marketplace"):
            probes += 1
            a = tmp_path / f"{kind}-{seed}-a.json"
            other = _episode_scenario(net, seed, kind)
            other.seed = seed + 1000
            b = tmp_path / f"{kind}-{seed}-reseeded.json"
            write_results(run(other), b)
            diverged += a.read_bytes() != b.read_bytes()
    ok = ok and diverged == probes
    _report(9, "determinism", ok,
            f"{identical}/300 reruns byte-identical, {diverged}/{probes} reseeds diverge")
    assert ok


def test_criterion_10_lp_kernel():
    opt = solve_lp(LinearProgram(
        c=np.array([-1.0, -1.0]),
        A=np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
        b=np.array([4.0, 2.0, 2.0]), rel=["<=", "<=", "<="]))
    infeasible = solve_lp(LinearProgram(
        c=np.array([1.0]),
        A=np.array([[1.0], [1.0]]), b=np.array([1.0, 0.0]), rel=[">=", "<="]))
    unbounded = solve_lp(LinearProgram(
        c=np.array([-1.0]), A=np.array([[1.0]]), b=np.array([0.0]), rel=[">="]))
    trio = (opt.status == "optimal" and abs(opt.value + 4.0) <= 1e-9
            and np.allclose(opt.x, [2.0, 2.0], atol=1e-9)
            and infeasible.status == "infeasible"
            and unbounded.status == "unbounded")

    game = CoalitionGame(players=("1", "2"), values={
        frozenset({"1"}): 10.0, frozenset({"2"}): 20.0, frozenset({"1", "2"}): 36.0})
    e_alloc, alpha = epm_allocate(game)
    c_alloc, beta = contribution_allocate(game, {"1": 1.0, "2": 1.0})
    worked = (abs(e_alloc.amounts["1"] - 12.0) <= 1e-9
              and abs(e_alloc.amounts["2"] - 24.0) <= 1e-9
              and abs(alpha) <= 1e-9
              and abs(c_alloc.amounts["1"] - 13.0) <= 1e-9
              and abs(c_alloc.amounts["2"] - 23.0) <= 1e-9
              and abs(beta) <= 1e-9)

    ok = trio and worked
    _report(10, "LP kernel", ok,
            f"canonical trio {'ok' if trio else 'BAD'}, "
            f"worked optima {'ok' if worked else 'OFF'}")
    assert ok
