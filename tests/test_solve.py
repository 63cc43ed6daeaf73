"""LP simplex and assignment branch-and-bound against independent oracles."""
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from ridemarket import solve
from ridemarket.errors import (
    PivotLimitError,
    SolverError,
    TooLargeError,
    ValidationError,
)
from ridemarket.model import DROPOFF, PricingScheme, Request, Stop, Vehicle, fill_direct
from ridemarket.network import make_grid
from ridemarket.rtv import Constraints, RtvGraph, build_rtv_graph
from ridemarket.solve import (
    INFEASIBLE,
    OBJECTIVES,
    OPTIMAL,
    UNBOUNDED,
    AssignmentProblem,
    LinearProgram,
    LpResult,
    brute_force_assignment,
    solve_assignment,
    solve_lp,
)


# ---------------------------------------------------------------------------
# LP kernel
# ---------------------------------------------------------------------------

def test_lp_known_optimum():
    # min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2 -> (2, 2), value -6
    lp = LinearProgram(
        c=[-1.0, -2.0],
        rows=[
            (np.array([1.0, 1.0]), "<=", 4.0),
            (np.array([1.0, 0.0]), "<=", 3.0),
            (np.array([0.0, 1.0]), "<=", 2.0),
        ],
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-6.0, abs=1e-9)
    assert res.x == pytest.approx([2.0, 2.0], abs=1e-9)


def test_lp_infeasible():
    lp = LinearProgram(
        c=[1.0],
        rows=[
            (np.array([1.0]), ">=", 2.0),
            (np.array([1.0]), "<=", 1.0),
        ],
    )
    assert solve_lp(lp).status == INFEASIBLE


def test_lp_unbounded():
    lp = LinearProgram(c=[-1.0], rows=[(np.array([-1.0]), "<=", 0.0)])
    assert solve_lp(lp).status == UNBOUNDED


def test_lp_equality():
    # min x + y s.t. x + y = 3, x, y >= 0
    lp = LinearProgram(
        c=[1.0, 1.0],
        rows=[(np.array([1.0, 1.0]), "=", 3.0)],
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(3.0, abs=1e-9)


def test_lp_dimension_validation():
    with pytest.raises(ValidationError,
                       match="^constraint row has 1 coefficients, expected 2$"):
        LinearProgram(c=[1.0, 2.0], rows=[(np.array([1.0]), "<=", 1.0)])
    with pytest.raises(ValidationError, match="^unknown relation '<>'$"):
        LinearProgram(c=[1.0], rows=[(np.array([1.0]), "<>", 1.0)])


def test_lp_cross_check_against_scipy():
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(0, 10))
        c = rng.normal(size=n) * rng.choice([0.1, 1, 10])
        rows, A_ub, b_ub, A_eq, b_eq = [], [], [], [], []
        for _ in range(m):
            a = rng.normal(size=n)
            a[rng.random(n) < 0.3] = 0.0
            b = float(rng.normal() * 3)
            rel = rng.choice(["<=", ">=", "="], p=[0.5, 0.3, 0.2])
            rows.append((a, rel, b))
            if rel == "<=":
                A_ub.append(a); b_ub.append(b)
            elif rel == ">=":
                A_ub.append(-a); b_ub.append(-b)
            else:
                A_eq.append(a); b_eq.append(b)
        res = solve_lp(LinearProgram(c=c, rows=rows))
        ref = linprog(
            c,
            A_ub=np.array(A_ub) if A_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(A_eq) if A_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=(0, None),
            method="highs",
        )
        want = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(ref.status)
        assert res.status == want
        if want == OPTIMAL:
            assert res.value == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
            # reduced costs are non-negative at a minimum
            assert np.all(res.reduced > -1e-6)
            if m == 0:
                assert np.array_equal(res.reduced, c)


def _beale_lp():
    # classic Beale-style degenerate instance
    return LinearProgram(
        c=[-0.75, 150.0, -0.02, 6.0],
        rows=[
            (np.array([0.25, -60.0, -0.04, 9.0]), "<=", 0.0),
            (np.array([0.5, -90.0, -0.02, 3.0]), "<=", 0.0),
            (np.array([0.0, 0.0, 1.0, 0.0]), "<=", 1.0),
        ],
    )


def test_lp_degenerate_cycling_guard():
    # must terminate at the optimum
    res = solve_lp(_beale_lp())
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-0.05, abs=1e-9)


def test_lp_pivot_limit_is_a_market_error(monkeypatch):
    monkeypatch.setattr(solve, "_MAX_PIVOTS", 1)
    with pytest.raises(PivotLimitError, match="3 rows x 7 columns"):
        solve_lp(_beale_lp())


# ---------------------------------------------------------------------------
# assignment solver
# ---------------------------------------------------------------------------

def _random_graph(rng, net, nodes, n_req, n_veh, now=60.0, colocated=False):
    reqs = []
    for i in range(n_req):
        o, d = rng.choice(len(nodes), size=2, replace=False)
        reqs.append(Request(id=f"r{i}", origin=nodes[o], destination=nodes[d],
                            request_time=float(rng.integers(0, int(now))), platform="A"))
    reqs = fill_direct(net, reqs)
    # a co-located fleet starts on one node, so trip costs tie across vehicles
    depot = nodes[int(rng.integers(0, len(nodes)))] if colocated else None
    vehs = [Vehicle(id=f"v{k}", platform="A",
                    position=depot or nodes[int(rng.integers(0, len(nodes)))],
                    capacity=4)
            for k in range(n_veh)]
    return build_rtv_graph(reqs, vehs, net, now, Constraints()), {r.id: r for r in reqs}


def _twin_fleet_graph(rng, net, nodes, n_req, n_veh, now=60.0):
    """A graph whose twin classes have mixed sizes: vehicles on one to three
    depots, each with capacity 2 or 4, up to two of them carrying a rider
    (and so rarely anyone's twin), with ids shuffled across the fleet."""
    reqs = []
    for i in range(n_req):
        o, d = rng.choice(len(nodes), size=2, replace=False)
        reqs.append(Request(id=f"r{i}", origin=nodes[o], destination=nodes[d],
                            request_time=float(rng.integers(0, int(now))), platform="A"))
    reqs = fill_direct(net, reqs)
    depots = [nodes[int(k)] for k in rng.choice(len(nodes), size=int(rng.integers(1, 4)))]
    ids = [f"v{k}" for k in rng.permutation(n_veh)]
    busy = int(rng.integers(0, 3))
    vehs, riders = [], []
    for k, vid in enumerate(ids):
        veh = Vehicle(id=vid, platform="A", position=depots[int(rng.integers(0, len(depots)))],
                      capacity=int(rng.choice([2, 4])))
        if k < busy:
            d = [n for n in nodes if n != veh.position][int(rng.integers(0, len(nodes) - 1))]
            riders.append(Request(id=f"o{k}", origin=veh.position, destination=d,
                                  request_time=0.0, platform="A", pickup_time=now - 10.0))
            veh.onboard.add(riders[-1].id)
            veh.schedule = [Stop(d, riders[-1].id, DROPOFF)]
        vehs.append(veh)
    registry = {r.id: r for r in fill_direct(net, riders)}
    graph = build_rtv_graph(reqs, vehs, net, now, Constraints(), registry=registry)
    return graph, {**registry, **{r.id: r for r in reqs}}


def test_assignment_matches_brute_force():
    net = make_grid(5, 5, edge_len=300.0, speed=8.0)
    nodes = sorted(net.node_set())
    scheme = PricingScheme()
    rng = np.random.default_rng(11)
    for trial in range(120):
        graph, registry = _random_graph(rng, net, nodes,
                                        int(rng.integers(3, 9)), int(rng.integers(2, 6)),
                                        colocated=trial >= 60)
        problem = AssignmentProblem(
            graph=graph, objective=OBJECTIVES[trial % 3], penalty=10.0,
            scheme=scheme, net=net, registry=registry,
        )
        got = solve_assignment(problem)
        want = brute_force_assignment(problem)
        assert got.objective_micro == want.objective_micro
        assert [(t.requests, t.vehicle) for t in got.chosen] == \
            [(t.requests, t.vehicle) for t in want.chosen]
        assert got.unserved == want.unserved


def _xy_form(problem):
    """The assignment in its textbook form, independent of the solver's.

    Columns are one x per trip-vehicle edge and one unserved indicator y
    per request, costed in micro-units; the V vehicle rows are <= 1 and
    the R request rows = 1.  Returns (edges, costs, penalty, A, V, R).
    """
    graph = problem.graph
    edges = graph.edges_sorted()
    req_index = {r: i for i, r in enumerate(graph.requests)}
    veh_index = {v: i for i, v in enumerate(graph.vehicles)}
    costs = [solve._edge_cost_micro(problem, t) for t in edges]
    penalty = round(problem.penalty * solve.MICRO)
    E, R, V = len(edges), len(graph.requests), len(graph.vehicles)
    A = np.zeros((V + R, E + R))
    for e, t in enumerate(edges):
        A[veh_index[t.vehicle], e] = 1.0
        for r in t.requests:
            A[V + req_index[r], e] = 1.0
    A[V:, E:] = np.eye(R)
    return edges, costs, penalty, A, V, R


def _milp_objective_micro(problem):
    """Exact micro-cost of an optimum found by HiGHS branch and bound.

    Solves the x+y form with binary x.  The rounded solution is re-costed
    in integers, so only the choice of edges comes from floating point.
    """
    edges, costs, penalty, A, V, R = _xy_form(problem)
    E = len(edges)
    res = milp(
        np.array(costs + [penalty] * R, dtype=float),
        constraints=LinearConstraint(A, np.r_[np.full(V, -np.inf), np.ones(R)],
                                     np.ones(V + R)),
        integrality=np.r_[np.ones(E), np.zeros(R)],
        bounds=Bounds(0.0, 1.0),
        options={"mip_rel_gap": 0.0},
    )
    assert res.success
    chosen = [e for e in range(E) if res.x[e] > 0.5]
    assert len({edges[e].vehicle for e in chosen}) == len(chosen)
    served = [r for e in chosen for r in edges[e].requests]
    assert len(set(served)) == len(served)
    return sum(costs[e] for e in chosen) + penalty * (R - len(served))


def test_assignment_optimum_matches_milp_beyond_oracle_guard():
    # 12-20 requests and 6-10 vehicles, above brute_force_assignment's
    # guard; the co-located fleets make ties across vehicles common
    net = make_grid(5, 5, edge_len=300.0, speed=8.0)
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(3)
    for trial in range(4):
        graph, registry = _random_graph(rng, net, nodes,
                                        int(rng.integers(12, 21)), int(rng.integers(6, 11)),
                                        colocated=trial % 2 == 1)
        assert len(graph.requests) > 8 and len(graph.vehicles) > 5
        for objective in OBJECTIVES:
            problem = AssignmentProblem(
                graph=graph, objective=objective, penalty=10.0,
                scheme=PricingScheme(), net=net, registry=registry,
            )
            assert solve_assignment(problem).objective_micro == \
                _milp_objective_micro(problem)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mixed_twin_classes_match_brute_force(seed):
    # classes of every size from 1 to the fleet: the class LP and the scan
    # that hands each class's trips out by id give the oracle's answer, and
    # the class root bound is the unaggregated relaxation's
    net = _PERMUTE_NET
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(seed)
    graph, registry = _twin_fleet_graph(rng, net, nodes, int(rng.integers(3, 9)),
                                        int(rng.integers(2, 6)))
    for objective in OBJECTIVES:
        problem = AssignmentProblem(
            graph=graph, objective=objective, penalty=10.0,
            scheme=PricingScheme(), net=net, registry=registry,
        )
        got = solve_assignment(problem)
        want = brute_force_assignment(problem)
        assert got.objective_micro == want.objective_micro
        assert [(t.requests, t.vehicle) for t in got.chosen] == \
            [(t.requests, t.vehicle) for t in want.chosen]
        _assert_root_bound_matches_highs(problem)


def test_colocated_max_profit_graph_solves_in_a_few_node_lps(monkeypatch):
    # 19 requests and 10 vehicles on one node (the 4th graph of the milp
    # test's loop, drawn from default_rng(7)): before twin classes the
    # branch and bound explored every symmetric copy, 13,527 node LPs in
    # about a minute, for this same answer
    net = make_grid(5, 5, edge_len=300.0, speed=8.0)
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(7)
    for trial in range(4):
        graph, registry = _random_graph(rng, net, nodes, int(rng.integers(12, 21)),
                                        int(rng.integers(6, 11)), colocated=trial % 2 == 1)
    assert (len(graph.requests), len(graph.vehicles), len(graph.tv_edges)) == (19, 10, 1820)
    problem = AssignmentProblem(graph=graph, objective="max_profit", penalty=10.0,
                                scheme=PricingScheme(), net=net, registry=registry)
    real = solve.solve_lp
    calls = []

    def counted(lp):
        calls.append(lp)
        return real(lp)

    monkeypatch.setattr(solve, "solve_lp", counted)
    start = time.perf_counter()
    got = solve_assignment(problem)
    assert time.perf_counter() - start < 2.0
    assert len(calls) < 100
    assert got.objective_micro == _milp_objective_micro(problem) == -104_930_000
    assert [(t.requests, t.vehicle) for t in got.chosen] == [
        (("r0", "r10"), "v0"), (("r1",), "v1"), (("r11", "r13", "r6", "r8"), "v2"),
        (("r12", "r14", "r18"), "v3"), (("r15", "r5"), "v4"),
        (("r16", "r17", "r3", "r9"), "v5"), (("r2",), "v6"), (("r4",), "v7"),
        (("r7",), "v8"),
    ]


def test_node_lps_are_packing_form_without_phase_one(monkeypatch):
    # every node LP row reads <= b with b a positive integer and touches a
    # free edge, so the slack basis is feasible and each LP is one simplex
    # pass; request rows have b = 1 and class rows b = the class's unused
    # members
    net = make_grid(5, 5, edge_len=300.0, speed=8.0)
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(23)
    real_lp, real_iterate = solve.solve_lp, solve._simplex_iterate
    lps, passes = [], []

    def counted_lp(lp):
        lps.append(lp)
        return real_lp(lp)

    def counted_iterate(*args):
        passes.append(len(lps))
        return real_iterate(*args)

    monkeypatch.setattr(solve, "solve_lp", counted_lp)
    monkeypatch.setattr(solve, "_simplex_iterate", counted_iterate)
    for trial in range(12):
        graph, registry = _random_graph(rng, net, nodes, int(rng.integers(6, 13)),
                                        int(rng.integers(3, 7)), colocated=trial % 2 == 0)
        solve_assignment(AssignmentProblem(
            graph=graph, objective=OBJECTIVES[trial % 3], penalty=10.0,
            scheme=PricingScheme(), net=net, registry=registry,
        ))
    assert len(lps) > 12
    class_bounds = []
    for lp in lps:
        assert all(rel == "<=" for _, rel, _ in lp.rows)
        if not lp.rows:  # every request covered: no free edge is left
            continue
        A = np.array([a for a, _, _ in lp.rows])
        b = np.array([b for _, _, b in lp.rows])
        assert np.all(np.any(A != 0.0, axis=1))
        # the class rows are the shortest suffix holding each column once
        k = max(k for k in range(len(A) + 1) if np.all(A[k:].sum(axis=0) == 1.0))
        assert 0 < k < len(A)
        assert np.all(b[:k] == 1.0)
        assert np.all((b[k:] >= 1.0) & (b[k:] == np.round(b[k:])))
        class_bounds.extend(b[k:])
    assert max(class_bounds) > 1  # the co-located fleets have twins
    assert passes == list(range(1, len(lps) + 1))


def _assert_root_bound_matches_highs(problem):
    # HiGHS gets the micro-unit costs unscaled: scaled to order one, its
    # 1e-7 tolerances would allow errors of a micro-unit
    comp = solve._compile(problem)
    if not comp.edges:
        return
    root = solve._solve_node(comp, frozenset(), frozenset())
    _, costs, penalty, A, V, R = _xy_form(problem)
    ref = linprog(
        np.array(costs + [penalty] * R, dtype=float),
        A_ub=A[:V], b_ub=np.ones(V), A_eq=A[V:], b_eq=np.ones(R),
        bounds=(0, None), method="highs-ds",
    )
    assert ref.status == 0
    assert abs(root.bound - ref.fun) < 1e-3


def test_root_bound_matches_highs_on_the_xy_form():
    # the packing-form root bound, one column per twin class's edge, equals
    # the textbook relaxation's optimum with one column per vehicle's edge
    net = make_grid(5, 5, edge_len=300.0, speed=8.0)
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(29)
    for trial in range(30):
        if trial < 20:
            graph, registry = _random_graph(rng, net, nodes, int(rng.integers(3, 16)),
                                            int(rng.integers(2, 9)), colocated=trial % 2 == 0)
        else:
            graph, registry = _twin_fleet_graph(rng, net, nodes, int(rng.integers(3, 16)),
                                                int(rng.integers(2, 9)))
        for objective in OBJECTIVES:
            _assert_root_bound_matches_highs(AssignmentProblem(
                graph=graph, objective=objective, penalty=10.0,
                scheme=PricingScheme(), net=net, registry=registry,
            ))


_PERMUTE_NET = make_grid(5, 5, edge_len=300.0, speed=8.0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    objective=st.sampled_from(OBJECTIVES),
    colocated=st.booleans(),
    shuffle=st.randoms(use_true_random=False),
)
def test_assignment_ignores_input_order(seed, objective, colocated, shuffle):
    # permuting requests, vehicles and edge insertion order reorders the LP
    # rows, and so can change the pivot path, but not the lex-min optimum
    net = _PERMUTE_NET
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(seed)
    graph, registry = _random_graph(rng, net, nodes, int(rng.integers(3, 9)),
                                    int(rng.integers(2, 6)), colocated=colocated)
    items = list(graph.tv_edges.items())
    requests, vehicles = list(graph.requests), list(graph.vehicles)
    for seq in (items, requests, vehicles):
        shuffle.shuffle(seq)
    permuted = RtvGraph(requests=requests, vehicles=vehicles, tv_edges=dict(items))

    def solved(g):
        return solve_assignment(AssignmentProblem(
            graph=g, objective=objective, penalty=10.0,
            scheme=PricingScheme(), net=net, registry=registry,
        ))

    assert solved(permuted) == solved(graph)


def test_assignment_zero_penalty_profit():
    # with no unserved penalty the solver only serves requests that pay; a
    # zero-cost trip ties with leaving its riders unserved, and the empty
    # set wins the tie
    net = make_grid(5, 5, edge_len=300.0, speed=8.0)
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(19)
    for _ in range(15):
        graph, registry = _random_graph(rng, net, nodes, int(rng.integers(3, 7)), 3)
        for objective in OBJECTIVES:
            problem = AssignmentProblem(
                graph=graph, objective=objective, penalty=0.0,
                scheme=PricingScheme(), net=net, registry=registry,
            )
            got = solve_assignment(problem)
            want = brute_force_assignment(problem)
            assert got.objective_micro == want.objective_micro
            assert [(t.requests, t.vehicle) for t in got.chosen] == \
                [(t.requests, t.vehicle) for t in want.chosen]
            assert got.objective_micro <= 0  # never worse than serving nobody


def test_assignment_tie_breaks_to_smallest_edge_set():
    # two identical vehicles: the optimum must use the lower vehicle id
    net = make_grid(4, 4, edge_len=250.0, speed=10.0)
    reqs = fill_direct(net, [
        Request(id="r0", origin="5", destination="10", request_time=0.0, platform="A"),
    ])
    vehs = [
        Vehicle(id="v0", platform="A", position="0"),
        Vehicle(id="v1", platform="A", position="0"),
    ]
    graph = build_rtv_graph(reqs, vehs, net, 0.0, Constraints())
    assert (("r0",), "v0") in graph.tv_edges and (("r0",), "v1") in graph.tv_edges
    got = solve_assignment(AssignmentProblem(graph=graph))
    assert [(t.requests, t.vehicle) for t in got.chosen] == [(("r0",), "v0")]


def test_failed_later_node_lp_is_a_solver_error(monkeypatch):
    # every node LP is feasible and bounded, so a node LP that fails after
    # the root is a solver fault too, not a subtree to drop
    net = make_grid(5, 5, edge_len=300.0, speed=8.0)
    nodes = sorted(net.node_set())
    graph, _ = _random_graph(np.random.default_rng(0), net, nodes, 6, 3, colocated=True)
    problem = AssignmentProblem(graph=graph)
    real = solve.solve_lp
    calls = []

    def counted(lp):
        calls.append(lp)
        return real(lp)

    monkeypatch.setattr(solve, "solve_lp", counted)
    solve_assignment(problem)
    n_lps = len(calls)
    assert n_lps > 2
    for failing in range(2, n_lps + 1):
        calls.clear()

        def fail_one(lp):
            calls.append(lp)
            return LpResult(INFEASIBLE) if len(calls) == failing else real(lp)

        monkeypatch.setattr(solve, "solve_lp", fail_one)
        with pytest.raises(SolverError, match="^assignment relaxation reported infeasible$"):
            solve_assignment(problem)


def test_assignment_empty_graph():
    net = make_grid(3, 3, edge_len=200.0, speed=10.0)
    reqs = fill_direct(net, [
        Request(id="r0", origin="0", destination="8", request_time=0.0, platform="A"),
    ])
    # no vehicles: the only outcome is paying the unserved penalty
    graph = build_rtv_graph(reqs, [], net, 0.0, Constraints())
    got = solve_assignment(AssignmentProblem(graph=graph, penalty=10.0))
    assert got.chosen == []
    assert got.unserved == ["r0"]
    assert got.objective_micro == 10_000_000


def test_assignment_problem_validation():
    net = make_grid(3, 3, edge_len=200.0, speed=10.0)
    reqs = fill_direct(net, [
        Request(id="r0", origin="0", destination="8", request_time=0.0, platform="A"),
    ])
    graph = build_rtv_graph(reqs, [], net, 0.0, Constraints())
    with pytest.raises(ValidationError):
        AssignmentProblem(graph=graph, objective="max_happiness")
    with pytest.raises(ValidationError):
        AssignmentProblem(graph=graph, penalty=-1.0)
    with pytest.raises(ValidationError):
        AssignmentProblem(graph=graph, objective="max_profit")  # needs scheme, net, registry
    with pytest.raises(ValidationError):
        AssignmentProblem(graph=graph, objective="max_profit", scheme=PricingScheme(), net=net)


@pytest.mark.parametrize("penalty", [float("nan"), float("inf")])
def test_assignment_problem_rejects_non_finite_penalty(penalty):
    graph = build_rtv_graph([], [], make_grid(2, 2, edge_len=200.0, speed=10.0), 0.0,
                            Constraints())
    with pytest.raises(ValidationError, match="penalty must be finite"):
        AssignmentProblem(graph=graph, penalty=penalty)


def test_brute_force_guard():
    net = make_grid(4, 4, edge_len=200.0, speed=10.0)
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(5)
    graph, _ = _random_graph(rng, net, nodes, 9, 2)
    with pytest.raises(TooLargeError):
        brute_force_assignment(AssignmentProblem(graph=graph))
