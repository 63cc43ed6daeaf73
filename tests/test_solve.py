"""LP simplex and assignment branch-and-bound against independent oracles."""
import numpy as np
import pytest
from scipy.optimize import linprog

from ridemarket.errors import DimensionMismatchError, TooLargeError
from ridemarket.model import Request, Vehicle, PricingScheme, fill_direct
from ridemarket.network import make_grid
from ridemarket.rtv import Constraints, build_rtv_graph
from ridemarket.solve import (
    INFEASIBLE,
    OBJECTIVES,
    OPTIMAL,
    UNBOUNDED,
    AssignmentProblem,
    LinearProgram,
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


def test_lp_equality_and_lower_bounds():
    # min x + y s.t. x + y = 3, x >= 1, y >= 0.5
    lp = LinearProgram(
        c=[1.0, 1.0],
        rows=[(np.array([1.0, 1.0]), "=", 3.0)],
        lower_bounds=[1.0, 0.5],
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(3.0, abs=1e-9)


def test_lp_dimension_validation():
    with pytest.raises(DimensionMismatchError):
        LinearProgram(c=[1.0, 2.0], rows=[(np.array([1.0]), "<=", 1.0)])
    with pytest.raises(DimensionMismatchError):
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
        lb = np.where(rng.random(n) < 0.3, rng.normal(size=n), 0.0)
        res = solve_lp(LinearProgram(c=c, rows=rows, lower_bounds=lb))
        ref = linprog(
            c,
            A_ub=np.array(A_ub) if A_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(A_eq) if A_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=[(float(l), None) for l in lb],
            method="highs",
        )
        want = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(ref.status)
        assert res.status == want
        if want == OPTIMAL:
            assert res.value == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
            # reduced costs are non-negative at a minimum
            assert np.all(res.reduced > -1e-6)


def test_lp_degenerate_cycling_guard():
    # classic Beale-style degenerate instance; must terminate at the optimum
    lp = LinearProgram(
        c=[-0.75, 150.0, -0.02, 6.0],
        rows=[
            (np.array([0.25, -60.0, -0.04, 9.0]), "<=", 0.0),
            (np.array([0.5, -90.0, -0.02, 3.0]), "<=", 0.0),
            (np.array([0.0, 0.0, 1.0, 0.0]), "<=", 1.0),
        ],
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-0.05, abs=1e-9)


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
    return build_rtv_graph(reqs, vehs, net, now, Constraints())


def test_assignment_matches_brute_force():
    net = make_grid(5, 5, edge_len=300.0, speed=8.0)
    nodes = sorted(net.node_set())
    scheme = PricingScheme()
    rng = np.random.default_rng(11)
    for trial in range(120):
        graph = _random_graph(rng, net, nodes,
                              int(rng.integers(3, 9)), int(rng.integers(2, 6)),
                              colocated=trial >= 60)
        problem = AssignmentProblem(
            graph=graph, objective=OBJECTIVES[trial % 3], penalty=10.0,
            scheme=scheme, net=net,
        )
        got = solve_assignment(problem)
        want = brute_force_assignment(problem)
        assert got.objective_micro == want.objective_micro
        assert [(t.requests, t.vehicle) for t in got.chosen] == \
            [(t.requests, t.vehicle) for t in want.chosen]
        assert got.unserved == want.unserved


def test_assignment_zero_penalty_profit():
    # with no unserved penalty the solver only serves requests that pay; a
    # zero-cost trip ties with leaving its riders unserved, and the empty
    # set wins the tie
    net = make_grid(5, 5, edge_len=300.0, speed=8.0)
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(19)
    for _ in range(15):
        graph = _random_graph(rng, net, nodes, int(rng.integers(3, 7)), 3)
        for objective in OBJECTIVES:
            problem = AssignmentProblem(
                graph=graph, objective=objective, penalty=0.0,
                scheme=PricingScheme(), net=net,
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
    with pytest.raises(ValueError):
        AssignmentProblem(graph=graph, objective="max_happiness")
    with pytest.raises(ValueError):
        AssignmentProblem(graph=graph, penalty=-1.0)
    with pytest.raises(ValueError):
        AssignmentProblem(graph=graph, objective="max_profit")  # needs scheme+net


def test_brute_force_guard():
    net = make_grid(4, 4, edge_len=200.0, speed=10.0)
    nodes = sorted(net.node_set())
    rng = np.random.default_rng(5)
    graph = _random_graph(rng, net, nodes, 9, 2)
    with pytest.raises(TooLargeError):
        brute_force_assignment(AssignmentProblem(graph=graph))
