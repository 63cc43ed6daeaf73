"""Exact optimization: LP simplex, trip assignment ILP, brute-force oracle.

The LP solver is a dense two-phase tableau simplex.  It prices with
Dantzig's rule and falls back to Bland's rule permanently once the
objective stalls, so it is fast in the typical case and still terminates
on every input.  The assignment solver wraps it in a best-bound branch
and bound over integer micro-unit costs, which makes optimal values
exactly comparable and lets ties be broken deterministically: lowest
cost, then the lexicographically smallest chosen edge set, with edges
ordered by their (trip, vehicle) key.  Each assignment solves its root
relaxation once: it is the root node of the branch and bound, and its
reduced costs fix out every edge that lies in no optimum before the
tie-break scan, which also skips edges that clash with its committed set.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    PivotLimitError,
    SolverError,
    TooLargeError,
    ValidationError,
)
from .model import METERS_PER_MILE, PricingScheme, Trip, trip_marginal_profit
from .network import RoadNetwork
from .rtv import RtvGraph

OBJECTIVES = ("min_delay_penalty", "min_vmt_penalty", "max_profit")

MICRO = 1_000_000
_SIMPLEX_TOL = 1e-9
_MAX_PIVOTS = 20_000
_STALL_LIMIT = 50

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


# ---------------------------------------------------------------------------
# linear programming
# ---------------------------------------------------------------------------

@dataclass
class LinearProgram:
    """min c@x subject to rows (a, rel, b) with rel in {'<=', '>=', '='} and x >= 0."""

    c: np.ndarray
    rows: list[tuple[np.ndarray, str, float]]

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.shape[0]
        checked = []
        for a, rel, b in self.rows:
            a = np.asarray(a, dtype=float)
            if a.shape != (n,):
                raise DimensionMismatchError(
                    f"constraint row has {a.shape[0] if a.ndim == 1 else '?'} "
                    f"coefficients, expected {n}"
                )
            if rel not in ("<=", ">=", "="):
                raise DimensionMismatchError(f"unknown relation {rel!r}")
            checked.append((a, rel, float(b)))
        self.rows = checked


@dataclass
class LpResult:
    status: str
    value: float | None = None
    x: np.ndarray | None = None
    reduced: np.ndarray | None = None  # reduced costs of the structural variables


def _pivot(T: np.ndarray, z: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] = T[row] / T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row][None, :]
    if z[col] != 0.0:
        z -= z[col] * T[row]
    basis[row] = col


def _simplex_iterate(
    T: np.ndarray,
    z: np.ndarray,
    basis: list[int],
    allowed: np.ndarray,
) -> str:
    """Pivot to optimality or unboundedness.

    Dantzig pricing until the objective stops improving for a stretch,
    then Bland's rule for guaranteed termination.  Ties are resolved by
    lowest column index entering and lowest basic index leaving, so the
    pivot sequence is deterministic.
    """
    bland = False
    stall = 0
    last = z[-1]
    for _ in range(_MAX_PIVOTS):
        negative = np.where(allowed & (z[:-1] < -_SIMPLEX_TOL))[0]
        if negative.size == 0:
            return OPTIMAL
        if bland:
            col = int(negative[0])
        else:
            col = int(negative[np.argmin(z[negative])])
        positive = np.where(T[:, col] > _SIMPLEX_TOL)[0]
        if positive.size == 0:
            return UNBOUNDED
        ratios = T[positive, -1] / T[positive, col]
        tied = positive[ratios <= ratios.min() + _SIMPLEX_TOL]
        row = int(min(tied, key=lambda i: basis[i]))
        _pivot(T, z, basis, row, col)
        if not bland:
            if z[-1] > last + _SIMPLEX_TOL:
                stall = 0
            else:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            last = z[-1]
    raise PivotLimitError(
        f"simplex pivot limit of {_MAX_PIVOTS} exceeded on an LP of "
        f"{T.shape[0]} rows x {T.shape[1] - 1} columns, slacks included"
    )


def solve_lp(lp: LinearProgram) -> LpResult:
    """Two-phase primal simplex."""
    n = lp.c.shape[0]
    m = len(lp.rows)
    if m == 0:
        # no rows: each variable sits at zero unless pushed down
        if np.any(lp.c < -_SIMPLEX_TOL):
            return LpResult(UNBOUNDED)
        x = np.zeros(n)
        return LpResult(OPTIMAL, float(lp.c @ x), x, np.array(lp.c, copy=True))

    A = np.array([a for a, _, _ in lp.rows], dtype=float)
    b = np.array([r for _, _, r in lp.rows], dtype=float)
    rels = [rel for _, rel, _ in lp.rows]
    for i in range(m):
        if b[i] < 0:
            A[i] = -A[i]
            b[i] = -b[i]
            rels[i] = {"<=": ">=", ">=": "<=", "=": "="}[rels[i]]

    n_slack = sum(1 for r in rels if r in ("<=", ">="))
    n_art = sum(1 for r in rels if r in (">=", "="))
    width = n + n_slack + n_art
    T = np.zeros((m, width + 1))
    T[:, :n] = A
    T[:, -1] = b
    basis = [0] * m
    s = n
    a_col = n + n_slack
    art_cols = []
    for i, rel in enumerate(rels):
        if rel == "<=":
            T[i, s] = 1.0
            basis[i] = s
            s += 1
        elif rel == ">=":
            T[i, s] = -1.0
            s += 1
            T[i, a_col] = 1.0
            basis[i] = a_col
            art_cols.append(a_col)
            a_col += 1
        else:
            T[i, a_col] = 1.0
            basis[i] = a_col
            art_cols.append(a_col)
            a_col += 1

    art_mask = np.zeros(width, dtype=bool)
    art_mask[art_cols] = True

    if art_cols:
        z1 = np.zeros(width + 1)
        z1[art_cols] = 1.0
        for i in range(m):
            if basis[i] in art_cols:
                z1 -= T[i]
        status = _simplex_iterate(T, z1, basis, np.ones(width, dtype=bool))
        if status != OPTIMAL:  # phase 1 is always bounded below by 0
            raise SolverError("phase 1 reported unbounded")
        if -z1[-1] > 1e-7 * (1.0 + abs(b).max()):
            return LpResult(INFEASIBLE)
        # drive leftover artificials out of the basis
        drop_rows = []
        for i in range(m):
            if basis[i] in art_cols:
                pivots = [
                    j for j in range(width)
                    if not art_mask[j] and abs(T[i, j]) > _SIMPLEX_TOL
                ]
                if pivots:
                    _pivot(T, z1, basis, i, pivots[0])
                else:
                    drop_rows.append(i)
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            T = T[keep]
            basis = [basis[i] for i in keep]
            m = len(keep)

    c_full = np.zeros(width + 1)
    c_full[:n] = lp.c
    z = c_full.copy()
    for i in range(m):
        if c_full[basis[i]] != 0.0:
            z -= c_full[basis[i]] * T[i]
    status = _simplex_iterate(T, z, basis, ~art_mask)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)

    x_full = np.zeros(width)
    for i in range(m):
        x_full[basis[i]] = T[i, -1]
    # + 0.0 turns a basic value of -0.0 into 0.0, so no allocation prints -0.0
    x = x_full[:n] + 0.0
    return LpResult(OPTIMAL, float(lp.c @ x), x, z[:n].copy())


# ---------------------------------------------------------------------------
# trip assignment
# ---------------------------------------------------------------------------

@dataclass
class AssignmentProblem:
    """Trip-vehicle assignment over a trip graph under one objective.

    min_delay_penalty   sum of rider delays in minutes + penalty per unserved
    min_vmt_penalty     added route miles + penalty per unserved
    max_profit          total marginal profit (needs scheme and net)
    """

    graph: RtvGraph
    objective: str = "min_delay_penalty"
    penalty: float = 10.0
    scheme: PricingScheme | None = None
    net: RoadNetwork | None = None

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"unknown objective {self.objective!r}")
        if self.penalty < 0:
            raise ValidationError("penalty must be non-negative")
        if self.objective == "max_profit" and (self.scheme is None or self.net is None):
            raise ValidationError("max_profit needs a pricing scheme and a network")


@dataclass
class Assignment:
    """Chosen trips, uncovered requests and the exact objective value.

    objective_micro is the objective in integer millionths of its unit
    (minutes, miles or negated fixed-point profit times a thousand).
    """

    chosen: list[Trip]
    unserved: list[str]
    objective_micro: int

    @property
    def objective_value(self) -> float:
        return self.objective_micro / MICRO


@dataclass
class _Compiled:
    edges: list[Trip]
    costs: list[int]          # micro-units per edge
    penalty_micro: int
    requests: list[str]
    vehicles: list[str]
    edge_requests: list[frozenset[int]]
    edge_vehicle: list[int]
    scale: float = 1.0

    def __post_init__(self) -> None:
        peak = max((abs(c) for c in self.costs), default=0)
        self.scale = float(max(1, peak, self.penalty_micro))


def _edge_cost_micro(problem: AssignmentProblem, trip: Trip) -> int:
    if problem.objective == "min_delay_penalty":
        total_delay = sum(trip.per_request_delay.values())
        return round(total_delay / 60.0 * MICRO)
    if problem.objective == "min_vmt_penalty":
        return round(trip.incremental_distance / METERS_PER_MILE * MICRO)
    profit = trip_marginal_profit(problem.scheme, trip, problem.net)
    return -profit * 1000


def _compile(problem: AssignmentProblem) -> _Compiled:
    graph = problem.graph
    edges = graph.edges_sorted()
    req_index = {r: i for i, r in enumerate(graph.requests)}
    veh_index = {v: i for i, v in enumerate(graph.vehicles)}
    return _Compiled(
        edges=edges,
        costs=[_edge_cost_micro(problem, t) for t in edges],
        penalty_micro=round(problem.penalty * MICRO),
        requests=list(graph.requests),
        vehicles=list(graph.vehicles),
        edge_requests=[frozenset(req_index[r] for r in t.requests) for t in edges],
        edge_vehicle=[veh_index[t.vehicle] for t in edges],
    )


def _exact_cost(comp: _Compiled, chosen: frozenset[int]) -> int:
    served = set().union(*(comp.edge_requests[e] for e in chosen)) if chosen else set()
    total = sum(comp.costs[e] for e in chosen)
    return total + comp.penalty_micro * (len(comp.requests) - len(served))


@dataclass
class _Relaxation:
    bound: float          # micro-units, including the fixed constant
    x: np.ndarray
    free: list[int]
    reduced: np.ndarray   # micro-units per free column
    fixed_in: frozenset[int]
    fixed_out: frozenset[int]


def _solve_node(
    comp: _Compiled,
    fixed_in: frozenset[int],
    fixed_out: frozenset[int],
) -> _Relaxation:
    """Solve one node's relaxation, with the fixed variables eliminated.

    Fixed-in edges, which never clash with each other, contribute a
    constant and knock out their vehicle and requests; fixed-out edges
    simply drop.  This keeps the tableau small and avoids artificial
    columns for the fixings.  The columns are the free edges, then one
    unserved column per open request; the rows are one ``<=`` row per
    vehicle with a free edge, in index order, then one ``=`` row per open
    request.  Every node LP is feasible, since each request may stay
    unserved, and bounded, since every free edge lies in a vehicle row
    with limit 1; any other status is a solver fault.
    """
    blocked = {comp.edge_vehicle[e] for e in fixed_in}
    covered = set().union(*(comp.edge_requests[e] for e in fixed_in))
    free = [
        e for e in range(len(comp.edges))
        if e not in fixed_in and e not in fixed_out
        and comp.edge_vehicle[e] not in blocked
        and not (comp.edge_requests[e] & covered)
    ]
    open_reqs = [r for r in range(len(comp.requests)) if r not in covered]
    vehicle_row = {
        v: k for k, v in enumerate(sorted({comp.edge_vehicle[e] for e in free}))
    }
    request_row = {r: len(vehicle_row) + k for k, r in enumerate(open_reqs)}
    c = np.array(
        [comp.costs[e] for e in free] + [comp.penalty_micro] * len(open_reqs),
        dtype=float,
    ) / comp.scale
    A = np.zeros((len(vehicle_row) + len(open_reqs), c.shape[0]))
    for i, e in enumerate(free):
        A[vehicle_row[comp.edge_vehicle[e]], i] = 1.0
        for r in comp.edge_requests[e]:
            A[request_row[r], i] = 1.0
    for k, r in enumerate(open_reqs):
        A[request_row[r], len(free) + k] = 1.0
    rows = [(a, "<=" if k < len(vehicle_row) else "=", 1.0) for k, a in enumerate(A)]
    res = solve_lp(LinearProgram(c=c, rows=rows))
    if res.status != OPTIMAL:
        raise SolverError(f"assignment relaxation reported {res.status}")
    return _Relaxation(
        bound=res.value * comp.scale + sum(comp.costs[e] for e in fixed_in),
        x=res.x,
        free=free,
        reduced=res.reduced[: len(free)] * comp.scale,
        fixed_in=fixed_in,
        fixed_out=fixed_out,
    )


def _branch_and_bound(
    comp: _Compiled,
    root: _Relaxation,
    target: int | None = None,
) -> tuple[int | None, frozenset[int] | None]:
    """Exact minimum of the integer micro-cost under the root's fixings.

    With ``target`` given, stops as soon as a solution at or below the
    target is found, certifying whether the target is attainable.  The
    0.5 pruning margin is safe because LP bound errors are far smaller
    than half a micro-unit at these cost scales.
    """
    best_val: int | None = None
    best_set: frozenset[int] | None = None
    cap = float("inf") if target is None else target + 1
    counter = itertools.count()
    heap = [(root.bound, next(counter), root)]
    while heap:
        bound, _, relax = heapq.heappop(heap)
        limit = min(best_val if best_val is not None else float("inf"), cap)
        if bound >= limit - 0.5:
            break
        frac_val = 0.0
        branch_e = None
        for i, e in enumerate(relax.free):
            f = abs(relax.x[i] - round(relax.x[i]))
            if f > frac_val:
                frac_val, branch_e = f, e
        if frac_val <= 1e-6:
            chosen = relax.fixed_in | {
                e for i, e in enumerate(relax.free) if relax.x[i] > 0.5
            }
            val = _exact_cost(comp, chosen)
            if best_val is None or val < best_val:
                best_val, best_set = val, chosen
                if target is not None and best_val <= target:
                    return best_val, best_set
            continue
        fin, fout = relax.fixed_in, relax.fixed_out
        for child_fin, child_fout in (
            (fin | {branch_e}, fout),
            (fin, fout | {branch_e}),
        ):
            child = _solve_node(comp, child_fin, child_fout)
            limit = min(best_val if best_val is not None else float("inf"), cap)
            if child.bound >= limit - 0.5:
                continue
            heapq.heappush(heap, (child.bound, next(counter), child))
    return best_val, best_set


def _lex_min_optimum(
    comp: _Compiled, value: int, witness: frozenset[int], root: _Relaxation
) -> frozenset[int]:
    """Smallest optimal edge set in sorted-tuple order.

    Scans edges in index order, keeping an optimal witness consistent
    with all decisions.  A committed prefix that already attains the
    optimum beats every extension, so the scan stops there.  Before the
    scan, the root relaxation's reduced costs fix out every edge they
    prove to lie in no optimum; during it, an edge that shares a vehicle
    or a request with the committed set is skipped without an LP.  Each
    remaining candidate outside the witness gets a branch and bound with
    it forced in.  Runs on every solve: when the optimum is unique no
    edge outside the witness can be forced in, so the witness comes back
    unchanged.
    """
    fout = {
        e for i, e in enumerate(root.free)
        if root.x[i] < 1e-9 and root.bound + root.reduced[i] >= value + 0.5
    }
    fin: set[int] = set()
    blocked: set[int] = set()
    covered: set[int] = set()
    current = witness
    for e in range(len(comp.edges)):
        if e not in current and (
            e in fout
            or comp.edge_vehicle[e] in blocked
            or comp.edge_requests[e] & covered
        ):
            continue
        if _exact_cost(comp, frozenset(fin)) == value:
            return frozenset(fin)
        if e not in current:
            trial = _solve_node(comp, frozenset(fin | {e}), frozenset(fout))
            val, found = _branch_and_bound(comp, trial, target=value)
            if val is None or val > value:
                fout.add(e)
                continue
            current = found
        fin.add(e)
        blocked.add(comp.edge_vehicle[e])
        covered |= comp.edge_requests[e]
    if _exact_cost(comp, frozenset(fin)) == value:
        return frozenset(fin)
    return current


def _finish(comp: _Compiled, chosen_idx: frozenset[int]) -> Assignment:
    chosen = [comp.edges[e] for e in sorted(chosen_idx)]
    served: set[str] = set()
    for t in chosen:
        served.update(t.requests)
    unserved = sorted(set(comp.requests) - served)
    return Assignment(
        chosen=chosen, unserved=unserved, objective_micro=_exact_cost(comp, chosen_idx)
    )


def solve_assignment(problem: AssignmentProblem) -> Assignment:
    """Exact assignment with deterministic tie-breaking."""
    comp = _compile(problem)
    if not comp.edges:
        return _finish(comp, frozenset())
    root = _solve_node(comp, frozenset(), frozenset())
    value, witness = _branch_and_bound(comp, root)
    return _finish(comp, _lex_min_optimum(comp, value, witness, root))


def brute_force_assignment(problem: AssignmentProblem) -> Assignment:
    """Independent oracle: complete search over all valid assignments.

    Uses a subset dynamic program over served-request masks, then walks
    every optimal solution to apply the same tie-break as the solver.
    Guarded to at most 8 requests and 5 vehicles.
    """
    comp = _compile(problem)
    R = len(comp.requests)
    V = len(comp.vehicles)
    if R > 8 or V > 5:
        raise TooLargeError(f"oracle guard exceeded: {R} requests, {V} vehicles")
    if not comp.edges:
        return _finish(comp, frozenset())

    edge_mask = [
        sum(1 << r for r in comp.edge_requests[e]) for e in range(len(comp.edges))
    ]
    by_vehicle: list[list[int]] = [[] for _ in range(V)]
    for e in range(len(comp.edges)):
        by_vehicle[comp.edge_vehicle[e]].append(e)

    full = 1 << R
    INF = float("inf")
    # cost-to-go over vehicles k..V-1 given already-served mask
    h = [[INF] * full for _ in range(V + 1)]
    for mask in range(full):
        h[V][mask] = comp.penalty_micro * (R - bin(mask).count("1"))
    for k in range(V - 1, -1, -1):
        for mask in range(full):
            best = h[k + 1][mask]
            for e in by_vehicle[k]:
                if edge_mask[e] & mask:
                    continue
                cand = comp.costs[e] + h[k + 1][mask | edge_mask[e]]
                if cand < best:
                    best = cand
            h[k][mask] = best
    best_val = h[0][0]

    solutions: list[tuple[tuple[int, ...], frozenset[int]]] = []

    def walk(k: int, mask: int, acc: int, chosen: list[int]) -> None:
        if acc + h[k][mask] != best_val:
            return
        if k == V:
            idx = frozenset(chosen)
            solutions.append((tuple(sorted(idx)), idx))
            return
        if acc + h[k + 1][mask] == best_val:
            walk(k + 1, mask, acc, chosen)
        for e in by_vehicle[k]:
            if edge_mask[e] & mask:
                continue
            nxt = acc + comp.costs[e]
            if nxt + h[k + 1][mask | edge_mask[e]] == best_val:
                walk(k + 1, mask | edge_mask[e], nxt, chosen + [e])

    walk(0, 0, 0, [])
    winner = min(solutions)[1]
    return _finish(comp, winner)
