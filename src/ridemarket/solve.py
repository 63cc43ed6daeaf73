"""Exact optimization: LP simplex, trip assignment ILP, brute-force oracle.

The LP solver is a dense tableau simplex.  It prices with Dantzig's rule
and falls back to Bland's rule permanently once the objective stalls, so
it is fast in the typical case and still terminates on every input.  It
runs phase 1 only when a row needs an artificial column (``>=`` and
``=`` rows, as in the core-allocation LP).  The assignment solver wraps
it in a best-bound branch and bound over integer micro-unit costs, which
makes optimal values exactly comparable and lets ties be broken
deterministically: lowest cost, then the lexicographically smallest
chosen edge set, with edges ordered by their (trip, vehicle) key.
Vehicles with identical trips at identical costs are twins, and each twin
class is solved as one vehicle of its size: node LPs have one column per
free edge of the class's lowest-id vehicle.  They are in packing form:
the unserved indicators are substituted out, a request row reads
``<= 1`` and a class row ``<= k`` less its fixed-in edges, k the class
size, and so x = 0 is a feasible start and no node LP runs phase 1.  Each assignment solves its
root relaxation once: it is the root node of the branch and bound, and
its reduced costs fix out every class edge that lies in no optimum before
the tie-break scan.  The scan walks the original edges, hands each
class's trips to its members in id order, and skips edges that clash
with its committed set.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    PivotLimitError,
    SolverError,
    TooLargeError,
    ValidationError,
)
from .model import METERS_PER_MILE, PricingScheme, Request, Trip, trip_marginal_profit
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
                raise ValidationError(
                    f"constraint row has {a.shape[0] if a.ndim == 1 else '?'} "
                    f"coefficients, expected {n}"
                )
            if rel not in ("<=", ">=", "="):
                raise ValidationError(f"unknown relation {rel!r}")
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
    """Primal simplex, with a phase 1 when a row needs an artificial column."""
    n = lp.c.shape[0]
    m = len(lp.rows)
    A = np.array([a for a, _, _ in lp.rows], dtype=float).reshape(m, n)
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
    max_profit          total marginal profit (needs scheme, net and registry)
    """

    graph: RtvGraph
    objective: str = "min_delay_penalty"
    penalty: float = 10.0
    scheme: PricingScheme | None = None
    net: RoadNetwork | None = None
    registry: Mapping[str, Request] | None = None

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"unknown objective {self.objective!r}")
        if not 0 <= self.penalty < math.inf:  # NaN compares False
            raise ValidationError("penalty must be finite and non-negative")
        profit_inputs = (self.scheme, self.net, self.registry)
        if self.objective == "max_profit" and None in profit_inputs:
            raise ValidationError("max_profit needs a scheme, a network and a registry")


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
    """An assignment problem over edges in sorted (trip, vehicle) order.

    Vehicles with identical (trip key, cost) lists are twins; each twin
    class is numbered in the order of its lowest vehicle id, which
    represents it.  ``edge_member`` is the rank of an edge's vehicle in its
    class by id, and ``edge_rep`` the class representative's edge with the
    same trip, which precedes it in the sorted order.  Node LPs and the
    branch and bound work on representative edges, ``reps``.
    """

    edges: list[Trip]
    costs: list[int]          # micro-units per edge
    penalty_micro: int
    requests: list[str]
    vehicles: list[str]
    edge_requests: list[frozenset[int]]
    edge_class: list[int]
    edge_member: list[int]
    edge_rep: list[int]
    class_size: list[int]
    reps: list[int]
    scale: float = 1.0

    def __post_init__(self) -> None:
        peak = max((abs(c) for c in self.costs), default=0)
        self.scale = float(max(1, peak, self.penalty_micro))


def _edge_cost_micro(problem: AssignmentProblem, trip: Trip) -> int:
    if problem.objective == "min_delay_penalty":
        return round(trip.total_delay / 60.0 * MICRO)
    if problem.objective == "min_vmt_penalty":
        return round(trip.incremental_distance / METERS_PER_MILE * MICRO)
    profit = trip_marginal_profit(problem.scheme, trip, problem.net, problem.registry)
    return -profit * 1000


def _compile(problem: AssignmentProblem) -> _Compiled:
    graph = problem.graph
    edges = graph.edges_sorted()
    req_index = {r: i for i, r in enumerate(graph.requests)}
    costs, edge_requests = [], []
    signature: dict[str, list] = {}  # vehicle id -> its trip keys and costs
    key = served = None
    for t in edges:
        if t.requests != key:  # the edges of one trip are adjacent
            key = t.requests
            served = frozenset(req_index[r] for r in key)
        cost = _edge_cost_micro(problem, t)
        costs.append(cost)
        edge_requests.append(served)
        signature.setdefault(t.vehicle, []).extend((key, cost))
    classes: dict[tuple, list[str]] = {}
    for vid in sorted(signature):
        classes.setdefault(tuple(signature[vid]), []).append(vid)
    place = {vid: (c, j) for c, members in enumerate(classes.values())
             for j, vid in enumerate(members)}
    edge_class, edge_member, edge_rep, reps = [], [], [], []
    latest = [0] * len(classes)  # each class's latest representative edge
    for e, t in enumerate(edges):
        c, j = place[t.vehicle]
        if j == 0:
            latest[c] = e
            reps.append(e)
        edge_class.append(c)
        edge_member.append(j)
        edge_rep.append(latest[c])
    return _Compiled(
        edges=edges,
        costs=costs,
        penalty_micro=round(problem.penalty * MICRO),
        requests=list(graph.requests),
        vehicles=list(graph.vehicles),
        edge_requests=edge_requests,
        edge_class=edge_class,
        edge_member=edge_member,
        edge_rep=edge_rep,
        class_size=[len(members) for members in classes.values()],
        reps=reps,
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
    """Solve one node's relaxation in packing form over twin classes.

    A node fixes representative edges, each standing for its trip on some
    member of its class.  Fixed-in edges, which never clash with each
    other, contribute their costs, take one unit of their class and knock
    out their requests; fixed-out edges simply drop.  Each open request's
    unserved indicator is substituted out, ``y_r = 1 - sum of x_e over the
    free edges serving r``, so there is one column per free representative
    edge, costed ``c_e - penalty * |R_e|``, and the constant
    ``penalty * (open requests)`` joins the bound in exact integers.  The
    rows are one ``<= 1`` per request that a free edge serves, in index
    order, then one per class that a free edge uses, in class order,
    bounded by the class size less its fixed-in edges, a positive
    integer.  So x = 0 is feasible and the slack basis starts the simplex
    without a phase 1, and the LP is bounded, since every column lies in a
    class row; any other status is a solver fault.  The request rows come
    first so that request slacks take the lower column indices: the ratio
    test breaks ties by lowest basic index, and on the benchmark problems
    the opposite order needs 1.5 to 3 times as many node LPs.  Its value
    is the unaggregated relaxation's: spread a class column evenly over
    the members, or sum the members' columns.
    """
    room = list(comp.class_size)
    for e in fixed_in:
        room[comp.edge_class[e]] -= 1
    covered = set().union(*(comp.edge_requests[e] for e in fixed_in))
    free = [
        e for e in comp.reps
        if e not in fixed_in and e not in fixed_out
        and room[comp.edge_class[e]]
        and not (comp.edge_requests[e] & covered)
    ]
    served = sorted(set().union(*(comp.edge_requests[e] for e in free)))
    used = sorted({comp.edge_class[e] for e in free})
    request_row = {r: k for k, r in enumerate(served)}
    class_row = {c: len(served) + k for k, c in enumerate(used)}
    A = np.zeros((len(served) + len(used), len(free)))
    for i, e in enumerate(free):
        A[class_row[comp.edge_class[e]], i] = 1.0
        for r in comp.edge_requests[e]:
            A[request_row[r], i] = 1.0
    c = np.array(
        [comp.costs[e] - comp.penalty_micro * len(comp.edge_requests[e]) for e in free],
        dtype=float,
    ) / comp.scale
    b = [1] * len(served) + [room[c] for c in used]
    res = solve_lp(LinearProgram(c=c, rows=[(a, "<=", bi) for a, bi in zip(A, b)]))
    if res.status != OPTIMAL:
        raise SolverError(f"assignment relaxation reported {res.status}")
    constant = sum(comp.costs[e] for e in fixed_in) + comp.penalty_micro * (
        len(comp.requests) - len(covered)
    )
    return _Relaxation(
        bound=res.value * comp.scale + constant,
        x=res.x,
        free=free,
        reduced=res.reduced * comp.scale,
        fixed_in=fixed_in,
        fixed_out=fixed_out,
    )


def _branch_and_bound(
    comp: _Compiled,
    root: _Relaxation,
    target: int | None = None,
) -> tuple[int | None, frozenset[int] | None]:
    """Exact minimum of the integer micro-cost under the root's fixings.

    Returns the value and a set of representative edges attaining it.

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

    Scans the original edges in index order, keeping an optimal class
    solution (a set of representative edges, like ``witness``) consistent
    with all decisions, and returns the original edges it accepted.  A
    committed prefix that already attains the optimum beats every
    extension, so the scan stops there.  Before the scan, the root
    relaxation's reduced costs fix out every representative edge they
    prove to lie in no optimum; during it, an edge that shares a request
    with the committed set is skipped without an LP.  Of a class
    v1 < ... < vk with v1..vr already used, the scan handles only edges of
    v(r+1), and tests or accepts (T, v(r+1)) as the representative edge
    (T, C).  Each remaining candidate outside the current solution gets a
    branch and bound with it forced in.  Runs on every solve: when the
    optimum is unique no edge outside it can be forced in, so the witness
    comes back unchanged.

    Why this is exact:

    * Swap argument.  Take twins v < w and any optimum.  If it gives w a
      trip smaller than v's, or uses w while v is unused, swapping their
      trips gives another optimum, and the smallest edge that differs
      between the two, (T, v), lies in the swapped set.  So the lex-min
      optimum hands each class's trips to its members in id order: v1
      the smallest, and only a prefix v1..vr in use.
    * Forcing an edge.  Let the committed set use v1..vr of class C.
      Forcing (T, v(r+1)) in, with every earlier edge decided, is
      attainable exactly when forcing the class edge (T, C) in is: any
      class solution that contains it and avoids the rejected class edges
      has no trip below T on C outside the committed set (each such trip
      was rejected, or clashes with it), so it can be handed out with
      the committed trips on v1..vr, T on v(r+1), and the rest above.
      Conversely an original optimum that uses (T, v(r+1)) sums to a class
      solution.  The scan reaches (T, v(r+1)) before every (T, vj) with
      j > r + 1, and forcing (T, vj) gives the same answer by the symmetry
      that swaps vj and v(r+1), both unused; so those edges are skipped,
      as are the edges of v1..vr, which are used.
    * Fixing.  Every original solution sums to a class solution of equal
      cost, and the class LP's value is the unaggregated relaxation's, so
      reduced-cost fixing on the class LP removes only class edges that
      lie in no optimum.
    """
    fout = {
        e for i, e in enumerate(root.free)
        if root.x[i] < 1e-9 and root.bound + root.reduced[i] >= value + 0.5
    }
    fin: set[int] = set()          # representative edges
    accepted: list[int] = []       # the original edges they stand for
    used = [0] * len(comp.class_size)
    covered: set[int] = set()
    current = witness
    for e in range(len(comp.edges)):
        rep = comp.edge_rep[e]
        if (
            comp.edge_member[e] != used[comp.edge_class[e]]
            or comp.edge_requests[e] & covered
            or (rep in fout and rep not in current)
        ):
            continue
        if _exact_cost(comp, frozenset(fin)) == value:
            return frozenset(accepted)
        if rep not in current:
            trial = _solve_node(comp, frozenset(fin | {rep}), frozenset(fout))
            val, found = _branch_and_bound(comp, trial, target=value)
            if val is None or val > value:
                fout.add(rep)
                continue
            current = found
        fin.add(rep)
        accepted.append(e)
        used[comp.edge_class[e]] += 1
        covered |= comp.edge_requests[e]
    # every edge is decided, so the accepted set is the lex-min optimum
    return frozenset(accepted)


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
    veh_index = {v: i for i, v in enumerate(comp.vehicles)}
    by_vehicle: list[list[int]] = [[] for _ in range(V)]
    for e, t in enumerate(comp.edges):
        by_vehicle[veh_index[t.vehicle]].append(e)

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
