"""Market mechanisms: profit allocation, sealed-bid auction, request trading.

Cooperative-game allocations work on a characteristic function over
platform coalitions.  The auction and trading procedures run during a
simulation epoch: a platform's pool is the requests whose ``platform`` it
is, and each procedure sets ``platform`` on the requests it sells or
trades.  Valuations solve profit-maximizing assignments over restrictions
of the stage's trip graph.
"""
from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, isfinite
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import TooLargeError, ValidationError
from .model import WAITING, PricingScheme, Request, Vehicle, trip_marginal_profit
from .network import RoadNetwork
from .rtv import RtvGraph
from .solve import (
    OPTIMAL,
    Assignment,
    AssignmentProblem,
    LinearProgram,
    solve_assignment,
    solve_lp,
)


MAX_PLAYERS = 12
# Players the core LP of EPM and contribution takes.  Its dense tableau has
# n(n-1) + 2^n - 1 rows, and from 7 players on the simplex has returned
# wrong optima, a false empty core and failed phase 1s on games HiGHS
# solves, so a larger game is refused before the LP is built.
MAX_CORE_PLAYERS = 6
# Absolute tolerance of in_core's efficiency and coalition tests, in the
# units of the game's values.
CORE_TOL = 1e-6


# ---------------------------------------------------------------------------
# cooperative game
# ---------------------------------------------------------------------------

def coalition_key(players) -> str:
    """A coalition's name in files: its members sorted and comma-joined."""
    return ",".join(sorted(players))


def check_player_id(pid: object) -> None:
    """Raise ValidationError unless ``pid`` can name a platform: a non-empty
    string with no comma, as coalition keys are comma-joined ids and an
    empty platform on a request means untagged."""
    if not isinstance(pid, str) or not pid or "," in pid:
        raise ValidationError(
            f"platform id {pid!r} must be a non-empty string without commas")


@dataclass
class CoalitionGame:
    """A transferable-utility game over at most MAX_PLAYERS platforms.

    ``values`` must define every non-empty coalition; the empty coalition
    is 0 by convention and may not be queried.
    """

    players: tuple[str, ...]
    values: dict[frozenset[str], float]

    def __post_init__(self) -> None:
        self.players = tuple(self.players)
        if not 1 <= len(self.players) <= MAX_PLAYERS:
            raise ValidationError(f"player count must be in 1..{MAX_PLAYERS}")
        for p in self.players:
            check_player_id(p)
        if len(set(self.players)) != len(self.players):
            raise ValidationError("duplicate player id")
        self.values = {frozenset(k): v for k, v in self.values.items()}
        if frozenset() in self.values:
            raise ValidationError("the empty coalition may not be given a value")
        base = set(self.players)
        stray = set().union(*self.values) - base
        if stray:
            raise ValidationError(f"coalition values name unknown players {sorted(stray)}")
        for size in range(1, len(self.players) + 1):
            for combo in itertools.combinations(sorted(base), size):
                if frozenset(combo) not in self.values:
                    raise ValidationError(f"missing coalition value for {combo}")
                # compared, as math.isfinite overflows on huge ints; NaN compares False
                if not abs(self.values[frozenset(combo)]) <= sys.float_info.max:
                    raise ValidationError(f"non-finite coalition value for {combo}")

    @property
    def n(self) -> int:
        return len(self.players)

    def value(self, coalition: Iterable[str]) -> float:
        s = frozenset(coalition)
        if not s:
            raise ValidationError("the empty coalition has no value")
        if not s <= set(self.players):
            raise ValidationError(f"unknown players {sorted(s - set(self.players))}")
        return self.values[s]

    def grand_value(self) -> float:
        return self.value(self.players)


@dataclass
class Allocation:
    """A payoff vector over the game's players."""

    amounts: dict[str, Fraction | float]

    def total(self):
        return sum(self.amounts.values())

    def as_floats(self) -> dict[str, float]:
        return {k: float(v) for k, v in self.amounts.items()}


def shapley(game: CoalitionGame) -> Allocation:
    """Shapley value, computed exactly with rational arithmetic.

    Exact fractions keep the efficiency identity (payoffs summing to the
    grand coalition value) free of rounding error.
    """
    n = game.n
    amounts: dict[str, Fraction] = {}
    for player in game.players:
        others = [p for p in game.players if p != player]
        total = Fraction(0)
        for size in range(n):
            weight = Fraction(factorial(size) * factorial(n - size - 1), factorial(n))
            for combo in itertools.combinations(others, size):
                before = Fraction(game.value(combo)) if combo else Fraction(0)
                after = Fraction(game.value(combo + (player,)))
                total += weight * (after - before)
        amounts[player] = total
    return Allocation(amounts)


def in_core(game: CoalitionGame, allocation: Allocation) -> bool:
    """Exhaustive core membership check: efficiency plus no blocking
    coalition, each within CORE_TOL.  Every test fails on a NaN amount,
    which compares False."""
    missing = sorted(set(game.players) - set(allocation.amounts))
    unknown = sorted(set(allocation.amounts) - set(game.players))
    if missing or unknown:
        raise ValidationError(f"allocation: missing {missing}, unknown {unknown}")
    xs = {p: float(allocation.amounts[p]) for p in game.players}
    if not abs(sum(xs.values()) - float(game.grand_value())) <= CORE_TOL:
        return False
    for size in range(1, game.n):
        for combo in itertools.combinations(game.players, size):
            if not sum(xs[p] for p in combo) >= float(game.value(combo)) - CORE_TOL:
                return False
    return True


def _core_allocation(
    game: CoalitionGame, d: Mapping[str, float], o: Mapping[str, float]
) -> tuple[Allocation, float] | None:
    """Core allocation minimizing the spread t of the scaled gains (x - o) / d.

    Minimizes t subject to t >= (x_i - o_i)/d_i - (x_j - o_j)/d_j for every
    ordered pair, then the core rows: no coalition gets less than it earns
    alone, and the grand coalition's value is shared out exactly.  A core
    payoff is at least the player's standalone value, which may be negative,
    so the LP's non-negative variables are y = x - min(0, v({p})).  Returns
    None when the core is empty.  Raises TooLargeError above
    MAX_CORE_PLAYERS players.
    """
    if game.n > MAX_CORE_PLAYERS:
        raise TooLargeError(
            f"the core LP takes at most {MAX_CORE_PLAYERS} players, got {game.n}")
    width = 1 + game.n
    low = {p: min(0.0, float(game.value([p]))) for p in game.players}
    x_at = {p: 1 + i for i, p in enumerate(game.players)}
    pairs = list(itertools.permutations(game.players, 2))
    coalitions = [combo for size in range(1, game.n + 1)
                  for combo in itertools.combinations(game.players, size)]
    A = np.zeros((len(pairs) + len(coalitions), width))
    b = []
    for k, (i, j) in enumerate(pairs):
        A[k, [0, x_at[i], x_at[j]]] = 1.0, -1.0 / d[i], 1.0 / d[j]
        b.append((o[j] - low[j]) / d[j] - (o[i] - low[i]) / d[i])
    for k, combo in enumerate(coalitions, start=len(pairs)):
        A[k, [x_at[p] for p in combo]] = 1.0
        b.append(game.value(combo) - sum(low[p] for p in combo))
    rel = [">="] * (len(A) - 1) + ["="]  # the last row is the grand coalition
    res = solve_lp(LinearProgram(c=np.eye(width)[0], A=A, b=b, rel=rel))
    if res.status != OPTIMAL:
        return None
    amounts = {p: float(res.x[x_at[p]]) + low[p] for p in game.players}
    return Allocation(amounts), float(res.value)


def epm_allocate(game: CoalitionGame) -> tuple[Allocation, float] | None:
    """Core allocation minimizing the spread of payoff-to-standalone ratios.

    Returns None when the core is empty.  Every standalone value must be
    strictly positive for the ratios to make sense.  Takes at most
    MAX_CORE_PLAYERS players.
    """
    singles = {p: float(game.value([p])) for p in game.players}
    bad = [p for p, v in singles.items() if v <= 0]
    if bad:
        raise ValidationError(f"non-positive standalone value for {bad}")
    return _core_allocation(game, singles, dict.fromkeys(game.players, 0.0))


def contribution_weights(
    costs: Mapping[str, float], revenues: Mapping[str, float]
) -> dict[str, float]:
    """Player weights mixing cost share and demand share.

    The cost coefficient is overall net revenue over total cost; the
    revenue coefficient is net revenue over profit, which coincides with
    net revenue here and therefore equals one.
    """
    if set(costs) != set(revenues):
        raise ValidationError("costs and revenues must cover the same players")
    total_cost = float(sum(costs.values()))
    total_revenue = float(sum(revenues.values()))
    if not (isfinite(total_cost) and isfinite(total_revenue)):
        raise ValidationError("costs and revenues must be finite")
    net = total_revenue - total_cost
    if total_cost <= 0:
        raise ValidationError("total cost must be positive")
    if net <= 0:
        raise ValidationError("total net revenue must be positive")
    theta_cost = net / total_cost
    # net revenue over profit: the two are equal in this accounting
    theta_revenue = 1.0
    denom = theta_cost * total_cost + theta_revenue * total_revenue
    return {
        p: (theta_cost * float(costs[p]) + theta_revenue * float(revenues[p])) / denom
        for p in sorted(costs)
    }


def contribution_allocate(
    game: CoalitionGame, weights: Mapping[str, float]
) -> tuple[Allocation, float] | None:
    """Core allocation equalizing weighted gains over standalone values.

    Returns None when the core is empty.  Takes at most MAX_CORE_PLAYERS
    players.
    """
    missing = [p for p in game.players if p not in weights]
    if missing:
        raise ValidationError(f"no weight for players {missing}")
    nonfinite = [p for p in game.players if not isfinite(weights[p])]
    if nonfinite:
        raise ValidationError(f"non-finite weight for {nonfinite}")
    bad = [p for p in game.players if weights[p] <= 0]
    if bad:
        raise ValidationError(f"non-positive weight for {bad}")
    singles = {p: float(game.value([p])) for p in game.players}
    return _core_allocation(game, weights, singles)


# ---------------------------------------------------------------------------
# sealed-bid auction
# ---------------------------------------------------------------------------

class Bid(NamedTuple):
    platform: str
    amount: int  # fixed-point money, non-negative


@dataclass(frozen=True)
class AuctionOutcome:
    winner: str
    winning_amount: int
    payment: int  # gamma times the second-highest bid, in fixed point


def run_single_item_auction(bids: list[Bid], gamma: float) -> AuctionOutcome | None:
    """Sealed-bid single-item auction with a discounted second-price payment.

    The highest bid wins, ties going to the lowest platform id; the winner
    pays gamma times the second-highest bid.  Returns None (no sale) when
    every bid is zero.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"gamma must lie in [0, 1], got {gamma}")
    if not bids:
        return None
    for b in bids:
        if b.amount < 0:
            raise ValidationError(f"negative bid from {b.platform}")
    if all(b.amount == 0 for b in bids):
        return None
    top = max(b.amount for b in bids)
    tied = sorted(b.platform for b in bids if b.amount == top)
    winner_id = tied[0]
    rest = [b.amount for b in bids if b.platform != winner_id]
    second = max(rest) if rest else 0
    return AuctionOutcome(
        winner=winner_id, winning_amount=top, payment=round(gamma * second)
    )


# ---------------------------------------------------------------------------
# live-market valuation helpers
# ---------------------------------------------------------------------------

@dataclass
class MatchingContext:
    """Shared inputs for valuation subproblems within one decision stage.

    ``graph`` is the stage's trip graph; every subproblem solves a
    restriction of it, so vehicles must not change while it is in use.
    """

    graph: RtvGraph
    net: RoadNetwork
    scheme: PricingScheme
    registry: Mapping[str, Request]
    profit_cache: dict = field(default_factory=dict)


def _max_profit_assignment(
    requests: list[Request], vehicles: list[Vehicle], ctx: MatchingContext
) -> Assignment:
    """Max-profit assignment of the requests to the fleet."""
    graph = ctx.graph.restrict([r.id for r in requests], [v.id for v in vehicles])
    # No unserved penalty: a request is only served at a profit, which also
    # keeps every valuation and information price non-negative.
    return solve_assignment(
        AssignmentProblem(
            graph=graph, objective="max_profit", penalty=0.0,
            scheme=ctx.scheme, net=ctx.net, registry=ctx.registry,
        )
    )


def optimal_profit(
    vehicles: list[Vehicle], requests: list[Request], ctx: MatchingContext
) -> int:
    """Best attainable marginal profit of serving the request pool.

    Exact profit-objective assignment over the pool and fleet; an empty
    pool or fleet is worth nothing.
    """
    if not vehicles or not requests:
        return 0
    key = (tuple(sorted(v.id for v in vehicles)), tuple(sorted(r.id for r in requests)))
    if key in ctx.profit_cache:
        return ctx.profit_cache[key]
    profit = -_max_profit_assignment(requests, vehicles, ctx).objective_micro // 1000
    ctx.profit_cache[key] = profit
    return profit


def platform_valuation(
    fleet: list[Vehicle], pool: list[Request], request: Request, ctx: MatchingContext
) -> int:
    """How much adding the request to the pool is worth to the fleet's
    platform.

    Marginal optimal profit, clamped at zero; a request no vehicle can
    serve is worth nothing.
    """
    base = optimal_profit(fleet, pool, ctx)
    extended = optimal_profit(fleet, pool + [request], ctx)
    return max(0, extended - base)


# ---------------------------------------------------------------------------
# marketplace auction stage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuctionAward:
    epoch: int
    request: str
    platform: str
    payment: int


def marketplace_epoch(
    pool: list[Request],
    owned: list[Request],
    fleets: Mapping[str, list[Vehicle]],
    gamma: float,
    rng: np.random.Generator,
    ctx: MatchingContext,
    epoch: int = 0,
) -> list[AuctionAward]:
    """Sequentially auction the broker's requests in random order.

    ``owned`` holds the requests earlier auctions sold; a platform's pool
    is the sold requests whose ``platform`` it is.  An award moves the
    request to the winner, so it lowers (or raises) the winner's
    valuations for later items.  Requests nobody bids on stay with the
    broker for the next epoch.
    """
    ordered = sorted(pool, key=lambda r: r.id)
    perm = rng.permutation(len(ordered))
    sold = list(owned)
    awards: list[AuctionAward] = []
    for idx in perm:
        request = ordered[idx]
        bids = [
            Bid(pid, platform_valuation(
                fleet, [r for r in sold if r.platform == pid], request, ctx))
            for pid, fleet in sorted(fleets.items())
        ]
        outcome = run_single_item_auction(bids, gamma)
        if outcome is None:
            continue
        request.platform = outcome.winner
        sold.append(request)
        awards.append(
            AuctionAward(
                epoch=epoch,
                request=request.id,
                platform=outcome.winner,
                payment=outcome.payment,
            )
        )
    return awards


# ---------------------------------------------------------------------------
# request trading
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TradeRecord:
    epoch: int
    request: str
    seller: str
    buyer: str
    info_price: int  # fixed-point payment from buyer to seller

    def __post_init__(self) -> None:
        if self.seller == self.buyer:
            raise ValidationError("a platform cannot trade with itself")
        if self.info_price < 0:
            raise ValidationError("information price must be non-negative")


def _split_proportional(total: int, weights: list[int], tags: list[str]) -> list[int]:
    """Split an integer amount proportionally with largest-remainder rounding.

    Non-positive weights are clamped to zero beforehand; if nothing is
    left the split falls back to equal weights.  Ties go to the lower tag.
    """
    clamped = [max(0, w) for w in weights]
    if sum(clamped) == 0:
        clamped = [1] * len(weights)
    denom = sum(clamped)
    shares = [total * w // denom for w in clamped]
    remainders = [
        (-(total * clamped[i] % denom), tags[i], i) for i in range(len(clamped))
    ]
    leftover = total - sum(shares)
    for _, _, i in sorted(remainders):
        if leftover <= 0:
            break
        shares[i] += 1
        leftover -= 1
    return shares


def central_trading_epoch(
    requests: list[Request],
    vehicles: list[Vehicle],
    gamma: float,
    ctx: MatchingContext,
    epoch: int = 0,
) -> tuple[list[TradeRecord], Assignment]:
    """Pool every platform's leftovers and re-assign for maximum profit.

    A platform whose vehicle serves another platform's request pays the
    seller gamma times its profit from that service; pooled rides split
    the payment in proportion to the profit of serving each request alone.
    Each traded request moves to its buyer.  The broker only passes
    payments through.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"gamma must lie in [0, 1], got {gamma}")
    assignment = _max_profit_assignment(requests, vehicles, ctx)
    platform_of_vehicle = {v.id: v.platform for v in vehicles}
    trades: list[TradeRecord] = []
    for trip in assignment.chosen:
        buyer = platform_of_vehicle[trip.vehicle]
        profit = trip_marginal_profit(ctx.scheme, trip, ctx.net, ctx.registry)
        total_price = round(gamma * profit)
        standalone = [
            trip_marginal_profit(ctx.scheme, ctx.graph.tv_edges[((rid,), trip.vehicle)],
                                 ctx.net, ctx.registry)
            for rid in trip.requests
        ]
        shares = _split_proportional(total_price, standalone, list(trip.requests))
        for rid, share in zip(trip.requests, shares):
            request = ctx.registry[rid]
            seller = request.platform
            if seller == buyer:
                continue
            request.platform = buyer
            request.traded = True
            trades.append(
                TradeRecord(
                    epoch=epoch,
                    request=rid,
                    seller=seller,
                    buyer=buyer,
                    info_price=share,
                )
            )
    return trades, assignment


def bilateral_trading_round(
    requests: list[Request],
    fleets: Mapping[str, list[Vehicle]],
    gamma: float,
    rng: np.random.Generator,
    ctx: MatchingContext,
    epoch: int = 0,
) -> list[TradeRecord]:
    """One round of pairwise trading over every unordered platform pair.

    Pairs and the requests within each pair are visited in seeded random
    order; a pair's candidates are the requests either of them owns.  The
    prospective buyer values a request against its whole fleet, committed
    vehicles included, and its own pool; any positive marginal profit
    moves the request to the buyer at price gamma times that profit.  A
    request trades at most once per episode.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"gamma must lie in [0, 1], got {gamma}")
    pairs = list(itertools.combinations(sorted(fleets), 2))
    trades: list[TradeRecord] = []
    for pair_idx in rng.permutation(len(pairs)):
        pair = pairs[pair_idx]
        candidates = sorted((r for r in requests if r.platform in pair),
                            key=lambda r: r.id)
        for req_idx in rng.permutation(len(candidates)):
            request = candidates[req_idx]
            if request.traded or request.state != WAITING:
                continue
            seller = request.platform
            buyer = pair[1] if seller == pair[0] else pair[0]
            pool = [r for r in requests if r.platform == buyer]
            profit = platform_valuation(fleets[buyer], pool, request, ctx)
            if profit == 0:
                continue
            request.platform = buyer
            request.traded = True
            trades.append(
                TradeRecord(
                    epoch=epoch,
                    request=request.id,
                    seller=seller,
                    buyer=buyer,
                    info_price=round(gamma * profit),
                )
            )
    return trades
