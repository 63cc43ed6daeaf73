"""Cooperative game allocations, sealed-bid auction and trading rounds."""
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from ridemarket.errors import TooLargeError, ValidationError
from ridemarket.mechanisms import (
    MAX_CORE_PLAYERS,
    Allocation,
    Bid,
    CoalitionGame,
    MatchingContext,
    TradeRecord,
    _split_proportional,
    bilateral_trading_round,
    central_trading_epoch,
    contribution_allocate,
    contribution_weights,
    epm_allocate,
    in_core,
    marketplace_epoch,
    optimal_profit,
    run_single_item_auction,
    shapley,
)
from ridemarket.model import (
    PricingScheme,
    Request,
    Vehicle,
    fill_direct,
    rider_fare,
    trip_marginal_profit,
)
from ridemarket.network import make_grid
from ridemarket.rtv import Constraints, build_rtv_graph


def _game(players, values):
    return CoalitionGame(players=tuple(players),
                         values={frozenset(k): float(v) for k, v in values.items()})


def _random_game(rng, n):
    players = tuple(str(i + 1) for i in range(n))
    values = {}
    for k in range(1, n + 1):
        for sub in itertools.combinations(players, k):
            values[frozenset(sub)] = float(rng.integers(0, 40))
    return CoalitionGame(players=players, values=values)


def _random_superadditive_game(rng, n):
    """Build v by maxing over all two-part splits, which forces superadditivity."""
    players = tuple(str(i + 1) for i in range(n))
    values: dict[frozenset, float] = {}
    for k in range(1, n + 1):
        for sub in itertools.combinations(players, k):
            s = frozenset(sub)
            base = float(rng.integers(1, 20)) * k
            for size in range(1, k):
                for part in itertools.combinations(sub, size):
                    p = frozenset(part)
                    base = max(base, values[p] + values[s - p])
            values[s] = base
    return CoalitionGame(players=players, values=values)


def _shapley_oracle(game):
    """All-permutations marginal contribution average, exact arithmetic."""
    players = game.players
    n = len(players)
    totals = {p: Fraction(0) for p in players}
    for perm in itertools.permutations(players):
        seen = []
        for p in perm:
            before = Fraction(game.value(frozenset(seen))) if seen else Fraction(0)
            seen.append(p)
            after = Fraction(game.value(frozenset(seen)))
            totals[p] += after - before
    return {p: totals[p] / Fraction(math.factorial(n)) for p in players}


# ---------------------------------------------------------------------------
# coalition games and Shapley
# ---------------------------------------------------------------------------

def test_game_requires_all_coalitions():
    with pytest.raises(ValidationError):
        CoalitionGame(players=("a", "b"), values={frozenset({"a"}): 1.0})


@pytest.mark.parametrize("players", [("A,B", "A", "B"), ("", "A")])
def test_game_rejects_player_ids_a_coalition_key_cannot_hold(players):
    # {A,B} and {"A,B"} would share the key "A,B"
    values = {frozenset(c): 1.0 for k in range(1, len(players) + 1)
              for c in itertools.combinations(players, k)}
    bad = next(p for p in players if not p or "," in p)
    with pytest.raises(ValidationError, match=f"^platform id {bad!r} must be"):
        CoalitionGame(players=players, values=values)


def test_game_rejects_values_for_unknown_players():
    with pytest.raises(ValidationError, match=r"unknown players \['z'\]"):
        _game("a", {"a": 1, "az": 2})


@pytest.mark.parametrize(("coalition", "value"), [
    ("AB", math.nan), ("A", math.inf), ("B", -math.inf), ("AB", 10**400),
], ids=["nan", "inf", "minus-inf", "huge-int"])
def test_game_rejects_non_finite_values(coalition, value):
    # caught here, where the coalition can be named: unchecked, these fail
    # deep in the core LP or in shapley's Fraction conversion
    values = {frozenset("A"): 10.0, frozenset("B"): 20.0, frozenset("AB"): 36.0}
    values[frozenset(coalition)] = value
    with pytest.raises(ValidationError, match=(
            "^non-finite coalition value for " + re.escape(str(tuple(coalition))) + "$")):
        CoalitionGame(players=("A", "B"), values=values)


def test_empty_coalition_rejected():
    g = _game("ab", {"a": 1, "b": 2, "ab": 4})
    with pytest.raises(ValidationError, match="^the empty coalition has no value$"):
        g.value(frozenset())


def test_game_rejects_a_value_for_the_empty_coalition():
    values = {frozenset(): 99.0, frozenset("A"): 10.0, frozenset("B"): 20.0,
              frozenset("AB"): 36.0}
    with pytest.raises(ValidationError,
                       match="^the empty coalition may not be given a value$"):
        CoalitionGame(players=("A", "B"), values=values)


def test_shapley_matches_permutation_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        game = _random_game(rng, int(rng.integers(2, 5)))
        phi = shapley(game)
        want = _shapley_oracle(game)
        for p in game.players:
            assert phi.amounts[p] == want[p]  # exact rational equality


def test_shapley_efficiency_and_symmetry():
    g = _game("ab", {"a": 5, "b": 5, "ab": 30})
    phi = shapley(g)
    assert phi.total() == Fraction(30)
    assert phi.amounts["a"] == phi.amounts["b"] == Fraction(15)


def test_shapley_null_player():
    g = _game("abc", {"a": 10, "b": 4, "c": 0, "ab": 14, "ac": 10,
                      "bc": 4, "abc": 14})
    phi = shapley(g)
    assert phi.amounts["c"] == 0


def test_shapley_additivity():
    rng = np.random.default_rng(17)
    g1 = _random_game(rng, 3)
    g2_vals = {s: float(rng.integers(0, 40)) for s in g1.values}
    g2 = CoalitionGame(players=g1.players, values=g2_vals)
    gsum = CoalitionGame(
        players=g1.players,
        values={s: g1.values[s] + g2.values[s] for s in g1.values},
    )
    p1, p2, ps = shapley(g1), shapley(g2), shapley(gsum)
    for p in g1.players:
        assert ps.amounts[p] == p1.amounts[p] + p2.amounts[p]


def test_shapley_glove_game():
    # two left gloves, one right: v(S) = matched pairs
    g = _game(["l1", "l2", "r"], {
        ("l1",): 0, ("l2",): 0, ("r",): 0,
        ("l1", "l2"): 0, ("l1", "r"): 1, ("l2", "r"): 1,
        ("l1", "l2", "r"): 1,
    })
    phi = shapley(g)
    assert phi.amounts["l1"] == Fraction(1, 6)
    assert phi.amounts["l2"] == Fraction(1, 6)
    assert phi.amounts["r"] == Fraction(2, 3)


# ---------------------------------------------------------------------------
# core and allocation LPs
# ---------------------------------------------------------------------------

def test_in_core_worked_example():
    g = _game("12", {"1": 10, "2": 20, "12": 36})
    assert in_core(g, Allocation({"1": 12.0, "2": 24.0}))
    assert not in_core(g, Allocation({"1": 30.0, "2": 6.0}))   # 2 blocks
    assert not in_core(g, Allocation({"1": 12.0, "2": 20.0}))  # not efficient


def test_in_core_rejects_nan_and_names_stray_players():
    g = _game("12", {"1": 10, "2": 20, "12": 36})
    assert not in_core(g, Allocation({"1": math.nan, "2": 24.0}))
    assert not in_core(g, Allocation({"1": 12.0, "2": math.nan}))
    with pytest.raises(ValidationError, match=r"missing \['2'\], unknown \[\]$"):
        in_core(g, Allocation({"1": 36.0}))
    with pytest.raises(ValidationError, match=r"missing \[\], unknown \['3'\]$"):
        in_core(g, Allocation({"1": 12.0, "2": 24.0, "3": 0.0}))


def test_epm_worked_example():
    g = _game("12", {"1": 10, "2": 20, "12": 36})
    alloc, alpha = epm_allocate(g)
    assert alpha == pytest.approx(0.0, abs=1e-9)
    assert alloc.amounts["1"] == pytest.approx(12.0, abs=1e-9)
    assert alloc.amounts["2"] == pytest.approx(24.0, abs=1e-9)


def test_epm_majority_game_core_empty():
    players = ("1", "2", "3")
    values = {}
    for k in (1, 2, 3):
        for sub in itertools.combinations(players, k):
            values[frozenset(sub)] = 0.001 if k == 1 else 1.0
    game = CoalitionGame(players=players, values=values)
    assert epm_allocate(game) is None
    assert contribution_allocate(game, {p: 1.0 for p in players}) is None


def test_epm_rejects_nonpositive_standalone():
    g = _game("12", {"1": 0, "2": 20, "12": 36})
    with pytest.raises(ValidationError,
                       match=r"^non-positive standalone value for \['1'\]$"):
        epm_allocate(g)


def test_contribution_weights_worked_example():
    w = contribution_weights(costs={"1": 10.0, "2": 30.0},
                             revenues={"1": 20.0, "2": 40.0})
    assert w["1"] == pytest.approx(0.3125, abs=1e-12)
    assert w["2"] == pytest.approx(0.6875, abs=1e-12)


def test_contribution_weights_guard_zero_denominators():
    with pytest.raises(ValidationError, match="^total cost must be positive$"):
        contribution_weights(costs={"1": 0.0, "2": 0.0}, revenues={"1": 1.0, "2": 1.0})
    with pytest.raises(ValidationError, match="^total net revenue must be positive$"):
        contribution_weights(costs={"1": 1.0, "2": 1.0}, revenues={"1": 1.0, "2": 1.0})


def test_contribution_allocate_equal_weights():
    g = _game("12", {"1": 10, "2": 20, "12": 36})
    alloc, beta = contribution_allocate(g, {"1": 0.5, "2": 0.5})
    assert beta == pytest.approx(0.0, abs=1e-9)
    assert alloc.amounts["1"] == pytest.approx(13.0, abs=1e-9)
    assert alloc.amounts["2"] == pytest.approx(23.0, abs=1e-9)


def test_contribution_allocate_rejects_zero_weight():
    g = _game("12", {"1": 10, "2": 20, "12": 36})
    with pytest.raises(ValidationError, match=r"^non-positive weight for \['1'\]$"):
        contribution_allocate(g, {"1": 0.0, "2": 1.0})


@pytest.mark.parametrize(("weights", "bad"), [
    ({"A": math.nan, "B": math.nan}, "['A', 'B']"),
    ({"A": math.inf, "B": 1.0}, "['A']"),
    ({"A": 1.0, "B": -math.inf}, "['B']"),
], ids=["nan", "inf", "minus-inf"])
def test_contribution_allocate_rejects_non_finite_weights(weights, bad):
    # NaN passes a `<= 0` test and an infinite weight gives an allocation,
    # so each weight must be checked finite as well as positive
    g = _game("AB", {"A": 10, "B": 20, "AB": 36})
    with pytest.raises(ValidationError, match=f"^non-finite weight for {re.escape(bad)}$"):
        contribution_allocate(g, weights)


@pytest.mark.parametrize(("costs", "revenues"), [
    ({"A": 1.0, "B": 1.0}, {"A": math.inf, "B": 5.0}),
    ({"A": 1.0, "B": 1.0}, {"A": 5.0, "B": math.nan}),
    ({"A": math.nan, "B": 1.0}, {"A": 5.0, "B": 5.0}),
    ({"A": math.inf, "B": -math.inf}, {"A": 5.0, "B": 5.0}),
], ids=["inf-revenue", "nan-revenue", "nan-cost", "opposite-inf-costs"])
def test_contribution_weights_reject_non_finite_inputs(costs, revenues):
    with pytest.raises(ValidationError, match="^costs and revenues must be finite$"):
        contribution_weights(costs, revenues)


def test_lp_allocations_stay_in_core():
    rng = np.random.default_rng(23)
    returned = 0
    for _ in range(30):
        game = _random_superadditive_game(rng, int(rng.integers(2, 5)))
        out = epm_allocate(game)
        if out is not None:
            assert in_core(game, out[0])
            returned += 1
        weights = {p: float(rng.integers(1, 5)) for p in game.players}
        out = contribution_allocate(game, weights)
        if out is not None:
            assert in_core(game, out[0])
    assert returned >= 10


def _synergy_game(rng, n, family):
    """A game over n players with standalone values drawn in [10, 20).

    proportional: v(S) = (1 + 0.05(|S| - 1)) times the standalone sum;
    random: the standalone sum times a fresh draw in [1, 1.3);
    convex: the standalone sum plus 2|S|(|S| - 1), which is supermodular.
    """
    players = tuple(f"p{i}" for i in range(n))
    base = {p: int(rng.integers(10, 20)) for p in players}
    values = {}
    for k in range(1, n + 1):
        for combo in itertools.combinations(players, k):
            total = sum(base[p] for p in combo)
            if family == "proportional":
                v = (1 + 0.05 * (k - 1)) * total
            elif family == "random":
                v = total * (1 + rng.uniform(0.0, 0.3)) if k > 1 else total
            else:
                v = total + 2.0 * k * (k - 1)
            values[frozenset(combo)] = float(v)
    return CoalitionGame(players=players, values=values)


def _highs_core_spread(game, d, o):
    """The core LP of EPM and contribution, solved by HiGHS: the least
    spread t of the scaled gains (x - o) / d, or None when it is infeasible."""
    players = game.players
    n = game.n
    rows, rhs = [], []
    for i, j in itertools.permutations(range(n), 2):
        # (x_i - o_i)/d_i - (x_j - o_j)/d_j <= t
        row = np.zeros(n + 1)
        row[0], row[1 + i], row[1 + j] = -1.0, 1.0 / d[players[i]], -1.0 / d[players[j]]
        rows.append(row)
        rhs.append(o[players[i]] / d[players[i]] - o[players[j]] / d[players[j]])
    for k in range(1, n):
        for combo in itertools.combinations(range(n), k):
            row = np.zeros(n + 1)
            row[[1 + c for c in combo]] = -1.0
            rows.append(row)
            rhs.append(-game.value([players[c] for c in combo]))
    grand = np.ones((1, n + 1))
    grand[0, 0] = 0.0
    res = linprog(np.eye(n + 1)[0], A_ub=np.array(rows), b_ub=rhs, A_eq=grand,
                  b_eq=[game.grand_value()], bounds=(None, None), method="highs")
    assert res.status in (0, 2), res.message
    return None if res.status == 2 else res.fun


@pytest.mark.parametrize("n", range(3, MAX_CORE_PLAYERS + 1))
def test_core_allocations_match_highs(n):
    empty = 0
    for family in ("proportional", "random", "convex"):
        for seed in range(10):
            rng = np.random.default_rng([n, seed])
            game = _synergy_game(rng, n, family)
            weights = {p: float(rng.uniform(0.5, 2.0)) for p in game.players}
            singles = {p: game.value([p]) for p in game.players}
            for got, d, o in (
                (epm_allocate(game), singles, dict.fromkeys(game.players, 0.0)),
                (contribution_allocate(game, weights), weights, singles),
            ):
                want = _highs_core_spread(game, d, o)
                if want is None:
                    assert got is None
                    empty += 1
                    continue
                assert got is not None
                allocation, spread = got
                assert abs(spread - want) <= 1e-6 * max(1.0, abs(want))
                assert in_core(game, allocation)
    # both outcomes occur at every size
    assert 0 < empty < 60


def test_contribution_core_payoff_may_be_negative():
    # a player whose driver pay exceeds its fares stands alone at a loss;
    # equal weights share the 3 of synergy equally
    g = _game("AB", {"A": -5, "B": 10, "AB": 8})
    alloc, beta = contribution_allocate(g, {"A": 1.0, "B": 1.0})
    assert alloc.amounts["A"] == pytest.approx(-3.5, abs=1e-9)
    assert alloc.amounts["B"] == pytest.approx(11.5, abs=1e-9)
    assert beta == pytest.approx(0.0, abs=1e-9)
    assert in_core(g, alloc)


@pytest.mark.parametrize("n", range(2, MAX_CORE_PLAYERS + 1))
def test_contribution_matches_highs_with_negative_standalone_values(n):
    # standalone values in [-20, 20), so some players stand alone at a
    # loss; EPM rejects such games, so only contribution is compared
    empty = negative = 0
    for seed in range(20):
        rng = np.random.default_rng([n, seed, 7])
        players = tuple(f"p{i}" for i in range(n))
        base = {p: int(rng.integers(-20, 20)) for p in players}
        # each coalition gains or loses k(k - 1) times a draw in [-1, 4)
        values = {frozenset(c): float(sum(base[p] for p in c)
                                      + k * (k - 1) * rng.uniform(-1.0, 4.0))
                  for k in range(1, n + 1) for c in itertools.combinations(players, k)}
        game = CoalitionGame(players=players, values=values)
        weights = {p: float(rng.uniform(0.5, 2.0)) for p in players}
        singles = {p: game.value([p]) for p in players}
        got = contribution_allocate(game, weights)
        want = _highs_core_spread(game, weights, singles)
        if want is None:
            assert got is None
            empty += 1
            continue
        assert got is not None
        allocation, spread = got
        assert abs(spread - want) <= 1e-6 * max(1.0, abs(want))
        assert in_core(game, allocation)
        negative += min(allocation.amounts.values()) < 0
    # empty and non-empty cores occur, and some core payoffs are negative
    assert 0 < empty < 20
    assert negative > 0


def test_core_allocations_refuse_seven_players():
    game = _synergy_game(np.random.default_rng(0), MAX_CORE_PLAYERS + 1, "proportional")
    weights = dict.fromkeys(game.players, 1.0)
    message = f"^the core LP takes at most {MAX_CORE_PLAYERS} players, got 7$"
    with pytest.raises(TooLargeError, match=message):
        epm_allocate(game)
    with pytest.raises(TooLargeError, match=message):
        contribution_allocate(game, weights)


# ---------------------------------------------------------------------------
# auction
# ---------------------------------------------------------------------------

def test_auction_table_cases():
    assert run_single_item_auction([], 0.1) is None
    assert run_single_item_auction([Bid("0", 0), Bid("1", 0)], 0.1) is None
    out = run_single_item_auction([Bid("0", 5000), Bid("1", 3000)], 0.1)
    assert (out.winner, out.winning_amount, out.payment) == ("0", 5000, 300)
    out = run_single_item_auction([Bid("0", 4000)], 0.1)
    assert (out.winner, out.payment) == ("0", 0)  # no runner-up, nothing to pay
    out = run_single_item_auction([Bid("1", 5000), Bid("0", 5000)], 0.1)
    assert out.winner == "0"  # exact tie goes to the lowest platform id
    assert out.payment == 500


def test_auction_seeded_invariants():
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        bids = [Bid(str(i), int(rng.integers(0, 5000))) for i in range(n)]
        gamma = float(rng.choice([0.05, 0.1, 0.25]))
        out = run_single_item_auction(bids, gamma)
        amounts = [b.amount for b in bids]
        if max(amounts) == 0:
            assert out is None
            continue
        top = max(amounts)
        tied = sorted(b.platform for b in bids if b.amount == top)
        assert out.winner == tied[0]
        second = max([a for b, a in zip(bids, amounts) if b.platform != out.winner],
                     default=0)
        assert out.payment == round(gamma * second)
        assert out.payment <= out.winning_amount
        # raising the winner's bid never changes the outcome
        raised = [Bid(b.platform, b.amount + (1000 if b.platform == out.winner else 0))
                  for b in bids]
        out2 = run_single_item_auction(raised, gamma)
        assert (out2.winner, out2.payment) == (out.winner, out.payment)


def test_split_proportional_largest_remainder():
    parts = _split_proportional(1000, [2.0, 1.0, 1.0], ["x", "y", "z"])
    assert parts == [500, 250, 250]
    parts = _split_proportional(100, [1.0, 1.0, 1.0], ["x", "y", "z"])
    assert sum(parts) == 100
    assert sorted(parts) == [33, 33, 34]
    # all-zero weights fall back to an equal split
    parts = _split_proportional(90, [0.0, 0.0, 0.0], ["x", "y", "z"])
    assert parts == [30, 30, 30]


# ---------------------------------------------------------------------------
# trading rounds
# ---------------------------------------------------------------------------

def _context(net, requests, vehicles, now):
    """The stage context of one trip graph over the requests and vehicles."""
    registry = {r.id: r for r in requests}
    graph = build_rtv_graph(requests, vehicles, net, now, Constraints(), registry=registry)
    return MatchingContext(graph=graph, net=net, scheme=PricingScheme(), registry=registry)


def _trade_setup():
    net = make_grid(6, 6, edge_len=400.0, speed=8.0)
    # platform A holds a long profitable request but has no vehicle nearby
    req = fill_direct(net, [
        Request(id="r0", origin="0", destination="35", request_time=0.0, platform="A"),
    ])[0]
    veh = Vehicle(id="b0", platform="B", position="0")
    return net, req, veh, _context(net, [req], [veh], 0.0)


def test_optimal_profit_of_single_request():
    net, req, veh, ctx = _trade_setup()
    base = optimal_profit([veh], [], ctx)
    extended = optimal_profit([veh], [req], ctx)
    assert base == 0
    assert extended > 0  # long dedicated trip is profitable


def test_bilateral_trade_moves_request_to_buyer():
    net, req, veh, ctx = _trade_setup()
    gain = optimal_profit([veh], [req], ctx)
    fleets = {"A": [], "B": [veh]}
    rng = np.random.default_rng(0)
    trades = bilateral_trading_round([req], fleets, 0.1, rng, ctx)
    assert len(trades) == 1
    t = trades[0]
    assert (t.seller, t.buyer, t.request) == ("A", "B", "r0")
    assert t.info_price == round(0.1 * gain)
    assert t.info_price > 0
    assert req.platform == "B" and req.traded
    # a traded request is never re-traded, even to a seller that now values it
    a0 = Vehicle(id="a0", platform="A", position="0")
    fleets["A"].append(a0)
    ctx = _context(net, [req], [veh, a0], 0.0)
    assert optimal_profit([a0], [req], ctx) > 0
    assert bilateral_trading_round([req], fleets, 0.1, rng, ctx) == []


def test_central_trading_assigns_and_prices():
    net, req, veh, ctx = _trade_setup()
    trades, assignment = central_trading_epoch([req], [veh], gamma=0.1, ctx=ctx)
    assert len(trades) == 1
    assert (trades[0].seller, trades[0].buyer) == ("A", "B")
    assert len(assignment.chosen) == 1
    trip = assignment.chosen[0]
    assert trades[0].info_price == round(
        0.1 * trip_marginal_profit(ctx.scheme, trip, net, ctx.registry))


def test_central_trading_skips_unprofitable():
    net = make_grid(6, 6, edge_len=400.0, speed=8.0)
    # short hop: the minimum fare still cannot cover the deadhead-free pay? It can.
    # Use an unreachable vehicle instead: no trip, no trade.
    req = fill_direct(net, [
        Request(id="r0", origin="0", destination="1", request_time=0.0, platform="A"),
    ])[0]
    far = Vehicle(id="b0", platform="B", position="35")
    ctx = _context(net, [req], [far], 700.0)
    trades, assignment = central_trading_epoch([req], [far], gamma=0.1, ctx=ctx)
    assert trades == []
    assert assignment.chosen == []


def test_marketplace_awards_to_highest_value_platform():
    net = make_grid(6, 6, edge_len=400.0, speed=8.0)
    req = fill_direct(net, [
        Request(id="r0", origin="0", destination="35", request_time=0.0, platform=""),
    ])[0]
    a0 = Vehicle(id="a0", platform="A", position="0")
    b0 = Vehicle(id="b0", platform="B", position="30")
    ctx = _context(net, [req], [a0, b0], 0.0)
    rng = np.random.default_rng(1)
    awards = marketplace_epoch([req], [], {"A": [a0], "B": [b0]}, 0.1, rng, ctx)
    assert len(awards) == 1
    award = awards[0]
    assert award.platform == "A"  # shorter deadhead wins
    assert award.payment >= 0
    assert req.platform == "A"  # the award moves the request to the winner


# ---------------------------------------------------------------------------
# input checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(("call", "message"), [
    (lambda ctx: run_single_item_auction([Bid("0", 1)], -0.5),
     "gamma must lie in [0, 1], got -0.5"),
    (lambda ctx: central_trading_epoch([], [], 1.5, ctx),
     "gamma must lie in [0, 1], got 1.5"),
    (lambda ctx: bilateral_trading_round([], {}, math.nan, np.random.default_rng(0), ctx),
     "gamma must lie in [0, 1], got nan"),
    (lambda ctx: run_single_item_auction([Bid("0", 5), Bid("1", -1)], 0.1),
     "negative bid from 1"),
    # a second bid from A would drop out of the second price with A's first
    (lambda ctx: run_single_item_auction([Bid("A", 10), Bid("A", 9), Bid("B", 1)], 1.0),
     "A bids twice"),
    (lambda ctx: TradeRecord(epoch=0, request="r0", seller="A", buyer="B", info_price=-1),
     "information price must be non-negative"),
    (lambda ctx: Request(id="r9", origin="3", destination="3", request_time=0.0,
                         platform="A"),
     "request r9: origin equals destination"),
    (lambda ctx: PricingScheme(shr_base=-1), "pricing field shr_base must be non-negative"),
    # a float or NaN tariff would make fares floats, and NaN fares write a
    # results file that read_results rejects
    (lambda ctx: PricingScheme(ded_base=10000.5),
     "pricing field ded_base must be an integer of fixed-point units, got 10000.5"),
    (lambda ctx: PricingScheme(ded_min_fare=float("nan")),
     "pricing field ded_min_fare must be an integer of fixed-point units, got nan"),
    (lambda ctx: PricingScheme(pay_per_min=True),
     "pricing field pay_per_min must be an integer of fixed-point units, got True"),
    (lambda ctx: rider_fare(PricingScheme(), False, -1.0, 60.0),
     "distance and duration must be non-negative"),
], ids=["auction-gamma", "central-gamma", "bilateral-gamma", "negative-bid",
        "duplicate-bidder", "negative-info-price", "origin-is-destination", "negative-pricing-field",
        "fractional-pricing-field", "nan-pricing-field", "boolean-pricing-field",
        "negative-fare-distance"])
def test_bad_inputs_raise_validation_error(call, message):
    _, _, _, ctx = _trade_setup()
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(ctx)
