"""Time-stepped market simulation: admission, matching, movement, billing.

An episode advances in fixed decision intervals.  Each epoch expires stale
requests, admits newly released ones, runs the market structure's
mechanism and matching stage, then moves every vehicle along its
committed route.  The loop continues past the demand horizon until all
requests are served or expired and every vehicle is idle.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import DrainError, MarketError, TooLargeError, ValidationError
from .mechanisms import (
    Allocation,
    AuctionAward,
    CoalitionGame,
    MatchingContext,
    TradeRecord,
    bilateral_trading_round,
    central_trading_epoch,
    check_player_id,
    coalition_key,
    contribution_allocate,
    contribution_weights,
    epm_allocate,
    in_core,
    marketplace_epoch,
    shapley,
    MAX_PLAYERS,
)
from .model import (
    ASSIGNED,
    EXPIRED,
    ONBOARD,
    PICKUP,
    SERVED,
    WAITING,
    PricingScheme,
    Request,
    Vehicle,
    driver_pay,
    fill_direct,
    miles,
    rider_fare,
    to_dollars,
)
from .network import RoadNetwork
from .rtv import (
    EPS,
    Constraints,
    MarketStructure,
    RtvGraph,
    apply_market_structure,
    build_rtv_graph,
    pickup_deadline,
)
from .seeding import substream
from .solve import OBJECTIVES, Assignment, AssignmentProblem, solve_assignment

# Vehicles per platform and in all: set-up draws a position and builds a
# Vehicle for each, so a larger fleet fails here instead of exhausting memory.
MAX_FLEET = 100_000

# Decision epochs per episode: the loop steps every interval from 0 past the
# horizon, so a far horizon or a tiny interval fails here instead of running
# for days.  The loop allows _DRAIN_EPOCHS beyond the last wait deadline.
MAX_EPOCHS = 1_000_000
_DRAIN_EPOCHS = 10_000


@dataclass(frozen=True)
class PlatformSpec:
    """Fleet description for one platform; positions default to random."""

    id: str
    fleet: int
    positions: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        check_player_id(self.id)
        if isinstance(self.fleet, bool) or not isinstance(self.fleet, int):
            raise ValidationError(
                f"platform {self.id}: fleet must be an integer, got {self.fleet!r}")
        if self.fleet < 0:
            raise ValidationError(f"platform {self.id}: negative fleet")
        if self.fleet > MAX_FLEET:
            raise TooLargeError(
                f"platform {self.id}: expected a fleet of at most {MAX_FLEET}, "
                f"got {self.fleet}"
            )
        if self.positions is not None:
            object.__setattr__(self, "positions", tuple(self.positions))
            if len(self.positions) != self.fleet:
                raise ValidationError(
                    f"platform {self.id}: {len(self.positions)} positions "
                    f"for fleet of {self.fleet}"
                )


@dataclass
class Scenario:
    """Everything needed to run one episode."""

    net: RoadNetwork
    requests: list[Request]
    platforms: list[PlatformSpec]
    structure: MarketStructure = field(default_factory=lambda: MarketStructure("single"))
    constraints: Constraints = field(default_factory=Constraints)
    pricing: PricingScheme = field(default_factory=PricingScheme)
    seed: int = 0
    horizon_s: float = 0.0
    objective: str = "min_delay_penalty"
    name: str = "scenario"
    compute_allocations: bool = True

    def __post_init__(self) -> None:
        ids = [p.id for p in self.platforms]
        if not ids:
            raise ValidationError("at least one platform is required")
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate platform id")
        fleet = sum(p.fleet for p in self.platforms)
        if fleet > MAX_FLEET:
            raise TooLargeError(
                f"expected a total fleet of at most {MAX_FLEET}, got {fleet}")
        if self.objective not in OBJECTIVES:
            raise ValidationError(f"unknown objective {self.objective!r}")
        known = set(ids)
        nodes = self.net.node_set()
        rids = set()
        latest = 0.0
        for r in self.requests:
            if r.id in rids:
                raise ValidationError(f"duplicate request id {r.id!r}")
            rids.add(r.id)
            if r.platform and r.platform not in known:
                raise ValidationError(
                    f"request {r.id}: unknown platform {r.platform!r}"
                )
            for node in (r.origin, r.destination):
                if node not in nodes:
                    raise ValidationError(f"request {r.id}: unknown node {node!r}")
            latest = max(latest, r.request_time)
        if not abs(self.horizon_s) < math.inf:  # NaN compares False
            raise ValidationError("horizon_s must be finite")
        if self.horizon_s <= 0:
            self.horizon_s = latest
        elif self.horizon_s + EPS < latest:
            raise ValidationError("horizon ends before the last request arrives")
        if self.structure.alliance:
            stray = set(self.structure.alliance) - known
            if stray:
                raise ValidationError(f"alliance names unknown platforms {sorted(stray)}")
        for spec in self.platforms:
            for node in spec.positions or ():
                if node not in nodes:
                    raise ValidationError(
                        f"platform {spec.id}: unknown position {node!r}"
                    )


def epoch_budget(horizon_s: float, constraints: Constraints) -> int:
    """Epochs an episode may step through before it must have drained."""
    epochs = (horizon_s + constraints.max_wait_s) / constraints.interval_s
    if not epochs < MAX_EPOCHS - _DRAIN_EPOCHS:
        raise TooLargeError(
            f"a {horizon_s:g} s horizon in {constraints.interval_s:g} s intervals "
            f"needs {epochs:.3g} decision epochs; expected at most {MAX_EPOCHS}"
        )
    return int(epochs) + _DRAIN_EPOCHS


def resolve_scenario(scenario: Scenario) -> tuple[list[Request], list[Vehicle]]:
    """Materialize the episode's starting state from the scenario.

    Returns fresh request copies (with direct-trip values recomputed and
    untagged demand split round-robin after a seeded shuffle) and the
    initial fleet (explicit positions, or uniform draws from the placement
    stream, taken per platform in sorted id order).
    """
    requests = fill_direct(scenario.net, sorted(
        (Request(r.id, r.origin, r.destination, r.request_time, r.platform)
         for r in scenario.requests), key=lambda r: r.id))
    pids = sorted(p.id for p in scenario.platforms)
    untagged = [r for r in requests if not r.platform]
    if untagged:
        rng = substream(scenario.seed, "demand_split")
        order = rng.permutation(len(untagged))
        for slot, idx in enumerate(order):
            pid = pids[slot % len(pids)]
            untagged[idx].platform = pid
            untagged[idx].origin_platform = pid
    requests.sort(key=lambda r: (r.request_time, r.id))

    rng = substream(scenario.seed, "placement")
    nodes = scenario.net.nodes
    vehicles: list[Vehicle] = []
    for spec in sorted(scenario.platforms, key=lambda p: p.id):
        if spec.positions is not None:
            positions = list(spec.positions)
        else:
            draws = rng.integers(0, len(nodes), size=spec.fleet)
            positions = [nodes[int(i)] for i in draws]
        for k, pos in enumerate(positions):
            vehicles.append(
                Vehicle(id=f"{spec.id}-{k:03d}", platform=spec.id, position=pos)
            )
    return requests, vehicles


@dataclass
class PlatformMetrics:
    """Per-platform episode totals; money in fixed point."""

    revenue: int = 0
    driver_cost: int = 0
    info_paid: int = 0
    info_received: int = 0
    trips: int = 0
    vehicles_used: int = 0
    contributed_fares: int = 0

    @property
    def profit(self) -> int:
        return self.revenue - self.driver_cost - self.info_paid + self.info_received


@dataclass
class EpisodeMetrics:
    """Episode outcome; money in fixed point, distances in miles."""

    scenario: str
    structure: str
    objective: str
    seed: int
    n_requests: int
    served: int
    expired: int
    total_vmt_miles: float
    pct_unsatisfied: float
    avg_wait_s: float
    total_trips: int
    n_trades: int
    total_fares: int
    total_driver_pay: int
    total_profit: int
    broker_balance: int
    per_platform: dict[str, PlatformMetrics]
    trade_log: list[TradeRecord] = field(default_factory=list)
    auction_log: list[AuctionAward] = field(default_factory=list)
    allocations: dict | None = None
    coalition_values: dict[str, int] | None = None


@dataclass
class _Run:
    """A vehicle's current service run, from idle to schedule-empty; empty
    while the vehicle is idle."""

    distance: float = 0.0
    riders: set[str] = field(default_factory=set)


class _Simulation:
    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.net = scenario.net
        self.constraints = scenario.constraints
        self.scheme = scenario.pricing
        self.kind = scenario.structure.kind
        self.requests, self.vehicles = resolve_scenario(scenario)
        self.registry = {r.id: r for r in self.requests}
        self.veh_by_id = {v.id: v for v in self.vehicles}
        self.pids = sorted(p.id for p in scenario.platforms)
        self.fleets = {pid: [v for v in self.vehicles if v.platform == pid]
                       for pid in self.pids}
        self.ledgers = {pid: PlatformMetrics() for pid in self.pids}
        self.used_vehicles: dict[str, set[str]] = {pid: set() for pid in self.pids}
        self.runs = {v.id: _Run() for v in self.vehicles}  # each one's current run
        self.broker_balance = 0
        self.trade_log: list[TradeRecord] = []
        self.auction_log: list[AuctionAward] = []
        self.auction_rng = substream(scenario.seed, "auction_order")
        self.trading_rng = substream(scenario.seed, "trading_order")
        self.cursor = 0  # requests[:cursor] are admitted

    # -- lifecycle stages ---------------------------------------------------

    def _expire(self, now: float) -> None:
        limit = self.constraints.max_wait_s
        for r in self.requests[:self.cursor]:
            if r.state == WAITING and now - r.request_time > limit + EPS:
                r.set_state(EXPIRED)

    def _admit(self, now: float) -> None:
        while (
            self.cursor < len(self.requests)
            and self.requests[self.cursor].request_time <= now + EPS
        ):
            self.cursor += 1

    def _solve(self, graph: RtvGraph) -> Assignment:
        return solve_assignment(
            AssignmentProblem(
                graph=graph,
                objective=self.sc.objective,
                penalty=self.constraints.unserved_penalty,
                scheme=self.scheme,
                net=self.net,
                registry=self.registry,
            )
        )

    def _commit(self, assignment: Assignment, now: float) -> None:
        for trip in assignment.chosen:
            vehicle = self.veh_by_id[trip.vehicle]
            vehicle.schedule = list(trip.route)
            for rid in trip.requests:
                req = self.registry[rid]
                req.set_state(ASSIGNED)
                req.assigned_vehicle = vehicle.id
                req.pickup_deadline = pickup_deadline(req, now, self.constraints)

    def _match(self, graph: RtvGraph, now: float) -> None:
        """Match and commit the graph's requests; trading and marketplace
        structures match within each platform, as segmented does."""
        if not graph.requests:
            return
        filtered = apply_market_structure(
            graph,
            self.sc.structure,
            {rid: self.registry[rid].platform for rid in graph.requests},
            {v.id: v.platform for v in self.vehicles},
        )
        self._commit(self._solve(filtered), now)

    def _build(self, requests: list[Request], now: float) -> RtvGraph:
        return build_rtv_graph(requests, self.vehicles, self.net, now,
                               self.constraints, registry=self.registry)

    def _stage(self, now: float, epoch: int) -> None:
        """One decision stage on one trip graph of the waiting requests.

        Each mechanism moves the requests it sells or trades by setting
        their ``platform``.  The match leaves idle vehicles as the graph
        saw them, so central trading restricts it; bilateral valuations
        see whole fleets, which the match changed, so bilateral builds
        once more."""
        waiting = sorted((r for r in self.requests[:self.cursor] if r.state == WAITING),
                         key=lambda r: r.id)
        if not waiting:
            return
        graph = self._build(waiting, now)
        ctx = MatchingContext(graph, self.net, self.scheme, self.registry)
        gamma = self.constraints.gamma
        if self.kind == "marketplace":
            # every admitted request is the broker's until an auction awards it
            awarded = {a.request for a in self.auction_log}
            awards = marketplace_epoch(
                [r for r in waiting if r.id not in awarded],
                [r for r in waiting if r.id in awarded],
                self.fleets, gamma, self.auction_rng, ctx, epoch,
            )
            for award in awards:
                self.ledgers[award.platform].info_paid += award.payment
                self.broker_balance += award.payment
                awarded.add(award.request)
            self.auction_log.extend(awards)
            graph = graph.restrict([r.id for r in waiting if r.id in awarded],
                                   graph.vehicles)
        self._match(graph, now)
        unsatisfied = [r for r in waiting if r.state == WAITING]
        if self.kind not in ("bilateral", "central") or not unsatisfied:
            return
        if self.kind == "central":
            trades, assignment = central_trading_epoch(
                unsatisfied, [v for v in self.vehicles if v.idle], gamma, ctx, epoch
            )
            self._commit(assignment, now)
        else:  # bilateral
            graph = self._build(unsatisfied, now)
            ctx = MatchingContext(graph, self.net, self.scheme, self.registry)
            trades = bilateral_trading_round(
                unsatisfied, self.fleets, gamma, self.trading_rng, ctx, epoch
            )
            if trades:
                self._match(graph, now)
        for trade in trades:
            self.ledgers[trade.buyer].info_paid += trade.info_price
            self.ledgers[trade.seller].info_received += trade.info_price
        self.trade_log.extend(trades)

    # -- movement and billing ----------------------------------------------

    def _execute_stop(self, vehicle: Vehicle, when: float) -> None:
        stop = vehicle.schedule.pop(0)
        req = self.registry[stop.request]
        run = self.runs[vehicle.id]
        if stop.kind == PICKUP:
            req.set_state(ONBOARD)
            req.pickup_time = when
        else:
            req.set_state(SERVED)
            req.served_time = when
        run.riders.add(req.id)
        if not vehicle.schedule:
            self._finish_run(vehicle)

    def _finish_run(self, vehicle: Vehicle) -> None:
        run = self.runs[vehicle.id]
        self.runs[vehicle.id] = _Run()
        cost = driver_pay(self.scheme, run.distance, run.distance / self.net.speed)
        ledger = self.ledgers[vehicle.platform]
        ledger.driver_cost += cost
        ledger.trips += 1
        self.used_vehicles[vehicle.platform].add(vehicle.id)
        shared = len(run.riders) >= 2
        for rid in sorted(run.riders):
            req = self.registry[rid]
            fare = rider_fare(
                self.scheme, shared, req.direct_distance, req.direct_duration
            )
            req.fare_paid = fare
            ledger.revenue += fare
            self.ledgers[req.origin_platform].contributed_fares += fare

    def _advance(self, now: float, dt: float) -> None:
        speed = self.net.speed
        for vehicle in self.vehicles:
            budget = speed * dt
            while vehicle.schedule:
                target = vehicle.schedule[0].node
                if vehicle.position == target:
                    self._execute_stop(vehicle, now + dt - budget / speed)
                    continue
                if budget <= EPS:
                    break
                hop = self.net.path(vehicle.position, target)[1]
                leg = self.net.distance(vehicle.position, hop)
                vehicle.odometer += leg
                run = self.runs[vehicle.id]
                run.distance += leg
                vehicle.position = hop
                # An interval ending mid-edge snaps the vehicle to the
                # edge's head node; the full edge length still counts.
                budget = max(0.0, budget - leg) if leg <= budget + EPS else 0.0

    # -- main loop ----------------------------------------------------------

    def run(self) -> EpisodeMetrics:
        dt = self.constraints.interval_s
        max_epochs = epoch_budget(self.sc.horizon_s, self.constraints)
        now = 0.0
        for epoch in range(max_epochs):
            self._expire(now)
            self._admit(now)
            self._stage(now, epoch)
            drained = (
                all(r.state in (SERVED, EXPIRED) for r in self.requests)
                and all(v.idle for v in self.vehicles)
            )
            if drained:
                break
            self._advance(now, dt)
            now += dt
        else:
            still_open = sum(
                1 for r in self.requests if r.state not in (SERVED, EXPIRED)
            )
            raise DrainError(
                f"simulation failed to drain after {max_epochs} epochs (now {now:g} s): "
                f"{still_open} of {len(self.requests)} requests still open; "
                "check the scenario"
            )
        return self._metrics()

    def _metrics(self) -> EpisodeMetrics:
        for pid in self.pids:
            self.ledgers[pid].vehicles_used = len(self.used_vehicles[pid])
        served = [r for r in self.requests if r.state == SERVED]
        expired = sum(1 for r in self.requests if r.state == EXPIRED)
        waits = [r.pickup_time - r.request_time for r in served]
        n = len(self.requests)
        return EpisodeMetrics(
            scenario=self.sc.name,
            structure=self.kind,
            objective=self.sc.objective,
            seed=self.sc.seed,
            n_requests=n,
            served=len(served),
            expired=expired,
            total_vmt_miles=miles(sum(v.odometer for v in self.vehicles)),
            pct_unsatisfied=100.0 * expired / n if n else 0.0,
            avg_wait_s=sum(waits) / len(waits) if waits else 0.0,
            total_trips=sum(l.trips for l in self.ledgers.values()),
            n_trades=len(self.trade_log),
            total_fares=sum(l.revenue for l in self.ledgers.values()),
            total_driver_pay=sum(l.driver_cost for l in self.ledgers.values()),
            total_profit=sum(l.profit for l in self.ledgers.values()),
            broker_balance=self.broker_balance,
            per_platform=dict(self.ledgers),
            trade_log=list(self.trade_log),
            auction_log=list(self.auction_log),
        )


@dataclass
class EpisodeState:
    """Metrics of a finished episode plus the final entity states.

    ``requests`` and ``vehicles`` are keyed by id and reflect the state at
    the end of the horizon, so callers can audit individual outcomes (who
    served a traded request, where each vehicle ended up) beyond the
    aggregate metrics.
    """

    metrics: EpisodeMetrics
    requests: dict[str, Request]
    vehicles: dict[str, Vehicle]


def run_detailed(scenario: Scenario) -> EpisodeState:
    """Simulate one episode and return metrics with final entity states."""
    sim = _Simulation(scenario)
    metrics = sim.run()
    if scenario.structure.kind == "cooperative" and scenario.compute_allocations:
        _attach_allocations(scenario, metrics)
    return EpisodeState(metrics=metrics, requests=sim.registry, vehicles=sim.veh_by_id)


def run(scenario: Scenario) -> EpisodeMetrics:
    """Simulate one episode and return its metrics.

    The scenario is not mutated; repeated runs with the same seed produce
    identical results.  Cooperative scenarios also carry profit
    allocations unless ``compute_allocations`` is off.
    """
    return run_detailed(scenario).metrics


def _coalition_scenario(scenario: Scenario, coalition) -> Scenario:
    """The coalition's fleets and customers lifted out of the full scenario,
    with its resolved vehicle placements and demand split, as one pooled
    single market."""
    members = sorted(set(coalition))
    known = {p.id for p in scenario.platforms}
    if not members:
        raise ValidationError("coalition must be non-empty")
    stray = set(members) - known
    if stray:
        raise ValidationError(f"coalition names unknown platforms {sorted(stray)}")
    requests, vehicles = resolve_scenario(scenario)
    specs = []
    for pid in members:
        positions = tuple(v.position for v in vehicles if v.platform == pid)
        specs.append(PlatformSpec(id=pid, fleet=len(positions), positions=positions))
    return Scenario(
        net=scenario.net,
        requests=[r for r in requests if r.platform in members],
        platforms=specs,
        structure=MarketStructure("single"),
        constraints=scenario.constraints,
        pricing=scenario.pricing,
        seed=scenario.seed,
        horizon_s=scenario.horizon_s,
        objective=scenario.objective,
        name=f"{scenario.name}:{'+'.join(members)}",
        compute_allocations=False,
    )


def characteristic_value(scenario: Scenario, coalition) -> int:
    """Joint profit (fixed point) of the coalition operating alone.

    The coalition's fleets and customers are lifted out of the full
    scenario, keeping the resolved vehicle placements and demand split,
    and re-simulated as a single pooled market.
    """
    metrics = run(_coalition_scenario(scenario, coalition))
    return metrics.total_fares - metrics.total_driver_pay


def build_coalition_game(scenario: Scenario) -> CoalitionGame:
    """Characteristic function over the alliance via re-simulation."""
    return _coalition_game(scenario, None)


def _coalition_game(scenario: Scenario, grand_value: int | None) -> CoalitionGame:
    """Every coalition of the alliance re-simulated, except the grand
    coalition when its value is given."""
    members = sorted(
        scenario.structure.alliance or {p.id for p in scenario.platforms}
    )
    if len(members) > MAX_PLAYERS:
        raise ValidationError(f"alliance larger than {MAX_PLAYERS} platforms")
    values = {}
    for size in range(1, len(members) + 1):
        for combo in itertools.combinations(members, size):
            if size == len(members) and grand_value is not None:
                values[frozenset(combo)] = grand_value
            else:
                values[frozenset(combo)] = characteristic_value(scenario, combo)
    return CoalitionGame(players=tuple(members), values=values)


def _allocation_dollars(allocation: Allocation) -> dict[str, float]:
    return {p: to_dollars(round(float(v), 6)) for p, v in allocation.amounts.items()}


def _attach_allocations(scenario: Scenario, metrics: EpisodeMetrics) -> None:
    # Each cooperative stage graph splits into the alliance and each
    # outsider platform, and the tie-break decomposes over such groups
    # (solve._lex_min_optimum), so the alliance evolved here exactly as
    # its grand coalition's re-simulation would: v(alliance) is the
    # members' profit in this run.
    members = scenario.structure.alliance or metrics.per_platform
    grand_value = sum(
        metrics.per_platform[p].revenue - metrics.per_platform[p].driver_cost
        for p in members
    )
    game = _coalition_game(scenario, grand_value)
    metrics.coalition_values = {coalition_key(k): v for k, v in game.values.items()}
    shap = shapley(game)
    metrics.allocations = {
        "shapley": _allocation_dollars(shap),
        "shapley_in_core": in_core(game, shap),
        "epm": _core_record(lambda: (epm_allocate(game), {}), "alpha"),
        "contribution": _core_record(
            lambda: _contribution(game, metrics.per_platform), "beta"),
    }


def _contribution(game: CoalitionGame, per_platform: dict[str, PlatformMetrics]):
    """The contribution rule's outcome, and its weights as an extra field."""
    weights = contribution_weights(
        {p: float(per_platform[p].driver_cost) for p in game.players},
        {p: float(per_platform[p].contributed_fares) for p in game.players},
    )
    return contribution_allocate(game, weights), {"weights": weights}


def _core_record(rule, spread: str) -> dict:
    """The record of ``rule()``, which returns an outcome and extra fields:
    ``undefined`` with the reason the rule rejects the game, ``core_empty``,
    or ``ok`` with the amounts, the spread named ``spread`` and the extras."""
    try:
        outcome, extra = rule()
    except MarketError as exc:
        return {"status": "undefined", "reason": str(exc)}
    if outcome is None:
        return {"status": "core_empty"}
    alloc, value = outcome
    return {"status": "ok", "amounts": _allocation_dollars(alloc), spread: value, **extra}
