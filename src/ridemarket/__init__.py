"""Deterministic multi-platform ride-sharing market simulator.

Builds shareability graphs over road networks, solves trip-vehicle
assignment exactly, and compares market structures ranging from one
pooled operator to segmented fleets with auctions, request trading, and
cooperative profit sharing.
"""
from .engine import (
    EpisodeMetrics,
    EpisodeState,
    PlatformMetrics,
    PlatformSpec,
    Scenario,
    build_coalition_game,
    characteristic_value,
    resolve_scenario,
    run,
    run_detailed,
)
from .errors import (
    DrainError,
    MarketError,
    OutputError,
    PivotLimitError,
    ScenarioParseError,
    SolverError,
    TooLargeError,
    UnreachableError,
    ValidationError,
)
from .io import (
    gen_scenario,
    load_requests,
    load_scenario,
    metrics_from_dict,
    metrics_to_dict,
    read_game,
    read_results,
    write_game,
    write_requests,
    write_results,
    write_trade_log,
)
from .mechanisms import (
    Allocation,
    AuctionAward,
    AuctionOutcome,
    Bid,
    CoalitionGame,
    MatchingContext,
    PlatformState,
    TradeRecord,
    bilateral_trading_round,
    central_trading_epoch,
    contribution_allocate,
    contribution_weights,
    epm_allocate,
    in_core,
    marketplace_epoch,
    optimal_profit,
    platform_valuation,
    run_single_item_auction,
    shapley,
)
from .model import (
    FP_PER_DOLLAR,
    METERS_PER_MILE,
    PricingScheme,
    Request,
    Stop,
    Trip,
    Vehicle,
    dedicated_fare,
    dollars,
    driver_pay,
    fill_direct,
    miles,
    minutes,
    rider_fare,
    shared_fare,
    to_dollars,
    trip_marginal_profit,
)
from .network import (
    RoadNetwork,
    load_network,
    make_grid,
    write_network,
)
from .rtv import (
    Constraints,
    MarketStructure,
    RtvGraph,
    STRUCTURE_KINDS,
    StopTable,
    apply_market_structure,
    best_route,
    build_rtv_graph,
    build_rv_graph,
    enumerate_trips,
    pair_shareable,
    stop_table,
)
from .seeding import SUBSTREAMS, substream
from .solve import (
    Assignment,
    AssignmentProblem,
    LinearProgram,
    LpResult,
    OBJECTIVES,
    brute_force_assignment,
    solve_assignment,
    solve_lp,
)

__version__ = "0.1.0"
