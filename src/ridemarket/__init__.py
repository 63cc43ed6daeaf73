"""Deterministic multi-platform ride-sharing market simulator.

Builds shareability graphs over road networks, solves trip-vehicle
assignment exactly, and compares market structures ranging from one
pooled operator to segmented fleets with auctions, request trading, and
cooperative profit sharing.

The package exports the documented API: scenarios and their runs, the
allocation rules and the auction, the readers and writers of the file
formats, the error classes, and the types those take or return. Stage
internals (``rtv.stop_table``, ``rtv.best_route``, ``solve.solve_lp``,
``mechanisms.optimal_profit``, ...) are imported from their module.
"""
from .engine import (
    EpisodeMetrics,
    EpisodeState,
    PlatformMetrics,
    PlatformSpec,
    Scenario,
    build_coalition_game,
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
    TradeRecord,
    contribution_allocate,
    contribution_weights,
    epm_allocate,
    in_core,
    run_single_item_auction,
    shapley,
)
from .model import (
    PricingScheme,
    Request,
    Trip,
    Vehicle,
    dollars,
    fill_direct,
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
    build_rtv_graph,
)
from .solve import (
    Assignment,
    AssignmentProblem,
    OBJECTIVES,
    solve_assignment,
)

__version__ = "0.1.0"
