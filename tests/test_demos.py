"""The package exports the documented API, and every narrative demo and
README example runs to completion against it."""
import re
import runpy
import types
from pathlib import Path

import pytest

import ridemarket
from ridemarket import engine, errors, io, mechanisms, model, network, rtv, seeding, solve

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)

# each exported name, under the module that defines it
EXPORTED = {
    engine: {"EpisodeMetrics", "EpisodeState", "PlatformMetrics", "PlatformSpec", "Scenario",
             "build_coalition_game", "run", "run_detailed"},
    errors: {"DrainError", "MarketError", "OutputError", "PivotLimitError",
             "ScenarioParseError", "SolverError", "TooLargeError", "UnreachableError",
             "ValidationError"},
    io: {"gen_scenario", "load_requests", "load_scenario", "metrics_from_dict",
         "metrics_to_dict", "read_game", "read_results", "write_game", "write_requests",
         "write_results", "write_trade_log"},
    mechanisms: {"Allocation", "AuctionAward", "AuctionOutcome", "Bid", "CoalitionGame",
                 "TradeRecord", "contribution_allocate", "contribution_weights",
                 "epm_allocate", "in_core", "run_single_item_auction", "shapley"},
    model: {"PricingScheme", "Request", "Trip", "Vehicle", "dollars", "fill_direct",
            "to_dollars", "trip_marginal_profit"},
    network: {"RoadNetwork", "load_network", "make_grid", "write_network"},
    rtv: {"Constraints", "MarketStructure", "RtvGraph", "STRUCTURE_KINDS", "build_rtv_graph"},
    solve: {"Assignment", "AssignmentProblem", "OBJECTIVES", "solve_assignment"},
}

# stage internals and helpers, imported from their module only
INTERNAL = {
    engine: {"characteristic_value", "resolve_scenario"},
    mechanisms: {"MatchingContext", "optimal_profit", "platform_valuation",
                 "marketplace_epoch", "bilateral_trading_round", "central_trading_epoch"},
    model: {"Stop", "FP_PER_DOLLAR", "METERS_PER_MILE", "miles", "minutes", "driver_pay",
            "rider_fare"},
    rtv: {"StopTable", "stop_table", "best_route", "build_rv_graph", "enumerate_trips",
          "pair_shareable", "apply_market_structure"},
    solve: {"LinearProgram", "LpResult", "solve_lp", "brute_force_assignment"},
    seeding: {"substream", "SUBSTREAMS"},
}


def test_package_exports_the_documented_surface():
    public = {name for name, value in vars(ridemarket).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set().union(*EXPORTED.values())
    for module, names in EXPORTED.items():
        for name in names:
            obj = getattr(module, name)
            assert getattr(ridemarket, name) is obj, name
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_stage_internals_are_imported_from_their_module():
    for module, names in INTERNAL.items():
        for name in names:
            assert hasattr(module, name), name
            assert not hasattr(ridemarket, name), name


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_examples_run(capsys):
    assert README_BLOCKS
    for block in README_BLOCKS:
        exec(compile(block, str(ROOT / "README.md"), "exec"), {"__name__": "__main__"})
        assert capsys.readouterr().out
