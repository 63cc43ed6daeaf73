"""Command line front end.

Subcommands: simulate one scenario, compare market structures, allocate
profits from a characteristic-function file, score a one-shot auction,
and generate random scenarios.  Seeds resolve as flag over MARKETSIM_SEED
environment variable over the scenario file.  Exit codes: 0 on success,
1 on a domain or input error (one diagnostic line on stderr), 2 on usage
errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .engine import run
from .errors import MarketError, ValidationError
from .io import (
    format_results,
    gen_scenario,
    load_scenario,
    read_game,
    write_text,
    write_trade_log,
)
from .mechanisms import (
    MAX_CORE_PLAYERS,
    Bid,
    contribution_allocate,
    contribution_weights,
    epm_allocate,
    in_core,
    run_single_item_auction,
    shapley,
)
from .model import dollars, to_dollars
from .rtv import STRUCTURE_KINDS

SEED_ENV = "MARKETSIM_SEED"


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _resolve_seed(flag: int | None) -> int | None:
    if flag is not None:
        return flag
    return _env_seed()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridemarket",
        description="Multi-platform ride-sharing market simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario")
    sim.add_argument("--scenario", required=True, help="scenario JSON path")
    sim.add_argument("--out", help="write results here instead of stdout")
    sim.add_argument("--format", choices=("json", "csv"), default="json")
    sim.add_argument("--seed", type=int, help="override the scenario seed")
    sim.add_argument("--structure", choices=STRUCTURE_KINDS,
                     help="override the scenario's market structure")
    sim.add_argument("--trade-log", help="also write the trade log CSV here")

    cmp_ = sub.add_parser("compare", help="run one scenario under several structures")
    cmp_.add_argument("--scenario", required=True)
    cmp_.add_argument(
        "--structures",
        default=",".join(STRUCTURE_KINDS),
        help="comma-separated market structures, in output order",
    )
    cmp_.add_argument("--out", help="write results here instead of stdout")
    cmp_.add_argument("--format", choices=("json", "csv"), default="csv")
    cmp_.add_argument("--seed", type=int, help="override the scenario seed")

    alloc = sub.add_parser("allocate", help="allocate profits for a game file")
    alloc.add_argument("--game", required=True, help="characteristic-function JSON")
    alloc.add_argument(
        "--method", choices=("shapley", "epm", "contribution"), default="shapley",
        help=f"epm and contribution take at most {MAX_CORE_PLAYERS} players",
    )
    alloc.add_argument("--out", help="write the allocation JSON here")

    auc = sub.add_parser("auction", help="score one sealed-bid auction")
    auc.add_argument(
        "--bids", required=True,
        help="comma-separated dollar bids, one per platform in id order",
    )
    auc.add_argument("--gamma", type=float, default=0.1,
                     help="fraction of the second-highest bid the winner pays")

    # a flag left out takes gen_scenario's default
    gen = sub.add_parser("gen-scenario", help="write a random scenario bundle")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--rows", type=int)
    gen.add_argument("--cols", type=int)
    gen.add_argument("--edge-len-m", type=float)
    gen.add_argument("--speed-mps", type=float)
    gen.add_argument("--requests", dest="n_requests", type=int)
    gen.add_argument("--platforms", dest="n_platforms", type=int)
    gen.add_argument("--fleet", type=int)
    gen.add_argument("--horizon-s", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--structure", choices=STRUCTURE_KINDS)
    gen.add_argument("--name", help="scenario name (defaults to the directory name)")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(out, text)


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = _resolve_seed(args.seed)
    if seed is not None:
        scenario.seed = seed
    if args.structure:
        scenario.structure = replace(scenario.structure, kind=args.structure)
    metrics = run(scenario)
    _emit(format_results(metrics, args.format), args.out)
    if args.trade_log:
        write_trade_log(metrics.trade_log, args.trade_log)
    return 0


def _cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = _resolve_seed(args.seed)
    if seed is not None:
        scenario.seed = seed
    kinds = [k.strip() for k in args.structures.split(",") if k.strip()]
    if not kinds:
        raise ValidationError("no market structures given")
    structures = [replace(scenario.structure, kind=kind) for kind in kinds]
    results = [
        run(replace(scenario, structure=s, compute_allocations=False))
        for s in structures
    ]
    _emit(format_results(results, args.format), args.out)
    return 0


def _cmd_allocate(args) -> int:
    game, costs, revenues = read_game(args.game)
    if args.method == "shapley":
        alloc = shapley(game)
        doc = {
            "method": "shapley",
            "amounts": alloc.as_floats(),
            "in_core": in_core(game, alloc),
        }
    elif args.method == "epm":
        outcome = epm_allocate(game)
        if outcome is None:
            doc = {"method": "epm", "status": "core_empty"}
        else:
            alloc, alpha = outcome
            doc = {"method": "epm", "amounts": alloc.as_floats(), "alpha": alpha}
    else:
        if costs is not None and revenues is not None:
            weights = contribution_weights(costs, revenues)
        else:
            weights = {p: 1.0 / game.n for p in game.players}
        outcome = contribution_allocate(game, weights)
        if outcome is None:
            doc = {"method": "contribution", "status": "core_empty"}
        else:
            alloc, beta = outcome
            doc = {
                "method": "contribution",
                "amounts": alloc.as_floats(),
                "beta": beta,
                "weights": weights,
            }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_auction(args) -> int:
    parts = [p.strip() for p in args.bids.split(",") if p.strip() != ""]
    if not parts:
        raise ValidationError("no bids given")
    try:
        amounts = [dollars(float(p)) for p in parts]
    except (ValueError, OverflowError):  # not a number, or not finite
        raise ValidationError(f"bids must be finite numbers, got {args.bids!r}") from None
    width = len(str(len(amounts) - 1))
    bids = [Bid(platform=f"{i:0{width}d}", amount=a) for i, a in enumerate(amounts)]
    outcome = run_single_item_auction(bids, args.gamma)
    if outcome is None:
        sys.stdout.write("no_sale\n")
    else:
        sys.stdout.write(
            f"winner={int(outcome.winner)} payment={to_dollars(outcome.payment):.4f}\n"
        )
    return 0


def _cmd_gen(args) -> int:
    given = {key: value for key, value in vars(args).items()
             if value is not None and key not in ("command", "out", "seed")}
    seed = _resolve_seed(args.seed)
    if seed is not None:
        given["seed"] = seed
    path = gen_scenario(args.out, **given)
    sys.stdout.write(f"{path}\n")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "allocate": _cmd_allocate,
    "auction": _cmd_auction,
    "gen-scenario": _cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except MarketError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
