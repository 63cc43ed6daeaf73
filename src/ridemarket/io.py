"""File formats: scenario bundles, request tables, results, games, logs.

A scenario is a JSON document pointing at a request CSV; paths inside the
document resolve relative to the document's directory.  Parsing is
strict: unknown keys are rejected rather than ignored, so a misspelled
parameter ("gama") fails loudly instead of silently running defaults, and
every field is read through one checked accessor, so a value of the wrong
JSON type fails with a ValidationError that names its key.
"""
from __future__ import annotations

import csv
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Mapping

import numpy as np

from .engine import (
    EpisodeMetrics,
    PlatformMetrics,
    PlatformSpec,
    Scenario,
    epoch_budget,
)
from .errors import (
    MarketError,
    OutputError,
    ScenarioParseError,
    TooLargeError,
    ValidationError,
)
from .mechanisms import AuctionAward, CoalitionGame, TradeRecord
from .model import PricingScheme, Request, dollars, to_dollars
from .network import RoadNetwork, load_network, make_grid
from .rtv import Constraints, MarketStructure

REQUEST_HEADER = ["id", "request_time_s", "origin_node", "dest_node", "platform"]

# gen_scenario draws and writes requests one at a time; this bounds its run time.
MAX_REQUESTS = 1_000_000

_TOP_KEYS = {
    "name", "seed", "horizon_s", "objective", "network", "requests",
    "platforms", "structure", "constraints", "pricing", "allocations",
}
_GRID_KEYS = {"rows", "cols", "edge_len_m", "speed_mps"}
_FILE_NET_KEYS = {"path", "speed_mps"}
_PLATFORM_KEYS = {"id", "fleet", "positions"}
_STRUCTURE_KEYS = {"kind", "alliance"}
_CONSTRAINT_KEYS = {f.name for f in fields(Constraints)}
_PRICING_KEYS = {f.name for f in fields(PricingScheme)}
_GAME_KEYS = {"players", "v", "costs", "revenues"}


def _check_keys(obj: Mapping, allowed: set, where: str) -> None:
    if not isinstance(obj, Mapping):
        raise ValidationError(f"{where}: expected an object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValidationError(f"{where}: unknown key(s) {unknown}")


_REQUIRED = object()
_EXPECTED = {
    int: "an integer", float: "a finite number", str: "a string",
    bool: "true or false", list: "a list", dict: "an object",
}


def _field(obj: Mapping, key: str, where: str, kind: type, default=_REQUIRED):
    """``obj[key]``, checked to be a JSON value of type ``kind``.

    ``float`` accepts any finite number and returns it as a float; no
    kind but ``bool`` accepts true or false.  A missing key gives
    ``default``, or is an error when there is none.
    """
    if key not in obj:
        if default is _REQUIRED:
            raise ValidationError(f"{where}: missing required key {key!r}")
        return default
    value = obj[key]
    if kind is float:
        # compared, not passed to math.isfinite, which overflows on huge ints
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
    else:
        ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
    if not ok:
        raise ValidationError(
            f"{where}.{key}: expected {_EXPECTED[kind]}, got {json.dumps(value)}"
        )
    return float(value) if kind is float else value


def _section(doc: Mapping, key: str, allowed: set) -> Mapping:
    """An optional object of the scenario, empty when absent."""
    section = _field(doc, key, "scenario", dict, {})
    _check_keys(section, allowed, key)
    return section


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text())
    except (OSError, UnicodeError) as exc:
        raise ScenarioParseError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

def load_requests(path: str | Path) -> list[Request]:
    """Read a request table; the platform column may be left blank."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeError) as exc:
        raise ScenarioParseError(f"cannot read request file {path}: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != REQUEST_HEADER:
        raise ScenarioParseError(
            f"{path}: first line must be {','.join(REQUEST_HEADER)}"
        )
    requests = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(REQUEST_HEADER):
            raise ScenarioParseError(
                f"{path}:{lineno}: expected {len(REQUEST_HEADER)} fields, got {len(row)}"
            )
        rid, time_s, origin, dest, platform = (f.strip() for f in row)
        if not rid:
            raise ScenarioParseError(f"{path}:{lineno}: empty request id")
        try:
            when = float(time_s)
        except ValueError:
            raise ScenarioParseError(
                f"{path}:{lineno}: bad request time {time_s!r}"
            ) from None
        try:
            requests.append(
                Request(
                    id=rid, origin=origin, destination=dest,
                    request_time=when, platform=platform,
                )
            )
        except MarketError as exc:
            raise ScenarioParseError(f"{path}:{lineno}: {exc}") from exc
    return requests


def _time_text(t: float) -> str:
    """``%g`` text when it reads back as ``t`` (``600``), else ``repr``."""
    short = f"{t:g}"
    return short if float(short) == t else repr(t)


def write_requests(requests: list[Request], path: str | Path) -> None:
    lines = [",".join(REQUEST_HEADER)]
    for r in sorted(requests, key=lambda r: (r.request_time, r.id)):
        time_s = _time_text(r.request_time)
        lines.append(f"{r.id},{time_s},{r.origin},{r.destination},{r.platform}")
    write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# scenario documents
# ---------------------------------------------------------------------------

def _load_net(doc: Mapping, base: Path) -> RoadNetwork:
    if "grid" in doc:
        _check_keys(doc, {"grid"}, "network")
        grid = _field(doc, "grid", "network", dict)
        _check_keys(grid, _GRID_KEYS, "network.grid")
        return make_grid(
            rows=_field(grid, "rows", "network.grid", int),
            cols=_field(grid, "cols", "network.grid", int),
            edge_len=_field(grid, "edge_len_m", "network.grid", float, 200.0),
            speed=_field(grid, "speed_mps", "network.grid", float, 10.0),
        )
    _check_keys(doc, _FILE_NET_KEYS, "network")
    return load_network(
        base / _field(doc, "path", "network", str),
        speed=_field(doc, "speed_mps", "network", float, 10.0),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario document and its request table into a Scenario."""
    path = Path(path)
    doc = _read_json(path, "scenario")
    _check_keys(doc, _TOP_KEYS, "scenario")
    base = path.parent

    net = _load_net(_field(doc, "network", "scenario", dict), base)
    requests = load_requests(base / _field(doc, "requests", "scenario", str))

    platforms = []
    for i, spec in enumerate(_field(doc, "platforms", "scenario", list)):
        where = f"platforms[{i}]"
        _check_keys(spec, _PLATFORM_KEYS, where)
        positions = _field(spec, "positions", where, list, None)
        platforms.append(
            PlatformSpec(
                id=_field(spec, "id", where, str),
                fleet=_field(spec, "fleet", where, int),
                positions=tuple(str(n) for n in positions) if positions else None,
            )
        )

    structure = MarketStructure("single")
    if "structure" in doc:
        spec = _section(doc, "structure", _STRUCTURE_KEYS)
        alliance = _field(spec, "alliance", "structure", list, None)
        structure = MarketStructure(
            kind=_field(spec, "kind", "structure", str),
            alliance=frozenset(str(p) for p in alliance) if alliance else None,
        )

    limits = _section(doc, "constraints", _CONSTRAINT_KEYS)
    prices = _section(doc, "pricing", _PRICING_KEYS)
    return Scenario(
        net=net,
        requests=requests,
        platforms=platforms,
        structure=structure,
        constraints=Constraints(
            **{k: _field(limits, k, "constraints", float) for k in limits}
        ),
        pricing=PricingScheme.from_dollars(
            **{k: _field(prices, k, "pricing", float) for k in prices}
        ),
        seed=_field(doc, "seed", "scenario", int, 0),
        horizon_s=_field(doc, "horizon_s", "scenario", float, 0.0),
        objective=_field(doc, "objective", "scenario", str, "min_delay_penalty"),
        name=_field(doc, "name", "scenario", str, path.stem),
        compute_allocations=_field(doc, "allocations", "scenario", bool, True),
    )


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def _trade_dict(t: TradeRecord) -> dict:
    return {
        "epoch": t.epoch, "request": t.request, "seller": t.seller,
        "buyer": t.buyer, "info_price": to_dollars(t.info_price),
    }


def _award_dict(a: AuctionAward) -> dict:
    return {
        "epoch": a.epoch, "request": a.request,
        "platform": a.platform, "payment": to_dollars(a.payment),
    }


def metrics_to_dict(m: EpisodeMetrics) -> dict:
    """JSON-ready view of one episode; money rendered in dollars."""
    return {
        "scenario": m.scenario,
        "structure": m.structure,
        "objective": m.objective,
        "seed": m.seed,
        "n_requests": m.n_requests,
        "served": m.served,
        "expired": m.expired,
        "total_vmt_miles": m.total_vmt_miles,
        "pct_unsatisfied": m.pct_unsatisfied,
        "avg_wait_s": m.avg_wait_s,
        "total_trips": m.total_trips,
        "n_trades": m.n_trades,
        "total_fares": to_dollars(m.total_fares),
        "total_driver_pay": to_dollars(m.total_driver_pay),
        "total_profit": to_dollars(m.total_profit),
        "broker_balance": to_dollars(m.broker_balance),
        "platforms": {
            pid: {
                "revenue": to_dollars(p.revenue),
                "driver_cost": to_dollars(p.driver_cost),
                "info_paid": to_dollars(p.info_paid),
                "info_received": to_dollars(p.info_received),
                "profit": to_dollars(p.profit),
                "trips": p.trips,
                "vehicles_used": p.vehicles_used,
                "contributed_fares": to_dollars(p.contributed_fares),
            }
            for pid, p in sorted(m.per_platform.items())
        },
        "trades": [_trade_dict(t) for t in m.trade_log],
        "auctions": [_award_dict(a) for a in m.auction_log],
        "allocations": m.allocations,
        "coalition_values": (
            {k: to_dollars(v) for k, v in sorted(m.coalition_values.items())}
            if m.coalition_values is not None else None
        ),
    }


def metrics_from_dict(doc: Mapping) -> EpisodeMetrics:
    """Inverse of metrics_to_dict, restoring fixed-point money."""
    platforms = {
        pid: PlatformMetrics(
            revenue=dollars(p["revenue"]),
            driver_cost=dollars(p["driver_cost"]),
            info_paid=dollars(p["info_paid"]),
            info_received=dollars(p["info_received"]),
            trips=int(p["trips"]),
            vehicles_used=int(p["vehicles_used"]),
            contributed_fares=dollars(p["contributed_fares"]),
        )
        for pid, p in doc["platforms"].items()
    }
    trades = [
        TradeRecord(
            epoch=int(t["epoch"]), request=t["request"], seller=t["seller"],
            buyer=t["buyer"], info_price=dollars(t["info_price"]),
        )
        for t in doc.get("trades", [])
    ]
    awards = [
        AuctionAward(
            epoch=int(a["epoch"]), request=a["request"],
            platform=a["platform"], payment=dollars(a["payment"]),
        )
        for a in doc.get("auctions", [])
    ]
    values = doc.get("coalition_values")
    return EpisodeMetrics(
        scenario=doc["scenario"],
        structure=doc["structure"],
        objective=doc["objective"],
        seed=int(doc["seed"]),
        n_requests=int(doc["n_requests"]),
        served=int(doc["served"]),
        expired=int(doc["expired"]),
        total_vmt_miles=float(doc["total_vmt_miles"]),
        pct_unsatisfied=float(doc["pct_unsatisfied"]),
        avg_wait_s=float(doc["avg_wait_s"]),
        total_trips=int(doc["total_trips"]),
        n_trades=int(doc["n_trades"]),
        total_fares=dollars(doc["total_fares"]),
        total_driver_pay=dollars(doc["total_driver_pay"]),
        total_profit=dollars(doc["total_profit"]),
        broker_balance=dollars(doc["broker_balance"]),
        per_platform=platforms,
        trade_log=trades,
        auction_log=awards,
        allocations=doc.get("allocations"),
        coalition_values=(
            {k: dollars(v) for k, v in values.items()} if values is not None else None
        ),
    )


def write_text(path: str | Path, text: str) -> None:
    """Write a text file; a failure is an OutputError."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def format_results(
    results: EpisodeMetrics | list[EpisodeMetrics], fmt: str = "json"
) -> str:
    """Episode metrics as JSON text (round-trippable) or a summary CSV."""
    many = results if isinstance(results, list) else [results]
    if fmt == "json":
        payload = [metrics_to_dict(m) for m in many]
        doc = payload if isinstance(results, list) else payload[0]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return _results_csv(many)
    raise OutputError(f"unknown results format {fmt!r}")


def write_results(
    results: EpisodeMetrics | list[EpisodeMetrics],
    path: str | Path,
    fmt: str = "json",
) -> None:
    """Persist episode metrics as JSON (round-trippable) or summary CSV."""
    write_text(path, format_results(results, fmt))


def _results_csv(many: list[EpisodeMetrics]) -> str:
    pids = sorted({pid for m in many for pid in m.per_platform})
    header = [
        "scenario", "structure", "objective", "seed", "n_requests", "served",
        "expired", "total_vmt_miles", "pct_unsatisfied", "avg_wait_s",
        "total_trips", "n_trades", "total_fares", "total_driver_pay",
        "total_profit", "broker_balance",
    ] + [f"profit:{pid}" for pid in pids]
    lines = [",".join(header)]
    for m in many:
        row = [
            m.scenario, m.structure, m.objective, str(m.seed),
            str(m.n_requests), str(m.served), str(m.expired),
            f"{m.total_vmt_miles:.6f}", f"{m.pct_unsatisfied:.4f}",
            f"{m.avg_wait_s:.4f}", str(m.total_trips), str(m.n_trades),
            f"{to_dollars(m.total_fares):.4f}",
            f"{to_dollars(m.total_driver_pay):.4f}",
            f"{to_dollars(m.total_profit):.4f}",
            f"{to_dollars(m.broker_balance):.4f}",
        ]
        for pid in pids:
            p = m.per_platform.get(pid)
            row.append(f"{to_dollars(p.profit):.4f}" if p else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def read_results(path: str | Path) -> EpisodeMetrics | list[EpisodeMetrics]:
    """Read back JSON results written by write_results."""
    doc = _read_json(Path(path), "results")
    if isinstance(doc, list):
        return [metrics_from_dict(d) for d in doc]
    return metrics_from_dict(doc)


def write_trade_log(trades: list[TradeRecord], path: str | Path) -> None:
    """Trade log CSV with one row per executed trade."""
    lines = ["epoch,request,seller,buyer,info_price"]
    for t in trades:
        lines.append(
            f"{t.epoch},{t.request},{t.seller},{t.buyer},{to_dollars(t.info_price):.4f}"
        )
    write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# coalition game files
# ---------------------------------------------------------------------------

def _coalition_key(players) -> str:
    return ",".join(sorted(players))


def read_game(path: str | Path) -> tuple[CoalitionGame, dict | None, dict | None]:
    """Read a characteristic-function file, plus optional costs/revenues."""
    doc = _read_json(Path(path), "game")
    _check_keys(doc, _GAME_KEYS, "game")
    players = [str(p) for p in _field(doc, "players", "game", list)]
    raw = _field(doc, "v", "game", dict)
    values = {}
    for key in raw:
        members = [p.strip() for p in key.split(",") if p.strip()]
        if key != _coalition_key(members):
            raise ValidationError(
                f"game.v: key {key!r} must list members sorted and comma-joined"
            )
        values[frozenset(members)] = _field(raw, key, "game.v", float)
    game = CoalitionGame(players=tuple(players), values=values)

    def _table(name):
        table = _field(doc, name, "game", dict, None)
        if table is None:
            return None
        if set(table) != set(players):
            raise ValidationError(f"game.{name}: must cover exactly the players")
        return {k: _field(table, k, f"game.{name}", float) for k in table}

    return game, _table("costs"), _table("revenues")


def write_game(
    game: CoalitionGame,
    path: str | Path,
    costs: Mapping[str, float] | None = None,
    revenues: Mapping[str, float] | None = None,
) -> None:
    doc = {
        "players": sorted(game.players),
        "v": {
            _coalition_key(k): float(v)
            for k, v in sorted(game.values.items(), key=lambda kv: _coalition_key(kv[0]))
        },
    }
    if costs is not None:
        doc["costs"] = {k: float(v) for k, v in sorted(costs.items())}
    if revenues is not None:
        doc["revenues"] = {k: float(v) for k, v in sorted(revenues.items())}
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# scenario generation
# ---------------------------------------------------------------------------

def gen_scenario(
    out_dir: str | Path,
    *,
    rows: int = 6,
    cols: int = 6,
    edge_len_m: float = 200.0,
    speed_mps: float = 10.0,
    n_requests: int = 20,
    n_platforms: int = 2,
    fleet: int = 3,
    horizon_s: float = 600.0,
    seed: int = 0,
    structure: str = "segmented",
    name: str | None = None,
) -> Path:
    """Write a random grid scenario bundle and return the document path.

    Origins and destinations are distinct uniform nodes; request times are
    uniform integer seconds in [0, horizon].  The platform column is left
    blank so episode seeding controls the demand split.  Every input is
    checked before anything is drawn or written.
    """
    if n_requests < 1:
        raise ValidationError("need at least one request")
    if n_requests > MAX_REQUESTS:
        raise TooLargeError(f"expected at most {MAX_REQUESTS} requests, got {n_requests}")
    if not 1 <= n_platforms <= 26:
        raise ValidationError("platform count must be in 1..26")
    if not 0 < horizon_s < float("inf"):
        raise ValidationError(f"horizon must be positive and finite, got {horizon_s}")
    # the bundle runs with default constraints
    epoch_budget(horizon_s, Constraints())
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    platforms = [PlatformSpec(chr(ord("A") + k), fleet) for k in range(n_platforms)]
    net = make_grid(rows, cols, edge_len=edge_len_m, speed=speed_mps)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create {out}: {exc}") from exc
    rng = np.random.default_rng(seed)
    width = len(str(max(n_requests - 1, 0)))
    requests = []
    for i in range(n_requests):
        origin = net.nodes[int(rng.integers(len(net.nodes)))]
        dest = origin
        while dest == origin:
            dest = net.nodes[int(rng.integers(len(net.nodes)))]
        when = float(rng.integers(0, int(horizon_s) + 1))
        requests.append(
            Request(
                id=f"r{i:0{width}d}", origin=origin, destination=dest,
                request_time=when, platform="",
            )
        )
    write_requests(requests, out / "requests.csv")
    doc = {
        "name": name or out.name,
        "seed": seed,
        "horizon_s": horizon_s,
        "network": {
            "grid": {
                "rows": rows, "cols": cols,
                "edge_len_m": edge_len_m, "speed_mps": speed_mps,
            }
        },
        "requests": "requests.csv",
        "platforms": [{"id": p.id, "fleet": p.fleet} for p in platforms],
        "structure": {"kind": structure},
    }
    path = out / "scenario.json"
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
