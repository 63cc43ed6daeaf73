"""File formats: scenario bundles, request tables, results, games, logs.

A scenario is a JSON document pointing at a request CSV; paths inside the
document resolve relative to the document's directory.  Parsing is
strict: unknown keys are rejected rather than ignored, so a misspelled
parameter ("gama") fails loudly instead of silently running defaults, and
every field is read through one checked accessor, so a value of the wrong
JSON type fails with a ValidationError that names its key.

A results document is one episode's metrics, its per-platform ledgers, its
trades and its auction awards.  Each of these records is described once,
by a table of its fields in column order (``_EPISODE_FIELDS`` and the
like), which the JSON writer, the JSON reader, the summary CSV and the
trade log all read.  Money is fixed point in memory and dollars on disk.
A derived field (an episode total, a platform's profit) is checked on read.
"""
from __future__ import annotations

import csv
import io
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
from .mechanisms import AuctionAward, CoalitionGame, TradeRecord, coalition_key
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
    """Read a request table; the platform column may be left blank.

    One csv.reader parses the file as written, so a quoted field keeps its
    commas and line breaks; each field is then stripped of surrounding
    whitespace.  Errors name the line a row starts on.
    """
    path = Path(path)
    rows = []
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            start = 1
            for row in reader:
                rows.append((start, row))
                start = reader.line_num + 1
    except (OSError, UnicodeError) as exc:
        raise ScenarioParseError(f"cannot read request file {path}: {exc}") from exc
    except csv.Error as exc:
        raise ScenarioParseError(f"{path}:{start}: {exc}") from exc
    if not rows or rows[0][1] != REQUEST_HEADER:
        raise ScenarioParseError(
            f"{path}: first line must be {','.join(REQUEST_HEADER)}"
        )
    requests = []
    for lineno, row in rows[1:]:
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


def _csv_text(rows) -> str:
    """CSV text; only a field holding a comma, a quote or a line break is quoted.

    A row with a carriage return in a field is quoted whole: csv.writer
    quotes that character only when the line terminator holds one.
    """
    buf = io.StringIO()
    plain = csv.writer(buf, lineterminator="\n")
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        (quoted if any("\r" in str(f) for f in row) else plain).writerow(row)
    return buf.getvalue()


def write_requests(requests: list[Request], path: str | Path) -> None:
    """Write a request table that load_requests reads back field for field.

    The reader strips each field, so an id, node or platform with
    surrounding whitespace is a ValidationError, raised before the file
    is opened.
    """
    for r in requests:
        for name, text in (("id", r.id), ("origin", r.origin),
                           ("destination", r.destination), ("platform", r.platform)):
            if text != text.strip():
                raise ValidationError(
                    f"request {r.id!r}: {name} {text!r} has surrounding whitespace, "
                    "which the request table reader strips"
                )
    rows = [REQUEST_HEADER] + [
        [r.id, _time_text(r.request_time), r.origin, r.destination, r.platform]
        for r in sorted(requests, key=lambda r: (r.request_time, r.id))
    ]
    write_text(path, _csv_text(rows))


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
                positions=None if positions is None else tuple(str(n) for n in positions),
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
        name=_field(doc, "name", "scenario", str, path.stem),
        # the rest default as in Scenario
        **{attr: _field(doc, key, "scenario", kind) for key, attr, kind in (
            ("seed", "seed", int), ("horizon_s", "horizon_s", float),
            ("objective", "objective", str), ("allocations", "compute_allocations", bool),
        ) if key in doc},
    )


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

# Results records as (field, kind) pairs in column order.  A kind is str,
# int, float or _MONEY: fixed point in memory, dollars on disk.
_MONEY = object()
_EPISODE_FIELDS = (
    ("scenario", str), ("structure", str), ("objective", str), ("seed", int),
    ("n_requests", int), ("served", int), ("expired", int),
    ("total_vmt_miles", float), ("pct_unsatisfied", float), ("avg_wait_s", float),
    ("total_trips", int), ("n_trades", int), ("total_fares", _MONEY),
    ("total_driver_pay", _MONEY), ("total_profit", _MONEY), ("broker_balance", _MONEY),
)
_PLATFORM_FIELDS = (
    ("revenue", _MONEY), ("driver_cost", _MONEY), ("info_paid", _MONEY),
    ("info_received", _MONEY), ("trips", int), ("vehicles_used", int),
    ("contributed_fares", _MONEY), ("profit", _MONEY),
)
_TRADE_FIELDS = (
    ("epoch", int), ("request", str), ("seller", str), ("buyer", str),
    ("info_price", _MONEY),
)
_AWARD_FIELDS = (("epoch", int), ("request", str), ("platform", str), ("payment", _MONEY))


def _dump(record, table) -> dict:
    """The JSON-ready fields of a record, money in dollars."""
    out = {}
    for name, kind in table:
        value = getattr(record, name)
        out[name] = to_dollars(value) if kind is _MONEY else value
    return out


def _read(obj: Mapping, key: str, where: str, kind):
    """``_field``, with money read as dollars and restored to fixed point."""
    if kind is _MONEY:
        return dollars(_field(obj, key, where, float))
    return _field(obj, key, where, kind)


def _load(cls, obj: Mapping, table, where: str, **rest):
    """A record whose table fields are read from ``obj``, plus ``rest``; a
    record that fails its own checks is reported under ``where``.  A table
    field that is not an ``init`` field is derived and must read back as
    the record computes it."""
    given = {f.name for f in fields(cls) if f.init}
    values = {name: _read(obj, name, where, kind) for name, kind in table}
    try:
        record = cls(**{k: v for k, v in values.items() if k in given}, **rest)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    for name, kind in table:
        if name not in given and values[name] != getattr(record, name):
            derived = _dump(record, [(name, kind)])[name]
            raise ValidationError(f"{where}.{name}: expected {derived}, the value "
                                  f"the record's other fields give, got {obj[name]}")
    return record


def _csv_row(record, table) -> list[str]:
    """The CSV cells of a record: money in dollars and floats to 4 places
    (VMT to 6)."""
    row = []
    for name, kind in table:
        value = getattr(record, name)
        if kind is _MONEY:
            row.append(f"{to_dollars(value):.4f}")
        elif kind is float:
            row.append(f"{value:.{6 if name == 'total_vmt_miles' else 4}f}")
        else:
            row.append(str(value))
    return row


def metrics_to_dict(m: EpisodeMetrics) -> dict:
    """JSON-ready view of one episode; money rendered in dollars."""
    return {
        **_dump(m, _EPISODE_FIELDS),
        "platforms": {
            pid: _dump(p, _PLATFORM_FIELDS)
            for pid, p in sorted(m.per_platform.items())
        },
        "trades": [_dump(t, _TRADE_FIELDS) for t in m.trade_log],
        "auctions": [_dump(a, _AWARD_FIELDS) for a in m.auction_log],
        "allocations": m.allocations,
        "coalition_values": (
            {k: to_dollars(v) for k, v in sorted(m.coalition_values.items())}
            if m.coalition_values is not None else None
        ),
    }


def _nullable(obj: Mapping, key: str, where: str, kind: type):
    """``_field`` of a key that is written as null when it has no value."""
    return None if obj.get(key) is None else _field(obj, key, where, kind)


def _records(obj: Mapping, key: str, where: str) -> list[tuple[str, Mapping]]:
    """The objects of an optional list field, each with its own label."""
    out = []
    for i, entry in enumerate(_field(obj, key, where, list, [])):
        label = f"{where}.{key}[{i}]"
        if not isinstance(entry, Mapping):
            raise ValidationError(f"{label}: expected an object")
        out.append((label, entry))
    return out


def metrics_from_dict(doc: Mapping) -> EpisodeMetrics:
    """Inverse of metrics_to_dict, restoring fixed-point money.

    Every field is read through ``_field``, so a malformed document fails
    with a ValidationError that names its key, as does a derived field
    that contradicts the record's other fields.
    """
    if not isinstance(doc, Mapping):
        raise ValidationError("results: expected an object")
    raw = _field(doc, "platforms", "results", dict)
    platforms = {
        pid: _load(PlatformMetrics, _field(raw, pid, "results.platforms", dict),
                   _PLATFORM_FIELDS, f"results.platforms.{pid}")
        for pid in raw
    }
    trades = [_load(TradeRecord, t, _TRADE_FIELDS, where)
              for where, t in _records(doc, "trades", "results")]
    awards = [_load(AuctionAward, a, _AWARD_FIELDS, where)
              for where, a in _records(doc, "auctions", "results")]
    values = _nullable(doc, "coalition_values", "results", dict)
    if values is not None:
        values = {k: _read(values, k, "results.coalition_values", _MONEY) for k in values}
    return _load(
        EpisodeMetrics, doc, _EPISODE_FIELDS, "results",
        per_platform=platforms,
        trade_log=trades,
        auction_log=awards,
        allocations=_nullable(doc, "allocations", "results", dict),
        coalition_values=values,
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
    rows = [[name for name, _ in _EPISODE_FIELDS] + [f"profit:{pid}" for pid in pids]]
    for m in many:
        row = _csv_row(m, _EPISODE_FIELDS)
        for pid in pids:
            p = m.per_platform.get(pid)
            row += _csv_row(p, _PLATFORM_FIELDS[-1:]) if p else [""]  # profit
        rows.append(row)
    return _csv_text(rows)


def read_results(path: str | Path) -> EpisodeMetrics | list[EpisodeMetrics]:
    """Read back JSON results written by write_results."""
    doc = _read_json(Path(path), "results")
    if isinstance(doc, list):
        return [metrics_from_dict(d) for d in doc]
    return metrics_from_dict(doc)


def write_trade_log(trades: list[TradeRecord], path: str | Path) -> None:
    """Trade log CSV with one row per executed trade."""
    rows = [[name for name, _ in _TRADE_FIELDS]]
    rows += [_csv_row(t, _TRADE_FIELDS) for t in trades]
    write_text(path, _csv_text(rows))


# ---------------------------------------------------------------------------
# coalition game files
# ---------------------------------------------------------------------------

def read_game(path: str | Path) -> tuple[CoalitionGame, dict | None, dict | None]:
    """Read a characteristic-function file, plus optional costs/revenues."""
    doc = _read_json(Path(path), "game")
    _check_keys(doc, _GAME_KEYS, "game")
    players = [str(p) for p in _field(doc, "players", "game", list)]
    raw = _field(doc, "v", "game", dict)
    values = {}
    for key in raw:
        members = [p.strip() for p in key.split(",") if p.strip()]
        if key != coalition_key(members):
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
            coalition_key(k): float(v)
            for k, v in sorted(game.values.items(), key=lambda kv: coalition_key(kv[0]))
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
    if len(net.nodes) < 2:
        raise ValidationError(
            f"a {rows}x{cols} grid has no two distinct nodes for an origin and a "
            "destination")
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
