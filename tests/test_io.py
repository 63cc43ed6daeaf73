"""File formats: request tables, scenario documents, results, game files."""
import csv
import io
import json
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from ridemarket import io as rio
from ridemarket.engine import EpisodeMetrics, PlatformMetrics, PlatformSpec, Scenario, run
from ridemarket.errors import ScenarioParseError, ValidationError
from ridemarket.io import (
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
from ridemarket.mechanisms import AuctionAward, CoalitionGame, TradeRecord
from ridemarket.model import PricingScheme, Request
from ridemarket.network import make_grid
from ridemarket.rtv import Constraints, MarketStructure


def _sample_requests():
    return [
        Request(id="r0", origin="0", destination="8", request_time=0.0, platform="A"),
        Request(id="r1", origin="3", destination="5", request_time=42.0, platform=""),
    ]


def test_request_csv_round_trip(tmp_path):
    path = tmp_path / "requests.csv"
    write_requests(_sample_requests(), path)
    back = load_requests(path)
    assert [(r.id, r.origin, r.destination, r.request_time, r.platform) for r in back] == \
        [("r0", "0", "8", 0.0, "A"), ("r1", "3", "5", 42.0, "")]


def test_ids_with_commas_and_quotes_round_trip(tmp_path):
    odd = ["a,b", 'q"x', 'both,"']
    path = tmp_path / "requests.csv"
    write_requests([Request(id=rid, origin="0", destination="8", request_time=float(i),
                            platform=odd[-1 - i])
                    for i, rid in enumerate(odd)], path)
    assert [(r.id, r.platform, r.request_time) for r in load_requests(path)] == \
        [(rid, odd[-1 - i], float(i)) for i, rid in enumerate(odd)]
    trades = [TradeRecord(epoch=1, request="a,b", seller='q"x', buyer="B", info_price=5)]
    log = tmp_path / "trades.csv"
    write_trade_log(trades, log)
    assert list(csv.reader(log.read_text().splitlines())) == [
        ["epoch", "request", "seller", "buyer", "info_price"],
        ["1", "a,b", 'q"x', "B", "0.0050"],
    ]


@pytest.mark.parametrize("odd", ["a\nb", "a\rb", "a\r\nb", "a,b", "a\u2028b"])
def test_line_breaks_in_request_fields_round_trip(odd, tmp_path):
    path = tmp_path / "requests.csv"
    write_requests([Request(id=odd, origin="0", destination="8", request_time=0.0,
                            platform=odd),
                    Request(id="r1", origin="3", destination="5", request_time=1.0,
                            platform="A")], path)
    assert [(r.id, r.platform) for r in load_requests(path)] == [(odd, odd), ("r1", "A")]
    # a plain row keeps its bytes, and an error names the line its row
    # starts on, counting the line breaks inside quoted fields
    text = path.read_bytes().decode()
    assert text.endswith("\nr1,1,3,5,A\n")
    path.write_bytes(text.replace("r1,1", "r1,x").encode())
    last = len(io.StringIO(text, newline="").readlines())
    with pytest.raises(ScenarioParseError, match=f"requests.csv:{last}: bad request time"):
        load_requests(path)


@pytest.mark.parametrize("field", ["id", "origin", "destination", "platform"])
def test_write_requests_rejects_fields_the_reader_strips(field, tmp_path):
    values = {"id": "r0", "origin": "0", "destination": "8", "platform": "A"}
    values[field] = " " + values[field]
    path = tmp_path / "requests.csv"
    with pytest.raises(ValidationError, match=f"^request {re.escape(repr(values['id']))}: "
                                              f"{field} "):
        write_requests([Request(request_time=0.0, **values)], path)
    assert not path.exists()


def test_request_times_read_back_exactly(tmp_path):
    path = tmp_path / "requests.csv"
    times = (423326123457.0, 0.1, 600.0)
    write_requests([Request(id=f"r{i}", origin="0", destination="8",
                            request_time=t, platform="A")
                    for i, t in enumerate(times)], path)
    assert [r.request_time for r in load_requests(path)] == sorted(times)
    # integer times below 1e6 keep their short text
    assert "r2,600,0,8,A" in path.read_text().splitlines()


def test_request_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "requests.csv"
    path.write_text("id,when,origin_node,dest_node,platform\nr0,0,0,8,A\n")
    with pytest.raises(ScenarioParseError):
        load_requests(path)


def test_request_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "requests.csv"
    path.write_text(
        "id,request_time_s,origin_node,dest_node,platform\n"
        "r0,0,0,8,A\n"
        "r1,not-a-number,3,5,B\n"
    )
    with pytest.raises(ScenarioParseError) as err:
        load_requests(path)
    assert "requests.csv:3" in str(err.value)


def test_request_csv_field_over_the_csv_limit_is_a_parse_error(tmp_path):
    path = tmp_path / "requests.csv"
    path.write_text("id,request_time_s,origin_node,dest_node,platform\n"
                    "r0,0,0,8,A\n" + "r" * 200_000 + ",0,0,8,A\n")
    with pytest.raises(ScenarioParseError, match="requests.csv:3: field larger"):
        load_requests(path)


def test_request_csv_rejects_non_finite_times(tmp_path):
    path = tmp_path / "requests.csv"
    for when in ("inf", "nan"):
        path.write_text(
            "id,request_time_s,origin_node,dest_node,platform\n"
            f"r0,{when},0,8,A\n"
        )
        with pytest.raises(ScenarioParseError, match="requests.csv:2: request r0"):
            load_requests(path)


def test_request_programming_error_propagates(tmp_path, monkeypatch):
    path = tmp_path / "requests.csv"
    write_requests(_sample_requests(), path)

    def broken(**kwargs):
        raise TypeError("broken Request")

    monkeypatch.setattr("ridemarket.io.Request", broken)
    with pytest.raises(TypeError, match="broken Request"):
        load_requests(path)


def test_unreadable_documents_are_parse_errors(tmp_path):
    doc_path = gen_scenario(tmp_path / "demo", n_requests=3, seed=0)
    garbage = b"\xff\xfe\x00\x81"
    (tmp_path / "demo" / "requests.csv").write_bytes(garbage)
    with pytest.raises(ScenarioParseError, match="cannot read request file"):
        load_scenario(doc_path)
    for reader, what in ((load_scenario, "scenario"), (read_game, "game")):
        doc_path.write_bytes(garbage)
        with pytest.raises(ScenarioParseError, match=f"cannot read {what}"):
            reader(doc_path)


def test_scenario_document_round_trip(tmp_path):
    doc_path = gen_scenario(tmp_path / "demo", n_requests=6, n_platforms=2,
                            fleet=2, seed=11, structure="central")
    sc = load_scenario(doc_path)
    assert sc.name == "demo"
    assert sc.seed == 11
    assert sc.structure.kind == "central"
    assert len(sc.requests) == 6
    assert [p.id for p in sc.platforms] == ["A", "B"]
    assert all(r.platform == "" for r in sc.requests)  # split at episode seeding
    run(sc)  # generated bundles must simulate cleanly


def test_scenario_document_rejects_unknown_keys(tmp_path):
    doc_path = gen_scenario(tmp_path / "demo", n_requests=3, seed=0)
    doc = json.loads(doc_path.read_text())
    doc["constraints"] = {"gama": 0.2}  # misspelled knob must not pass silently
    doc_path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=r"unknown key\(s\) \['gama'\]$"):
        load_scenario(doc_path)


def test_scenario_document_custom_blocks(tmp_path):
    doc_path = gen_scenario(tmp_path / "demo", n_requests=4, seed=3)
    doc = json.loads(doc_path.read_text())
    doc["constraints"] = {"detour_factor": 1.5, "gamma": 0.2}
    doc["pricing"] = {"ded_base": 3.00}
    doc["structure"] = {"kind": "cooperative", "alliance": ["A", "B"]}
    doc["objective"] = "min_vmt_penalty"
    doc_path.write_text(json.dumps(doc))
    sc = load_scenario(doc_path)
    assert sc.constraints.detour_factor == 1.5
    assert sc.constraints.gamma == 0.2
    assert sc.constraints.max_wait_s == Constraints().max_wait_s  # others default
    assert sc.pricing.ded_base == 3000
    assert sc.structure.alliance == frozenset({"A", "B"})
    assert sc.objective == "min_vmt_penalty"


@pytest.mark.parametrize("fleet", [0, 2])
def test_empty_positions_list_is_checked_against_the_fleet(tmp_path, fleet):
    # an empty list names no position; it is not an absent key, which would
    # draw random positions
    doc_path = gen_scenario(tmp_path / "demo", n_requests=3, seed=0)
    doc = json.loads(doc_path.read_text())
    doc["platforms"] = [{"id": "A", "fleet": fleet, "positions": []}]
    doc_path.write_text(json.dumps(doc))
    if fleet:
        with pytest.raises(ValidationError, match="platform A: 0 positions for fleet of 2"):
            load_scenario(doc_path)
    else:
        assert load_scenario(doc_path).platforms == [PlatformSpec("A", 0, positions=())]


def _tiny_metrics():
    net = make_grid(4, 4, edge_len=300.0, speed=10.0)
    reqs = [Request(id="r0", origin="0", destination="15", request_time=0.0, platform="A")]
    sc = Scenario(net=net, requests=reqs, platforms=[PlatformSpec("A", 1, positions=("0",))],
                  structure=MarketStructure(kind="single"), constraints=Constraints(),
                  pricing=PricingScheme(), seed=0)
    return run(sc)


def test_results_json_round_trip(tmp_path):
    m = _tiny_metrics()
    path = tmp_path / "out.json"
    write_results(m, path)
    back = read_results(path)
    assert metrics_to_dict(back) == metrics_to_dict(m)
    many = tmp_path / "many.json"
    write_results([m, m], many)
    back = read_results(many)
    assert isinstance(back, list) and len(back) == 2


def test_results_dict_round_trip():
    m = _tiny_metrics()
    assert metrics_to_dict(metrics_from_dict(metrics_to_dict(m))) == metrics_to_dict(m)


@pytest.mark.parametrize(("cls", "table"), [
    (EpisodeMetrics, rio._EPISODE_FIELDS),
    (PlatformMetrics, rio._PLATFORM_FIELDS),
    (TradeRecord, rio._TRADE_FIELDS),
    (AuctionAward, rio._AWARD_FIELDS),
])
def test_every_results_field_is_in_its_table(cls, table):
    # a field added to a record and left out of its table fails here
    nested = {"per_platform", "trade_log", "auction_log", "allocations", "coalition_values"}
    assert [name for name, _ in table] == \
        [f.name for f in fields(cls) if f.name not in nested]


_ids = st.text(st.characters(codec="utf-8"), max_size=6)
_money = st.integers(-10**12, 10**12)
_counts = st.integers(0, 10**9)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _episodes(draw):
    pids = draw(st.lists(_ids, min_size=1, max_size=3, unique=True))
    platforms = {pid: PlatformMetrics(
        revenue=draw(_money), driver_cost=draw(_money), info_paid=draw(_money),
        info_received=draw(_money), trips=draw(_counts), vehicles_used=draw(_counts),
        contributed_fares=draw(_money)) for pid in pids}
    trades = draw(st.lists(st.builds(
        TradeRecord, epoch=_counts, request=_ids, seller=st.just("S"),
        buyer=st.just("B"), info_price=st.integers(0, 10**12)), min_size=1, max_size=3))
    awards = draw(st.lists(st.builds(
        AuctionAward, epoch=_counts, request=_ids, platform=_ids, payment=_money),
        min_size=1, max_size=3))
    values = draw(st.none() | st.dictionaries(_ids, _money, max_size=3))
    allocations = draw(st.none() | st.dictionaries(
        _ids, st.dictionaries(_ids, _finite, max_size=3), max_size=2))
    return EpisodeMetrics(
        scenario=draw(_ids), structure=draw(_ids), objective=draw(_ids),
        seed=draw(_counts), n_requests=draw(_counts), served=draw(_counts),
        expired=draw(_counts), total_vmt_miles=draw(_finite),
        pct_unsatisfied=draw(_finite), avg_wait_s=draw(_finite),
        total_trips=draw(_counts), n_trades=draw(_counts), total_fares=draw(_money),
        total_driver_pay=draw(_money), total_profit=draw(_money),
        broker_balance=draw(_money), per_platform=platforms, trade_log=trades,
        auction_log=awards, allocations=allocations, coalition_values=values,
    )


@settings(max_examples=200, deadline=None)
@given(_episodes())
def test_results_records_round_trip_through_json(m):
    assert metrics_from_dict(json.loads(json.dumps(metrics_to_dict(m)))) == m


@pytest.mark.parametrize(("doc", "message"), [
    ({}, "results: missing required key 'platforms'"),
    ([1], "results: expected an object"),
    ({"platforms": 3}, "results.platforms: expected an object, got 3"),
    ({"platforms": {"A": []}}, "results.platforms.A: expected an object, got []"),
    ({"platforms": {"A": {"revenue": "1"}}},
     'results.platforms.A.revenue: expected a finite number, got "1"'),
    ({"platforms": {}, "trades": [2]}, "results.trades[0]: expected an object"),
    ({"platforms": {}, "trades": [{"epoch": 0, "request": "r0", "seller": "A",
                                   "buyer": "A", "info_price": 1.0}]},
     "results.trades[0]: a platform cannot trade with itself"),
    ({"platforms": {}, "trades": [{"epoch": 0, "request": "r0", "seller": "A",
                                   "buyer": "B", "info_price": -1.0}]},
     "results.trades[0]: information price must be non-negative"),
])
def test_malformed_results_are_validation_errors(tmp_path, doc, message):
    path = tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        read_results(path)


def test_results_csv_has_per_platform_profit(tmp_path):
    m = _tiny_metrics()
    path = tmp_path / "out.csv"
    write_results([m], path, fmt="csv")
    header, row = path.read_text().splitlines()
    assert header.split(",") == [name for name, _ in rio._EPISODE_FIELDS] + ["profit:A"]
    assert header.count(",") == row.count(",")


def test_results_csv_quotes_fields_that_hold_commas_and_quotes(tmp_path):
    net = make_grid(4, 4, edge_len=300.0, speed=10.0)
    # a platform id may not hold a comma (coalition keys are comma-joined)
    reqs = [Request(id="r0", origin="0", destination="15", request_time=0.0,
                    platform='A "1"')]
    sc = Scenario(net=net, requests=reqs, platforms=[PlatformSpec('A "1"', 1, positions=("0",))],
                  name='city, "north"')
    m = run(sc)
    path = tmp_path / "out.csv"
    write_results([m, m], path, fmt="csv")
    header, *rows = csv.reader(io.StringIO(path.read_text()))
    assert header[-1] == 'profit:A "1"'
    assert len(rows) == 2
    for row in rows:
        assert len(row) == len(header)
        assert row[:2] == ['city, "north"', "single"]


def test_trade_log_csv(tmp_path):
    trades = [TradeRecord(epoch=3, request="r7", seller="A", buyer="B", info_price=420)]
    path = tmp_path / "trades.csv"
    write_trade_log(trades, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,request,seller,buyer,info_price"
    assert lines[0] == ",".join(name for name, _ in rio._TRADE_FIELDS)
    assert lines[1] == "3,r7,A,B,0.4200"  # prices serialize in dollars


def test_game_file_round_trip(tmp_path):
    game = CoalitionGame(
        players=("A", "B"),
        values={frozenset({"A"}): 10.0, frozenset({"B"}): 20.0,
                frozenset({"A", "B"}): 36.0},
    )
    path = tmp_path / "game.json"
    write_game(game, path, costs={"A": 10.0, "B": 30.0}, revenues={"A": 20.0, "B": 40.0})
    back, costs, revenues = read_game(path)
    assert back.players == game.players
    assert back.values == game.values
    assert costs == {"A": 10.0, "B": 30.0}
    assert revenues == {"A": 20.0, "B": 40.0}


def test_game_file_requires_complete_value_table(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"players": ["A", "B"], "v": {"A": 1.0, "A,B": 3.0}}))
    with pytest.raises(ValidationError):
        read_game(path)


def test_gen_scenario_guards():
    with pytest.raises(ValidationError):
        gen_scenario("/tmp/never-used", n_requests=0)
    with pytest.raises(ValidationError):
        gen_scenario("/tmp/never-used", n_platforms=0)
    with pytest.raises(ValidationError):
        gen_scenario("/tmp/never-used", horizon_s=0.0)
    for horizon_s in (float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="horizon"):
            gen_scenario("/tmp/never-used", horizon_s=horizon_s)
    with pytest.raises(ValidationError, match="seed must be non-negative"):
        gen_scenario("/tmp/never-used", seed=-1)


def test_gen_scenario_needs_two_nodes(tmp_path):
    # one node has no destination apart from the origin
    out = tmp_path / "fresh"
    with pytest.raises(ValidationError, match="no two distinct nodes"):
        gen_scenario(out, rows=1, cols=1)
    assert not out.exists()
    assert gen_scenario(out, rows=1, cols=2, n_requests=3).exists()


def test_gen_scenario_deterministic(tmp_path):
    a = gen_scenario(tmp_path / "a", n_requests=10, seed=6)
    b = gen_scenario(tmp_path / "b", n_requests=10, seed=6, name="a")
    assert (a.parent / "requests.csv").read_text() == \
        (b.parent / "requests.csv").read_text()
    assert a.read_text() == b.read_text()
