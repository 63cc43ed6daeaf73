"""File formats: request tables, scenario documents, results, game files."""
import json

import numpy as np
import pytest

from ridemarket.engine import PlatformSpec, Scenario, run
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
from ridemarket.mechanisms import CoalitionGame, TradeRecord
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


def test_results_csv_has_per_platform_profit(tmp_path):
    m = _tiny_metrics()
    path = tmp_path / "out.csv"
    write_results([m], path, fmt="csv")
    header, row = path.read_text().splitlines()
    assert "profit:A" in header.split(",")
    assert header.count(",") == row.count(",")


def test_trade_log_csv(tmp_path):
    trades = [TradeRecord(epoch=3, request="r7", seller="A", buyer="B", info_price=420)]
    path = tmp_path / "trades.csv"
    write_trade_log(trades, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,request,seller,buyer,info_price"
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


def test_gen_scenario_deterministic(tmp_path):
    a = gen_scenario(tmp_path / "a", n_requests=10, seed=6)
    b = gen_scenario(tmp_path / "b", n_requests=10, seed=6, name="a")
    assert (a.parent / "requests.csv").read_text() == \
        (b.parent / "requests.csv").read_text()
    assert a.read_text() == b.read_text()
