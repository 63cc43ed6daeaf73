"""Command-line interface: subcommands, seeding precedence, exit codes."""
import itertools
import json
import time

import pytest

from ridemarket.cli import SEED_ENV, main
from ridemarket.io import gen_scenario, read_results
from ridemarket.mechanisms import CoalitionGame
from ridemarket.io import write_game
from ridemarket.solve import LpResult


@pytest.fixture()
def bundle(tmp_path):
    return gen_scenario(tmp_path / "demo", n_requests=8, n_platforms=2,
                        fleet=2, seed=5, structure="segmented")


@pytest.fixture()
def game_file(tmp_path):
    game = CoalitionGame(
        players=("A", "B"),
        values={frozenset({"A"}): 10.0, frozenset({"B"}): 20.0,
                frozenset({"A", "B"}): 36.0},
    )
    path = tmp_path / "game.json"
    write_game(game, path)
    return path


def test_simulate_to_stdout(bundle, capsys):
    assert main(["simulate", "--scenario", str(bundle)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["structure"] == "segmented"
    assert doc["n_requests"] == 8


def test_simulate_to_file_with_structure_override(bundle, tmp_path):
    out = tmp_path / "res.json"
    rc = main(["simulate", "--scenario", str(bundle), "--structure", "central",
               "--out", str(out)])
    assert rc == 0
    m = read_results(out)
    assert m.structure == "central"


def test_simulate_writes_trade_log(bundle, tmp_path):
    log = tmp_path / "trades.csv"
    rc = main(["simulate", "--scenario", str(bundle), "--structure", "bilateral",
               "--trade-log", str(log)])
    assert rc == 0
    assert log.read_text().splitlines()[0] == "epoch,request,seller,buyer,info_price"


def test_seed_precedence_flag_beats_env(bundle, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV, "111")
    assert main(["simulate", "--scenario", str(bundle), "--seed", "222"]) == 0
    by_flag = json.loads(capsys.readouterr().out)
    assert by_flag["seed"] == 222
    assert main(["simulate", "--scenario", str(bundle)]) == 0
    by_env = json.loads(capsys.readouterr().out)
    assert by_env["seed"] == 111


def test_bad_env_seed_is_a_clean_error(bundle, monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV, "eleven")
    assert main(["simulate", "--scenario", str(bundle)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, mutate", [
    pytest.param("platforms[0].fleet",
                 lambda d: d["platforms"][0].update(fleet=[3]), id="fleet"),
    pytest.param("scenario.platforms", lambda d: d.update(platforms=5), id="platforms"),
    pytest.param("network.grid.rows",
                 lambda d: d["network"]["grid"].update(rows=None), id="rows"),
    pytest.param("platforms[0].positions",
                 lambda d: d["platforms"][0].update(positions=7), id="positions"),
    pytest.param("structure.alliance",
                 lambda d: d["structure"].update(alliance=5), id="alliance"),
    pytest.param("scenario.seed", lambda d: d.update(seed="x"), id="seed"),
    pytest.param("constraints.gamma",
                 lambda d: d.update(constraints={"gamma": "abc"}), id="gamma"),
    # fails before the episode set-up allocates a vehicle per unit of fleet
    pytest.param("platform A",
                 lambda d: d["platforms"][0].update(fleet=10**12), id="fleet-bound"),
])
def test_malformed_field_is_one_line_naming_the_key(bundle, capsys, key, mutate):
    doc = json.loads(bundle.read_text())
    mutate(doc)
    bundle.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(bundle)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: expected ")
    assert err.count("\n") == 1


def test_negative_seed_is_exit_one(bundle, monkeypatch, capsys):
    assert main(["simulate", "--scenario", str(bundle), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    monkeypatch.setenv(SEED_ENV, "-2")
    assert main(["simulate", "--scenario", str(bundle)]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -2\n"


def test_unwritable_out_is_exit_one(bundle, tmp_path, capsys):
    out = tmp_path / "missing-dir" / "res.csv"
    for command in ("simulate", "compare"):
        assert main([command, "--scenario", str(bundle), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1


def test_solver_failure_is_exit_one(bundle, monkeypatch, capsys):
    monkeypatch.setattr("ridemarket.solve._MAX_PIVOTS", 1)
    assert main(["simulate", "--scenario", str(bundle)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: simplex pivot limit of 1 exceeded on an LP of ")
    assert err.count("\n") == 1


def test_unbounded_phase_one_is_exit_one(game_file, monkeypatch, capsys):
    # the core-allocation LP has >= and = rows, so it still runs phase 1
    monkeypatch.setattr("ridemarket.solve._simplex_iterate",
                        lambda *args: "unbounded")
    assert main(["allocate", "--game", str(game_file), "--method", "epm"]) == 1
    assert capsys.readouterr().err == "error: phase 1 reported unbounded\n"


@pytest.mark.parametrize("method", ["epm", "contribution"])
def test_core_lp_above_six_players_is_exit_one(tmp_path, method, capsys):
    players = tuple("ABCDEFG")
    game = CoalitionGame(players=players, values={
        frozenset(c): 10.0 * k * k
        for k in range(1, 8) for c in itertools.combinations(players, k)})
    path = tmp_path / "game7.json"
    write_game(game, path)
    assert main(["allocate", "--game", str(path), "--method", method]) == 1
    assert capsys.readouterr().err == \
        "error: the core LP takes at most 6 players, got 7\n"


def test_value_for_empty_coalition_is_exit_one(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(
        {"players": ["A", "B"], "v": {"": 99, "A": 10, "B": 20, "A,B": 36}}))
    assert main(["allocate", "--game", str(path), "--method", "shapley"]) == 1
    assert capsys.readouterr().err == \
        "error: the empty coalition may not be given a value\n"


def test_comma_in_platform_id_is_exit_one(bundle, capsys):
    doc = json.loads(bundle.read_text())
    doc["platforms"][0]["id"] = "A,B"
    bundle.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(bundle)]) == 1
    assert capsys.readouterr().err == \
        "error: platform id 'A,B' must be a non-empty string without commas\n"


def test_unbounded_assignment_relaxation_is_exit_one(bundle, monkeypatch, capsys):
    # assignment LPs start from a feasible slack basis: no phase 1 runs
    monkeypatch.setattr("ridemarket.solve._simplex_iterate",
                        lambda *args: "unbounded")
    assert main(["simulate", "--scenario", str(bundle)]) == 1
    assert capsys.readouterr().err == "error: assignment relaxation reported unbounded\n"


def test_infeasible_assignment_relaxation_is_exit_one(bundle, monkeypatch, capsys):
    monkeypatch.setattr("ridemarket.solve.solve_lp",
                        lambda lp: LpResult("infeasible"))
    assert main(["simulate", "--scenario", str(bundle)]) == 1
    err = capsys.readouterr().err
    assert err == "error: assignment relaxation reported infeasible\n"


def test_compare_runs_all_structures(bundle, tmp_path):
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--scenario", str(bundle), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 7  # header + one row per structure
    kinds = {line.split(",")[1] for line in lines[1:]}
    assert kinds == {"single", "segmented", "cooperative", "bilateral",
                     "central", "marketplace"}


def test_compare_subset_of_structures(bundle, capsys):
    rc = main(["compare", "--scenario", str(bundle),
               "--structures", "single,segmented", "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["structure"] for r in rows] == ["single", "segmented"]


def test_structure_override_keeps_the_scenarios_alliance(tmp_path, capsys):
    path = gen_scenario(tmp_path / "alliance", n_requests=30, n_platforms=3,
                        fleet=2, seed=5)
    doc = json.loads(path.read_text())
    doc["structure"] = {"kind": "cooperative", "alliance": ["A", "B"]}
    path.write_text(json.dumps(doc))

    def vmt(*argv):
        assert main(list(argv)) == 0
        out = json.loads(capsys.readouterr().out)
        return [r["total_vmt_miles"] for r in (out if isinstance(out, list) else [out])]

    [as_written] = vmt("simulate", "--scenario", str(path))
    [overridden] = vmt("simulate", "--scenario", str(path), "--structure", "cooperative")
    compared = vmt("compare", "--scenario", str(path), "--format", "json",
                   "--structures", "cooperative,single")
    # pooling all three platforms is the single market, a shorter route
    assert overridden == compared[0] == as_written != compared[1]


def test_allocate_game_file(game_file, capsys):
    assert main(["allocate", "--game", str(game_file), "--method", "shapley"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["amounts"]["A"] == pytest.approx(13.0)
    assert doc["amounts"]["B"] == pytest.approx(23.0)
    assert main(["allocate", "--game", str(game_file), "--method", "epm"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["amounts"]["A"] == pytest.approx(12.0, abs=1e-9)
    assert doc["amounts"]["B"] == pytest.approx(24.0, abs=1e-9)


def test_auction_command(capsys):
    assert main(["auction", "--bids", "5,3,0"]) == 0
    assert capsys.readouterr().out.strip() == "winner=0 payment=0.3000"
    assert main(["auction", "--bids", "0,0"]) == 0
    assert capsys.readouterr().out.strip() == "no_sale"
    assert main(["auction", "--bids", "2,4", "--gamma", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "winner=1 payment=1.0000"
    for bids in ("x,1", "nan,1", "inf,1"):
        assert main(["auction", "--bids", bids]) == 1
        assert capsys.readouterr().err == (
            f"error: bids must be finite numbers, got {bids!r}\n"
        )


def test_gen_scenario_command(tmp_path, capsys):
    out = tmp_path / "fresh"
    rc = main(["gen-scenario", "--out", str(out), "--requests", "5",
               "--platforms", "3", "--seed", "9"])
    assert rc == 0
    assert (out / "scenario.json").exists()
    assert (out / "requests.csv").exists()


def test_gen_scenario_command_defaults_are_gen_scenarios(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(SEED_ENV, raising=False)
    # the scenario name defaults to the directory name, so both are "bundle"
    cli_dir, lib_dir = tmp_path / "cli" / "bundle", tmp_path / "lib" / "bundle"
    assert main(["gen-scenario", "--out", str(cli_dir)]) == 0
    gen_scenario(lib_dir)
    files = sorted(p.name for p in lib_dir.iterdir())
    assert sorted(p.name for p in cli_dir.iterdir()) == files
    for name in files:
        assert (cli_dir / name).read_bytes() == (lib_dir / name).read_bytes()


@pytest.mark.parametrize("flag, value", [
    ("--horizon-s", "1e300"),
    ("--horizon-s", "1e12"),
    ("--requests", "100000000000000000000"),
    ("--fleet", "-3"),
    ("--edge-len-m", "nan"),
    ("--edge-len-m", "inf"),
    ("--speed-mps", "inf"),
    ("--rows", "1"),  # with --cols 1 below: one node, so no destination
])
def test_gen_scenario_rejects_before_writing(tmp_path, capsys, flag, value):
    out = tmp_path / "fresh"
    args = ["--cols", "1"] if flag == "--rows" else []
    assert main(["gen-scenario", "--out", str(out), flag, value, *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_far_horizon_fails_before_the_first_epoch(bundle, capsys):
    # 1e12 s in 30 s intervals would step about 3e10 empty epochs
    doc = json.loads(bundle.read_text())
    doc["horizon_s"] = 1e12
    bundle.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["simulate", "--scenario", str(bundle)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "decision epochs" in err


def test_missing_scenario_is_exit_one(tmp_path, capsys):
    assert main(["simulate", "--scenario", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # --scenario is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
