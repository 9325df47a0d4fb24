import json

import pytest

from skyrelay.cli import EXIT_OK, EXIT_USAGE, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """End-to-end artifacts: scenario plus one tiny benchmark run."""
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "scenario.json"
    outdir = root / "results"
    assert main(["gen-scenario", "--scale", "1", "--seed", "3", "--out", str(scenario)]) == EXIT_OK
    assert (
        main(
            [
                "run",
                "--scenario", str(scenario),
                "--algo", "nsga3fdu",
                "--trials", "2",
                "--pop", "8",
                "--iters", "2",
                "--seed", "1",
                "--out", str(outdir),
            ]
        )
        == EXIT_OK
    )
    return scenario, outdir


def test_run_outputs(workspace):
    _, outdir = workspace
    assert (outdir / "stats.csv").exists()
    assert (outdir / "reports.json").exists()
    doc = json.loads((outdir / "reports.json").read_text())
    assert doc["algo"] == "nsga3fdu" and len(doc["trials"]) == 2


def test_stats_command(workspace, tmp_path):
    _, outdir = workspace
    out = tmp_path / "stats.csv"
    assert main(["stats", "--in", str(outdir), "--out", str(out)]) == EXIT_OK
    # recomputing from reports.json reproduces the run's own stats.csv
    assert out.read_bytes() == (outdir / "stats.csv").read_bytes()


def test_pick_command(workspace, capsys):
    _, outdir = workspace
    assert main(["pick", "--in", str(outdir), "--strategy", "minuav", "--trial", "0"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert rec["strategy"] == "minuav" and rec["trial"] == 0
    assert rec["solution"]["n_uavs"] == rec["objectives"]["f2"] or not rec["objectives"]["feasible"]


def test_eff_command(workspace, capsys):
    scenario, outdir = workspace
    assert main(["eff", "--in", str(outdir), "--scenario", str(scenario)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("eff_with_uavs_bit_per_j")
    values = [float(v) for v in lines[1].split(",")]
    assert len(values) == 4 and all(v > 0 for v in values)


def test_usage_errors(workspace, tmp_path):
    scenario, outdir = workspace
    assert main([]) == EXIT_USAGE
    assert main(["gen-scenario", "--scale", "9", "--seed", "0", "--out", "x"]) == EXIT_USAGE
    assert main(["run", "--scenario", "missing.json", "--algo", "ud", "--out", str(tmp_path)]) == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["run", "--scenario", str(bad), "--algo", "ud", "--out", str(tmp_path)]) == EXIT_USAGE
    doc = json.loads(scenario.read_text())
    doc["relayed_pairs"][0]["dwd_xy"] = doc["direct_pairs"][0]["swd_xy"]  # zero ground distance
    bad.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(bad), "--algo", "ud", "--out", str(tmp_path)]) == EXIT_USAGE
    assert main(["pick", "--in", str(outdir), "--strategy", "minuav", "--trial", "99"]) == EXIT_USAGE
    assert main(["stats", "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE
    text = (outdir / "reports.json").read_text()
    no_picks, pick_past_end = json.loads(text), json.loads(text)
    del no_picks["trials"][0]["picks"]
    pick_past_end["trials"][1]["picks"]["minuav"] = len(pick_past_end["trials"][1]["front"])
    broken = tmp_path / "broken"
    broken.mkdir()
    for doc in ({"algo": "nsga3fdu", "trials": []}, no_picks, pick_past_end):
        (broken / "reports.json").write_text(json.dumps(doc))
        assert main(["stats", "--in", str(broken), "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE
        assert main(["eff", "--in", str(broken), "--scenario", str(scenario)]) == EXIT_USAGE


def test_help_exits_ok(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "gen-scenario" in capsys.readouterr().out
