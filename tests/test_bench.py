import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from conftest import make_config
from skyrelay import bench
from skyrelay.bench import (
    ALGORITHMS,
    aggregate_stats,
    export_results,
    load_reports,
    read_stats_csv,
    run_trials,
    write_stats_csv,
)
from skyrelay.encoding import ObjectiveVector
from skyrelay.moea import Individual
from skyrelay.solvers import STRATEGIES, RunConfig, pick_strategy


@pytest.fixture(scope="module")
def bench_cfg():
    return make_config(np.random.default_rng(0), m=4, k=2, n_min=2, n_max=4, u=2)


RC = RunConfig(pop=8, max_iters=3, seed=10)


@pytest.fixture(scope="module")
def reports(bench_cfg):
    return run_trials(bench_cfg, RC, "nsga3fdu", 4)


def test_run_trials_seeds_and_order(reports):
    assert [r.trial_seed for r in reports] == [10, 11, 12, 13]
    assert all(r.algo == "nsga3fdu" for r in reports)


def test_run_trials_deterministic(bench_cfg, reports, monkeypatch):
    monkeypatch.setenv("SKYRELAY_THREADS", "1")
    again = run_trials(bench_cfg, RC, "nsga3fdu", 4)
    for a, b in zip(reports, again):
        assert [i.key() for i in a.front] == [i.key() for i in b.front]
        assert a.picks == b.picks


def test_run_trials_rejects_bad_args(bench_cfg):
    with pytest.raises(ValueError):
        run_trials(bench_cfg, RC, "nsga3fdu", 0)
    with pytest.raises(ValueError):
        run_trials(bench_cfg, RC, "simulated-annealing", 2)


def test_picks_match_strategy(reports):
    for r in reports:
        for strategy in STRATEGIES:
            assert r.pick(strategy) is pick_strategy(r.front, strategy)


@pytest.mark.parametrize("algo", ["ud", "rd", "wsga"])
def test_singleton_algorithms(bench_cfg, algo):
    rs = run_trials(bench_cfg, RC, algo, 2)
    assert all(len(r.front) == 1 for r in rs)
    assert rs[0].front[0].key() != rs[1].front[0].key()  # seeds differ


def test_aggregate_stats_sign_and_values(reports):
    stats = aggregate_stats(reports)
    assert stats.algo == "nsga3fdu"
    assert set(stats.by_strategy) == {(s, o) for s in STRATEGIES for o in ("f1", "f2", "f3")}
    f1s = [r.pick("maxnetcap").objectives.f1 for r in reports]
    s = stats.by_strategy[("maxnetcap", "f1")]
    assert s.mean == pytest.approx(np.mean(f1s), rel=1e-12)
    assert s.std == pytest.approx(np.std(f1s), rel=1e-12)  # population form
    assert s.max == max(f1s) and s.min == min(f1s)
    if all(r.pick("maxnetcap").objectives.feasible for r in reports):
        assert s.mean > 0  # table sign convention: capacity positive
    assert 0.0 <= stats.feasibility_rate <= 1.0
    with pytest.raises(ValueError):
        aggregate_stats([])


def test_stats_csv_roundtrip(reports, tmp_path):
    stats = aggregate_stats(reports)
    path = tmp_path / "stats.csv"
    write_stats_csv(stats, path)
    rows = read_stats_csv(path)
    assert len(rows) == 9
    for row in rows:
        s = stats.by_strategy[(row["strategy"], row["objective"])]
        assert float(row["mean"]) == s.mean  # repr() keeps full precision
        assert float(row["std"]) == s.std


def test_export_results_files(reports, bench_cfg, tmp_path):
    stats = aggregate_stats(reports)
    export_results(reports, stats, tmp_path, bench_cfg)
    assert (tmp_path / "stats.csv").exists()
    assert (tmp_path / "reports.json").exists()
    for trial in range(len(reports)):
        assert (tmp_path / f"front_nsga3fdu_{trial}.csv").exists()
        for strategy in STRATEGIES:
            assert (tmp_path / f"pick_{strategy}_{trial}.json").exists()


def test_stats_from_report_doc_matches(reports, bench_cfg, tmp_path):
    stats = aggregate_stats(reports)
    export_results(reports, stats, tmp_path, bench_cfg)
    recomputed = aggregate_stats(load_reports(tmp_path))
    assert recomputed == stats  # json round-trips floats exactly
    (tmp_path / "reports.json").write_text('{"algo": "x", "trials": []}')
    with pytest.raises(ValueError):
        load_reports(tmp_path)


def test_import_leaves_the_process_pool_unloaded():
    # the pool and the multiprocessing and logging modules it pulls in load
    # only when trials run in parallel
    src = str(Path(bench.__file__).resolve().parents[1])
    code = "import sys, skyrelay.bench; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_algorithm_names():
    assert ALGORITHMS == ("nsga3fdu", "nsga3", "nsga2", "wsga", "ud", "rd")


def test_run_one_rejects_unknown_algorithm(bench_cfg):
    # run_trials checks the name first; the worker entry checks it too
    with pytest.raises(ValueError, match="unknown algorithm 'simulated-annealing'"):
        bench._run_one((bench_cfg, RC, "simulated-annealing"))


def test_front_hypervolume_reference_and_feasible_members(scale_one):
    cfg = scale_one
    sides = (cfg.l_min_m, cfg.l_max_m)
    corners = [(x, y, cfg.z_max_m) for x in sides for y in sides]
    speeds = np.linspace(cfg.v_min_m_s, cfg.v_max_m_s, 101)
    worst = max(
        oracle.flight_energy(c, v, cfg.origin_xyz, cfg.energy) for c in corners for v in speeds
    )
    # one feasible member spans a box to (0, n_max + 1, worst); an
    # infeasible one adds nothing, however good its objectives read
    front = [
        Individual(None, ObjectiveVector(-2e6, 4.0, 100.0, True)),
        Individual(None, ObjectiveVector(-9e9, 1.0, 1.0, False)),
    ]
    want = 2e6 * (cfg.n_max + 1.0 - 4.0) * (worst - 100.0)
    assert bench.front_hypervolume(front, cfg) == pytest.approx(want, rel=1e-12)
    assert bench.front_hypervolume(front[1:], cfg) == 0.0
