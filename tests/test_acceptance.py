"""Acceptance gate: ten numbered criteria, one verdict line each.

The heavy benchmark runs (30-trial Scale-1, 5-trial Scale-2) are shared
across criteria through module fixtures, so this file takes several
minutes on one core.
"""

import math
import time

import numpy as np
import pytest

import oracle
from conftest import ACCEPTANCE_VERDICTS, make_config, make_placement
from skyrelay import bench, encoding, energy, moea, radio, solvers
from skyrelay.scenario import EnergyParams, gen_scenario
from skyrelay.solvers import RunConfig

RC = RunConfig(pop=20, max_iters=200, seed=0)


def verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    ACCEPTANCE_VERDICTS.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def scale1_cfg():
    return gen_scenario("one", 0)


@pytest.fixture(scope="module")
def scale2_cfg():
    return gen_scenario("two", 0)


@pytest.fixture(scope="module")
def fdu_run(scale1_cfg):
    t0 = time.perf_counter()
    reports = bench.run_trials(scale1_cfg, RC, "nsga3fdu", 30)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def nsga2_run(scale1_cfg):
    return bench.run_trials(scale1_cfg, RC, "nsga2", 30)


@pytest.fixture(scope="module")
def nsga3_run(scale1_cfg):
    return bench.run_trials(scale1_cfg, RC, "nsga3", 30)


def test_criterion_01_sort_matches_slow_classifier():
    rng = np.random.default_rng(42)
    pops = [rng.random((200, 3)) for _ in range(100)]
    elapsed = 0.0
    for keys in pops:
        pop = [
            moea.Individual(
                genome=None,
                objectives=encoding.ObjectiveVector(k[0], k[1], k[2], True),
            )
            for k in keys
        ]
        t0 = time.perf_counter()
        fronts = moea.fast_non_dominated_sort(pop)
        elapsed += time.perf_counter() - t0
        index = {id(ind): i for i, ind in enumerate(pop)}
        got = [sorted(index[id(ind)] for ind in front) for front in fronts]
        expected = [sorted(level) for level in oracle.slow_fronts(keys)]
        if got != expected:
            verdict("criterion 1", False, "front partition differs from classifier")
    verdict(
        "criterion 1",
        elapsed < 5.0,
        f"100 populations match the O(n^2) classifier; sort time {elapsed:.2f}s < 5s",
    )


def test_criterion_02_radio_oracle_equivalence():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(100):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(0, 4))
        n = int(rng.integers(1, 4))
        cfg = make_config(rng, m=m, k=k, n_min=n, n_max=n, u=int(rng.integers(1, 4)))
        pl = make_placement(rng, cfg, n=n)
        i_up, gamma_up, gamma_dn, gamma_direct, _ = radio.link_terms(pl, cfg)
        rates = radio.link_rates(pl, cfg)
        for i in range(m):
            ni = int(pl.assignment[i])
            pairs = [
                (i_up[i], oracle.interference_up(i, ni, pl, cfg)),
                (gamma_up[i], oracle.sinr_up(i, ni, pl, cfg)),
                (gamma_dn[i], oracle.sinr_down(ni, i, pl, cfg)),
                (gamma_direct[i], oracle.sinr_direct_leg(i, pl, cfg)),
                (rates[i], oracle.rate(i, ni, pl, cfg)),
            ]
            for got, want in pairs:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                checked += 1
        assert radio.network_capacity(pl, cfg) == pytest.approx(
            oracle.capacity(pl, cfg), rel=1e-12
        )
        checked += 1
    verdict("criterion 2", True, f"{checked} radio values match the oracle within 1e-12")


def test_criterion_03_energy_anchors():
    ep = EnergyParams()
    hover = energy.propulsion_power(0.0, ep)
    ok1 = abs(hover - (ep.p_blade_w + ep.p_induced_w)) < 1e-9
    plan = energy.FlightPlan(
        np.array([[500.0, 0.0, 200.0]]), np.array([10.0]), (0.0, 0.0, 200.0), ep
    )
    e = float(plan.energies[0])
    ok2 = abs(e - 50.0 * energy.propulsion_power(10.0, ep)) < 1e-9
    verdict(
        "criterion 3",
        ok1 and ok2,
        f"P(0)={hover:.4f} W = P_B+P_I; E(500m, 10m/s)={e:.6f} J = 50*P(10)",
    )


def test_criterion_04_penalty_exactness(scale1_cfg):
    rng = np.random.default_rng(11)
    sol = encoding.random_solution(scale1_cfg, rng)
    n = sol.n_active
    sol.x[:n] = 300.0
    sol.y[:n] = 300.0
    sol.z[:n] = 400.0
    sol.v[:n] = 16.0
    sol.v[0] = 6.0  # same destination, extreme speeds: spread >> T_th
    ov = encoding.evaluate(sol, scale1_cfg)
    assert not ov.feasible
    cap = radio.network_capacity(encoding.to_placement(sol, scale1_cfg), scale1_cfg)
    e = energy.average_flight_energy(encoding.to_flight_plan(sol, scale1_cfg))
    ok = (
        ov.neg_f1 == -cap + 1.0e7
        and ov.f2 == float(n) + 8.0
        and ov.f3 == e + 1.0e6
    )
    verdict("criterion 4", ok, "violating C10 adds exactly (+1e7, +8, +1e6)")


def test_criterion_05_scale1_reproduction(fdu_run):
    reports, wall = fdu_run
    stats = bench.aggregate_stats(reports)
    feas = stats.feasibility_rate
    a = feas == 1.0
    f2 = stats.by_strategy[("minuav", "f2")]
    b = f2.mean == 4.0 and f2.std == 0.0
    f1_mean = stats.by_strategy[("maxnetcap", "f1")].mean
    c = 1.5e6 <= f1_mean <= 2.7e6
    f3_mean = stats.by_strategy[("minaveenergy", "f3")].mean
    d = f3_mean < 5e3
    t = wall < 300.0
    detail = (
        f"a: {'PASS' if a else 'FAIL'} (feasibility {feas}); "
        f"b: {'PASS' if b else 'FAIL'} (f2 mean {f2.mean} std {f2.std}); "
        f"c: {'PASS' if c else 'FAIL'} (f1 mean {f1_mean:.3e}, band [1.5e6, 2.7e6]); "
        f"d: {'PASS' if d else 'FAIL'} (f3 mean {f3_mean:.1f} < 5e3); "
        f"runtime: {'PASS' if t else 'FAIL'} ({wall:.0f}s < 300s)"
    )
    verdict("criterion 5", a and b and c and d and t, detail)


def test_criterion_06_baseline_ordering(scale1_cfg, fdu_run, nsga2_run, nsga3_run):
    reports, _ = fdu_run
    fdu_f1 = np.mean([r.pick("maxnetcap").objectives.f1 for r in reports])
    ud_f1 = np.mean(
        [
            solvers.ud_baseline(scale1_cfg, np.random.default_rng(s)).objectives.f1
            for s in range(30)
        ]
    )
    rd_f1 = np.mean(
        [
            solvers.rd_baseline(scale1_cfg, np.random.default_rng(s)).objectives.f1
            for s in range(30)
        ]
    )
    cap_ok = fdu_f1 > ud_f1 and fdu_f1 > rd_f1
    fdu_f3 = np.array([r.pick("minaveenergy").objectives.f3 for r in reports])
    n2_f3 = np.array([r.pick("minaveenergy").objectives.f3 for r in nsga2_run])
    n3_f3 = np.array([r.pick("minaveenergy").objectives.f3 for r in nsga3_run])
    win2 = float(np.mean(fdu_f3 <= n2_f3))
    win3 = float(np.mean(fdu_f3 <= n3_f3))
    energy_ok = win2 >= 0.8 and win3 >= 0.8
    detail = (
        f"capacity: {'PASS' if cap_ok else 'FAIL'} "
        f"(FDU {fdu_f1:.3e} vs UD {ud_f1:.3e}, RD {rd_f1:.3e}); "
        f"energy win rate: {'PASS' if energy_ok else 'FAIL'} "
        f"(vs NSGA-II {win2:.2f}, vs NSGA-III {win3:.2f}, need >= 0.80)"
    )
    verdict("criterion 6", cap_ok and energy_ok, detail)


def test_criterion_07_scale2_smoke(scale2_cfg):
    t0 = time.perf_counter()
    reports = bench.run_trials(scale2_cfg, RC, "nsga3fdu", 5)
    wall = time.perf_counter() - t0
    f2s = [r.pick("minuav").objectives.f2 for r in reports]
    stats = bench.aggregate_stats(reports)
    ok = all(v == 8.0 for v in f2s) and stats.feasibility_rate == 1.0 and wall < 1200.0
    verdict(
        "criterion 7",
        ok,
        f"MinUAV f2 per trial {f2s}, feasibility {stats.feasibility_rate}, {wall:.0f}s < 1200s",
    )


def test_criterion_08_mechanism_invariants(scale1_cfg):
    rng = np.random.default_rng(19)
    # padding invariance: repainting auxiliary genes never moves the objectives
    for _ in range(10_000):
        sol = encoding.random_solution(scale1_cfg, rng)
        ov = encoding.evaluate(sol, scale1_cfg)
        pad = scale1_cfg.n_max - sol.n_active
        mutant = sol.copy()
        if pad:
            mutant.x[-pad:] = rng.uniform(0.0, 400.0, pad)
            mutant.y[-pad:] = rng.uniform(0.0, 400.0, pad)
            mutant.z[-pad:] = rng.uniform(200.0, 500.0, pad)
            mutant.p[-pad:] = rng.uniform(0.1, 1.0, pad)
            mutant.v[-pad:] = rng.uniform(6.0, 16.0, pad)
            mutant.uav_chan[-pad:] = rng.integers(0, scale1_cfg.u_channels, pad)
        assert encoding.evaluate(mutant, scale1_cfg) == ov
    # count walk: exhaustive boundary behavior plus interior step frequency
    walk = lambda n, size: solvers.uav_number_adjust(np.full(size, n), scale1_cfg, 0.5, rng)
    assert (walk(8, 200) == 7).all() and (walk(4, 200) == 5).all()
    for n in (5, 6, 7):
        assert (np.abs(walk(n, 200) - n) == 1).all()
    ups = int((walk(6, 10_000) == 7).sum())
    assert abs(ups / 10_000 - 0.5) <= 0.02
    # learning-operator branch frequencies vs (sigma1, sigma2-sigma1, 1-sigma2)
    sol = encoding.random_solution(scale1_cfg, rng)
    best = encoding.random_solution(scale1_cfg, rng)
    key = lambda s: (s.n_active, tuple(s.assign), tuple(s.uav_chan), tuple(s.direct_chan))
    while key(best) == key(sol):
        best = encoding.random_solution(scale1_cfg, rng)
    seen = {"restart": 0, "keep": 0, "copy": 0}
    for out in solvers.probabilistic_learning_operator(
        [sol] * 10_000, [best], 0.2, 0.6, scale1_cfg, rng
    ):
        d = key(out)
        if d == key(sol):
            seen["keep"] += 1
        elif d == key(best):
            seen["copy"] += 1
        else:
            seen["restart"] += 1
    freqs = (seen["restart"] / 10_000, seen["keep"] / 10_000, seen["copy"] / 10_000)
    for got, want in zip(freqs, (0.2, 0.4, 0.4)):
        assert abs(got - want) <= 0.02
    # random discrete parts: domain constraints on every draw
    counts = np.zeros(9, dtype=int)
    for _ in range(10_000):
        n, assign, uav_chan, direct_chan = encoding.random_discrete(scale1_cfg, rng)
        assert 4 <= n <= 8
        counts[n] += 1
        assert assign.min() >= 0 and assign.max() < n and len(assign) == 10
        assert uav_chan.min() >= 0 and uav_chan.max() < 3 and len(uav_chan) == 8
        assert direct_chan.min() >= 0 and direct_chan.max() < 3 and len(direct_chan) == 3
    for n in range(4, 9):
        assert abs(counts[n] / 10_000 - 0.2) <= 0.02
    verdict(
        "criterion 8",
        True,
        f"padding invariant over 1e4; walk boundaries exact; branch freqs {freqs}",
    )


def test_criterion_09_reference_points():
    for p in range(1, 11):
        refs = moea.das_dennis_points(3, p)
        assert len(refs.points) == math.comb(p + 2, 2)
        assert np.all(np.abs(refs.points.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(refs.points >= -1e-12)
    verdict("criterion 9", True, "counts C(p+2,2) for p in 1..10; simplex within 1e-12")


def test_criterion_10_determinism(scale1_cfg, fdu_run, tmp_path):
    reports1, _ = fdu_run
    bench.write_stats_csv(bench.aggregate_stats(reports1), tmp_path / "stats1.csv")
    reports2 = bench.run_trials(scale1_cfg, RC, "nsga3fdu", 30)
    bench.write_stats_csv(bench.aggregate_stats(reports2), tmp_path / "stats2.csv")
    same = (tmp_path / "stats1.csv").read_bytes() == (tmp_path / "stats2.csv").read_bytes()
    verdict("criterion 10", same, "two identically seeded Scale-1 runs: byte-identical stats.csv")
