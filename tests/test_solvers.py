import hashlib
import struct

import numpy as np
import pytest

from conftest import make_config
from skyrelay import encoding, moea, solvers
from skyrelay.encoding import ObjectiveVector
from skyrelay.moea import Individual, dominates
from skyrelay.solvers import (
    RunConfig,
    nsga2,
    nsga3_plain,
    nsga3fdu,
    pick_strategy,
    probabilistic_learning_operator,
    random_search_operator,
    rd_baseline,
    uav_number_adjust,
    ud_baseline,
    weighted_sum_ga,
)


def small_cfg(seed=0):
    return make_config(np.random.default_rng(seed), m=4, k=2, n_min=2, n_max=4, u=2)


SMALL_RC = RunConfig(pop=8, max_iters=4, seed=3)


def test_run_config_validate():
    RunConfig().validate()
    for bad in (
        RunConfig(sigma1=0.7, sigma2=0.3),
        RunConfig(sigma1=-0.1),
        RunConfig(p_in=0.0),
        RunConfig(p_in=1.0),
        RunConfig(pop=5),
        RunConfig(pop=2),
        RunConfig(max_iters=-1),
    ):
        with pytest.raises(ValueError):
            bad.validate()


def test_mutation_rate_default(scale_one):
    assert RunConfig().mutation_rate(scale_one) == pytest.approx(1.0 / 40.0)
    assert RunConfig(pm=0.25).mutation_rate(scale_one) == 0.25


def test_random_search_operator_domain():
    cfg = small_cfg()
    rng = np.random.default_rng(0)
    counts = set()
    for _ in range(300):
        n, assign, uav_chan, direct_chan = random_search_operator(cfg, rng)
        counts.add(n)
        assert cfg.n_min <= n <= cfg.n_max
        assert len(assign) == cfg.m_pairs and assign.max() < n and assign.min() >= 0
        assert len(uav_chan) == cfg.n_max and uav_chan.max() < cfg.u_channels
        assert len(direct_chan) == cfg.k_pairs
    assert counts == set(range(cfg.n_min, cfg.n_max + 1))


def _discrete_tuple(sol):
    return (sol.n_active, tuple(sol.assign), tuple(sol.uav_chan), tuple(sol.direct_chan))


def test_probabilistic_learning_branches():
    cfg = small_cfg()
    rng = np.random.default_rng(1)
    sol = encoding.random_solution(cfg, rng)
    best = encoding.random_solution(cfg, rng)
    while _discrete_tuple(best) == _discrete_tuple(sol):
        best = encoding.random_solution(cfg, rng)
    seen = {"restart": 0, "keep": 0, "copy": 0}
    for _ in range(300):
        out = probabilistic_learning_operator(sol, best, 0.2, 0.6, cfg, rng)
        # continuous genes never move
        assert np.array_equal(out.continuous_vector(), sol.continuous_vector())
        d = _discrete_tuple(out)
        if d == _discrete_tuple(sol):
            seen["keep"] += 1
        elif d == _discrete_tuple(best):
            seen["copy"] += 1
        else:
            seen["restart"] += 1
            encoding.check_discrete(out, cfg)
    assert all(v > 0 for v in seen.values())
    # restart owns the narrowest band (0.2 vs 0.4 for keep and copy)
    assert seen["restart"] < seen["keep"] and seen["restart"] < seen["copy"]


def test_uav_number_adjust():
    cfg = small_cfg()  # bounds [2, 4]
    rng = np.random.default_rng(2)
    for _ in range(50):
        assert uav_number_adjust(4, cfg, 0.5, rng) == 3
        assert uav_number_adjust(2, cfg, 0.5, rng) == 3
        assert uav_number_adjust(3, cfg, 0.5, rng) in (2, 4)
    with pytest.raises(ValueError):
        uav_number_adjust(5, cfg, 0.5, rng)
    fixed = make_config(np.random.default_rng(0), m=2, k=0, n_min=3, n_max=3)
    assert uav_number_adjust(3, fixed, 0.5, rng) == 3


def _check_front(front, cfg):
    assert front
    for ind in front:
        encoding.check_discrete(ind.genome, cfg)
        assert ind.objectives == encoding.evaluate(ind.genome, cfg)
    keys = [i.key() for i in front]
    for a in keys:
        assert not any(dominates(b, a) for b in keys if b != a)


@pytest.mark.parametrize("solver", [nsga3fdu, nsga3_plain, nsga2])
def test_solver_front_valid_and_deterministic(solver):
    cfg = small_cfg()
    r1 = solver(cfg, SMALL_RC)
    r2 = solver(cfg, SMALL_RC)
    _check_front(r1.final_front, cfg)
    assert [i.key() for i in r1.final_front] == [i.key() for i in r2.final_front]
    assert r1.seed == SMALL_RC.seed
    diff = solver(cfg, RunConfig(pop=8, max_iters=4, seed=4))
    assert [i.key() for i in diff.final_front] != [i.key() for i in r1.final_front]


def test_zero_iters_returns_initial_front():
    cfg = small_cfg()
    rc = RunConfig(pop=8, max_iters=0, seed=5)
    res = nsga3fdu(cfg, rc)
    _check_front(res.final_front, cfg)
    assert len(res.final_front) <= rc.pop


@pytest.mark.parametrize(
    ("solver", "per_gen"),
    [
        (nsga3fdu, {"nsga3_select": 1, "crowding_select": 0, "learn": 8, "walk": 8}),
        (nsga3_plain, {"nsga3_select": 1, "crowding_select": 0, "learn": 0, "walk": 0}),
        (nsga2, {"nsga3_select": 0, "crowding_select": 1, "learn": 0, "walk": 0}),
    ],
)
def test_operators_looked_up_at_call_time(solver, per_gen, monkeypatch):
    # the per-layer benchmark tracer patches these attributes after import
    counts = dict.fromkeys(per_gen, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, attr, name in (
        (moea, "nsga3_select", "nsga3_select"),
        (moea, "crowding_select", "crowding_select"),
        (solvers, "probabilistic_learning_operator", "learn"),
        (solvers, "uav_number_adjust", "walk"),
    ):
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
    solver(small_cfg(), RunConfig(pop=8, max_iters=3, seed=6))
    assert counts == {name: 3 * n for name, n in per_gen.items()}


def test_weighted_sum_ga():
    cfg = small_cfg()
    res = weighted_sum_ga(cfg, SMALL_RC)
    assert len(res.final_front) == 1
    _check_front(res.final_front, cfg)
    again = weighted_sum_ga(cfg, SMALL_RC)
    assert res.final_front[0].key() == again.final_front[0].key()
    with pytest.raises(ValueError):
        weighted_sum_ga(cfg, SMALL_RC, weights=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        weighted_sum_ga(cfg, SMALL_RC, weights=(-1.0, 1.0, 1.0))


def test_weighted_sum_ga_elitist():
    cfg = small_cfg()
    short = weighted_sum_ga(cfg, RunConfig(pop=8, max_iters=0, seed=7))
    longer = weighted_sum_ga(cfg, RunConfig(pop=8, max_iters=10, seed=7))
    # elitism keeps the weighted score non-increasing, so with positive
    # weights the zero-generation pick can never dominate the longer run's
    assert not dominates(short.final_front[0].key(), longer.final_front[0].key())


def test_ud_baseline_layout(scale_one, scale_two):
    ind1 = ud_baseline(scale_one, np.random.default_rng(0))
    sol = ind1.genome
    assert sol.n_active == 6
    assert np.all(sol.z[:6] == 350.0)
    assert np.all(sol.p[:6] == 1.0)
    # 3x3 grid, first 6 cells row-major, 400/3 m cells
    cell = 400.0 / 3.0
    assert sol.x[0] == pytest.approx(cell / 2) and sol.y[0] == pytest.approx(cell / 2)
    assert sol.x[1] == pytest.approx(3 * cell / 2) and sol.y[1] == pytest.approx(cell / 2)
    assert sol.y[3] == pytest.approx(3 * cell / 2)
    assert ud_baseline(scale_two, np.random.default_rng(0)).genome.n_active == 12


def test_rd_baseline_domain(scale_one):
    rng = np.random.default_rng(1)
    for _ in range(10):
        ind = rd_baseline(scale_one, rng)
        encoding.check_discrete(ind.genome, scale_one)
        assert ind.objectives == encoding.evaluate(ind.genome, scale_one)


def _ind(neg_f1, f2, f3):
    return Individual(genome=None, objectives=ObjectiveVector(neg_f1, f2, f3, True))


def test_pick_strategy():
    front = [
        _ind(-3e6, 6.0, 2000.0),
        _ind(-2e6, 4.0, 1500.0),
        _ind(-1e6, 4.0, 1500.0),
    ]
    assert pick_strategy(front, "maxnetcap") is front[0]
    # ties on f2 and f3 broken by capacity
    assert pick_strategy(front, "minuav") is front[1]
    assert pick_strategy(front, "minaveenergy") is front[1]
    with pytest.raises(ValueError):
        pick_strategy(front, "bogus")
    with pytest.raises(ValueError):
        pick_strategy([], "maxnetcap")


# SHA-256 of each final front's objective doubles, in front order, for a
# short fixed-seed run (pop 8, 10 iterations, seed 5) on gen_scenario(scale,
# 1).  A speed-up must leave these unchanged.  Computed with numpy 2.4 on
# x86-64; another numpy build or CPU may round its vector transcendental
# functions differently, so a mismatch there needs a run of the older code
# on the same machine before it is read as a change in behaviour.
GOLDEN_FRONTS = {
    ("nsga3fdu", "one"): "fbf21f5e853e8a793510e279c6526cb67167c46b849782199acc4058752d4032",
    ("nsga3fdu", "two"): "7fd852ad951e24fef007dd0d33fc8055d106087a4ddfd108cb7fa37af8e7812b",
    ("nsga3", "one"): "42d73b59464cf56beaf90eb3cee49adf82288bf4897854e581b89572be2ee87a",
    ("nsga2", "one"): "f3d8002e9edea65af09e94f2207177db1cf029de971115295137244c439ad271",
    ("wsga", "one"): "07a447b1583c31aabc08ccce56e3fcc4b180efa2ab19817fe5bfccbe2ccb6267",
}
GOLDEN_SOLVERS = {
    "nsga3fdu": nsga3fdu,
    "nsga3": nsga3_plain,
    "nsga2": nsga2,
    "wsga": weighted_sum_ga,
}


@pytest.mark.parametrize(("algo", "scale"), sorted(GOLDEN_FRONTS))
def test_fixed_seed_fronts_unchanged(algo, scale, scale_one, scale_two):
    cfg = scale_one if scale == "one" else scale_two
    front = GOLDEN_SOLVERS[algo](cfg, RunConfig(pop=8, max_iters=10, seed=5)).final_front
    digest = hashlib.sha256()
    for member in front:
        digest.update(struct.pack("<3d", *member.objectives.as_tuple()))
    assert digest.hexdigest() == GOLDEN_FRONTS[(algo, scale)]
