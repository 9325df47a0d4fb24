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


def test_random_search_operator_domain():
    # the random search operator of the solvers is encoding.random_discrete
    cfg = small_cfg()
    rng = np.random.default_rng(0)
    counts = set()
    for _ in range(300):
        n, assign, uav_chan, direct_chan = encoding.random_discrete(cfg, rng)
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
    for out in probabilistic_learning_operator([sol] * 300, [best], 0.2, 0.6, cfg, rng):
        # continuous genes never move
        assert out.genes is sol.genes
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


def test_probabilistic_learning_copies_the_drawn_donor():
    cfg = small_cfg()
    rng = np.random.default_rng(3)
    children = [encoding.random_solution(cfg, rng) for _ in range(200)]
    front = [encoding.random_solution(cfg, rng) for _ in range(3)]
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    out = probabilistic_learning_operator(children, front, 0.2, 0.6, cfg, rng)
    branch, donor = twin.random(200), twin.integers(3, size=200)
    counts = twin.integers(2, 5, size=200)
    assign, channels = twin.integers(0, counts[:, None], (200, 4)), twin.integers(0, 2, (200, 6))
    assert rng.bit_generator.state == twin.bit_generator.state
    for i, (child, got) in enumerate(zip(children, out)):
        if branch[i] < 0.2:
            want = (counts[i], tuple(assign[i]), tuple(channels[i, :4]), tuple(channels[i, 4:]))
        else:
            want = _discrete_tuple(child if branch[i] < 0.6 else front[donor[i]])
        assert _discrete_tuple(got) == want
        assert got.genes is child.genes


def test_uav_number_adjust():
    cfg = small_cfg()  # bounds [2, 4]
    rng = np.random.default_rng(2)
    assert (uav_number_adjust(np.full(50, 4), cfg, 0.5, rng) == 3).all()
    assert (uav_number_adjust(np.full(50, 2), cfg, 0.5, rng) == 3).all()
    assert set(uav_number_adjust(np.full(50, 3), cfg, 0.5, rng).tolist()) == {2, 4}
    with pytest.raises(ValueError):
        uav_number_adjust(np.array([3, 5]), cfg, 0.5, rng)
    fixed = make_config(np.random.default_rng(0), m=2, k=0, n_min=3, n_max=3)
    assert uav_number_adjust(np.full(4, 3), fixed, 0.5, rng).tolist() == [3] * 4


def _parents(cfg, rng, size=8):
    sols = [encoding.random_solution(cfg, rng) for _ in range(size)]
    return solvers._evaluate(sols, cfg)


def _counting_repair(monkeypatch):
    calls = []
    original = encoding.repair_continuous

    def counting(genes, cfg, rng):
        calls.append(genes.shape)
        return original(genes, cfg, rng)

    monkeypatch.setattr(encoding, "repair_continuous", counting)
    return calls


def test_repair_checks_an_in_bounds_block_once(monkeypatch):
    # variation clips, so the bred rows come back as bred, after one draw
    # of one uniform per gene
    cfg = small_cfg()
    parents = _parents(cfg, np.random.default_rng(7))
    lower, upper = cfg.gene_bounds
    twin = np.random.default_rng(8)
    order = twin.permutation(8)
    bred = moea.variation(
        *(np.array([parents[i].genome.genes for i in idx]) for idx in (order[0::2], order[1::2])),
        lower, upper, solvers.ETA_C, solvers.PC, solvers.ETA_M, 1.0 / len(lower), twin,
    )
    twin.random(8 * len(lower))
    calls = _counting_repair(monkeypatch)
    rng = np.random.default_rng(8)
    children = solvers._continuous_offspring(parents, cfg, rng)
    assert calls == [(8, len(lower))]
    assert rng.bit_generator.state == twin.bit_generator.state
    for row, i in zip(np.concatenate(bred), np.concatenate((order[0::2], order[1::2]))):
        assert children[i].genes.tobytes() == row.tobytes()
        assert children[i].assign is parents[i].genome.assign


def test_repair_fixes_out_of_bounds_siblings_once(monkeypatch):
    # bad bred genes are repaired once per generation, before the discrete
    # step, so each Q child and its Q' sibling share one repaired row
    cfg = small_cfg()
    lower, upper = cfg.gene_bounds
    variation = moea.variation

    def spoiled(*args):
        c1, c2 = variation(*args)
        c1[0, 0], c2[1, 3], c2[2, -1] = -50.0, np.nan, np.inf
        return c1, c2

    monkeypatch.setattr(moea, "variation", spoiled)
    calls = _counting_repair(monkeypatch)
    scored = []
    evaluate = solvers._evaluate
    monkeypatch.setattr(
        solvers, "_evaluate", lambda sols, cfg: scored.append(sols) or evaluate(sols, cfg)
    )
    nsga3fdu(cfg, RunConfig(pop=8, max_iters=1, seed=9))
    assert calls == [(8, len(lower))]
    offspring = scored[1]
    assert len(offspring) == 16
    for q, qp in zip(offspring[:8], offspring[8:]):
        assert q.genes is qp.genes
        assert ((q.genes >= lower) & (q.genes <= upper)).all()


def _discrete_arrays(sols):
    names = ("assign", "uav_chan", "direct_chan")
    return [sol.n_active for sol in sols], *(
        np.array([getattr(sol, name) for sol in sols]) for name in names
    )


def test_mutate_discrete_plain_rates_and_domain():
    cfg = small_cfg()  # 4 pairs, 2 direct, 2-4 UAVs, 2 channels: 11 discrete genes
    rng = np.random.default_rng(12)
    children = [encoding.random_solution(cfg, rng) for _ in range(50)]
    before = _discrete_arrays(children)
    solvers._mutate_discrete_plain(children, cfg, 0.0, rng)
    after = _discrete_arrays(children)
    assert before[0] == after[0]
    assert all(np.array_equal(a, b) for a, b in zip(before[1:], after[1:]))
    # pm = 1: every gene takes its fresh draw
    rng, twin = np.random.default_rng(13), np.random.default_rng(13)
    solvers._mutate_discrete_plain(children, cfg, 1.0, rng)
    twin.random((50, 11))
    counts = twin.integers(2, 5, size=50)
    assign, channels = twin.integers(0, counts[:, None], size=(50, 4)), twin.integers(0, 2, (50, 6))
    assert rng.bit_generator.state == twin.bit_generator.state
    n, got_assign, uav_chan, direct_chan = _discrete_arrays(children)
    assert n == counts.tolist() and np.array_equal(got_assign, assign)
    assert np.array_equal(np.hstack((uav_chan, direct_chan)), channels)
    # a count mutation strands no assignment
    for _ in range(20):
        solvers._mutate_discrete_plain(children, cfg, 0.3, rng)
        for sol in children:
            encoding.check_discrete(sol, cfg)
    # gate rate: sentinel values out of every draw's range mark ungated genes
    pm, size = 0.3, 4000
    sentinel = encoding.Solution(
        np.zeros(5 * cfg.n_max), cfg.n_max + 1, np.full(4, -1), np.full(4, -1), np.full(2, -1)
    )
    children = [sentinel.copy() for _ in range(size)]
    solvers._mutate_discrete_plain(children, cfg, pm, rng)
    n, assign, uav_chan, direct_chan = _discrete_arrays(children)
    gated = (np.array(n) != cfg.n_max + 1).sum() + sum(
        (a != -1).sum() for a in (assign, uav_chan, direct_chan)
    )
    assert abs(gated / (11 * size) - pm) <= 0.01


def test_discrete_steps_draw_fixed_blocks():
    # two populations of one size leave the generator in one state
    cfg = small_cfg()
    rc = RunConfig(pop=40)
    states = {"plain": [], "fdu": []}
    for seed in (20, 21):
        rng = np.random.default_rng(seed)
        parents = _parents(cfg, rng, size=40)
        children = solvers._continuous_offspring(parents, cfg, rng)
        for name, step in (
            ("fdu", lambda: solvers._fdu_discrete(cfg, rc)(parents, children, gen)),
            ("plain", lambda: solvers._mutate_discrete_plain(children, cfg, 0.3, gen)),
        ):
            gen = np.random.default_rng(99)
            step()
            states[name].append(gen.bit_generator.state)
    assert states["plain"][0] == states["plain"][1]
    assert states["fdu"][0] == states["fdu"][1]


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
    _check_front(r1, cfg)
    assert [i.key() for i in r1] == [i.key() for i in r2]
    diff = solver(cfg, RunConfig(pop=8, max_iters=4, seed=4))
    assert [i.key() for i in diff] != [i.key() for i in r1]


def test_zero_iters_returns_initial_front():
    cfg = small_cfg()
    rc = RunConfig(pop=8, max_iters=0, seed=5)
    front = nsga3fdu(cfg, rc)
    _check_front(front, cfg)
    assert len(front) <= rc.pop


@pytest.mark.parametrize(
    ("solver", "per_gen"),
    [
        (nsga3fdu, {"nsga3_select": 1, "crowding_select": 0, "learn": 1, "walk": 1}),
        (nsga3_plain, {"nsga3_select": 1, "crowding_select": 0, "learn": 0, "walk": 0}),
        (nsga2, {"nsga3_select": 0, "crowding_select": 1, "learn": 0, "walk": 0}),
    ],
)
def test_operators_looked_up_at_call_time(solver, per_gen, monkeypatch):
    # the per-layer benchmark tracer patches these attributes after import
    counts = dict.fromkeys([*per_gen, "repair"], 0)

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
        (encoding, "repair_continuous", "repair"),
    ):
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
    solver(small_cfg(), RunConfig(pop=8, max_iters=3, seed=6))
    # repair runs once per generation in every solver
    assert counts == {name: 3 * n for name, n in {**per_gen, "repair": 1}.items()}


def test_weighted_sum_ga():
    cfg = small_cfg()
    front = weighted_sum_ga(cfg, SMALL_RC)
    assert len(front) == 1
    _check_front(front, cfg)
    again = weighted_sum_ga(cfg, SMALL_RC)
    assert front[0].key() == again[0].key()


def test_weighted_sum_ga_elitist():
    cfg = small_cfg()
    short = weighted_sum_ga(cfg, RunConfig(pop=8, max_iters=0, seed=7))
    longer = weighted_sum_ga(cfg, RunConfig(pop=8, max_iters=10, seed=7))
    # elitism keeps the weighted score non-increasing, so with its equal
    # positive weights the zero-generation pick can never dominate the longer run's
    assert not dominates(short[0].key(), longer[0].key())


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
# 1).  A speed-up must leave these unchanged; a change of the random draw
# order re-pins them, with the old digests in CHANGES.md.  Computed with
# numpy 2.4 on x86-64; another numpy build or CPU may round its vector
# transcendental functions differently, so a mismatch there needs a run of
# the older code on the same machine before it is read as a change in
# behaviour.
GOLDEN_FRONTS = {
    ("nsga3fdu", "one"): "187963098397561e037b75419ded8263c92e1473c7c0546503d77d0d7d83d74a",
    ("nsga3fdu", "two"): "1dbcc707bd3d69e51eadb02a84ee10b3653eb310e9f201b702c3b3bfa1cd329e",
    ("nsga3", "one"): "6c3a0c4614f9e112e17d4c67d033cb7ac67c60e5038afc4e8374d8559c8e1aa6",
    ("nsga2", "one"): "a6c600401a6aa7752ae06c306c44531e3e68a280a7dc796ea19f853a73de07f2",
    ("wsga", "one"): "cccbf06fd903ea48e31be542c216f2861f24f72bdf588abe6f90700c2f11b0a8",
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
    front = GOLDEN_SOLVERS[algo](cfg, RunConfig(pop=8, max_iters=10, seed=5))
    digest = hashlib.sha256()
    for member in front:
        digest.update(struct.pack("<3d", *member.objectives.as_tuple()))
    assert digest.hexdigest() == GOLDEN_FRONTS[(algo, scale)]
