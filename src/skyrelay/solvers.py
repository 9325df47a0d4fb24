"""Solvers for the three-objective scheduling problem.

The flexible-dimension NSGA-III variant (padded genomes, discrete-part
regeneration, probabilistic learning and UAV-count adjustment), the plain
NSGA-III and NSGA-II baselines, a weighted-sum single-objective GA, and
the uniform/random deployment baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import encoding, moea
from .encoding import Solution
from .moea import Individual
from .scenario import ScenarioConfig


# Fixed operator settings (Jain & Deb, IEEE TEVC 2014): crossover
# probability, the SBX and mutation distribution indices, and the reference
# lattice's divisions per axis (21 points for 3 objectives).  The mutation
# rate is 1 / the continuous dimension of the scenario.
PC = 1.0
ETA_C = ETA_M = 20.0
REF_DIVISIONS = 5


@dataclass(frozen=True)
class RunConfig:
    pop: int = 20
    max_iters: int = 200
    sigma1: float = 0.2
    sigma2: float = 0.6
    p_in: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.sigma1 <= self.sigma2 <= 1.0:
            raise ValueError("need 0 <= sigma1 <= sigma2 <= 1")
        if not 0.0 < self.p_in < 1.0:
            raise ValueError("need 0 < p_in < 1")
        if self.pop < 4 or self.pop % 2:
            raise ValueError("pop must be even and >= 4")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


def _fresh_discrete(n: np.ndarray, cfg: ScenarioConfig, rng: np.random.Generator):
    """Uniform assignments bounded by the counts ``n`` and uniform channels
    of the UAV slots and direct pairs: one (P, M) and one (P, n_max + K) draw."""
    assign = rng.integers(0, n[:, None], size=(len(n), cfg.m_pairs))
    return assign, rng.integers(0, cfg.u_channels, size=(len(n), cfg.n_max + cfg.k_pairs))


def probabilistic_learning_operator(
    children: list[Solution],
    front: list[Solution],
    sigma1: float,
    sigma2: float,
    cfg: ScenarioConfig,
    rng: np.random.Generator,
) -> list[Solution]:
    """Update each child's discrete part: restart, keep, or copy from a front member.

    A uniform per child picks its branch: below ``sigma1`` the whole
    discrete part is regenerated; between the thresholds it is kept; above
    ``sigma2`` the UAV count, assignment and channels are taken from a
    member of ``front`` drawn for the child (the count comes along so the
    assignment stays in domain).  The draws are one block each, for every
    child whatever its branch: the branch uniforms, the donor indices, and
    a fresh discrete part (counts, assignments, channels) that the restarts
    take.  Each result shares its child's ``genes``.
    """
    P, N = len(children), cfg.n_max
    branch = rng.random(P)
    donor = rng.integers(len(front), size=P)
    counts = rng.integers(cfg.n_min, cfg.n_max + 1, size=P)
    assign, channels = _fresh_discrete(counts, cfg, rng)
    out = []
    for i, sol in enumerate(children):
        if branch[i] < sigma1:
            sol = sol.with_discrete(int(counts[i]), assign[i], channels[i, :N], channels[i, N:])
        elif branch[i] >= sigma2:
            src = front[donor[i]]
            sol = sol.with_discrete(src.n_active, src.assign, src.uav_chan, src.direct_chan)
        out.append(sol)
    return out


def uav_number_adjust(
    n: np.ndarray, cfg: ScenarioConfig, p_in: float, rng: np.random.Generator
) -> np.ndarray:
    """Step each UAV count by one: reverse walk at the bounds, else a
    biased random walk (up with probability ``p_in``).  Draws one uniform
    per count, at the bounds too."""
    if ((n < cfg.n_min) | (n > cfg.n_max)).any():
        raise ValueError(f"UAV counts outside [{cfg.n_min}, {cfg.n_max}]")
    up = (rng.random(len(n)) < p_in) & (n < cfg.n_max) | (n == cfg.n_min)
    return n if cfg.n_min == cfg.n_max else np.where(up, n + 1, n - 1)


def _evaluate(sols: list[Solution], cfg: ScenarioConfig) -> list[Individual]:
    """Two-stage evaluation, results in the order of ``sols``.

    :func:`encoding.raw_objectives` scores ``sols`` one rate batch at a
    time; each solution then gets its objective vector from its row
    through ``encoding.evaluate``, looked up as a module attribute.
    """
    scored: list[Individual] = [None] * len(sols)  # type: ignore[list-item]
    for indices, rows in encoding.raw_objectives(sols, cfg):
        for i, raw in zip(indices, rows):
            sol = sols[i]
            scored[i] = Individual(genome=sol, objectives=encoding.evaluate(sol, cfg, raw))
    return scored


def _init_population(cfg: ScenarioConfig, rc: RunConfig, rng: np.random.Generator) -> list[Individual]:
    return _evaluate([encoding.random_solution(cfg, rng) for _ in range(rc.pop)], cfg)


def _continuous_offspring(
    parents: list[Individual], cfg: ScenarioConfig, rng: np.random.Generator
) -> list[Solution]:
    """SBX + polynomial mutation on the padded continuous parts, then repair.

    Parents are paired by a random permutation, bred in one
    :func:`moea.variation` call and repaired in one
    ``encoding.repair_continuous`` call, so Q and Q' siblings later share a
    repaired row.  Each child owns a copy of its row, so a survivor does not
    keep the generation's offspring array alive, and shares the discrete
    arrays of the parent it descends from; the discrete steps replace those
    arrays rather than write into them.
    """
    lower, upper = cfg.gene_bounds
    order = rng.permutation(len(parents))
    first, second = order[0::2], order[1::2]
    # Each side is stacked on its own: one stack of all parents, indexed
    # per side, kept about 0.3 MB more resident over a dozen s1-fdu trials.
    P1, P2 = (
        np.array([parents[i].genome.genes for i in idx.tolist()])
        for idx in (first, second)
    )
    bred = moea.variation(P1, P2, lower, upper, ETA_C, PC, ETA_M, 1.0 / len(lower), rng)
    rows = encoding.repair_continuous(np.concatenate(bred), cfg, rng)
    children: list[Solution] = [None] * len(parents)  # type: ignore[list-item]
    for parent_idx, vec in zip(np.concatenate((first, second)).tolist(), rows):
        parent = parents[parent_idx].genome
        children[parent_idx] = Solution(
            vec.copy(), parent.n_active, parent.assign, parent.uav_chan, parent.direct_chan
        )
    return children


def _mutate_discrete_plain(
    children: list[Solution], cfg: ScenarioConfig, pm: float, rng: np.random.Generator
) -> list[Solution]:
    """Baseline discrete variation: each discrete gene (the count, each
    assignment, each channel) is resampled uniformly with probability
    ``pm``, and so are assignments that a new count strands.  Each child
    gets new discrete arrays.

    Gates, fresh counts, fresh assignments bounded by the new counts and
    fresh channels are one block each, drawn for every gene.
    """
    P, M, N = len(children), cfg.m_pairs, cfg.n_max
    gates = rng.random((P, 1 + M + N + cfg.k_pairs)) < pm
    counts = rng.integers(cfg.n_min, cfg.n_max + 1, size=P)
    n = np.where(gates[:, 0], counts, [sol.n_active for sol in children])
    fresh_assign, fresh_channels = _fresh_discrete(n, cfg, rng)
    assign = np.array([sol.assign for sol in children])
    assign = np.where(gates[:, 1 : 1 + M] | (assign >= n[:, None]), fresh_assign, assign)
    channels = np.hstack(
        [np.array([getattr(sol, name) for sol in children]) for name in ("uav_chan", "direct_chan")]
    )
    channels = np.where(gates[:, 1 + M :], fresh_channels, channels)
    # copies, not row views: a survivor holding a view keeps its generation's
    # whole blocks alive (about 0.2 MB more peak RSS over 40 s1-wide trials)
    for sol, count, a, c in zip(children, n.tolist(), assign, channels):
        sol.n_active, sol.assign = count, a.copy()
        sol.uav_chan, sol.direct_chan = c[:N].copy(), c[N:].copy()
    return children


def _first_front(pop: list[Individual]) -> list[Individual]:
    return moea.fast_non_dominated_sort(pop, 1)[0]


def _moea(
    cfg: ScenarioConfig,
    rc: RunConfig,
    discrete: Callable[[list[Individual], list[Solution], np.random.Generator], list[Solution]],
    select: Callable[[list[Individual], np.random.Generator], list[Individual]],
) -> list[Individual]:
    """The generational loop of nsga3fdu, nsga3 and nsga2; returns the final front.

    SBX and polynomial mutation breed one child per parent, then
    ``discrete(parents, children, rng)`` turns the children into offspring
    genomes, and ``select(parents + offspring, rng)`` keeps the survivors.
    Both steps look up their operators as module attributes at call time,
    so a wrapper patched onto one after import is the one called.
    """
    rc.validate()
    rng = np.random.default_rng(rc.seed)
    population = _init_population(cfg, rc, rng)
    for _ in range(rc.max_iters):
        children = discrete(population, _continuous_offspring(population, cfg, rng), rng)
        population = select(population + _evaluate(children, cfg), rng)
    return _first_front(population)


def _nsga3_selection(rc: RunConfig):
    refs = moea.das_dennis_points(3, REF_DIVISIONS)
    return lambda merged, rng: moea.nsga3_select(merged, rc.pop, refs, rng)


def _plain_discrete(cfg: ScenarioConfig):
    pm = 1.0 / len(cfg.gene_bounds[0])
    return lambda parents, children, rng: _mutate_discrete_plain(children, cfg, pm, rng)


def _fdu_discrete(cfg: ScenarioConfig, rc: RunConfig):
    """nsga3fdu's discrete step: Q from the probabilistic learning operator,
    then Q' from the count walk with fresh assignments and channels."""

    def learn_and_walk(parents, children, rng):
        front1 = [ind.genome for ind in _first_front(parents)]
        q_set = probabilistic_learning_operator(children, front1, rc.sigma1, rc.sigma2, cfg, rng)
        counts = uav_number_adjust(np.array([sol.n_active for sol in children]), cfg, rc.p_in, rng)
        assign, channels = _fresh_discrete(counts, cfg, rng)
        qp_set = [
            sol.with_discrete(n, a, c[: cfg.n_max], c[cfg.n_max :])
            for sol, n, a, c in zip(children, counts.tolist(), assign, channels)
        ]
        return q_set + qp_set

    return learn_and_walk


def nsga3fdu(cfg: ScenarioConfig, rc: RunConfig) -> list[Individual]:
    """Flexible-dimension NSGA-III with discrete regeneration and count walk.

    Each generation breeds two offspring sets from the parents: one whose
    discrete part is updated by the probabilistic learning operator, and
    one whose UAV count is stepped and whose assignment/channels are
    regenerated, then selects survivors from the three-way merge.  A Q
    child and its Q' sibling share their ``genes``, so stage one
    of evaluation computes their geometry once.
    """
    return _moea(cfg, rc, _fdu_discrete(cfg, rc), _nsga3_selection(rc))


def nsga3_plain(cfg: ScenarioConfig, rc: RunConfig) -> list[Individual]:
    """Conventional NSGA-III loop with naive discrete resampling."""
    return _moea(cfg, rc, _plain_discrete(cfg), _nsga3_selection(rc))


def nsga2(cfg: ScenarioConfig, rc: RunConfig) -> list[Individual]:
    """Conventional NSGA-II loop with naive discrete resampling."""
    return _moea(
        cfg, rc, _plain_discrete(cfg), lambda merged, rng: moea.crowding_select(merged, rc.pop)
    )


def weighted_sum_ga(cfg: ScenarioConfig, rc: RunConfig) -> list[Individual]:
    """Single-objective generational GA on an equally weighted normalized sum.

    Each objective is divided by the magnitude the uniform-deployment
    baseline achieves before summing, so the capacity term cannot swamp
    the other two.  Elitist: the best individual ever evaluated survives
    every generation and is returned as a singleton front.
    """
    rc.validate()
    rng = np.random.default_rng(rc.seed)
    pm = 1.0 / len(cfg.gene_bounds[0])
    anchor = ud_baseline(cfg, np.random.default_rng(rc.seed)).objectives
    norm = np.array(
        [max(abs(anchor.neg_f1), 1.0), max(abs(anchor.f2), 1.0), max(abs(anchor.f3), 1.0)]
    )
    w = np.ones(3)

    def scalar(ind: Individual) -> float:
        return float(np.dot(w, np.asarray(ind.key()) / norm))

    population = _init_population(cfg, rc, rng)
    best = min(population, key=scalar)
    for _ in range(rc.max_iters):
        parents = []
        for _ in range(rc.pop):
            a, b = population[int(rng.integers(rc.pop))], population[int(rng.integers(rc.pop))]
            parents.append(a if scalar(a) <= scalar(b) else b)
        q_set = _mutate_discrete_plain(_continuous_offspring(parents, cfg, rng), cfg, pm, rng)
        population = _evaluate(q_set, cfg)
        gen_best = min(population, key=scalar)
        if scalar(gen_best) < scalar(best):
            best = gen_best
        else:
            population[int(np.argmax([scalar(i) for i in population]))] = best
    return [best]


def ud_baseline(cfg: ScenarioConfig, rng: np.random.Generator) -> Individual:
    """Uniform deployment: mid UAV count on a centered grid at mid altitude,
    full transmit power; velocities, channels and assignment random."""
    n = (cfg.n_max + cfg.n_min) // 2
    grid = math.ceil(math.sqrt(n))
    span = cfg.l_max_m - cfg.l_min_m
    cell = span / grid
    coords = [
        (cfg.l_min_m + (col + 0.5) * cell, cfg.l_min_m + (row + 0.5) * cell)
        for row in range(grid)
        for col in range(grid)
    ][:n]
    sol = encoding.random_solution(cfg, rng)
    sol.n_active = n
    for i, (x, y) in enumerate(coords):
        sol.x[i], sol.y[i] = x, y
    sol.z[:n] = (cfg.z_max_m + cfg.z_min_m) / 2.0
    sol.p[:n] = cfg.p_max_w
    sol.assign = rng.integers(0, n, size=cfg.m_pairs)
    sol.uav_chan, sol.direct_chan = encoding.random_channels(cfg, rng)
    return _evaluate([sol], cfg)[0]


def rd_baseline(cfg: ScenarioConfig, rng: np.random.Generator) -> Individual:
    """Random deployment: everything uniform within its domain."""
    return _evaluate([encoding.random_solution(cfg, rng)], cfg)[0]


STRATEGIES = ("maxnetcap", "minuav", "minaveenergy")


def pick_strategy(front: list[Individual], strategy: str) -> Individual:
    """Choose one front member: best capacity, fewest UAVs, or least energy.

    UAV-count and energy picks break ties by capacity.
    """
    if not front:
        raise ValueError("empty front")
    if strategy == "maxnetcap":
        return min(front, key=lambda ind: ind.objectives.neg_f1)
    if strategy == "minuav":
        return min(front, key=lambda ind: (ind.objectives.f2, ind.objectives.neg_f1))
    if strategy == "minaveenergy":
        return min(front, key=lambda ind: (ind.objectives.f3, ind.objectives.neg_f1))
    raise ValueError(f"unknown strategy {strategy!r}")
