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


def probabilistic_learning_operator(
    sol: Solution,
    best: Solution,
    sigma1: float,
    sigma2: float,
    cfg: ScenarioConfig,
    rng: np.random.Generator,
) -> Solution:
    """Update the discrete part: restart, keep, or copy from a front member.

    One uniform draw picks the branch: below ``sigma1`` the whole discrete
    part is regenerated; between the thresholds it is kept; above
    ``sigma2`` the UAV count, assignment and channels are copied from
    ``best`` (the count comes along so the assignment stays in domain).
    The result shares ``sol``'s ``genes`` and owns its discrete arrays.
    """
    r = rng.random()
    if r < sigma1:
        return sol.with_discrete(*encoding.random_discrete(cfg, rng))
    src = sol if r < sigma2 else best
    return sol.with_discrete(
        src.n_active, src.assign.copy(), src.uav_chan.copy(), src.direct_chan.copy()
    )


def uav_number_adjust(n: int, cfg: ScenarioConfig, p_in: float, rng: np.random.Generator) -> int:
    """Step the UAV count by one: reverse walk at the bounds, else a
    biased random walk (up with probability ``p_in``)."""
    if not cfg.n_min <= n <= cfg.n_max:
        raise ValueError(f"n={n} outside [{cfg.n_min}, {cfg.n_max}]")
    if cfg.n_min == cfg.n_max:
        return n
    if n == cfg.n_max:
        return cfg.n_max - 1
    if n == cfg.n_min:
        return cfg.n_min + 1
    return n + 1 if rng.random() < p_in else n - 1


def _evaluate(sols: list[Solution], cfg: ScenarioConfig) -> list[Individual]:
    """Two-stage evaluation, results in the order of ``sols``.

    :func:`encoding.raw_objectives` scores ``sols`` one UAV-count group at
    a time; each solution then gets its objective vector from its row
    through ``encoding.evaluate``, looked up as a module attribute.
    """
    scored: list[Individual] = [None] * len(sols)  # type: ignore[list-item]
    for indices, rows in encoding.raw_objectives(sols, cfg):
        for i, raw in zip(indices, rows):
            sol = sols[i]
            scored[i] = Individual(genome=sol, objectives=encoding.evaluate(sol, cfg, raw))
    return scored


def _repaired(sols: list[Solution], cfg: ScenarioConfig, rng: np.random.Generator) -> list[Solution]:
    """``encoding.repair_continuous`` over ``sols``, in order.

    A solution sharing its ``genes`` with an earlier one found in bounds (a
    Q' sibling) is in bounds too and skips the check; out-of-bounds shared
    ``genes`` are repaired for each solution, with its own draws.
    """
    in_bounds: set[int] = set()  # ids of genes found in bounds
    out = []
    for sol in sols:
        if id(sol.genes) not in in_bounds:
            fixed = encoding.repair_continuous(sol, cfg, rng)
            if fixed is sol:
                in_bounds.add(id(sol.genes))
            sol = fixed
        out.append(sol)
    return out


def _init_population(cfg: ScenarioConfig, rc: RunConfig, rng: np.random.Generator) -> list[Individual]:
    return _evaluate([encoding.random_solution(cfg, rng) for _ in range(rc.pop)], cfg)


def _continuous_offspring(
    parents: list[Individual], cfg: ScenarioConfig, rng: np.random.Generator
) -> list[Solution]:
    """SBX + polynomial mutation on the padded continuous parts.

    Parents are paired by a random permutation and bred in one
    :func:`moea.variation` call.  Each child owns a copy of its row, so a
    survivor does not keep the generation's offspring array alive, and keeps
    the discrete part of the parent it descends from.
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
    children: list[Solution] = [None] * len(parents)  # type: ignore[list-item]
    for idx, rows in zip((first, second), bred):
        for parent_idx, vec in zip(idx.tolist(), rows):
            parent = parents[parent_idx].genome
            children[parent_idx] = Solution(
                vec.copy(),
                parent.n_active,
                parent.assign.copy(),
                parent.uav_chan.copy(),
                parent.direct_chan.copy(),
            )
    return children


def _mutate_discrete_plain(
    children: list[Solution], cfg: ScenarioConfig, pm: float, rng: np.random.Generator
) -> list[Solution]:
    """Baseline discrete variation: per-gene uniform resampling at rate pm, in place."""
    for sol in children:
        if rng.random() < pm:
            sol.n_active = int(rng.integers(cfg.n_min, cfg.n_max + 1))
        for i in range(len(sol.assign)):
            if rng.random() < pm:
                sol.assign[i] = rng.integers(0, sol.n_active)
        # resampling the count can strand assignments beyond the new range
        bad = sol.assign >= sol.n_active
        if bad.any():
            sol.assign[bad] = rng.integers(0, sol.n_active, size=int(bad.sum()))
        for arr in (sol.uav_chan, sol.direct_chan):
            for i in range(len(arr)):
                if rng.random() < pm:
                    arr[i] = rng.integers(0, cfg.u_channels)
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
        offspring = _evaluate(_repaired(children, cfg, rng), cfg)
        population = select(population + offspring, rng)
    return _first_front(population)


def _nsga3_selection(rc: RunConfig):
    refs = moea.das_dennis_points(3, REF_DIVISIONS)
    return lambda merged, rng: moea.nsga3_select(merged, rc.pop, refs, rng)


def _plain_discrete(cfg: ScenarioConfig):
    pm = 1.0 / len(cfg.gene_bounds[0])
    return lambda parents, children, rng: _mutate_discrete_plain(children, cfg, pm, rng)


def nsga3fdu(cfg: ScenarioConfig, rc: RunConfig) -> list[Individual]:
    """Flexible-dimension NSGA-III with discrete regeneration and count walk.

    Each generation breeds two offspring sets from the parents: one whose
    discrete part is updated by the probabilistic learning operator, and
    one whose UAV count is stepped and whose assignment/channels are
    regenerated, then selects survivors from the three-way merge.  A Q
    child and its Q' sibling share their ``genes``, so stage one
    of evaluation computes their geometry once.
    """

    def learn_and_walk(parents, children, rng):
        front1 = _first_front(parents)
        q_set = [
            probabilistic_learning_operator(
                sol, front1[int(rng.integers(len(front1)))].genome, rc.sigma1, rc.sigma2, cfg, rng
            )
            for sol in children
        ]
        qp_set = []
        for sol in children:
            new_n = uav_number_adjust(sol.n_active, cfg, rc.p_in, rng)
            qp_set.append(
                sol.with_discrete(
                    new_n,
                    rng.integers(0, new_n, size=cfg.m_pairs),
                    *encoding.random_channels(cfg, rng),
                )
            )
        return q_set + qp_set

    return _moea(cfg, rc, learn_and_walk, _nsga3_selection(rc))


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
        population = _evaluate(_repaired(q_set, cfg, rng), cfg)
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
