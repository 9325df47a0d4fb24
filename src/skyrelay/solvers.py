"""Solvers for the three-objective scheduling problem.

The flexible-dimension NSGA-III variant (padded genomes, discrete-part
regeneration, probabilistic learning and UAV-count adjustment), the plain
NSGA-III and NSGA-II baselines, a weighted-sum single-objective GA, and
the uniform/random deployment baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import encoding, moea
from .encoding import Solution
from .moea import Individual
from .scenario import ScenarioConfig


@dataclass(frozen=True)
class RunConfig:
    pop: int = 20
    max_iters: int = 200
    sigma1: float = 0.2
    sigma2: float = 0.6
    p_in: float = 0.5
    seed: int = 0
    pc: float = 1.0
    eta_c: float = 20.0
    eta_m: float = 20.0
    pm: Optional[float] = None  # None -> 1 / continuous dimension
    ref_divisions: int = 5

    def validate(self) -> None:
        if not 0.0 <= self.sigma1 <= self.sigma2 <= 1.0:
            raise ValueError("need 0 <= sigma1 <= sigma2 <= 1")
        if not 0.0 < self.p_in < 1.0:
            raise ValueError("need 0 < p_in < 1")
        if self.pop < 4 or self.pop % 2:
            raise ValueError("pop must be even and >= 4")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")

    def mutation_rate(self, cfg: ScenarioConfig) -> float:
        return self.pm if self.pm is not None else 1.0 / len(cfg.gene_bounds[0])


@dataclass
class SolverResult:
    final_front: list[Individual]
    seed: int


def random_search_operator(cfg: ScenarioConfig, rng: np.random.Generator):
    """Fresh discrete part: UAV count, pair assignment and channel vectors."""
    return encoding.random_discrete(cfg, rng)


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
    The continuous part is never touched here.
    """
    out = sol.copy()
    r = rng.random()
    if r < sigma1:
        n_active, assign, uav_chan, direct_chan = encoding.random_discrete(cfg, rng)
        out.n_active = n_active
        out.assign = assign
        out.uav_chan = uav_chan
        out.direct_chan = direct_chan
    elif r < sigma2:
        pass
    else:
        out.n_active = best.n_active
        out.assign = best.assign.copy()
        out.uav_chan = best.uav_chan.copy()
        out.direct_chan = best.direct_chan.copy()
    return out


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


def _evaluate(sol: Solution, cfg: ScenarioConfig) -> Individual:
    return Individual(genome=sol, objectives=encoding.evaluate(sol, cfg))


def _init_population(cfg: ScenarioConfig, rc: RunConfig, rng: np.random.Generator) -> list[Individual]:
    return [_evaluate(encoding.random_solution(cfg, rng), cfg) for _ in range(rc.pop)]


def _continuous_offspring(
    parents: list[Individual],
    cfg: ScenarioConfig,
    rc: RunConfig,
    rng: np.random.Generator,
) -> list[Solution]:
    """SBX + polynomial mutation on the padded continuous parts.

    Parents are paired by a random permutation; each child keeps the
    discrete part of the parent it descends from.
    """
    lower, upper = cfg.gene_bounds
    pm = rc.mutation_rate(cfg)
    order = rng.permutation(len(parents))
    children: list[Solution] = [None] * len(parents)  # type: ignore[list-item]
    for a, b in zip(order[0::2], order[1::2]):
        v1 = parents[a].genome.continuous_vector()
        v2 = parents[b].genome.continuous_vector()
        c1, c2 = moea.sbx(v1, v2, lower, upper, rc.eta_c, rc.pc, rng)
        c1 = moea.poly_mutation(c1, lower, upper, rc.eta_m, pm, rng)
        c2 = moea.poly_mutation(c2, lower, upper, rc.eta_m, pm, rng)
        for parent_idx, vec in ((a, c1), (b, c2)):
            child = parents[parent_idx].genome.copy()
            child.set_continuous_vector(vec)
            children[parent_idx] = child
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
    return moea.fast_non_dominated_sort(pop)[0]


def _moea(
    cfg: ScenarioConfig,
    rc: RunConfig,
    discrete: Callable[[list[Individual], list[Solution], np.random.Generator], list[Solution]],
    select: Callable[[list[Individual], np.random.Generator], list[Individual]],
) -> SolverResult:
    """The generational loop of nsga3fdu, nsga3 and nsga2.

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
        children = discrete(population, _continuous_offspring(population, cfg, rc, rng), rng)
        offspring = [_evaluate(encoding.repair_continuous(sol, cfg, rng), cfg) for sol in children]
        population = select(population + offspring, rng)
    return SolverResult(final_front=_first_front(population), seed=rc.seed)


def _nsga3_selection(rc: RunConfig):
    refs = moea.das_dennis_points(3, rc.ref_divisions)
    return lambda merged, rng: moea.nsga3_select(merged, rc.pop, refs, rng)


def _plain_discrete(cfg: ScenarioConfig, rc: RunConfig):
    pm = rc.mutation_rate(cfg)
    return lambda parents, children, rng: _mutate_discrete_plain(children, cfg, pm, rng)


def nsga3fdu(cfg: ScenarioConfig, rc: RunConfig) -> SolverResult:
    """Flexible-dimension NSGA-III with discrete regeneration and count walk.

    Each generation breeds two offspring sets from the parents: one whose
    discrete part is updated by the probabilistic learning operator, and
    one whose UAV count is stepped and whose assignment/channels are
    regenerated, then selects survivors from the three-way merge.
    """

    def learn_and_walk(parents, q_set, rng):
        front1 = _first_front(parents)
        qp_set = [sol.copy() for sol in q_set]
        for i, sol in enumerate(q_set):
            donor = front1[int(rng.integers(len(front1)))].genome
            q_set[i] = probabilistic_learning_operator(sol, donor, rc.sigma1, rc.sigma2, cfg, rng)
        for sol in qp_set:
            new_n = uav_number_adjust(sol.n_active, cfg, rc.p_in, rng)
            sol.n_active = new_n
            sol.assign = rng.integers(0, new_n, size=cfg.m_pairs)
            sol.uav_chan = rng.integers(0, cfg.u_channels, size=cfg.n_max)
            sol.direct_chan = rng.integers(0, cfg.u_channels, size=cfg.k_pairs)
        return q_set + qp_set

    return _moea(cfg, rc, learn_and_walk, _nsga3_selection(rc))


def nsga3_plain(cfg: ScenarioConfig, rc: RunConfig) -> SolverResult:
    """Conventional NSGA-III loop with naive discrete resampling."""
    return _moea(cfg, rc, _plain_discrete(cfg, rc), _nsga3_selection(rc))


def nsga2(cfg: ScenarioConfig, rc: RunConfig) -> SolverResult:
    """Conventional NSGA-II loop with naive discrete resampling."""
    return _moea(
        cfg, rc, _plain_discrete(cfg, rc), lambda merged, rng: moea.crowding_select(merged, rc.pop)
    )


def weighted_sum_ga(
    cfg: ScenarioConfig, rc: RunConfig, weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
) -> SolverResult:
    """Single-objective generational GA on a normalized weighted sum.

    Each objective is divided by the magnitude the uniform-deployment
    baseline achieves before weighting, so the capacity term cannot swamp
    the other two.  Elitist: the best individual ever evaluated survives
    every generation and is returned as a singleton front.
    """
    rc.validate()
    if any(w < 0 for w in weights) or not any(weights):
        raise ValueError("weights must be non-negative and not all zero")
    rng = np.random.default_rng(rc.seed)
    pm = rc.mutation_rate(cfg)
    anchor = ud_baseline(cfg, np.random.default_rng(rc.seed)).objectives
    norm = np.array(
        [max(abs(anchor.neg_f1), 1.0), max(abs(anchor.f2), 1.0), max(abs(anchor.f3), 1.0)]
    )
    w = np.asarray(weights, dtype=float)

    def scalar(ind: Individual) -> float:
        return float(np.dot(w, np.asarray(ind.key()) / norm))

    population = _init_population(cfg, rc, rng)
    best = min(population, key=scalar)
    for _ in range(rc.max_iters):
        parents = []
        for _ in range(rc.pop):
            a, b = population[int(rng.integers(rc.pop))], population[int(rng.integers(rc.pop))]
            parents.append(a if scalar(a) <= scalar(b) else b)
        q_set = _mutate_discrete_plain(_continuous_offspring(parents, cfg, rc, rng), cfg, pm, rng)
        population = [_evaluate(encoding.repair_continuous(sol, cfg, rng), cfg) for sol in q_set]
        gen_best = min(population, key=scalar)
        if scalar(gen_best) < scalar(best):
            best = gen_best
        else:
            population[int(np.argmax([scalar(i) for i in population]))] = best
    return SolverResult(final_front=[best], seed=rc.seed)


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
    sol.uav_chan = rng.integers(0, cfg.u_channels, size=cfg.n_max)
    sol.direct_chan = rng.integers(0, cfg.u_channels, size=cfg.k_pairs)
    return _evaluate(sol, cfg)


def rd_baseline(cfg: ScenarioConfig, rng: np.random.Generator) -> Individual:
    """Random deployment: everything uniform within its domain."""
    return _evaluate(encoding.random_solution(cfg, rng), cfg)


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
