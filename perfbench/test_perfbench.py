"""Tests of the benchmark's own helpers: span arithmetic and the output check.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
from skyrelay import encoding, moea, scenario  # noqa: E402
from skyrelay.moea import Individual  # noqa: E402
from spans import TRACED, Tracer, category_time, self_times  # noqa: E402
from verify import front_digest, front_problems  # noqa: E402

# Hand-built span tree (durations in seconds):
#   0 trial 10.0
#   +- 1 select 4.0
#   |  +- 2 sort 1.5
#   |  +- 3 sort 0.5
#   +- 4 sort 2.0
#   +- 5 evaluate 3.0
#      +- 6 link_rates 2.5
NAMES = np.array(["trial", "select", "sort", "sort", "sort", "evaluate", "link_rates"], dtype=object)
DURATIONS = np.array([10.0, 4.0, 1.5, 0.5, 2.0, 3.0, 2.5])
PARENTS = np.array([-1, 0, 1, 1, 0, 0, 5])


def test_self_times_subtract_direct_children_only():
    own = self_times(DURATIONS, PARENTS)
    np.testing.assert_allclose(own, [1.0, 2.0, 1.5, 0.5, 2.0, 0.5, 2.5])


def test_category_time_counts_nested_members_once():
    # sorts inside the selection are already covered by its 4.0 s
    assert category_time(NAMES, DURATIONS, PARENTS, {"select", "sort"}) == pytest.approx(6.0)
    assert category_time(NAMES, DURATIONS, PARENTS, {"sort"}) == pytest.approx(4.0)
    assert category_time(NAMES, DURATIONS, PARENTS, {"evaluate"}) == pytest.approx(3.0)


def test_tracer_records_nesting_and_restores_functions():
    original = moea.nsga3_select
    cfg = scenario.gen_scenario("one", 0)
    rng = np.random.default_rng(0)
    pop = [_individual(cfg, rng) for _ in range(12)]
    refs = moea.das_dennis_points(3, 5)
    tracer = Tracer()
    with tracer.patched():
        moea.nsga3_select(pop, 6, refs, rng)
    assert moea.nsga3_select is original
    names, durations, parents = tracer.arrays()
    assert list(names) == ["moea.nsga3_select", "moea.fast_non_dominated_sort"]
    assert list(parents) == [-1, 0]
    assert (durations > 0).all() and durations[1] <= durations[0]


def test_coverage_guard_names_spans_without_calls():
    dur = {name: np.ones(1) for name in TRACED}
    dur["moea.crowding_select"] = np.empty(0)
    assert run.uncovered(run.WORKLOADS["s1-wide"], dur) == ["moea.crowding_select"]
    assert run.uncovered(run.WORKLOADS["s1-fdu"], dur) == []


def _individual(cfg, rng) -> Individual:
    sol = encoding.random_solution(cfg, rng)
    return Individual(genome=sol, objectives=encoding.evaluate(sol, cfg))


@pytest.fixture(scope="module")
def cfg_and_pool():
    cfg = scenario.gen_scenario("one", 0)
    rng = np.random.default_rng(1)
    return cfg, [_individual(cfg, rng) for _ in range(60)]


def test_first_front_passes(cfg_and_pool):
    cfg, pool = cfg_and_pool
    front = moea.fast_non_dominated_sort(pool)[0]
    assert front_problems(front, cfg, pop=len(pool)) == []


def test_tampered_objective_is_rejected(cfg_and_pool):
    cfg, pool = cfg_and_pool
    front = list(moea.fast_non_dominated_sort(pool)[0])
    victim = front[0]
    front[0] = Individual(
        genome=victim.genome,
        objectives=replace(victim.objectives, f3=victim.objectives.f3 * (1 + 1e-12)),
    )
    problems = front_problems(front, cfg, pop=len(pool))
    assert len(problems) == 1 and "re-evaluated" in problems[0]


def test_dominated_member_is_rejected(cfg_and_pool):
    cfg, pool = cfg_and_pool
    fronts = moea.fast_non_dominated_sort(pool)
    better = fronts[0]
    worse = next(b for b in fronts[1] if any(moea.dominates(a.key(), b.key()) for a in better))
    problems = front_problems([*better, worse], cfg, pop=len(pool))
    assert problems and all("dominates member" in p for p in problems)


def test_oversized_front_and_bad_discrete_part_are_rejected(cfg_and_pool):
    cfg, pool = cfg_and_pool
    front = moea.fast_non_dominated_sort(pool)[0]
    assert any("exceeds population" in p for p in front_problems(front, cfg, pop=len(front) - 1))
    broken = front[0].genome.copy()
    broken.assign[0] = broken.n_active  # points at an inactive slot
    bad = Individual(genome=broken, objectives=front[0].objectives)
    assert any("inactive UAV slot" in p for p in front_problems([bad], cfg, pop=4))


def test_digest_depends_on_values_and_order(cfg_and_pool):
    _, pool = cfg_and_pool
    a, b = pool[0], pool[1]
    assert front_digest([a, b]) == front_digest([a, b])
    assert front_digest([a, b]) != front_digest([b, a])


def test_front_feasibility_covers_only_the_fixed_trials(cfg_and_pool):
    cfg, pool = cfg_and_pool
    front = moea.fast_non_dominated_sort(pool)[0]
    report = SimpleNamespace(algo="nsga3fdu", front=front)
    outcome = run.Outcome()
    for _ in range(run.FEASIBILITY_TRIALS + 2):
        assert outcome.check(run.WORKLOADS["s1-fdu"], cfg, [report]) == []
    assert outcome.attempted == run.FEASIBILITY_TRIALS + 2
    assert outcome.front_members == run.FEASIBILITY_TRIALS * len(front)
    feasible = sum(ind.objectives.feasible for ind in front)
    assert outcome.front_feasible_frac == pytest.approx(feasible / len(front))
