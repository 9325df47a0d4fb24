"""Benchmark protocol: multi-trial runs, per-strategy statistics, export.

A benchmark holds one scenario fixed and runs a solver for ``n_trials``
independent seeds (base seed + trial index), then aggregates the
per-strategy picks into mean/std/max/min tables and writes plot data.
The worker pool size is capped by the ``SKYRELAY_THREADS`` environment
variable, an integer >= 1 (default: hardware parallelism).
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import encoding, energy, moea, solvers
from .encoding import ObjectiveVector
from .moea import Individual
from .scenario import ScenarioConfig
from .solvers import STRATEGIES, RunConfig

# The final front of one trial of each algorithm; solvers are looked up at call time.
_SOLVERS = {
    "nsga3fdu": lambda cfg, rc: solvers.nsga3fdu(cfg, rc),
    "nsga3": lambda cfg, rc: solvers.nsga3_plain(cfg, rc),
    "nsga2": lambda cfg, rc: solvers.nsga2(cfg, rc),
    "wsga": lambda cfg, rc: solvers.weighted_sum_ga(cfg, rc),
    "ud": lambda cfg, rc: [solvers.ud_baseline(cfg, np.random.default_rng(rc.seed))],
    "rd": lambda cfg, rc: [solvers.rd_baseline(cfg, np.random.default_rng(rc.seed))],
}
ALGORITHMS = tuple(_SOLVERS)


@dataclass
class TrialReport:
    algo: str
    trial_seed: int
    front: list[Individual]
    picks: dict[str, int]  # strategy -> index into front
    wall_time_s: float

    def pick(self, strategy: str) -> Individual:
        return self.front[self.picks[strategy]]


@dataclass(frozen=True)
class Stats:
    mean: float
    std: float
    max: float
    min: float


@dataclass
class RunStats:
    algo: str
    by_strategy: dict[tuple[str, str], Stats]  # (strategy, objective) -> stats
    feasibility_rate: float


def _threads() -> int:
    """Worker cap from ``SKYRELAY_THREADS``: an integer >= 1, or the CPU
    count when unset or empty; any other value raises ValueError."""
    env = os.environ.get("SKYRELAY_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        threads = int(env)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"SKYRELAY_THREADS must be an integer >= 1, got {env!r}")
    return threads


def _run_one(args) -> TrialReport:
    cfg, rc, algo = args
    if algo not in _SOLVERS:
        raise ValueError(f"unknown algorithm {algo!r}")
    t0 = time.perf_counter()
    front = _SOLVERS[algo](cfg, rc)
    picks = {}
    for strategy in STRATEGIES:
        chosen = solvers.pick_strategy(front, strategy)
        picks[strategy] = next(i for i, ind in enumerate(front) if ind is chosen)
    return TrialReport(
        algo=algo,
        trial_seed=rc.seed,
        front=front,
        picks=picks,
        wall_time_s=time.perf_counter() - t0,
    )


def run_trials(
    cfg: ScenarioConfig, rc: RunConfig, algo: str, n_trials: int
) -> list[TrialReport]:
    """Run ``n_trials`` independent trials; trial i uses seed ``rc.seed + i``.

    Trials are independent and may run in a process pool; the report list
    is always in trial order and identical to a sequential run.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    jobs = [(cfg, replace(rc, seed=rc.seed + i), algo) for i in range(n_trials)]
    workers = min(_threads(), n_trials)
    if workers <= 1:
        return [_run_one(job) for job in jobs]
    # imported here, its only use: it loads multiprocessing and logging
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, jobs))


def aggregate_stats(reports: list[TrialReport]) -> RunStats:
    """Per-strategy mean/std/max/min of the picked objective values.

    Capacity is reported with the table sign convention (positive when
    feasible, penalty-negative otherwise); std is the population form.
    """
    if not reports:
        raise ValueError("no trial reports to aggregate")
    by_strategy: dict[tuple[str, str], Stats] = {}
    for strategy in STRATEGIES:
        picks = [r.pick(strategy).objectives for r in reports]
        for objective, values in (
            ("f1", [p.f1 for p in picks]),
            ("f2", [p.f2 for p in picks]),
            ("f3", [p.f3 for p in picks]),
        ):
            arr = np.asarray(values)
            by_strategy[(strategy, objective)] = Stats(
                mean=float(arr.mean()),
                std=float(arr.std()),
                max=float(arr.max()),
                min=float(arr.min()),
            )
    individuals = [ind for r in reports for ind in r.front]
    feasible = sum(1 for ind in individuals if ind.objectives.feasible)
    return RunStats(
        algo=reports[0].algo,
        by_strategy=by_strategy,
        feasibility_rate=feasible / len(individuals),
    )


def front_hypervolume(front: list[Individual], cfg: ScenarioConfig) -> float:
    """Hypervolume of the feasible members of ``front`` against a reference
    point taken from the scenario alone, so that solvers compare: 0 bps,
    ``n_max + 1`` UAVs, and the energy of the costliest flight to a top
    corner of the deployment box at any of 101 speeds in [v_min, v_max]."""
    sides = (cfg.l_min_m, cfg.l_max_m)
    corners = np.array([(x, y, cfg.z_max_m) for x in sides for y in sides])
    speeds = np.linspace(cfg.v_min_m_s, cfg.v_max_m_s, 101)
    plan = energy.FlightPlan(
        np.repeat(corners, len(speeds), axis=0), np.tile(speeds, 4), cfg.origin_xyz, cfg.energy
    )
    worst = float(plan.energies.max())
    points = [ind.key() for ind in front if ind.objectives.feasible]
    return moea.hypervolume(np.array(points), (0.0, cfg.n_max + 1.0, worst))


def _fmt(x: float) -> str:
    return repr(float(x))


def write_stats_csv(stats: RunStats, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algo", "strategy", "objective", "mean", "std", "max", "min"])
        for strategy in STRATEGIES:
            for objective in ("f1", "f2", "f3"):
                s = stats.by_strategy[(strategy, objective)]
                writer.writerow(
                    [stats.algo, strategy, objective]
                    + [_fmt(v) for v in (s.mean, s.std, s.max, s.min)]
                )


def read_stats_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def export_results(
    reports: list[TrialReport], stats: RunStats, out_dir, cfg: ScenarioConfig
) -> None:
    """Write stats.csv, per-trial front CSVs, per-strategy pick records,
    and a machine-readable reports.json for the downstream CLI commands."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_stats_csv(stats, out / "stats.csv")
    for trial, report in enumerate(reports):
        with open(out / f"front_{report.algo}_{trial}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["f1_bps", "f2", "f3_j", "feasible"])
            for ind in report.front:
                o = ind.objectives
                writer.writerow([_fmt(o.f1), _fmt(o.f2), _fmt(o.f3), int(o.feasible)])
        for strategy in STRATEGIES:
            ind = report.pick(strategy)
            record = {
                "algo": report.algo,
                "trial": trial,
                "trial_seed": report.trial_seed,
                "strategy": strategy,
                "objectives": {
                    "f1_bps": ind.objectives.f1,
                    "f2": ind.objectives.f2,
                    "f3_j": ind.objectives.f3,
                    "feasible": ind.objectives.feasible,
                },
                "solution": encoding.solution_record(ind.genome, cfg),
            }
            with open(out / f"pick_{strategy}_{trial}.json", "w") as fh:
                json.dump(record, fh, indent=2)
                fh.write("\n")
    doc = {
        "algo": reports[0].algo,
        "trials": [
            {
                "trial_seed": r.trial_seed,
                "wall_time_s": r.wall_time_s,
                "picks": r.picks,
                "front": [
                    {
                        "neg_f1": ind.objectives.neg_f1,
                        "f2": ind.objectives.f2,
                        "f3": ind.objectives.f3,
                        "feasible": ind.objectives.feasible,
                        "solution": encoding.solution_record(ind.genome, cfg),
                    }
                    for ind in r.front
                ],
            }
            for r in reports
        ],
    }
    with open(out / "reports.json", "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _field(obj, key: str, kind):
    """``obj[key]`` if ``obj`` is a JSON object holding a ``kind`` there."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"reports.json: missing key {key!r}")
    value = obj[key]
    # JSON true/false load as bool, which Python also counts as an int
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"reports.json: {key!r} has the wrong type")
    return value


def _member(rec) -> Individual:
    solution = _field(rec, "solution", dict)
    if not all(isinstance(w, (int, float)) for w in _field(solution, "uav_tx_w", list)):
        raise ValueError("reports.json: 'uav_tx_w' holds a non-number")
    values = [_field(rec, key, (int, float)) for key in ("neg_f1", "f2", "f3")]
    return Individual(solution, ObjectiveVector(*values, feasible=_field(rec, "feasible", bool)))


def load_reports(in_dir) -> list[TrialReport]:
    """Read the trial reports back from a results directory's reports.json.

    Each front member keeps its objectives and, as its ``genome``, the
    solution record :func:`export_results` wrote.  Raises ValueError on a
    document with no trials, a missing or ill-typed key, or a pick outside
    its front.
    """
    with open(Path(in_dir) / "reports.json") as fh:
        doc = json.load(fh)
    algo = _field(doc, "algo", str)
    reports = []
    for trial in _field(doc, "trials", list):
        front = [_member(rec) for rec in _field(trial, "front", list)]
        picks = _field(trial, "picks", dict)
        picks = {s: _field(picks, s, int) for s in STRATEGIES}
        if any(not 0 <= i < len(front) for i in picks.values()):
            raise ValueError("reports.json: a pick index is outside its front")
        reports.append(
            TrialReport(
                algo=algo,
                trial_seed=_field(trial, "trial_seed", int),
                front=front,
                picks=picks,
                wall_time_s=_field(trial, "wall_time_s", (int, float)),
            )
        )
    if not reports:
        raise ValueError("reports.json contains no trials")
    return reports
