"""skyrelay benchmark: solver trial time, set-up time, memory and a per-module trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload s1-fdu --seed 0 --seconds 40 --trace 0

The workload seed sets the scenario (``gen_scenario(scale, seed)``) and the
trial seeds.  Trials run one after another in this process through
``bench.run_trials(cfg, rc, algo, 1)``, the entry the CLI ``run`` command
uses.  The first ``FEASIBILITY_TRIALS`` trials always run; then trials
go on until the next one would overrun ``--seconds``.  Every trial's
final front is checked (see ``verify.py``).

``--trace 0`` reports the end-to-end metrics of untraced trials.
``--trace 1`` alternates untraced and traced runs of the same trial seeds,
wrapping skyrelay's public functions from outside (``spans.py``), and
reports the per-layer metrics.  Lines before the last one are a readable
summary and a ``record:`` line holding the machine, the command, the
per-trial times and the front digests; the last line is the JSON result.
The exit code is 0 only when every trial passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "skyrelay" / "__init__.py").is_file():
    sys.exit(f"error: no skyrelay sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from skyrelay import bench, encoding, scenario  # noqa: E402
from skyrelay.solvers import RunConfig  # noqa: E402
from spans import TRACED, Tracer, category_time, self_times  # noqa: E402
from verify import front_digest, front_problems  # noqa: E402


@dataclass(frozen=True)
class Workload:
    scale: str  # gen_scenario scale name
    algos: tuple[str, ...]  # solver runs making up one trial, on one trial seed
    pop: int
    iters: int
    unexercised: frozenset[str]  # traced spans this workload never calls


_FDU_ONLY = frozenset({"solvers.probabilistic_learning_operator", "solvers.uav_number_adjust"})
_PLAIN_ONLY = frozenset({"moea.crowding_select"})

# s1-fdu: the paper's headline setting; evaluate is dominated by per-call
#   overhead on arrays of at most 10 pairs x 8 UAVs.
# s2-fdu: the same 8020 evaluations per trial, each doing more arithmetic
#   (100 pairs x 16 UAVs, 80 continuous genes).
# s1-wide: pop 100 makes sorting and selection ~15 % of a trial, and the
#   plain NSGA-III / NSGA-II loop has no Q' siblings sharing genes.
WORKLOADS = {
    "s1-fdu": Workload("one", ("nsga3fdu",), 20, 200, _PLAIN_ONLY),
    "s2-fdu": Workload("two", ("nsga3fdu",), 20, 200, _PLAIN_ONLY),
    "s1-wide": Workload("one", ("nsga3", "nsga2"), 100, 40, _FDU_ONLY),
}

SETUP_REPS = 9
FEASIBILITY_TRIALS = 3  # trials every run completes; front_feasible_frac covers these
SCENARIO_REPS = 5  # traced gen/save/load rounds behind scenario.* metrics

# Runs in a fresh interpreter; prints the seconds from before the first
# skyrelay import to after the first objective evaluation.
SETUP_PROGRAM = """
import sys, time
t0 = time.perf_counter()
import numpy as np
from skyrelay import bench, encoding, scenario
scale, seed, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
scenario.save_scenario(scenario.gen_scenario(scale, seed), path)
cfg = scenario.load_scenario(path)
encoding.evaluate(encoding.random_solution(cfg, np.random.default_rng(seed)), cfg)
print(time.perf_counter() - t0)
"""

# Phases of a trial behind the solvers.<phase>_share metrics; the rest of a
# traced trial is solvers.loop_self_share.
PHASES = {
    "eval": {"encoding.evaluate"},
    "variation": {
        "moea.sbx",
        "moea.poly_mutation",
        "encoding.repair_continuous",
        "solvers.probabilistic_learning_operator",
        "solvers.uav_number_adjust",
    },
    "select": {"moea.nsga3_select", "moea.crowding_select", "moea.fast_non_dominated_sort"},
}


def trial_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def machine_record() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "command": [Path(sys.executable).name, *sys.argv],
    }


def measure_setup(scale: str, seed: int, tmp: Path) -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for rep in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROGRAM, scale, str(seed), str(tmp / f"setup{rep}.json")],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def build_scenario(scale: str, seed: int, path: Path):
    """Scenario as the CLI ``run`` command sees it: generated, saved, loaded."""
    scenario.save_scenario(scenario.gen_scenario(scale, seed), path)
    return scenario.load_scenario(path)


def run_trial(wl: Workload, cfg, seed: int):
    """One trial: each of the workload's solvers on ``seed``; returns the reports."""
    rc = RunConfig(pop=wl.pop, max_iters=wl.iters, seed=seed)
    return [report for algo in wl.algos for report in bench.run_trials(cfg, rc, algo, 1)]


class Outcome:
    """Per-trial times, check results, digests and traces of one benchmark run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.traces: list = []  # (names, durations, parents) of each traced trial
        self.feasible_evals = 0  # feasible evaluations in the traced trials
        self.failed = 0
        self.front_members = 0  # over the first FEASIBILITY_TRIALS trials
        self.feasible_members = 0
        self.digests: list[list[str]] = []

    @property
    def attempted(self) -> int:
        return len(self.digests)

    @property
    def front_feasible_frac(self) -> float:
        return self.feasible_members / max(self.front_members, 1)

    def expected_s(self) -> float:
        """Expected wall seconds of the next trial, its traced twin included."""
        traced = statistics.median(self.traced_times) if self.traced_times else 0.0
        return statistics.median(self.times) + traced

    def check(self, wl: Workload, cfg, reports) -> list[str]:
        problems = []
        for report in reports:
            problems += [f"{report.algo}: {p}" for p in front_problems(report.front, cfg, wl.pop)]
            if self.attempted < FEASIBILITY_TRIALS:
                self.front_members += len(report.front)
                self.feasible_members += sum(ind.objectives.feasible for ind in report.front)
        self.digests.append([front_digest(report.front) for report in reports])
        return problems


def timed_trial(wl: Workload, cfg, seed: int):
    t0 = perf_counter()
    reports = run_trial(wl, cfg, seed)
    return perf_counter() - t0, reports


def run_workload(wl: Workload, cfg, seed: int, seconds: float, tracer=None) -> Outcome:
    """Trials on the workload's trial seeds, one after another.

    Every run completes the first ``FEASIBILITY_TRIALS`` trials, so
    ``front_feasible_frac`` covers the same trial seeds on any host; more
    trials follow while the next one should end within ``seconds``.  With
    a tracer, each trial is followed by a traced twin on the same seed
    whose spans are kept; a twin that finds different fronts than the
    untraced trial counts as a failed trial.
    """
    outcome = Outcome()
    deadline = perf_counter() + seconds
    index = 0
    while index < FEASIBILITY_TRIALS or perf_counter() + outcome.expected_s() <= deadline:
        try:
            elapsed, reports = timed_trial(wl, cfg, trial_seed(seed, index))
            if tracer is not None:
                tracer.clear()
                with tracer.patched():
                    traced_elapsed, traced_reports = timed_trial(wl, cfg, trial_seed(seed, index))
        except Exception:  # noqa: BLE001 - a raising trial is counted, not fatal
            outcome.digests.append([])
            outcome.failed += 1
            print(f"trial {index}: {traceback.format_exc()}", file=sys.stderr)
            break
        outcome.times.append(elapsed)
        problems = outcome.check(wl, cfg, reports)
        if tracer is not None:
            outcome.traced_times.append(traced_elapsed)
            outcome.traces.append(tracer.arrays())
            outcome.feasible_evals += tracer.feasible
            if [front_digest(r.front) for r in traced_reports] != outcome.digests[-1]:
                problems.append("traced trial found different fronts than the untraced one")
        if problems:
            outcome.failed += 1
            for p in problems:
                print(f"trial {index}: {p}", file=sys.stderr)
        index += 1
    return outcome


# Per-layer metrics read from the spans as "<span>.<statistic>": calls per
# traced trial, the p50 in ms, or a percentile in us of the duration or of
# the self time.
SPAN_METRICS = (
    "scenario.gen_scenario.ms",
    "scenario.load_scenario.ms",
    "encoding.evaluate.calls",
    "encoding.evaluate.us_p50",
    "encoding.evaluate.us_p99",
    "encoding.evaluate.self_us_p50",
    "encoding.repair_continuous.us_p50",
    "radio.link_rates.calls",
    "radio.link_rates.us_p50",
    "radio.link_rates.us_p99",
    "energy.average_flight_energy.us_p50",
    "energy.flight_time_spread.us_p50",
    "moea.sbx.us_p50",
    "moea.poly_mutation.us_p50",
    "moea.fast_non_dominated_sort.calls",
    "moea.fast_non_dominated_sort.us_p50",
    "moea.nsga3_select.self_us_p50",
    "moea.crowding_select.calls",
    "solvers.probabilistic_learning_operator.calls",
)


def span_samples(traces):
    """Durations and self times (seconds) of every call, by span name."""
    dur = {name: [] for name in TRACED}
    own = {name: [] for name in TRACED}
    for names, durations, parents in traces:
        self_s = self_times(durations, parents)
        for name in TRACED:
            mask = names == name
            dur[name].append(durations[mask])
            own[name].append(self_s[mask])
    return (
        {name: np.concatenate(parts) for name, parts in dur.items()},
        {name: np.concatenate(parts) for name, parts in own.items()},
    )


def uncovered(wl: Workload, dur) -> list[str]:
    """Traced spans the workload should exercise that recorded no call."""
    return [name for name in TRACED if name not in wl.unexercised and not len(dur[name])]


def layer_metrics(dur, own, outcome: Outcome) -> dict:
    """Per-layer metrics of a traced run: ``SPAN_METRICS`` plus phase shares,
    the tracing overhead and the feasibility ratios."""
    trial_traces = outcome.traces
    metrics = {}
    for metric in SPAN_METRICS:
        span, _, stat = metric.rpartition(".")
        if stat == "calls":
            metrics[metric] = (len(dur[span]) / len(trial_traces), "count")
        elif stat == "ms":
            metrics[metric] = (float(np.median(dur[span])) * 1e3, "ms")
        else:
            samples = own[span] if stat.startswith("self_") else dur[span]
            metrics[metric] = (float(np.percentile(samples, int(stat[-2:]))) * 1e6, "us")
    traced_s = sum(outcome.traced_times)
    shares = {
        phase: sum(category_time(*trace, members) for trace in trial_traces) / traced_s
        for phase, members in PHASES.items()
    }
    for phase, share in shares.items():
        metrics[f"solvers.{phase}_share"] = (share, "fraction")
    metrics["solvers.loop_self_share"] = (1.0 - sum(shares.values()), "fraction")
    metrics["solvers.trace_overhead"] = (
        statistics.median(outcome.traced_times) / statistics.median(outcome.times) - 1.0,
        "fraction",
    )
    metrics["encoding.evaluate.feasible_ratio"] = (
        outcome.feasible_evals / len(dur["encoding.evaluate"]), "fraction"
    )
    metrics["solvers.front_feasible_frac"] = (outcome.front_feasible_frac, "fraction")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    wl = WORKLOADS[args.workload]

    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        setup = [] if args.trace else measure_setup(wl.scale, args.seed, Path(tmp))
        with tracer.patched() if args.trace else nullcontext():
            for rep in range(SCENARIO_REPS if args.trace else 1):
                cfg = build_scenario(wl.scale, args.seed, Path(tmp) / f"scenario{rep}.json")
    scenario_trace = tracer.arrays()
    # fill lazy state (numpy first calls, radio's per-scenario arrays) before timing
    warm_rng = np.random.default_rng(args.seed)
    for _ in range(20):
        encoding.evaluate(encoding.random_solution(cfg, warm_rng), cfg)

    metrics, missing = {}, []
    outcome = run_workload(wl, cfg, args.seed, args.seconds, tracer if args.trace else None)
    if args.trace:
        dur, own = span_samples([scenario_trace, *outcome.traces])
        missing = uncovered(wl, dur)
        for name in missing:
            print(f"coverage: span {name} recorded no call", file=sys.stderr)
        if not outcome.failed and not missing:
            metrics = layer_metrics(dur, own, outcome)
    elif not outcome.failed:
        metrics = {
            "trial_s": (statistics.median(outcome.times), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    attempted = outcome.attempted
    shown = {
        **metrics,
        "failed_frac": (outcome.failed / attempted, "fraction"),
        "front_feasible_frac": (outcome.front_feasible_frac, "fraction"),
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {attempted} trials")
    for name, (value, unit) in shown.items():
        print(f"  {name:<45} {value:>14.6g} {unit}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_record(),
        "values": {name: value for name, (value, _) in shown.items()},
        "trial_times_s": outcome.times,
        "traced_trial_times_s": outcome.traced_times,
        "setup_times_s": setup,
        "digests": outcome.digests,
    }
    print("record: " + json.dumps(record))
    correct = not outcome.failed and not missing
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
