"""Run the benchmark over several seeds and summarise run-to-run spread.

    python3 perfbench/collect.py --out perfbench/BENCH_baseline.json
    python3 perfbench/collect.py --compare perfbench/BENCH_baseline.json

For every workload of ``BENCHMARK.json`` and every seed in ``SEEDS`` it
runs ``run.py`` once untraced for ``run_seconds``, and for the first seed
once traced.  For each end-to-end metric of ``BENCHMARK.json``
it prints the median and the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound.
``--compare`` checks the front digests against an earlier output file and
the medians against its medians, within the bounds.  Exits non-zero when
a run fails, a spread exceeds its bound, or a comparison fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = "perfbench/run.py"
SEEDS = list(range(10))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    record = next(
        (json.loads(line[len("record: "):]) for line in lines if line.startswith("record: ")), {}
    )
    record["result"] = json.loads(lines[-1]) if lines else {}
    record["exit_code"] = proc.returncode
    if proc.returncode:
        print(proc.stderr, file=sys.stderr)
    return record


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}

    ok = True
    doc = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        traced = run_once(workload, SEEDS[0], seconds, 1)
        ok &= all(r["exit_code"] == 0 for r in [*runs, traced])
        want = {m["name"]: m["unit"] for m in spec["per_layer"]}
        got = {k: v["unit"] for k, v in traced["result"].get("metrics", {}).items()}
        if got != want:
            ok = False
            print(f"{workload}: traced metrics differ from per_layer: {set(got) ^ set(want)}")
        stats = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["result"]["metrics"][name]["value"] for r in runs if r["exit_code"] == 0]
            median, iqr_share = spread(values)
            stats[name] = {"median": median, "iqr_share": iqr_share, "bound": bound}
            line = f"{workload:<8} {name:<12} median {median:10.4f}  iqr/median {iqr_share:6.3f}"
            line += f"  bound {bound}"
            if iqr_share > bound:
                ok, line = False, line + "  SPREAD OVER BOUND"
            if workload in earlier:
                before = earlier[workload]["stats"][name]["median"]
                change = (median - before) / before * (1 if metric["better"] == "lower" else -1)
                line += f"  worse by {change:+.3f} vs compared"
                if change > bound:
                    ok, line = False, line + "  WORSE THAN BOUND"
            print(line, flush=True)
        if workload in earlier:
            before = {r["seed"]: r["digests"] for r in earlier[workload]["runs"]}
            for r in runs:
                prior = before.get(r["seed"], [])
                common = min(len(prior), len(r["digests"]))
                if prior[:common] != r["digests"][:common]:
                    ok = False
                    print(f"{workload} seed {r['seed']}: front digests differ", flush=True)
        doc["workloads"][workload] = {"stats": stats, "runs": runs, "traced": traced}
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
