"""Command-line interface.

Subcommands: gen-scenario, run, stats, pick, eff.  Exit codes: 0 on
success, 2 on invalid arguments or schema, 3 on runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import bench, radio
from .scenario import ScenarioError, gen_scenario, load_scenario, save_scenario
from .solvers import STRATEGIES, RunConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3

_SCALE_NAMES = {"1": "one", "2": "two"}


def _cmd_gen_scenario(args) -> int:
    cfg = gen_scenario(_SCALE_NAMES[args.scale], args.seed)
    save_scenario(cfg, args.out)
    print(f"wrote scenario ({cfg.m_pairs} relayed / {cfg.k_pairs} direct pairs) to {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = load_scenario(args.scenario)
    rc = RunConfig(
        pop=args.pop,
        max_iters=args.iters,
        seed=args.seed,
        p_in=args.p_in,
        sigma1=args.sigma1,
        sigma2=args.sigma2,
    )
    reports = bench.run_trials(cfg, rc, args.algo, args.trials)
    stats = bench.aggregate_stats(reports)
    bench.export_results(reports, stats, args.out, cfg)
    print(
        f"{args.algo}: {args.trials} trials, feasibility rate "
        f"{stats.feasibility_rate:.2f}, results in {args.out}"
    )
    return EXIT_OK


def _cmd_stats(args) -> int:
    stats = bench.aggregate_stats(bench.load_reports(args.indir))
    bench.write_stats_csv(stats, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_pick(args) -> int:
    path = Path(args.indir) / f"pick_{args.strategy}_{args.trial}.json"
    if not path.exists():
        raise ScenarioError(f"no pick record {path}")
    print(path.read_text().rstrip())
    return EXIT_OK


def _cmd_eff(args) -> int:
    cfg = load_scenario(args.scenario)
    with_uav = []
    without_uav = []
    cap_with = []
    cap_without = []
    for report in bench.load_reports(args.indir):
        pick = report.pick("maxnetcap")
        capacity = pick.objectives.f1
        with_uav.append(radio.comm_energy_efficiency(capacity, pick.genome["uav_tx_w"], cfg))
        cap_with.append(capacity)
        direct_cap = radio.direct_only_capacity(cfg, seed=report.trial_seed)
        without_uav.append(radio.comm_energy_efficiency(direct_cap, [], cfg))
        cap_without.append(direct_cap)
    writer = csv.writer(sys.stdout)
    writer.writerow(
        [
            "eff_with_uavs_bit_per_j",
            "eff_without_uavs_bit_per_j",
            "capacity_with_uavs_bps",
            "capacity_without_uavs_bps",
        ]
    )
    writer.writerow(
        [
            repr(float(np.mean(with_uav))),
            repr(float(np.mean(without_uav))),
            repr(float(np.mean(cap_with))),
            repr(float(np.mean(cap_without))),
        ]
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skyrelay",
        description="UAV-aided D2D relay scheduling: scenarios, solvers, benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scenario", help="generate a scenario JSON file")
    p.add_argument("--scale", choices=("1", "2"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_scenario)

    p = sub.add_parser("run", help="run benchmark trials of one algorithm")
    p.add_argument("--scenario", required=True)
    p.add_argument("--algo", choices=bench.ALGORITHMS, required=True)
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--pop", type=int, default=20)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-in", type=float, default=0.5, dest="p_in")
    p.add_argument("--sigma1", type=float, default=0.2)
    p.add_argument("--sigma2", type=float, default=0.6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("stats", help="recompute stats.csv from a results directory")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("pick", help="print one strategy pick record")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--trial", type=int, required=True)
    p.set_defaults(func=_cmd_pick)

    p = sub.add_parser("eff", help="with/without-UAV communication energy efficiency")
    p.add_argument("--in", dest="indir", required=True)
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_eff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
