#!/usr/bin/env python
"""Automated LLC replacement-policy search over a policy × design × workload grid.

Fans every (policy, design, workload) combination through the existing
parallel sweep engine (:func:`repro.sim.parallel.sweep_with_report`), so
runs execute across worker processes, write through the shared
content-addressed disk cache, and re-runs are served from disk without
simulating.  Each policy gets its own ``SimConfig`` (the serialisable
``llc_policy`` knob), and speedups are computed against the uncompressed
baseline *under the same policy*, so a policy cannot look good merely by
hurting its own baseline.

Output: a ranked per-policy table (geomean weighted speedup per design,
plus prefetch-retention telemetry pulled from the ``llc.*`` counters),
printed, saved as ``benchmarks/results/abl_policy_search.json`` in the
shape the EXPERIMENTS.md renderer consumes, and — with ``--render`` —
EXPERIMENTS.md is regenerated to include the study.

Examples::

    python scripts/policy_search.py --jobs 4
    python scripts/policy_search.py --suite gap --designs dynamic_ptmc --jobs 8
    python scripts/policy_search.py --ops 400 --warmup 200 --render
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.cache.replacement import POLICIES  # noqa: E402
from repro.sim import runner  # noqa: E402
from repro.sim.config import bench_config  # noqa: E402
from repro.sim.parallel import sweep_with_report  # noqa: E402
from repro.sim.results import geometric_mean  # noqa: E402
from repro.sim.system import DESIGNS  # noqa: E402
from repro.workloads import MEMORY_INTENSIVE, SUITE_BY_NAME  # noqa: E402

RESULTS_PATH = pathlib.Path(__file__).resolve().parents[1] / (
    "benchmarks/results/abl_policy_search.json"
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        default="memory_intensive",
        choices=sorted(SUITE_BY_NAME),
        help="workload family to search over (default: %(default)s)",
    )
    parser.add_argument(
        "--policies",
        default=",".join(sorted(POLICIES)),
        help="comma-separated policy list (default: all registered)",
    )
    parser.add_argument(
        "--designs",
        default="static_ptmc,dynamic_ptmc",
        help="comma-separated design list (default: %(default)s)",
    )
    parser.add_argument("--ops", type=int, default=2000, help="measured ops per core")
    parser.add_argument("--warmup", type=int, default=3000, help="warmup ops per core")
    parser.add_argument(
        "--jobs", "-j", type=int, default=None, help="worker processes per sweep"
    )
    parser.add_argument(
        "--cache-dir", default=None, help="disk-cache override (default: standard)"
    )
    parser.add_argument(
        "--no-disk-cache", action="store_true", help="run without the persistent cache"
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=RESULTS_PATH,
        help="where to save the study rows (default: %(default)s)",
    )
    parser.add_argument(
        "--render",
        action="store_true",
        help="regenerate EXPERIMENTS.md from benchmarks/results after saving",
    )
    return parser.parse_args(argv)


def _csv(raw: str, universe, kind: str) -> list:
    names = [item.strip() for item in raw.split(",") if item.strip()]
    unknown = sorted(set(names) - set(universe))
    if unknown:
        raise SystemExit(f"unknown {kind}: {', '.join(unknown)}; choose from {sorted(universe)}")
    return names


def search(args: argparse.Namespace) -> dict:
    """Run the grid; returns ``{policy: {column: value}}`` rows, ranked."""
    policies = _csv(args.policies, POLICIES, "policies")
    designs = _csv(args.designs, DESIGNS, "designs")
    workloads = SUITE_BY_NAME[args.suite]
    rows = {}
    for policy in policies:
        config = bench_config(
            ops_per_core=args.ops, warmup_ops=args.warmup, llc_policy=policy
        )
        matrix, report = sweep_with_report(workloads, designs, config, jobs=args.jobs)
        row = {
            f"{design}_geomean": geometric_mean(
                matrix[w.name][design] for w in workloads
            )
            for design in designs
        }
        # prefetch-retention telemetry across the policy's measured runs
        useful = wasted = evictions = 0
        for result in report.results:
            useful += int(result.metrics.get("llc.useful_prefetches", 0))
            wasted += int(result.metrics.get("llc.wasted_prefetches", 0))
            evictions += int(result.metrics.get("llc.policy_evictions", 0))
        total = useful + wasted
        row["prefetch_retention"] = useful / total if total else 0.0
        row["policy_evictions"] = evictions
        counts = report.counts()
        print(
            f"  {policy:<10} {counts['jobs']} runs "
            f"({counts['executed']} executed, "
            f"{counts['disk_hits']} cached, "
            f"{report.wall_seconds:.1f}s)"
        )
        rows[policy] = row
    rank_on = f"{designs[-1]}_geomean"
    ranked = dict(sorted(rows.items(), key=lambda kv: -kv[1][rank_on]))
    for rank, (policy, row) in enumerate(ranked.items(), start=1):
        row["rank"] = rank
    return ranked


def render_table(rows: dict) -> str:
    columns = [c for c in next(iter(rows.values()))]
    lines = ["| policy | " + " | ".join(columns) + " |"]
    lines.append("|---|" + "---|" * len(columns))
    for policy, row in rows.items():
        cells = [
            f"{row[c]:.3f}" if isinstance(row[c], float) else str(row[c])
            for c in columns
        ]
        lines.append(f"| {policy} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.no_disk_cache:
        runner.configure_disk_cache(args.cache_dir)
    print(
        f"policy search: {args.policies} x {args.designs} x suite "
        f"'{args.suite}' (ops={args.ops}, warmup={args.warmup})"
    )
    rows = search(args)
    print()
    print(render_table(rows))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(rows, indent=1, sort_keys=False) + "\n")
    print(f"\nsaved study rows to {args.out}")
    if args.render:
        from repro.analysis import experiments

        experiments.main([str(args.out.parent)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
