"""Render EXPERIMENTS.md from the benchmark harness's saved results.

Each benchmark under ``benchmarks/`` persists its rows as JSON in
``benchmarks/results/``; this module assembles them into the
paper-vs-measured experiment index (deliverable EXPERIMENTS.md).

Usage::

    python -m repro.analysis.experiments [results_dir] [output_md]
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict

#: what the paper reports for each experiment, quoted for the comparison
PAPER_EXPECTATIONS: Dict[str, str] = {
    "fig04": "Metadata traffic is a major overhead of table-based TMC; "
    "some graph workloads need >50% extra bandwidth just for metadata.",
    "fig05": "Ideal TMC gains (avg 12.3% on SPEC) while table-based TMC "
    "degrades graphs by up to 49%.",
    "fig06": "~38% of adjacent pairs compress to 64B, ~36% to 60B: the "
    "4-byte marker reserve costs almost nothing.",
    "fig09": "The 128B LLP locates lines on the first access ~98% of the "
    "time, beating the 32KB metadata cache's hit rate.",
    "fig12": "PTMC (inline metadata + LLP) outperforms table-based TMC on "
    "every suite; graphs still lose a little under Static-PTMC.",
    "fig14": "PTMC's remaining overhead is compression's inherent cost "
    "(clean writebacks + invalidates), dominant on graphs; mispredict "
    "traffic is small.",
    "fig15": "Dynamic-PTMC: speedup up to 74%, worst-case slowdown within "
    "1%, about two-thirds of the idealized TMC's average gain.",
    "fig17": "Across 64 workloads Dynamic-PTMC is robust: no degradation "
    "anywhere, large gains on compressible bandwidth-bound workloads.",
    "fig18": "Dynamic-PTMC reduces energy by ~5% and EDP by ~10%.",
    "tab02": "Workload roster: high-MPKI (>=5) SPEC/GAP/MIX; graph "
    "footprints in the GBs dwarf most SPEC footprints.",
    "tab03": "Total PTMC storage under 300 bytes (markers 72B, LIT 64B, "
    "LLP 128B, counters 12B).",
    "tab04": "Speedup is stable across 1/2/4 channels (8.1/8.5/7.8%).",
    "tab05": "L3 hit rate rises 17.3%->23.9% on SPEC, unchanged on GAP.",
    "tab06": "Next-line prefetch loses (-5.7% SPEC, -21.1% GAP, -7.3% MIX) "
    "where Dynamic-PTMC gains or holds.",
    "abl_marker_width": "(extension) wider markers shrink the payload "
    "budget; the paper recommends 5B for very large memories.",
    "abl_llp_size": "(extension) the paper's 512-entry LCT is at the "
    "accuracy plateau.",
    "abl_ganged_eviction": "(footnote 7) retain-lines differs minimally "
    "from ganged eviction.",
    "abl_dynamic_params": "(extension) the enable/disable decision is "
    "robust to counter and sampling parameters.",
    "abl_compression_algorithm": "(§VII-A) PTMC is orthogonal to the "
    "compression algorithm.",
    "abl_dram_policy": "(extension) the gain/robustness split survives "
    "open/closed page policies and refresh on/off.",
    "abl_memzip": "(§I/§II-B) PTMC on commodity DIMMs is competitive with "
    "MemZip-style non-commodity variable-burst TMC, and more robust where "
    "metadata traffic bites.",
    "abl_policy_search": "(extension) benchmarks/test_abl_policy_search.py "
    "runs the memory-intensive roster under every LLC replacement policy at "
    "its own length (ops_per_core=2000, warmup_ops=3000): per-policy geomean "
    "weighted speedup per design (baselines re-run under the same policy), "
    "ranked on Dynamic-PTMC's; PTMC's gains should be policy-robust, not an "
    "LRU artifact.",
}

_HEADER = """# EXPERIMENTS — paper vs. measured

Generated by ``python -m repro.analysis.experiments`` from the JSON rows
the benchmark harness saves under ``benchmarks/results/``.  Regenerate
the data with ``pytest benchmarks/``.

All measurements are on the scaled benchmark system (``bench_config``,
DESIGN.md §4/4b): 8 cores, 256KB L3, synthetic SPEC/GAP-like traces.
The reproduction target is the *shape* of each result — who wins, by
roughly what factor, where the crossovers fall — not absolute numbers
from the authors' testbed.

Known deviations from the paper's numbers (causes in DESIGN.md §4b/§5):

- Speedups on compressible workloads are *larger* than the paper's:
  the scaled system is more bandwidth-bound than the authors' testbed,
  which amplifies every bandwidth effect in both directions.
- LLP accuracy averages ~90% rather than 98%: synthetic traces re-touch
  regions while groups are still transitioning between compression
  levels, which page-granularity last-status prediction cannot track.
  The ordering vs. the metadata cache (Fig. 9) is preserved.
- The ganged-eviction footnote-7 comparison shows a *larger* gap than
  "minimal": at a 256KB LLC, retain-lines pays visible read-modify-write
  traffic that an 8MB LLC amortises.
- Fig. 17's cache-friendly fillers are not flat: with an L3 half the
  size of the L2s together they are memory-bound too and gain under
  Dynamic-PTMC, so the harness's `flat >= 10` check fails (ROADMAP
  item 1).  Its rows are the failing run's.
"""


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_experiment(experiment_id: str, payload) -> str:
    lines = [f"## {experiment_id}", ""]
    expectation = PAPER_EXPECTATIONS.get(experiment_id)
    if expectation:
        lines.append(f"**Paper:** {expectation}")
        lines.append("")
    lines.append("**Measured:**")
    lines.append("")
    if isinstance(payload, dict) and payload and all(
        isinstance(v, dict) for v in payload.values()
    ):
        columns = sorted({k for row in payload.values() for k in row})
        lines.append("| key | " + " | ".join(columns) + " |")
        lines.append("|---|" + "---|" * len(columns))
        for key, row in payload.items():
            cells = [_fmt(row.get(c, "")) for c in columns]
            lines.append(f"| {key} | " + " | ".join(cells) + " |")
    elif isinstance(payload, dict):
        lines.append("| key | value |")
        lines.append("|---|---|")
        for key, value in payload.items():
            lines.append(f"| {key} | {_fmt(value)} |")
    else:
        lines.append(f"```\n{json.dumps(payload, indent=1)}\n```")
    lines.append("")
    return "\n".join(lines)


def render(results_dir: pathlib.Path) -> str:
    parts = [_HEADER]
    ordering = list(PAPER_EXPECTATIONS)
    files = {p.stem: p for p in sorted(results_dir.glob("*.json"))}
    for experiment_id in ordering + sorted(set(files) - set(ordering)):
        path = files.get(experiment_id)
        if path is None or experiment_id.startswith("_"):
            continue
        payload = json.loads(path.read_text())
        parts.append(render_experiment(experiment_id, payload))
    return "\n".join(parts)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    results_dir = pathlib.Path(argv[0]) if argv else pathlib.Path("benchmarks/results")
    output = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path("EXPERIMENTS.md")
    if not results_dir.is_dir():
        print(f"no results directory at {results_dir}; run the benchmarks first")
        return 1
    output.write_text(render(results_dir))
    print(f"wrote {output} from {len(list(results_dir.glob('*.json')))} experiments")
    return 0


if __name__ == "__main__":
    sys.exit(main())
