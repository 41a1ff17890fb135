"""Ablation: the shared L3's replacement policy (extension).

The paper evaluates PTMC under one LRU L3 (Table I).  This study re-runs
the memory-intensive roster under every registered L3 policy, at a
length of its own, and measures each policy's speedups over the
uncompressed baseline run under the same policy, so a policy cannot look
good merely by hurting its own baseline.  PTMC's gain should survive
every policy: it is not an LRU artifact.  Policies are ranked on
Dynamic-PTMC's geomean; the prefetch-retention and eviction columns
total the policy's runs of all three designs.
"""

from benchmarks.conftest import run_figure, save_results, speedup
from repro.analysis import banner, format_table
from repro.cache.replacement import POLICIES
from repro.sim.config import bench_config
from repro.sim.results import geometric_mean
from repro.workloads import MEMORY_INTENSIVE

PTMC_DESIGNS = ("static_ptmc", "dynamic_ptmc")
DESIGNS = (*PTMC_DESIGNS, "uncompressed")


def _study():
    configs = {
        policy: bench_config(ops_per_core=2000, warmup_ops=3000, llc_policy=policy)
        for policy in sorted(POLICIES)
    }
    runs = run_figure(
        (workload, design, cfg)
        for cfg in configs.values()
        for workload in MEMORY_INTENSIVE
        for design in DESIGNS
    )
    rows = {}
    for policy, cfg in configs.items():
        row = {
            f"{design}_geomean": geometric_mean(
                speedup(runs, w.name, design, cfg) for w in MEMORY_INTENSIVE
            )
            for design in PTMC_DESIGNS
        }
        metrics = [runs[w.name, d, cfg].metrics for w in MEMORY_INTENSIVE for d in DESIGNS]
        useful = sum(int(m["llc.useful_prefetches"]) for m in metrics)
        total = useful + sum(int(m["llc.wasted_prefetches"]) for m in metrics)
        row["prefetch_retention"] = useful / total if total else 0.0
        row["policy_evictions"] = sum(int(m["llc.policy_evictions"]) for m in metrics)
        rows[policy] = row
    ranked = sorted(rows, key=lambda policy: -rows[policy]["dynamic_ptmc_geomean"])
    for rank, policy in enumerate(ranked, start=1):
        rows[policy]["rank"] = rank
    return rows


def test_ablation_policy_search():
    rows = _study()
    print(banner("Ablation — LLC replacement policy (geomean speedup, memory-intensive)"))
    print(
        format_table(
            ["rank", "policy", "static_ptmc", "dynamic_ptmc", "prefetch retention",
             "policy evictions"],
            [
                [r["rank"], policy, f"{r['static_ptmc_geomean']:.3f}",
                 f"{r['dynamic_ptmc_geomean']:.3f}", f"{r['prefetch_retention']:.1%}",
                 r["policy_evictions"]]
                for policy, r in sorted(rows.items(), key=lambda item: item[1]["rank"])
            ],
        )
    )
    save_results("abl_policy_search", rows)
    for policy, r in rows.items():
        assert r["static_ptmc_geomean"] > 1.0, f"{policy}: Static-PTMC must still gain"
        assert r["dynamic_ptmc_geomean"] > 1.0, f"{policy}: Dynamic-PTMC must still gain"
