"""Tiny-size self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Checks that:

1. ``BENCHMARK.json`` and the harness agree on every metric name and unit,
   and a result line carries each of them;
2. the percentile helper matches numpy's linear percentile;
3. the digest check rejects a perturbed result;
4. in a traced tiny simulation, layer self times plus the residual sum to
   the traced ``run()`` time, tracing leaves the result unchanged, the
   batch path's compression calls stay inside ``compression.batch``, and
   the spans form a valid Chrome trace;
5. host normalization scales by the probe rate, and segmenting a run with
   probes leaves its result unchanged;
6. service-sweep identities never repeat within a seed.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as harness  # noqa: E402
from common import (  # noqa: E402
    PROBE_LOOPS,
    REFERENCE_PROBE_RATE,
    ROOT,
    SEGMENT_ACCESSES,
    SRC,
    normalized_run_s,
    percentile,
    result_digest,
)

CHECKS = []


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    CHECKS.append(message)


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(declared == harness.END_TO_END, "end-to-end names and units match BENCHMARK.json")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(declared == harness.PER_LAYER, "per-layer names and units match BENCHMARK.json")
    check({w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS),
          "workload names match BENCHMARK.json")
    for trace, names in ((False, harness.END_TO_END), (True, harness.PER_LAYER)):
        run = harness.Run("ptmc_mix", 0, trace, 30.0)
        run.attempted = 1
        run.metrics = {name: 1.0 for name in names}
        line = harness.result_line(run)
        check(set(line) == {"correct", "attempted", "failed", "metrics"},
              f"result line keys (trace={int(trace)})")
        check({n: m["unit"] for n, m in line["metrics"].items()} == names,
              f"result line carries every metric with its unit (trace={int(trace)})")


def check_percentile() -> None:
    import numpy

    check(percentile([4, 1, 3, 2], 50) == 2.5, "median of an even sample interpolates")
    check(percentile([7], 90) == 7, "percentile of one value is that value")
    rng = random.Random(7)
    for size in (2, 3, 10, 101):
        sample = [rng.random() for _ in range(size)]
        for q in (0, 50, 90, 100):
            check(abs(percentile(sample, q) - float(numpy.percentile(sample, q))) < 1e-12,
                  f"p{q} of {size} values matches numpy")


def tiny_system():
    from repro.sim.config import quick_config
    from repro.sim.system import SimulatedSystem
    from repro.workloads.suites import get_workload

    config = quick_config(ops_per_core=300, warmup_ops=200)
    return SimulatedSystem(get_workload("mix2"), "dynamic_ptmc", config)


def check_digest_gate() -> None:
    result = tiny_system().run()
    digest = result_digest(result.metrics, result.core_cycles)
    metrics = dict(result.metrics)
    name = sorted(metrics)[0]
    metrics[name] += 1
    check(result_digest(metrics, result.core_cycles) != digest, "digest covers metrics")
    cycles = list(result.core_cycles)
    cycles[0] += 1
    check(result_digest(result.metrics, cycles) != digest, "digest covers core cycles")

    reports = iter([{"digest": digest}, {"digest": "0" * 64}])
    real_child = harness.sim_child
    harness.sim_child = lambda *args: next(reports)
    try:
        run = harness.Run("ptmc_mix", 0, False, 30.0)
        _, expected = harness.checked_sim(run, digest)
        check(run.failed == 0, "matching digest passes")
        harness.checked_sim(run, expected)
        check(run.failed == 1 and run.attempted == 2, "perturbed digest counts as a failure")
        check(not harness.result_line(run)["correct"], "a failure makes the run incorrect")
    finally:
        harness.sim_child = real_child


def check_layer_sum() -> None:
    from layers import LAYER_NAMES, LayerTracer, chrome_trace, instrument

    from repro.obs.tracing import validate_chrome_trace

    plain = tiny_system().run()
    system = tiny_system()
    tracer = LayerTracer(max_spans=1_000)
    instrument(system, tracer)
    start = time.perf_counter()
    traced = system.run()
    run_s = time.perf_counter() - start
    check(result_digest(traced.metrics, traced.core_cycles)
          == result_digest(plain.metrics, plain.core_cycles), "tracing leaves results unchanged")
    table = tracer.table()
    self_total = sum(row["self_s"] for row in table.values())
    residual = run_s - self_total
    check(all(row["self_s"] >= 0 for row in table.values()), "self times are non-negative")
    check(0 <= residual < 0.01 * run_s + 1e-3, f"residual {residual:.6f} s is small")
    root = next(s for s in tracer.spans if s[0] == "sim.loop")
    check(abs((root[2] - root[1]) - self_total) < 1e-6,
          "layer self times sum to the root span duration")
    check(table["sim.loop"]["calls"] == 1, "one root span")
    check(table["cache.access"]["calls"] == sum(c.mem_ops for c in system.cores),
          "one cache.access span per line access")
    check(tracer.memo_queries > 0, "compressor memo queries are counted")
    check(set(table) == set(LAYER_NAMES), "every layer is in the table")
    check(len(tracer.spans) == 1_001 and tracer.dropped > 0, "span buffer is capped")
    names = {span[3]: span[0] for span in tracer.spans}
    check(table["compression.batch"]["calls"] > 0
          and not any(s[0] == "compression" and names.get(s[4]) == "compression.batch"
                      for s in tracer.spans),
          "no compression span opens under compression.batch")
    payload = chrome_trace([tracer], "selftest")
    check(validate_chrome_trace(payload) == len(tracer.spans) + 1, "Chrome trace validates")


def check_normalization() -> None:
    from simchild import record_progress

    reference = PROBE_LOOPS / REFERENCE_PROBE_RATE
    check(abs(normalized_run_s([1.0, 2.0], [reference]) - 3.0) < 1e-12,
          "a run at the reference host speed keeps its time")
    check(abs(normalized_run_s([1.0, 2.0, 1.0], [2 * reference, reference]) - 3.0) < 1e-12,
          "each segment is scaled by the probes either side of it")
    plain = tiny_system().run()
    system = tiny_system()
    stamps = record_progress(system, SEGMENT_ACCESSES)
    probed = system.run()
    check(result_digest(probed.metrics, probed.core_cycles)
          == result_digest(plain.metrics, plain.core_cycles), "probing leaves results unchanged")
    check(len(stamps) == sum(c.mem_ops for c in system.cores) // SEGMENT_ACCESSES,
          "one probe per segment of line accesses")


def check_identities() -> None:
    import sweep

    for seed in (0, 1, 49, 50, 123):
        identities = [sweep.identity_for(seed, i) for i in range(600)]
        check(len(set(identities)) == len(identities), f"seed {seed}: identities distinct")


def main() -> int:
    sys.path.insert(0, str(SRC))
    for test in (check_metric_names, check_percentile, check_digest_gate,
                 check_layer_sum, check_normalization, check_identities):
        test()
    print(f"selftest: {len(CHECKS)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
