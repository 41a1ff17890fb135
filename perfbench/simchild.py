"""One simulation in a fresh interpreter; prints one JSON line on stdout.

Every simulation the benchmark times runs in its own interpreter, so the
process-wide memos (``runner._memo``, the hybrid compressor's shared size
and payload caches) start empty and a timing never depends on what ran
before it.  The child never touches the runner or the disk cache: it
builds a ``SimulatedSystem`` and calls ``run()`` directly.

An untraced ``run()`` is timed in segments of ``SEGMENT_ACCESSES`` line
accesses with a host-speed probe after each, so the parent can scale the
run to the reference host speed (``common.normalized_run_s``); set-up is
probed before and after in the same way.

    PYTHONPATH=src python3 perfbench/simchild.py --workload ptmc_mix --seed 0
    ... --build-only            # set-up timing only
    ... --trace-out FILE.json   # outside-in layer spans (perfbench/layers.py)
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Tuple  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    SEED_STRIDE,
    SEGMENT_ACCESSES,
    SIM_WORKLOADS,
    host_factor,
    probe_seconds,
    result_digest,
)


def seeded_workload(name: str, seed: int):
    """The roster workload ``name`` re-seeded for benchmark seed ``seed``."""
    from repro.workloads.suites import get_workload

    workload = get_workload(name)
    if seed == 0:
        return workload
    return dataclasses.replace(workload, seed=workload.seed + seed * SEED_STRIDE)


def record_progress(system, every: int) -> List[Tuple[float, float]]:
    """Probe the host after every ``every`` line accesses of ``run()``.

    Wraps ``CoreModel.step`` on each core (an instance attribute, as
    ``layers.py`` does); a step that returns true simulated one access.
    Each entry is (segment end, probe end): the probe's own time is left
    out of the segments.
    """
    stamps: List[Tuple[float, float]] = []
    clock = time.perf_counter
    count = [0]

    def counting(step):
        def stepped():
            done = step()
            if done:
                count[0] += 1
                if count[0] % every == 0:
                    end = clock()
                    probe_seconds()
                    stamps.append((end, clock()))
            return done

        return stepped

    for core in system.cores:
        core.step = counting(core.step)
    return stamps


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIM_WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--build-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    # host-speed probes either side of set-up; the first one's own time is
    # taken out of the set-up time
    probe_before = probe_seconds()
    started = STARTED + probe_before
    from repro.sim.config import bench_config
    from repro.sim.system import SimulatedSystem

    imported = time.perf_counter()
    roster_name, design = SIM_WORKLOADS[args.workload]
    workload = seeded_workload(roster_name, args.seed)
    system = SimulatedSystem(workload, design, bench_config(seed=args.seed))
    built = time.perf_counter()
    setup_s = built - started
    report = {
        "import_s": imported - started,
        "build_s": built - imported,
        "setup_s": setup_s,
        "setup_norm_s": setup_s * host_factor([probe_before, probe_seconds()]),
    }
    if args.build_only:
        print(json.dumps(report))
        return

    tracer = None
    if args.trace_out:
        from layers import LayerTracer, chrome_trace, instrument

        tracer = LayerTracer()
        instrument(system, tracer)
        stamps = []
    else:
        stamps = record_progress(system, SEGMENT_ACCESSES)
    start = time.perf_counter()
    result = system.run()
    end = time.perf_counter()
    starts = [start] + [p for _, p in stamps]
    ends = [e for e, _ in stamps] + [end]
    segments_s = [b - a for a, b in zip(starts, ends)]
    run_s = sum(segments_s)
    report.update(
        run_s=run_s,
        segments_s=segments_s,
        probes_s=[p - e for e, p in stamps],
        accesses=sum(core.mem_ops for core in system.cores),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digest=result_digest(result.metrics, result.core_cycles),
        model={
            "cycles": sum(result.core_cycles),
            "llc_misses": result.l3_misses,
            "dram_accesses": result.dram.total_accesses,
        },
    )
    if tracer is not None:
        from repro.obs.tracing import validate_chrome_trace

        table = tracer.table()
        payload = chrome_trace([tracer], f"{args.workload} seed {args.seed}")
        validate_chrome_trace(payload)
        Path(args.trace_out).write_text(json.dumps(payload), encoding="utf-8")
        report.update(
            layers=table,
            residual_s=run_s - sum(row["self_s"] for row in table.values()),
            memo_queries=tracer.memo_queries,
            memo_hits=tracer.memo_hits,
            spans_kept=len(tracer.spans),
            spans_dropped=tracer.dropped,
        )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
