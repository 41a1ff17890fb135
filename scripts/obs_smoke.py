#!/usr/bin/env python
"""CI smoke test for the observability layer.

Exercises the three telemetry surfaces end to end without a network:

1. runs a traced + sampled simulation in-process and checks the
   time-series invariants (phase boundary, cumulative access counts,
   measured deltas summing to the run's window metrics),
2. re-runs uninstrumented and asserts the core payload is bitwise
   identical — observability must never perturb the simulation,
3. drives ``repro --trace-out ... timeline`` as a real subprocess and
   validates the emitted Chrome trace JSON against the trace-event
   schema (the same file Perfetto loads).

Run from the repo root: ``PYTHONPATH=src python scripts/obs_smoke.py``.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

OPS, WARMUP = 400, 200


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def traced_sampled_run():
    from repro.obs.tracing import Tracer, set_tracer, validate_chrome_trace
    from repro.sim.config import quick_config
    from repro.sim.system import SimulatedSystem
    from repro.workloads.generators import spec_like

    config = quick_config(ops_per_core=OPS, warmup_ops=WARMUP)
    workload = spec_like("obssmoke", seed=11)

    tracer = set_tracer(Tracer(process_name="obs-smoke"))
    result = SimulatedSystem(
        workload, "dynamic_ptmc", config, sample_interval=300
    ).run()
    set_tracer(None)

    series = result.timeseries
    if series is None:
        fail("sampled run produced no timeseries")
    boundary = [p for p in series.points if p.phase == "warmup"][-1]
    if boundary.accesses != config.num_cores * WARMUP:
        fail(f"warmup boundary at {boundary.accesses}, "
             f"wanted {config.num_cores * WARMUP}")
    for path in ("dram.reads", "llc.misses"):
        total = sum(series.series(path, phase="measured"))
        if total != result.metrics[path]:
            fail(f"{path}: sampled intervals sum to {total}, window metric "
                 f"is {result.metrics[path]}")
    print(f"timeseries OK: {len(series.points)} samples, boundary at "
          f"{boundary.accesses} accesses, measured intervals sum to window")

    events = validate_chrome_trace(tracer.to_chrome())
    names = {e["name"] for e in tracer.to_chrome()["traceEvents"]
             if e["ph"] != "M"}
    for wanted in ("sim.run", "sim.phase"):
        if wanted not in names:
            fail(f"trace missing span {wanted!r}")
    print(f"tracer OK: {events} valid Chrome events")

    plain = SimulatedSystem(workload, "dynamic_ptmc", config).run()
    want, got = plain.to_json_dict(), result.to_json_dict()
    if want.pop("timeseries") is not None:
        fail("uninstrumented run grew a timeseries")
    got.pop("timeseries")
    if got != want:
        fail("instrumented run perturbed the simulation payload")
    print("golden OK: instrumented payload bitwise-identical to plain run")


def timeline_cli(workdir: Path) -> None:
    from repro.obs.tracing import validate_chrome_trace

    trace_path = workdir / "trace.json"
    env = dict(os.environ, REPRO_CACHE_DIR=str(workdir / "simcache"))
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro",
            "--ops", str(OPS), "--warmup", str(WARMUP),
            "--trace-out", str(trace_path),
            "timeline", "lbm06", "dynamic_ptmc", "--interval", "300",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        fail(f"timeline CLI exited {proc.returncode}: {proc.stderr}")
    if "accesses/interval" not in proc.stdout:
        fail(f"timeline output missing sample header: {proc.stdout!r}")
    payload = json.loads(trace_path.read_text())
    events = validate_chrome_trace(payload)
    names = {e["name"] for e in payload["traceEvents"] if e["ph"] != "M"}
    for wanted in ("sim.run", "runner.execute"):
        if wanted not in names:
            fail(f"CLI trace missing span {wanted!r}")
    print(f"timeline CLI OK: sparklines rendered, {events} trace events "
          f"validated from {trace_path.name}")


def main() -> None:
    traced_sampled_run()
    timeline_cli(Path(tempfile.mkdtemp(prefix="repro-obs-smoke-")))
    print("obs smoke OK")


if __name__ == "__main__":
    main()
