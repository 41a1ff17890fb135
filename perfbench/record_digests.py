"""Record the expected result digests the benchmark checks against.

    python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``:

- ``ptmc_mix`` / ``gap_uncompressed``: ``{seed: digest}`` for seeds 0-15 of the full
  ``bench_config()`` simulation, each run in a fresh interpreter by the
  benchmark's own simulation child;
- ``service_sweep``: ``{"<workload>/<ops_per_core>": digest}`` for every job
  identity a sweep can submit (:func:`sweep.identity_for`), from a direct
  uncached ``simulate()``.

Re-record only when a change is *meant* to alter simulated results; a
speed-only change must leave every digest as it is.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, DIGESTS_PATH, OUT_DIR, SIM_WORKLOADS, SRC, child_env, load_digests  # noqa: E402

#: Benchmark seeds the recorded simulation digests cover.
SIM_SEEDS = range(0, 16)
#: ``ops_per_core`` values the recorded service identities cover.
SERVICE_OPS = range(200, 280)


def main() -> int:
    sys.path.insert(0, str(SRC))
    digests = load_digests()
    for workload in SIM_WORKLOADS:
        table = digests.setdefault(workload, {})
        for seed in SIM_SEEDS:
            out = subprocess.run(
                [sys.executable, str(BENCH_DIR / "simchild.py"),
                 "--workload", workload, "--seed", str(seed)],
                env=child_env(OUT_DIR), capture_output=True, text=True, check=True,
            )
            table[str(seed)] = json.loads(out.stdout.splitlines()[-1])["digest"]
            print(f"{workload} seed {seed}: {table[str(seed)]}", flush=True)
    from common import result_digest
    from sweep import JOB_DESIGN, JOB_WARMUP, JOB_WORKLOADS, service_key

    from repro.sim import runner
    from repro.sim.config import bench_config

    table = digests.setdefault("service_sweep", {})
    for workload in JOB_WORKLOADS:
        for ops in SERVICE_OPS:
            result = runner.simulate(
                workload, JOB_DESIGN,
                bench_config(ops_per_core=ops, warmup_ops=JOB_WARMUP),
                use_cache=False,
            )
            table[service_key((workload, ops))] = result_digest(
                result.metrics, result.core_cycles
            )
        print(f"service identities of {workload} recorded", flush=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
