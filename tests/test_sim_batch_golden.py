"""Golden test: batch-driven simulation is bitwise-identical to scalar.

``SimConfig.batch_chunk`` switches the trace feed between the scalar
per-record reference (``0``) and the chunked path that precomputes
compressed sizes with the vectorized batch kernels.  The whole point of
the batch layer is that this switch is unobservable — every metric of
every design must match exactly, not approximately.
"""

import pytest

from repro.sim.config import quick_config
from repro.sim.system import DESIGNS, SimulatedSystem
from repro.workloads.generators import spec_like

CFG = quick_config(ops_per_core=400, warmup_ops=200)
WORKLOAD = spec_like("golden", seed=11)


def simulate_at_chunk(design, batch_chunk, workload=WORKLOAD, cfg=CFG):
    config = cfg.with_(batch_chunk=batch_chunk)
    return SimulatedSystem(workload, design, config).run()


@pytest.mark.parametrize("design", DESIGNS)
def test_batch_and_scalar_results_identical(design):
    scalar = simulate_at_chunk(design, batch_chunk=0)
    batched = simulate_at_chunk(design, batch_chunk=128)
    assert batched == scalar  # full dataclass equality: exact metrics


def test_chunk_size_does_not_matter():
    reference = simulate_at_chunk("static_ptmc", batch_chunk=0)
    for chunk in (1, 7, 64, 4096):
        assert simulate_at_chunk("static_ptmc", batch_chunk=chunk) == reference


def test_batch_front_end_active_only_for_compressing_designs():
    assert SimulatedSystem(WORKLOAD, "uncompressed", CFG).batch is None
    assert SimulatedSystem(WORKLOAD, "static_ptmc", CFG).batch is not None
    scalar_cfg = CFG.with_(batch_chunk=0)
    assert SimulatedSystem(WORKLOAD, "static_ptmc", scalar_cfg).batch is None


def test_irregular_workload_also_identical():
    from repro.workloads.generators import graph_like

    workload = graph_like("golden_gap").with_seed(23)
    scalar = simulate_at_chunk("dynamic_ptmc", 0, workload=workload)
    batched = simulate_at_chunk("dynamic_ptmc", 256, workload=workload)
    assert batched == scalar
