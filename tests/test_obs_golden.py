"""Golden invariant: observability never perturbs the simulation.

For every design, a fully instrumented run — interval sampling on, a
tracer installed, counter mirroring active — must produce a
``SimResult`` whose entire wire payload (cycles, DRAM traffic, every
telemetry path) is bitwise-identical to the uninstrumented run's, the
only difference being the purely additive ``timeseries`` member.
"""

import pytest

from repro.obs.tracing import Tracer, set_tracer
from repro.sim.config import quick_config
from repro.sim.system import DESIGNS, SimulatedSystem
from repro.workloads.generators import spec_like

CFG = quick_config(ops_per_core=400, warmup_ops=200)
WORKLOAD = spec_like("obsgolden", seed=23)


@pytest.fixture(autouse=True)
def no_global_tracer():
    set_tracer(None)
    yield
    set_tracer(None)


@pytest.mark.parametrize("design", DESIGNS)
def test_instrumented_run_is_bitwise_identical(design):
    plain = SimulatedSystem(WORKLOAD, design, CFG).run()

    tracer = set_tracer(Tracer())
    instrumented = SimulatedSystem(WORKLOAD, design, CFG, sample_interval=300).run()
    set_tracer(None)

    want = plain.to_json_dict()
    got = instrumented.to_json_dict()
    assert want.pop("timeseries") is None
    assert got.pop("timeseries") is not None  # sampling actually happened
    assert got == want
    assert len(tracer) > 0  # tracing actually happened
