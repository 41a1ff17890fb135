"""Helpers for ablation benchmarks that need customized controllers."""

from repro.sim.results import weighted_speedup
from repro.sim.runner import simulate
from repro.sim.system import SimulatedSystem
from repro.workloads import get_workload


def run_custom(workload_name, design, config, mutate=None):
    """Simulate ``design``, optionally with a post-construction tweak.

    An untweaked run goes through the runner, so the result cache stores
    and serves it like any other.  ``mutate(system)`` may replace the
    controller's compressor, config or policy before the run; the cache
    key cannot see that, so a tweaked run always executes.  The
    uncompressed baseline comes from the shared runner cache.
    """
    workload = get_workload(workload_name)
    if mutate is None:
        result = simulate(workload, design, config)
    else:
        system = SimulatedSystem(workload, design, config)
        mutate(system)
        result = system.run()
    baseline = simulate(workload, "uncompressed", config)
    return result, weighted_speedup(result, baseline)
