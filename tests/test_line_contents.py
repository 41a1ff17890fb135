"""What the lines in the LLC hold, checked against the workload itself.

The integrity tests in ``test_integration.py`` read back only the lines a
program wrote, and only after a flush.  These check the ``data`` of
every line resident in the L3 -- first-touch lines included, whichever
design filled them -- during a run and at its end: each physical line
maps back through ``PageTable.reverse`` to the virtual line whose value
right now (``current_data``) it must hold.
"""

import pytest

from repro.sim.config import quick_config
from repro.sim.system import DESIGNS, SimulatedSystem
from repro.vm.page_table import LINES_PER_PAGE
from repro.workloads import get_workload

# Scalar replay: with batch pre-decoding a generator's store counts run
# up to a chunk ahead of the records replayed, so ``current_data`` would
# be ahead of the caches between chunk boundaries.
CFG = quick_config(ops_per_core=1200, warmup_ops=0, batch_chunk=0)
CHECK_EVERY = 300


def current_contents(system, paddr):
    """The value the virtual line behind physical line ``paddr`` holds now."""
    frame, offset = divmod(paddr, LINES_PER_PAGE)
    core_id, vpage = system.page_table.reverse(frame)
    return system.generators[core_id].current_data(vpage * LINES_PER_PAGE + offset)


def check_l3(system):
    """Assert every L3 line holds its current value; return how many."""
    checked = 0
    for line in system.hierarchy.l3.resident():
        assert line.data == current_contents(system, line.addr), (
            f"L3 line {line.addr:#x} holds stale contents under {system.design}"
        )
        checked += 1
    return checked


@pytest.mark.parametrize("design", DESIGNS)
def test_llc_lines_hold_current_contents(design):
    system = SimulatedSystem(get_workload("lbm06"), design, CFG)
    hierarchy = system.hierarchy
    access = hierarchy.access
    checks = []

    def checked(core_id, addr, is_write, now, write_data=None):
        outcome = access(core_id, addr, is_write, now, write_data)
        if hierarchy.demand_accesses % CHECK_EVERY == 0:
            checks.append(check_l3(system))
        return outcome

    hierarchy.access = checked
    system.run()
    checks.append(check_l3(system))
    assert len(checks) > 2 and all(checks)


def test_uncompressed_renders_only_stores():
    """The uncompressed baseline never reads the bytes of a first-touch
    line (a store replaces them, a clean eviction drops them), so a run
    renders each generator's stores and nothing else."""
    system = SimulatedSystem(get_workload("lbm06"), "uncompressed", quick_config())
    asked = [[] for _ in system.generators]
    for generator, versions in zip(system.generators, asked):
        render = generator.data.line

        def counted(vline, version=0, render=render, versions=versions):
            versions.append(version)
            return render(vline, version)

        generator.data.line = counted
    system.run()
    for generator, versions in zip(system.generators, asked):
        assert len(versions) == sum(generator._versions.values()) > 0
        assert 0 not in versions
