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


def test_uncompressed_renders_no_line():
    """The uncompressed baseline never reads the bytes it moves: a store
    replaces a first-touch line, a clean eviction drops it, and a store's
    own contents go to memory and back deferred.  So a run renders no
    line at all, though it stores and writes back many."""
    system = SimulatedSystem(get_workload("lbm06"), "uncompressed", quick_config())
    asked = []
    for generator in system.generators:
        render = generator.data.line

        def counted(vline, version=0, render=render):
            asked.append((vline, version))
            return render(vline, version)

        generator.data.line = counted
    system.run()
    assert sum(sum(g._versions.values()) for g in system.generators) > 0
    assert system.dram.stats.writes > 0 and len(system.memory) > 0
    assert asked == []


@pytest.mark.parametrize(
    "design", ["uncompressed", "static_ptmc", "dynamic_ptmc", "tmc_table", "memzip"]
)
def test_memory_stores_only_written_slots(design):
    """These designs read a never-written slot deferred, so memory ends a
    run holding exactly the slots the controller wrote: no first-touch
    line is rendered into it, and a PTMC rekey sweep would re-encode
    written slots only."""
    system = SimulatedSystem(get_workload("lbm06"), design, CFG)
    memory = system.memory
    write = memory.write
    written = set()

    def logged(line_addr, data):
        written.add(line_addr)
        write(line_addr, data)

    memory.write = logged
    system.run()
    assert written
    assert set(memory.resident_lines()) == written
