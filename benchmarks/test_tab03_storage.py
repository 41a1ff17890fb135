"""Table III: storage overhead of the PTMC structures (< 300 bytes)."""

from benchmarks.conftest import save_results
from repro.analysis import banner, format_table
from repro.core.policy import SamplingPolicy
from repro.core.ptmc import PTMCController
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem


def _tab03():
    controller = PTMCController(
        PhysicalMemory(1 << 28),
        DRAMSystem(),
        policy=SamplingPolicy(counter_bits=12, num_cores=8, per_core=True),
    )
    return {name: bits // 8 for name, bits in controller.storage_bits().items()}


def test_tab03_storage_overhead():
    table = _tab03()
    total = sum(table.values())
    print(banner("Table III — storage overhead of PTMC structures"))
    rows = [[name, f"{size} B"] for name, size in table.items()]
    rows.append(["total", f"{total} B"])
    print(format_table(["structure", "storage"], rows))
    save_results("tab03", {**table, "total": total})
    # the paper's budget, structure by structure
    assert table["marker_2to1"] == 4
    assert table["marker_4to1"] == 4
    assert table["marker_invalid"] == 64
    assert table["line_inversion_table"] == 64
    assert table["line_location_predictor"] == 128
    assert total < 300
