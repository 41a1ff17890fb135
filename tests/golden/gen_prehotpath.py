"""Generate the ``prehotpath_<case>.json`` golden fixtures.

Each case runs one simulation on a non-default branch of the simulator
(replacement policy, closed-page DRAM, retain-lines ablation, tiny LIT
under both overflow policies, 5-byte markers, non-default DRAM clock)
and stores its ``SimResult.to_json_dict()`` payload.  The fixtures were
captured from the code before the per-access hot path was rewritten;
``tests/test_hotpath_golden.py`` holds the current code to them bit for
bit.  Re-running this script must be a no-op on a tree that passes that
test.

    PYTHONPATH=src python tests/golden/gen_prehotpath.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import struct
from typing import Callable, Dict, Optional, Tuple

from repro.cache.cache import EvictedLine
from repro.core.base_controller import LLCView
from repro.core.lit import LITPolicy
from repro.core.ptmc import PTMCConfig, PTMCController
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.dram.timing import DDRTiming
from repro.sim.config import SimConfig, quick_config
from repro.sim.system import SimulatedSystem
from repro.types import Level
from repro.util.hashing import mix64
from repro.workloads.generators import spec_like
from repro.workloads.suites import get_workload

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

#: the pinned workload and config of the ``prepolicy_*`` fixtures
_CFG = quick_config(ops_per_core=400, warmup_ops=200)
_LIT_CFG = quick_config(ops_per_core=1000, warmup_ops=0)


def _golden():
    return spec_like("golden", seed=11)


#: case name -> (workload factory, design, config)
CASES: Dict[str, Tuple[Callable[[], object], str, SimConfig]] = {
    **{
        f"llc_{policy}": (_golden, "static_ptmc", _CFG.with_(llc_policy=policy))
        for policy in ("fifo", "random", "srrip", "pref_lru")
    },
    "closed_page_no_refresh": (
        _golden,
        "dynamic_ptmc",
        _CFG.with_(page_policy="closed", refresh=False),
    ),
    "no_ganged_eviction": (
        _golden,
        "static_ptmc",
        _CFG.with_(ptmc=PTMCConfig(ganged_eviction=False)),
    ),
    "lit1_memory_mapped": (
        lambda: get_workload("soplex06"),
        "static_ptmc",
        _LIT_CFG.with_(
            ptmc=PTMCConfig(lit_capacity=1, lit_policy=LITPolicy.MEMORY_MAPPED)
        ),
    ),
    "lit1_rekey": (
        lambda: get_workload("gcc06"),
        "static_ptmc",
        _LIT_CFG.with_(ptmc=PTMCConfig(lit_capacity=1, lit_policy=LITPolicy.REKEY)),
    ),
    "marker5": (_golden, "static_ptmc", _CFG.with_(ptmc=PTMCConfig(marker_size=5))),
    "cpu_2ghz": (
        _golden,
        "dynamic_ptmc",
        _CFG.with_(timing=DDRTiming(cpu_ghz=2.0)),
    ),
}


class _DictLLC(LLCView):
    """A dict-backed LLC view for the controller-level scenarios."""

    def __init__(self) -> None:
        self.lines: Dict[int, EvictedLine] = {}

    def add(self, addr: int, data: bytes, dirty: bool = False,
            level: Level = Level.UNCOMPRESSED) -> None:
        self.lines[addr] = EvictedLine(addr, data, dirty, level, 0)

    def probe(self, addr: int) -> Optional[EvictedLine]:
        return self.lines.get(addr)

    def force_evict(self, addr: int) -> Optional[EvictedLine]:
        return self.lines.pop(addr, None)

    def is_sampled_set(self, addr: int) -> bool:
        return False


def _small_ints(seed: int) -> bytes:
    """A line FPC packs four to a slot (12 zero words + 4 tiny ints)."""
    tail = [(mix64(seed + i) >> 8) % 15 - 7 for i in range(4)]
    return struct.pack("<16i", *([0] * 12 + tail))


def _noise(seed: int) -> bytes:
    """Incompressible keyed noise."""
    return b"".join(mix64(seed * 8 + i).to_bytes(8, "little") for i in range(8))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _lit_scenario(policy: LITPolicy) -> dict:
    """Drive one PTMC controller through compaction, marker collisions and
    LIT overflow (a rekey sweep under REKEY, bitmap spills under
    MEMORY_MAPPED), then read every line back and break a quad group."""
    memory = PhysicalMemory(1 << 16)
    dram = DRAMSystem()
    ptmc = PTMCController(
        memory, dram, config=PTMCConfig(lit_capacity=1, lit_policy=policy)
    )
    now = 0
    llc = _DictLLC()
    # a 4:1 group and a 2:1 pair formed at eviction time
    for addr in (1, 2, 3):
        llc.add(addr, _small_ints(addr))
    ptmc.handle_eviction(EvictedLine(0, _small_ints(0), True, Level.UNCOMPRESSED, 0),
                         now, 0, llc)
    llc.add(9, _small_ints(9))
    llc.add(10, _noise(10))
    ptmc.handle_eviction(EvictedLine(8, _small_ints(8), True, Level.UNCOMPRESSED, 0),
                         now, 0, llc)
    # uncompressed stores whose tails equal their slot's live markers
    for step, addr in enumerate((40, 44, 48, 52)):
        now += 500
        level = Level.PAIR if step % 2 == 0 else Level.QUAD
        data = _noise(addr)[:60] + ptmc.markers.marker(addr, level)
        ptmc.handle_eviction(EvictedLine(addr, data, True, Level.UNCOMPRESSED, 0),
                             now, 0, _DictLLC())
    reads = []
    resident = _DictLLC()
    for addr in (0, 1, 2, 3, 8, 9, 10, 11, 40, 44, 48, 52):
        now += 200
        result = ptmc.read_line(addr, now, 0, _DictLLC())
        reads.append([addr, int(result.level), result.completion, result.accesses,
                      result.mispredicted, _digest(result.data),
                      sorted(result.extra_lines)])
        resident.add(addr, result.data, level=result.level)
    # an incompressible store into the quad gangs its slot-mates out
    now += 200
    del resident.lines[2]
    write = ptmc.handle_eviction(
        EvictedLine(2, _noise(2), True, Level.QUAD, 0), now, 0, resident
    )
    stats = dram.stats
    return {
        "reads": reads,
        "ganged": write.ganged,
        "writes": [write.writes, write.invalidates, write.clean_writebacks,
                   int(write.level)],
        "dram": {
            "accesses_by_category": {
                c.value: n for c, n in sorted(
                    stats.accesses_by_category.items(), key=lambda kv: kv[0].value
                )
            },
            "row_hits": stats.row_hits,
            "row_misses": stats.row_misses,
            "busy_cycles": stats.busy_cycles,
            "refresh_stalls": stats.refresh_stalls,
        },
        "controller": {
            "rekeys": ptmc.rekeys,
            "generation": ptmc.markers.generation,
            "inversions": ptmc.inversions,
            "invalidate_writes": ptmc.invalidate_writes,
            "clean_writebacks": ptmc.clean_writebacks,
            "lit_entries": sorted(ptmc.lit.entries()),
            "lit_spill_lookups": ptmc.lit.spill_lookups,
            "llp": [ptmc.llp.predictions, ptmc.llp.mispredictions],
        },
        "memory": {
            str(loc): _digest(raw)
            for loc, raw in sorted(memory.resident_lines().items())
        },
    }


#: controller-level scenarios: case name -> policy
SCENARIOS = {
    "scenario_lit1_rekey": LITPolicy.REKEY,
    "scenario_lit1_memory_mapped": LITPolicy.MEMORY_MAPPED,
}


def run_case(name: str) -> dict:
    """The case's result as a plain-JSON payload."""
    if name in SCENARIOS:
        return _lit_scenario(SCENARIOS[name])
    make_workload, design, config = CASES[name]
    return SimulatedSystem(make_workload(), design, config).run().to_json_dict()


def fixture_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"prehotpath_{name}.json"


def main() -> None:
    for name in (*CASES, *SCENARIOS):
        path = fixture_path(name)
        path.write_text(json.dumps(run_case(name), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
