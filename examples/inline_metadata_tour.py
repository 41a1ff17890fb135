#!/usr/bin/env python
"""A guided tour of PTMC's inline-metadata machinery (paper §IV).

Drives the controller API directly — no simulator — to show each
mechanism doing its job:

1. compaction of a compressible group into one slot ending in a marker;
2. a read of a co-located line, verified by the marker;
3. an LLP misprediction and its recovery;
4. a marker collision handled by line inversion + the LIT;
5. an LIT overflow triggering a rekey sweep that re-encodes memory.

Usage::

    python examples/inline_metadata_tour.py
"""

import struct

from repro.cache.cache import EvictedLine
from repro.core.base_controller import NullLLCView
from repro.core.lit import LITPolicy
from repro.core.ptmc import PTMCConfig, PTMCController
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.types import Level


class TinyLLC(NullLLCView):
    """A minimal LLC view holding explicit lines (for the demo); it logs
    the lines ganged eviction takes out of it."""

    def __init__(self):
        self.lines = {}
        self.ganged = []

    def add(self, addr, data, dirty=True):
        self.lines[addr] = EvictedLine(addr, data, dirty, Level.UNCOMPRESSED, 0)

    def probe(self, addr):
        return self.lines.get(addr)

    def force_evict(self, addr):
        line = self.lines.pop(addr, None)
        if line is not None:
            self.ganged.append(addr)
        return line


def sparse_line(values):
    """A 64-byte line of mostly-zero 32-bit ints (very compressible)."""
    words = [0] * (16 - len(values)) + list(values)
    return struct.pack("<16i", *words)


def main() -> None:
    memory = PhysicalMemory(1 << 16)
    dram = DRAMSystem()
    ptmc = PTMCController(
        memory, dram, config=PTMCConfig(lit_capacity=2, lit_policy=LITPolicy.REKEY)
    )
    null = NullLLCView()

    print("=== 1. Compaction at eviction =========================")
    lines = [sparse_line([i + 1]) for i in range(4)]
    llc = TinyLLC()
    for i in range(1, 4):
        llc.add(8 + i, lines[i])
    ptmc.handle_eviction(EvictedLine(8, lines[0], True, Level.UNCOMPRESSED, 0), 0, 0, llc)
    level = ptmc.markers.classify(8, memory.read(8)).level
    print(f"evicting line 8 with lines 9-11 resident -> level {level.name}")
    print(f"ganged eviction pulled out: {llc.ganged}")
    slot = memory.read(8)
    print(f"slot 8 tail (the 4:1 marker): {slot[-4:].hex()}")
    print(f"marker expected for slot 8 : {ptmc.markers.marker(8, Level.QUAD).hex()}")
    print(f"home slots 9-11 now hold Marker-IL: "
          f"{[ptmc.markers.classify(a, memory.read(a)).kind.value for a in (9, 10, 11)]}")

    print("\n=== 2. Reading a co-located line ======================")
    read = ptmc.read_line(10, 0, 0, null)
    print(f"read line 10 -> found at slot 8, level {read.level.name}, "
          f"{read.accesses} DRAM access(es)")
    print(f"free co-fetched neighbours: {sorted(read.extra_lines)}")

    print("\n=== 3. LLP misprediction and recovery =================")
    # a fresh controller state has never seen this page compressed
    fresh = PTMCController(PhysicalMemory(1 << 16), DRAMSystem())
    llc2 = TinyLLC()
    for i in range(1, 4):
        llc2.add(72 + i, lines[i])
    fresh.handle_eviction(EvictedLine(72, lines[0], True, Level.UNCOMPRESSED, 0), 0, 0, llc2)
    first = fresh.read_line(73, 0, 0, null)
    second = fresh.read_line(73, 0, 0, null)
    print(f"first read of line 73 : {first.accesses} access(es) "
          f"(mispredicted={first.mispredicted})")
    print(f"second read of line 73: {second.accesses} access(es) "
          f"(the LCT learned the page's status)")
    print(f"LLP accuracy so far: {fresh.llp.accuracy:.0%}")

    print("\n=== 4. Marker collision -> line inversion =============")
    evil = b"\x41" * 60 + ptmc.markers.marker(20, Level.PAIR)
    ptmc.handle_eviction(EvictedLine(20, evil, True, Level.UNCOMPRESSED, 0), 0, 0, null)
    print("line 20's data ends with slot 20's own 2:1 marker")
    print(f"stored form is inverted: {memory.read(20)[:4].hex()} (data was 41414141)")
    print(f"LIT now tracks line 20: {20 in ptmc.lit}")
    back = ptmc.read_line(20, 0, 0, null)
    print(f"read returns the original bytes: {back.data == evil}")

    print("\n=== 5. LIT overflow -> rekey sweep ====================")
    for addr in (24, 25, 33):
        collide = b"\x42" * 60 + ptmc.markers.marker(addr, Level.PAIR)
        ptmc.handle_eviction(EvictedLine(addr, collide, True, Level.UNCOMPRESSED, 0), 0, 0, null)
    print(f"after forcing collisions beyond the 2-entry LIT: rekeys={ptmc.rekeys}")
    print(f"marker generation is now {ptmc.markers.generation}; memory was re-encoded")
    survived = ptmc.read_line(8, 0, 0, null)
    print(f"the old quad at slot 8 still decodes correctly: "
          f"{survived.level.name}, data intact={survived.data == lines[0]}")
    print(f"\ntotal on-chip storage: {ptmc.total_storage_bytes():.0f} bytes "
          f"(paper Table III: < 300 bytes)")


if __name__ == "__main__":
    main()
