"""DDR4 timing and geometry parameters (paper Table I).

The paper's system runs 8 cores at 3.2GHz over a DDR4-1600 memory system
(800MHz bus) with 2 channels and 2 ranks per channel.  All timing here is
expressed in CPU cycles: one bus clock is 4 CPU cycles, and a 64-byte
burst (BL8, double data rate) occupies the data bus for 4 bus clocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.schema import Checked


def ns_to_cycles(ns: float, cpu_ghz: float) -> int:
    """Convert nanoseconds to whole CPU cycles, rounding up."""
    cycles = ns * cpu_ghz
    return int(cycles) + (0 if cycles == int(cycles) else 1)


@dataclass(frozen=True)
class DDRTiming(Checked):
    """DRAM timing in CPU cycles, derived from DDR4-1600-style values."""

    cpu_ghz: float = 3.2
    bus_mhz: float = 800.0
    tcas_ns: float = 13.75
    trcd_ns: float = 13.75
    trp_ns: float = 13.75
    tras_ns: float = 35.0
    trefi_ns: float = 7_800.0
    trfc_ns: float = 350.0

    @property
    def cycles_per_bus_clock(self) -> int:
        return round(self.cpu_ghz * 1000.0 / self.bus_mhz)

    @property
    def t_cas(self) -> int:
        """CAS latency: column command to first data beat."""
        return ns_to_cycles(self.tcas_ns, self.cpu_ghz)

    @property
    def t_rcd(self) -> int:
        """Activate to column command."""
        return ns_to_cycles(self.trcd_ns, self.cpu_ghz)

    @property
    def t_rp(self) -> int:
        """Precharge latency."""
        return ns_to_cycles(self.trp_ns, self.cpu_ghz)

    @property
    def t_ras(self) -> int:
        """Minimum activate-to-precharge interval."""
        return ns_to_cycles(self.tras_ns, self.cpu_ghz)

    @property
    def t_burst(self) -> int:
        """Data-bus occupancy of one 64-byte transfer (BL8 @ DDR)."""
        return 4 * self.cycles_per_bus_clock

    @property
    def t_refi(self) -> int:
        """Average refresh interval (one REF command per tREFI)."""
        return ns_to_cycles(self.trefi_ns, self.cpu_ghz)

    @property
    def t_rfc(self) -> int:
        """Refresh cycle time: the rank is unavailable for this long."""
        return ns_to_cycles(self.trfc_ns, self.cpu_ghz)


@dataclass(frozen=True)
class DRAMGeometry(Checked):
    """Channel/rank/bank organisation and row-buffer reach."""

    channels: int = 2
    ranks_per_channel: int = 2
    banks_per_rank: int = 16
    lines_per_row: int = 128  # 8KB row buffer of 64-byte lines
    channel_interleave_lines: int = 4
    """Channel stripe width in lines.  256B (one 4-line compression group)
    keeps sequential streams spread over channels *and* keeps the TMC
    address mapping channel-neutral: with per-line interleave, every
    group-base slot would land on channel 0 and compacted reads would
    halve the usable channel bandwidth — an artifact, not a property of
    the design."""

    @property
    def banks_per_channel(self) -> int:
        return self.ranks_per_channel * self.banks_per_rank

    def decode(self, line_addr: int) -> "DecodedAddress":
        """Map a physical line address onto (channel, bank, row, column).

        Consecutive channel-stripes interleave across channels, then walk
        a row, then interleave across banks.
        """
        stripe = line_addr // self.channel_interleave_lines
        offset = line_addr % self.channel_interleave_lines
        channel = stripe % self.channels
        local = (stripe // self.channels) * self.channel_interleave_lines + offset
        column = local % self.lines_per_row
        rest = local // self.lines_per_row
        bank = rest % self.banks_per_channel
        row = rest // self.banks_per_channel
        return DecodedAddress(channel, bank, row, column)


@dataclass(frozen=True)
class DecodedAddress:
    """A physical line address decoded into DRAM coordinates."""

    channel: int
    bank: int
    row: int
    column: int
