"""Access-level DRAM timing model (the USIMM stand-in).

Every 64-byte access is priced against per-bank row-buffer state and
per-channel data-bus occupancy, so extra accesses (metadata lookups,
compressed writebacks, invalidates, mispredicted reads) translate into
queueing delay for everyone sharing the channel — the mechanism behind
all of the paper's bandwidth results.

Fidelity notes (see DESIGN.md §4): requests are serviced in global
arrival order with row-hit-aware latency (an "FR-FCFS-lite"); command-bus
and refresh scheduling are abstracted away.  Shapes, not absolute
latencies, are the goal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.types import WRITE_CATEGORIES, Category
from repro.dram.timing import DDRTiming, DRAMGeometry
from repro.telemetry import StatScope


@dataclass(slots=True)
class _Bank:
    """Row-buffer state of one DRAM bank."""

    open_row: int = -1
    ready_at: int = 0  # cycle at which the bank can accept a new command
    activated_at: int = -(10**9)  # last activate time (tRAS enforcement)


@dataclass(slots=True)
class _Channel:
    """One memory channel: banks, a shared data bus, and a write buffer."""

    banks: List[_Bank]
    bus_free_at: int = 0
    write_backlog: int = 0  # buffered write bus-time not yet drained


@dataclass
class DRAMStats:
    """Aggregate counters used by the bandwidth and energy analyses."""

    accesses_by_category: Dict[Category, int] = field(default_factory=dict)
    row_hits: int = 0
    row_misses: int = 0
    activations: int = 0
    reads: int = 0
    writes: int = 0
    busy_cycles: int = 0
    refresh_stalls: int = 0

    def count(self, category: Category) -> None:
        self.accesses_by_category[category] = (
            self.accesses_by_category.get(category, 0) + 1
        )

    @property
    def total_accesses(self) -> int:
        return sum(self.accesses_by_category.values())

    def category_count(self, *categories: Category) -> int:
        return sum(self.accesses_by_category.get(c, 0) for c in categories)


class DRAMSystem:
    """Timing front-end for the memory channels.

    ``access`` returns the cycle at which the requested 64 bytes have been
    transferred; the caller decides what the bytes mean.  Writes return a
    completion too, but cores never wait on them.

    ``timing`` and ``geometry`` are frozen, so the cycle counts and the
    address-decode divisors every access needs are derived from them once,
    here, rather than per access.
    """

    def __init__(
        self,
        timing: DDRTiming = DDRTiming(),
        geometry: DRAMGeometry = DRAMGeometry(),
        write_queue_entries: int = 32,
        page_policy: str = "open",
        refresh: bool = True,
    ) -> None:
        if page_policy not in ("open", "closed"):
            raise ValueError("page_policy must be 'open' or 'closed'")
        self.timing = timing
        self.geometry = geometry
        self.page_policy = page_policy
        self.refresh = refresh
        self.stats = DRAMStats()
        self._drain_threshold = write_queue_entries * timing.t_burst
        self._t_cas = timing.t_cas
        self._t_rcd = timing.t_rcd
        self._t_rp = timing.t_rp
        self._t_ras = timing.t_ras
        self._t_burst = timing.t_burst
        #: bus time of a commodity 64-byte access (8 beats)
        self._t_line = max(1, timing.t_burst)
        self._t_refi = timing.t_refi
        self._t_rfc = timing.t_rfc
        self._interleave = geometry.channel_interleave_lines
        self._num_channels = geometry.channels
        self._lines_per_row = geometry.lines_per_row
        self._banks_per_channel = geometry.banks_per_channel
        self._channels = [
            _Channel(banks=[_Bank() for _ in range(geometry.banks_per_channel)])
            for _ in range(geometry.channels)
        ]

    def register_stats(self, scope: StatScope) -> None:
        """Expose the aggregate counters (``dram.*`` in the system registry)."""
        stats = self.stats
        scope.counter("row_hits", lambda: stats.row_hits)
        scope.counter("row_misses", lambda: stats.row_misses)
        scope.counter("activations", lambda: stats.activations)
        scope.counter("reads", lambda: stats.reads)
        scope.counter("writes", lambda: stats.writes)
        scope.counter("busy_cycles", lambda: stats.busy_cycles)
        scope.counter("refresh_stalls", lambda: stats.refresh_stalls)
        accesses = scope.scope("accesses")
        for category in Category:
            accesses.counter(
                category.value,
                lambda c=category: stats.accesses_by_category.get(c, 0),
            )

    def _after_refresh(self, start: int) -> int:
        """Push ``start`` past any overlapping refresh window.

        All banks of a channel refresh together once per tREFI and are
        unavailable for tRFC — the standard all-bank refresh model.
        """
        if not self.refresh:
            return start
        offset = start % self._t_refi
        if offset < self._t_rfc:
            self.stats.refresh_stalls += 1
            return start - offset + self._t_rfc
        return start

    def access(
        self,
        line_addr: int,
        now: int,
        category: Category,
        burst_bytes: int = 64,
    ) -> int:
        """Perform one access; returns its data-completion cycle.

        Reads are serviced against bank/bus state.  Writes are buffered
        (real controllers prioritise reads): their bus time accumulates in
        a per-channel backlog that drains into idle bus gaps, and a full
        write queue forces a drain that stalls subsequent reads — so write
        bandwidth is still fully paid, just at realistic priority.

        ``burst_bytes`` supports non-commodity variable-burst DIMMs
        (MemZip-style): bus occupancy scales with the transfer size in
        8-byte beats; commodity accesses always move 64 bytes.
        """
        stats = self.stats
        # DRAMGeometry.decode, on the precomputed divisors
        interleave = self._interleave
        stripe = line_addr // interleave
        local = (stripe // self._num_channels) * interleave + line_addr % interleave
        rest = local // self._lines_per_row
        channel = self._channels[stripe % self._num_channels]
        bank = channel.banks[rest % self._banks_per_channel]
        row = rest // self._banks_per_channel
        stats.count(category)
        if burst_bytes == 64:
            t_transfer = self._t_line
        else:
            beats = max(1, (burst_bytes + 7) // 8)
            t_transfer = max(1, self._t_burst * beats // 8)
        open_page = self.page_policy == "open"

        if category in WRITE_CATEGORIES:
            # row-buffer statistics still apply; timing goes to the backlog
            if open_page and bank.open_row == row:
                stats.row_hits += 1
            else:
                stats.row_misses += 1
                stats.activations += 1
                if open_page:
                    bank.open_row = row
            channel.write_backlog += t_transfer
            stats.writes += 1
            stats.busy_cycles += t_transfer
            return now

        # drain buffered writes into any idle bus time before this read
        if channel.write_backlog:
            if now > channel.bus_free_at:
                drained = min(now - channel.bus_free_at, channel.write_backlog)
                channel.bus_free_at += drained
                channel.write_backlog -= drained
            if channel.write_backlog >= self._drain_threshold:
                channel.bus_free_at = (
                    max(channel.bus_free_at, now) + channel.write_backlog
                )
                channel.write_backlog = 0

        start = self._after_refresh(now if now >= bank.ready_at else bank.ready_at)
        if not open_page:
            # rows auto-precharge after every access: constant activate cost
            stats.row_misses += 1
            stats.activations += 1
            bank.activated_at = start
            data_ready = start + self._t_rcd + self._t_cas
        elif bank.open_row == row:
            stats.row_hits += 1
            data_ready = start + self._t_cas
        else:
            stats.row_misses += 1
            stats.activations += 1
            if bank.open_row != -1:
                # must precharge; respect tRAS since the last activate
                precharge_at = max(start, bank.activated_at + self._t_ras)
                start = precharge_at + self._t_rp
            bank.activated_at = start
            bank.open_row = row
            data_ready = start + self._t_rcd + self._t_cas

        bus_free_at = channel.bus_free_at
        transfer_start = data_ready if data_ready >= bus_free_at else bus_free_at
        completion = transfer_start + t_transfer
        channel.bus_free_at = completion
        bank.ready_at = transfer_start  # next column command can pipeline in

        stats.reads += 1
        stats.busy_cycles += t_transfer
        return completion

    def channel_utilisation(self, elapsed_cycles: int) -> float:
        """Fraction of total data-bus cycles carrying transfers."""
        if elapsed_cycles <= 0:
            return 0.0
        total_bus = elapsed_cycles * self.geometry.channels
        return min(1.0, self.stats.busy_cycles / total_bus)
