"""PTMC: Practical and Transparent Memory-Compression controller (§IV).

This is the paper's primary contribution.  Reads use the Line Location
Predictor to pick a candidate slot, verify the guess with the inline
marker, and fall back to the remaining candidate locations on a
misprediction.  Evictions compact compressible neighbour groups into one
slot (with ganged eviction keeping compressed groups resident together),
write Marker-IL over slots whose contents became stale, and handle
marker collisions on uncompressed data with line inversion + the LIT.

A :class:`~repro.core.policy.CompressionPolicy` decides whether new
compactions happen; plugging in ``SamplingPolicy`` yields Dynamic-PTMC.
Reads always honour markers regardless of policy — that is what makes
dynamically disabling compression safe without decompressing memory.

New pages are installed uncompressed, so a slot no store has written
holds its own line at home and carries no marker.  The controller reads
every slot with :meth:`~repro.dram.storage.PhysicalMemory.read_deferred`
and interprets a never-written one (a :class:`~repro.types.FirstTouch`)
by that rule, unrendered and unclassified (DESIGN.md §14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Dict, List, Mapping, Optional, Tuple

from repro.cache.cache import EvictedLine
from repro.compression.base import LINE_SIZE, CompressionAlgorithm
from repro.compression.hybrid import HybridCompressor
from repro.core import address_map
from repro.core.base_controller import DECOMPRESSION_LATENCY, LLCView, MemoryController
from repro.core.lit import LineInversionTable, LITOverflow, LITPolicy
from repro.core.llp import LineLocationPredictor
from repro.core.markers import MARKER_SIZE_DEFAULT, MarkerScheme, SlotKind, invert
from repro.core.packing import Unit, compress_group, decompress_group, plan_group
from repro.core.policy import AlwaysOnPolicy, CompressionPolicy
from repro.types import _NO_EXTRA_LINES, Category, Contents, FirstTouch, Level, ReadResult
from repro.dram.storage import PhysicalMemory
from repro.dram.system import DRAMSystem
from repro.telemetry import StatScope
from repro.util.schema import Checked, Rule


@dataclass(frozen=True)
class PTMCConfig(Checked):
    """Tunable parameters of the PTMC design (paper defaults)."""

    #: no narrower than the paper's 4 bytes, its width for a 16 GB memory
    #: (under one expected marker collision over its 2^28 lines)
    marker_size: Annotated[int, Rule(least=MARKER_SIZE_DEFAULT)] = MARKER_SIZE_DEFAULT
    lct_entries: int = 512
    lit_capacity: int = 16
    lit_policy: LITPolicy = LITPolicy.REKEY
    ganged_eviction: bool = True
    #: how many rekey sweeps one store may trigger before falling back to
    #: a memory-mapped LIT spill (prevents unbounded rekey recursion when
    #: fresh markers keep colliding)
    max_rekeys: int = 3


# The enum members the read and eviction paths use, as module globals.
# Python 3.11's ``EnumType`` defines ``__getattr__``, which puts every
# member read through the class (``Level.QUAD``) on the slow attribute
# hook: about five times the cost of reading a global.
_UNCOMPRESSED = Level.UNCOMPRESSED
_PAIR = Level.PAIR
_QUAD = Level.QUAD
_DATA_READ = Category.DATA_READ
_MISPREDICT_READ = Category.MISPREDICT_READ
_DATA_WRITE = Category.DATA_WRITE
_CLEAN_WRITEBACK = Category.CLEAN_WRITEBACK
_INVALIDATE_WRITE = Category.INVALIDATE_WRITE
_INVALID = SlotKind.INVALID
_MAYBE_INVERTED = SlotKind.MAYBE_INVERTED

#: A missed read re-probes the candidate slots in this order.
_LEVELS_DOWNWARD = (_QUAD, _PAIR, _UNCOMPRESSED)


class PTMCController(MemoryController):
    """The PTMC memory controller (inline metadata + LLP + LIT)."""

    name = "ptmc"

    def __init__(
        self,
        memory: PhysicalMemory,
        dram: DRAMSystem,
        compressor: Optional[CompressionAlgorithm] = None,
        config: PTMCConfig = PTMCConfig(),
        policy: Optional[CompressionPolicy] = None,
    ) -> None:
        super().__init__(memory, dram)
        self.config = config
        self.compressor = compressor if compressor is not None else HybridCompressor()
        self.policy = policy if policy is not None else AlwaysOnPolicy()
        self.markers = MarkerScheme(marker_size=config.marker_size)
        self.llp = LineLocationPredictor(config.lct_entries)
        self.lit = LineInversionTable(config.lit_capacity, config.lit_policy)
        # statistics
        self.reads_by_level: Dict[Level, int] = {level: 0 for level in Level}
        self.inversions = 0
        self.rekeys = 0
        self.invalidate_writes = 0
        self.clean_writebacks = 0

    def register_stats(self, scope: StatScope) -> None:
        """Expose PTMC's counters (``ptmc.*``) and the LLP's (``ptmc.llp.*``)."""
        scope.counter("inversions", lambda: self.inversions)
        scope.counter("rekeys", lambda: self.rekeys)
        scope.counter("invalidate_writes", lambda: self.invalidate_writes)
        scope.counter("clean_writebacks", lambda: self.clean_writebacks)
        scope.gauge("lit_occupancy", lambda: len(self.lit))
        reads = scope.scope("reads")
        for level in Level:
            reads.counter(
                level.name.lower(), lambda lv=level: self.reads_by_level[lv]
            )
        self.llp.register_stats(scope.scope("llp"))

    # ------------------------------------------------------------------
    # Read path (paper Fig. 7)
    # ------------------------------------------------------------------

    def read_line(self, addr: int, now: int, core_id: int, llc: LLCView) -> ReadResult:
        # The group base never moves; any other line is looked for first
        # where the LLP's predicted level puts it.
        llp = self.llp
        entry = None
        first = addr
        if address_map.needs_prediction(addr):
            entry = llp.entry(addr)
            first = address_map.location_for(addr, llp.predict_entry(entry))
        completion = self.dram.access(first, now, _DATA_READ)
        found = self._interpret(first, self.memory.read_deferred(first), addr, now)
        accesses = 1
        if found is None:
            # Re-issue to the other candidates, most co-located level
            # first, each distinct slot once (equal slots are adjacent).
            probed = first
            for level in _LEVELS_DOWNWARD:
                loc = address_map.location_for(addr, level)
                if loc == first or loc == probed:
                    continue
                probed = loc
                completion = self.dram.access(loc, now, _MISPREDICT_READ)
                accesses += 1
                found = self._interpret(loc, self.memory.read_deferred(loc), addr, now)
                if found is not None:
                    break
            else:
                raise RuntimeError(f"line {addr:#x} unlocatable — memory invariant broken")
            # One wrong prediction, however many candidate slots the
            # re-issue walked (only a predicted line has other candidates).
            llp.record_mispredict(accesses - 1)
            if llc.is_sampled_set(addr):
                for _ in range(accesses - 1):
                    self.policy.on_cost(core_id)
        data, extras, level = found
        if entry is not None:
            llp.update_entry(entry, level)
        if level is not _UNCOMPRESSED:
            completion += DECOMPRESSION_LATENCY
        self.reads_by_level[level] += 1
        return ReadResult(addr, data, level, completion, accesses, extras, accesses > 1)

    def _interpret(
        self, loc: int, slot: Contents, addr: int, now: int
    ) -> Optional[Tuple[Contents, Mapping[int, bytes], Level]]:
        """Decode one slot into (line, co-fetched slot-mates, level);
        ``None`` means "the line is not here".  An uncompressed line has
        no slot-mates: it shares the read-only empty mapping.  A slot
        nobody wrote is its own line, plain, so it is the line only at
        home, and goes to the LLC unrendered."""
        if slot.__class__ is FirstTouch:
            return (slot, _NO_EXTRA_LINES, _UNCOMPRESSED) if loc == addr else None
        cls = self.markers.classify(loc, slot)
        level = cls.level
        if level is not None:  # a 2:1 or 4:1 slot
            if address_map.location_for(addr, level) != loc:
                return None  # slot holds a different (pair) group
            lines = decompress_group(self.compressor, slot, level)
            extras = dict(zip(range(loc, loc + level), lines))
            return extras.pop(addr), extras, level
        # Marker-IL, or uncompressed (possibly inverted) data, which is only
        # valid at the home slot.
        kind = cls.kind
        if loc != addr or kind is _INVALID:
            return None
        if kind is _MAYBE_INVERTED and self._lit_lookup(loc, now):
            slot = invert(slot)
        return slot, _NO_EXTRA_LINES, _UNCOMPRESSED

    def _lit_lookup(self, loc: int, now: int) -> bool:
        """Consult the LIT; memory-mapped spills cost a DRAM access."""
        before = self.lit.spill_lookups
        inverted = self.lit.is_inverted(loc)
        if self.lit.spill_lookups > before:
            self.dram.access(self._lit_spill_addr(loc), now, Category.MAINTENANCE)
        return inverted

    def _lit_spill_addr(self, loc: int) -> int:
        """Slot of the memory-mapped inversion bitmap covering ``loc``."""
        return self.memory.capacity_lines - 1 - (loc // (LINE_SIZE * 8))

    def _written(self, loc: int) -> Optional[bytes]:
        """The bytes stored at ``loc``, or ``None`` when nobody wrote it
        (it then holds its own line, plain, and carries no marker)."""
        raw = self.memory.read_deferred(loc)
        return None if raw.__class__ is FirstTouch else raw

    # ------------------------------------------------------------------
    # Eviction path (§IV-C "Handling Updates", "Ganged Eviction")
    # ------------------------------------------------------------------

    def handle_eviction(
        self, evicted: EvictedLine, now: int, core_id: int, llc: LLCView
    ) -> None:
        addr = evicted.addr
        sampled = llc.is_sampled_set(addr)
        enabled = sampled or self.policy.enabled_for(core_id)
        ganged_eviction = self.config.ganged_eviction

        # 1. Lines that must leave the LLC: the victim plus, by ganged
        #    eviction, every slot-mate of any previously compressed member
        #    (an uncompressed victim has none).  With ganged eviction the
        #    LLC tags are always accurate; the retain-lines ablation can
        #    leave them stale (memory-side repacks change a cached line's
        #    residency behind its back), so its read-modify-write probe
        #    re-verifies the level first.  Gang and candidate entries are
        #    line records (the victim, the LLC's own lines, or fresh
        #    ``EvictedLine``s) read for their ``data``/``dirty``/
        #    ``fill_level`` only.
        if not ganged_eviction:
            verified = self._verified_level(addr)
            if verified != evicted.fill_level:
                self.dram.access(addr, now, Category.MAINTENANCE)
                evicted = EvictedLine(
                    addr, evicted.data, evicted.dirty, verified, evicted.core_id
                )
        compressed = evicted.fill_level is not _UNCOMPRESSED
        gang = self._collect_gang(evicted, now, llc) if compressed else None

        # 2. Compaction candidates: the gang plus still-resident group
        #    neighbours ("checks if the neighboring cachelines are present
        #    in the LLC").  An uncompressed victim's are built only once a
        #    neighbour turns out to be resident.
        candidates = dict(gang) if compressed else None
        if enabled:
            base = address_map.group_base(addr)
            for neighbour in range(base, base + address_map.GROUP_SIZE):
                if neighbour == addr or compressed and neighbour in candidates:
                    continue
                resident = llc.probe(neighbour)
                if resident is None:
                    continue
                if not ganged_eviction:
                    resident = EvictedLine(
                        neighbour,
                        resident.data,
                        resident.dirty,
                        self._verified_level(neighbour),
                        resident.core_id,
                    )
                if candidates is None:
                    candidates = {addr: evicted}
                candidates[neighbour] = resident
        if candidates is None:
            # A lone victim: uncompressed, with nothing to pack with, so it
            # goes home whatever the policy; a clean one is already there.
            if evicted.dirty:
                self._write_uncompressed(addr, evicted.data, now, _DATA_WRITE)
            return
        if gang is None:
            gang = {addr: evicted}

        # 3. Placement (Fig. 3): 4:1, else 2:1 per pair, else home slots;
        #    with compression disabled (Dynamic-PTMC), existing groups are
        #    preserved but none form.  Compressed units must involve at
        #    least one line that is actually leaving; untouched residents
        #    keep their LLC lines.  Each placed unit is written, unless
        #    memory already holds it, as soon as its partners are ganged
        #    out (ganging touches only the LLC, writing only memory, so no
        #    unit's write depends on a later unit), and every placed line's
        #    previous residency is noted for step 4.  A compressed victim
        #    whose slot-mates are all gone goes home alone.
        if len(candidates) == 1:
            plan: List[Unit] = [(_UNCOMPRESSED, addr, None)]
        elif enabled:
            plan = plan_group(self.compressor, base, candidates, self.markers.marker)
        else:
            plan = self._plan_preserving(candidates)
        new_slots = set()
        prev_slots = set()
        for level, slot, packed in plan:
            if level is _UNCOMPRESSED:
                state = gang.get(slot)
                if state is None:
                    continue  # resident neighbour not compacted: leave it be
                self._write_home(slot, state, now, sampled, core_id)
                new_slots.add(slot)
                prev_slots.add(address_map.location_for(slot, state.fill_level))
                continue
            members = range(slot, slot + level)
            if gang.keys().isdisjoint(members):
                continue  # don't compact groups unrelated to the victim
            dirty = False
            unchanged = True
            for member in members:
                state = gang.get(member)
                if state is None:
                    llc.force_evict(member)  # ganged eviction of partner
                    state = gang[member] = candidates[member]
                if state.dirty:
                    dirty = True
                if state.fill_level != level:
                    unchanged = False
                prev_slots.add(address_map.location_for(member, state.fill_level))
            new_slots.add(slot)
            if dirty or not unchanged:  # else the identical slot is resident
                self._write_packed(slot, packed, dirty, now, sampled, core_id)

        # 4. Stale-slot analysis: previous residencies of every placed line
        #    that are not rewritten must be marked invalid (Fig. 13).
        stale = prev_slots - new_slots
        if stale:
            for slot in sorted(stale):
                if not self._stale_slot_confirmed(slot, gang):
                    continue
                self._write_invalid(slot, now)
                if sampled:
                    self.policy.on_cost(core_id)

    def _collect_gang(
        self, evicted: EvictedLine, now: int, llc: LLCView
    ) -> Dict[int, EvictedLine]:
        """Ganged eviction: pull out every slot-mate of a compressed victim.

        A slot-mate missing from the LLC — possible only when ganged
        eviction is disabled (ablation, paper footnote 7) — is recovered
        from memory with a read-modify-write access.
        """
        gang: Dict[int, EvictedLine] = {evicted.addr: evicted}
        ganged_eviction = self.config.ganged_eviction
        charged_slots = set()  # one RMW read per slot, however many mates
        frontier = [evicted.addr]
        while frontier:
            addr = frontier.pop()
            level = gang[addr].fill_level
            if level is _UNCOMPRESSED:
                continue
            slot = address_map.location_for(addr, level)
            for member in range(slot, slot + level):
                if member in gang:
                    continue
                if ganged_eviction:
                    line = llc.force_evict(member)
                    if line is not None:
                        gang[member] = line
                        frontier.append(member)
                        continue
                else:
                    # retain-lines: a resident slot-mate's cached copy is
                    # fresher than the memory slot; use it, leave it cached
                    resident = llc.probe(member)
                    if resident is not None:
                        gang[member] = EvictedLine(
                            member,
                            resident.data,
                            resident.dirty,
                            level,
                            resident.core_id,
                        )
                        frontier.append(member)
                        continue
                charge = slot not in charged_slots
                charged_slots.add(slot)
                recovered = self._recover_from_memory(
                    slot, level, member, now, charge=charge
                )
                if recovered is not None:
                    gang[member] = recovered
                    frontier.append(member)
        return gang

    def _verified_level(self, addr: int) -> Level:
        """The line's true residency level, from the markers themselves.

        Used by the retain-lines ablation, whose LLC tags can go stale; in
        hardware the information comes from the read-modify-write access
        that design performs anyway (the sim charges it at the call site).
        """
        for loc, _ in address_map.candidate_locations(addr):
            raw = self._written(loc)
            if raw is None:
                continue  # a slot nobody wrote holds no group
            cls = self.markers.classify(loc, raw)
            if cls.kind in (SlotKind.PAIR, SlotKind.QUAD):
                if address_map.location_for(addr, cls.level) == loc:
                    return cls.level
        return _UNCOMPRESSED

    def _recover_from_memory(
        self, slot: int, level: Level, member: int, now: int, charge: bool = True
    ) -> Optional[EvictedLine]:
        """Read-modify-write support: pull an uncached slot-mate from DRAM."""
        if charge:
            self.dram.access(slot, now, Category.MAINTENANCE)
        raw = self._written(slot)
        if raw is None:
            return None  # a slot nobody wrote holds no group
        cls = self.markers.classify(slot, raw)
        if cls.kind not in (SlotKind.PAIR, SlotKind.QUAD) or cls.level != level:
            return None  # slot moved on since this line was filled; tag is stale
        lines = decompress_group(self.compressor, raw, level)
        return EvictedLine(member, lines[member - slot], False, level, 0)

    def _plan_preserving(self, candidates: Dict[int, EvictedLine]) -> List[Unit]:
        """Disabled-compression placement: keep existing groups, form none.

        Members that were filled from a compressed slot stay together at
        that slot as long as their (possibly updated) data still fits;
        only genuinely incompressible updates force a relocation home.
        The paper's point is that inline metadata lets compression be
        switched off without globally decompressing memory.
        """
        units: List[Unit] = []
        grouped: Dict[Tuple[int, Level], List[int]] = {}
        for a, state in candidates.items():
            if state.fill_level is _UNCOMPRESSED:
                units.append((_UNCOMPRESSED, a, None))
            else:
                slot = address_map.location_for(a, state.fill_level)
                grouped.setdefault((slot, state.fill_level), []).append(a)
        for (slot, level), members in grouped.items():
            expected = address_map.slot_members(slot, level)
            packed = None
            if sorted(members) == expected:
                packed = compress_group(
                    self.compressor,
                    [candidates[a].data for a in expected],
                    self.markers.marker(slot, level),
                )
            if packed is not None:
                units.append((level, slot, packed))
            else:
                units.extend((_UNCOMPRESSED, a, None) for a in sorted(members))
        return units

    def _write_home(
        self,
        slot: int,
        state: EvictedLine,
        now: int,
        sampled: bool,
        core_id: int,
    ) -> None:
        """Write one line to its home slot unless memory already holds it."""
        if state.dirty:
            self._write_uncompressed(slot, state.data, now, _DATA_WRITE)
        elif state.fill_level is not _UNCOMPRESSED:  # relocated home
            self._write_uncompressed(slot, state.data, now, _CLEAN_WRITEBACK)
            if sampled:
                self.policy.on_cost(core_id)
        # else a clean line already correct at home — free eviction

    def _write_packed(
        self,
        slot: int,
        packed: bytes,
        dirty: bool,
        now: int,
        sampled: bool,
        core_id: int,
    ) -> None:
        """Write a compressed slot whose contents changed."""
        category = _DATA_WRITE if dirty else _CLEAN_WRITEBACK
        self.dram.access(slot, now, category)
        self.memory.write(slot, packed)
        if self.lit.remove(slot):
            self.dram.access(self._lit_spill_addr(slot), now, Category.MAINTENANCE)
        if not dirty:
            self.clean_writebacks += 1
            if sampled:
                self.policy.on_cost(core_id)

    def _write_uncompressed(
        self, addr: int, data: bytes, now: int, category: Category
    ) -> None:
        """Store a plain line, inverting it on marker collision (Fig. 11)."""
        stored = self._encode_uncompressed(addr, data, now)
        self.dram.access(addr, now, category)
        self.memory.write(addr, stored)
        if category is _CLEAN_WRITEBACK:
            self.clean_writebacks += 1

    def _encode_uncompressed(self, addr: int, data: bytes, now: int) -> bytes:
        """Resolve marker collisions; returns the bytes to store at ``addr``.

        A colliding line is inverted and tracked in the LIT.  On LIT
        overflow under the REKEY policy, memory is re-encoded with fresh
        markers and the collision is re-evaluated — the new markers almost
        certainly no longer collide with this data.  The retry is bounded:
        after ``config.max_rekeys`` sweeps for a single store (pathological
        adversarial data), the entry spills to the memory-mapped bitmap
        instead of rekeying forever.
        """
        rekeys_left = self.config.max_rekeys
        while True:
            if not self.markers.collides(addr, data):
                if self.lit.remove(addr):
                    self.dram.access(
                        self._lit_spill_addr(addr), now, Category.MAINTENANCE
                    )
                return data
            try:
                spilled = self.lit.insert(addr)
            except LITOverflow:
                if rekeys_left <= 0:
                    spilled = self.lit.force_spill(addr)
                else:
                    rekeys_left -= 1
                    self._rekey_sweep(now)
                    continue
            if spilled:
                self.dram.access(self._lit_spill_addr(addr), now, Category.MAINTENANCE)
            self.inversions += 1
            return invert(data)

    def _stale_slot_confirmed(self, slot: int, gang: Dict[int, EvictedLine]) -> bool:
        """Safety net: only invalidate slots that really hold stale copies.

        With ganged eviction and accurate LLC tags this always holds; the
        check (a free peek in the simulator) protects the functional model
        when the retain-lines ablation leaves tags stale.
        """
        raw = self._written(slot)
        if raw is not None:  # else the slot holds its own line, plain
            cls = self.markers.classify(slot, raw)
            level = cls.level
            if level is not None:  # a 2:1 or 4:1 slot
                return any(
                    m in gang and gang[m].fill_level == level
                    for m in address_map.slot_members(slot, level)
                )
            if cls.kind is _INVALID:
                return False  # already invalid; skip the redundant write
        return slot in gang and gang[slot].fill_level is _UNCOMPRESSED

    def _write_invalid(self, slot: int, now: int) -> None:
        """Overwrite a stale slot with Marker-IL (Fig. 13)."""
        self.dram.access(slot, now, _INVALIDATE_WRITE)
        self.memory.write(slot, self.markers.invalid_marker(slot))
        if self.lit.remove(slot):
            self.dram.access(self._lit_spill_addr(slot), now, Category.MAINTENANCE)
        self.invalidate_writes += 1

    # ------------------------------------------------------------------
    # LIT overflow: rekey and re-encode memory (§IV-C Option 2)
    # ------------------------------------------------------------------

    def _rekey_sweep(self, now: int) -> None:
        """Regenerate markers and re-encode every written slot.

        The paper expects this less than once per 10 million years; it is
        implemented for completeness and to keep the functional model
        consistent.  Every written slot is decoded under the old markers
        and re-written under the new ones (charged as maintenance traffic);
        a slot nobody wrote carries no marker and is left alone.
        """
        self.rekeys += 1
        resident = self.memory.resident_lines()
        decoded: List[Tuple[int, str, object]] = []
        for loc, raw in resident.items():
            cls = self.markers.classify(loc, raw)
            if cls.kind is _INVALID:
                decoded.append((loc, "invalid", None))
            elif cls.kind in (SlotKind.PAIR, SlotKind.QUAD):
                lines = decompress_group(self.compressor, raw, cls.level)
                decoded.append((loc, "packed", (cls.level, lines)))
            else:
                data = invert(raw) if self.lit.is_inverted(loc) else raw
                decoded.append((loc, "plain", data))
            self.dram.access(loc, now, Category.MAINTENANCE)
        self.markers.rekey()
        self.lit.clear()
        for loc, kind, info in decoded:
            if kind == "invalid":
                self.memory.write(loc, self.markers.invalid_marker(loc))
            elif kind == "packed":
                level, lines = info
                packed = compress_group(
                    self.compressor, lines, self.markers.marker(loc, level)
                )
                if packed is None:
                    raise RuntimeError("re-encode failed after rekey")
                self.memory.write(loc, packed)
            else:
                if self.markers.collides(loc, info):
                    try:
                        self.lit.insert(loc)
                    except LITOverflow:
                        # the fresh key still collides on more lines than
                        # the LIT holds; spill rather than rekey recursively
                        self.lit.force_spill(loc)
                    self.memory.write(loc, invert(info))
                else:
                    self.memory.write(loc, info)
            self.dram.access(loc, now, Category.MAINTENANCE)

    # ------------------------------------------------------------------

    def storage_bits(self) -> Dict[str, int]:
        """Table III: the on-chip structures PTMC adds (< 300 bytes)."""
        bits = {
            "marker_2to1": self.config.marker_size * 8,
            "marker_4to1": self.config.marker_size * 8,
            "marker_invalid": LINE_SIZE * 8,
            "line_inversion_table": self.lit.storage_bits(),
            "line_location_predictor": self.llp.storage_bits(),
        }
        policy_bits = getattr(self.policy, "storage_bits", None)
        if policy_bits is not None:
            bits["dynamic_counters"] = policy_bits()
        return bits
