"""Hand-computed PTMC controller scenarios (paper §IV).

The golden fixtures prove that behaviour is unchanged, not that it is
right.  Each scenario here drives a fresh controller over an all-zero
memory through a few evictions and reads, and asserts every eviction's
``WriteResult`` and every DRAM category count exactly, with the
arithmetic spelled out beside it.

Lines 8..11 form one 4-line group (slot 8 holds a 4:1 group, slots 8
and 10 the two 2:1 pairs); a fresh LLP predicts UNCOMPRESSED everywhere.
"""

import pytest

from repro.core.lit import LITPolicy
from repro.core.markers import SlotKind, invert
from repro.core.policy import AlwaysOffPolicy
from repro.core.ptmc import PTMCConfig
from repro.types import Category, Level, WriteResult
from tests.controller_harness import FakeLLC, category_counts, evicted, make_ptmc
from tests.lineutils import quad_friendly_line, zero_line

#: lines 8..11, small enough for all four to share slot 8
QUAD = [quad_friendly_line(variant=i) for i in range(4)]


def compact_quad(ptmc, llc):
    """Evict dirty line 8 with clean 9..11 resident: one 4:1 writeback."""
    for i in (1, 2, 3):
        llc.add(8 + i, QUAD[i])
    return ptmc.handle_eviction(evicted(8, QUAD[0]), 0, 0, llc)


class TestLoneVictims:
    def test_clean_lone_victim_costs_nothing(self):
        ptmc, llc = make_ptmc(), FakeLLC()
        # filled uncompressed, never written, no neighbour resident: the
        # home slot already holds it
        result = ptmc.handle_eviction(evicted(9, zero_line(), dirty=False), 0, 0, llc)
        assert result == WriteResult()
        assert category_counts(ptmc) == {}
        assert len(ptmc.memory) == 0

    def test_dirty_lone_victim_costs_one_write(self):
        ptmc, llc = make_ptmc(), FakeLLC()
        data = bytes(range(64))
        result = ptmc.handle_eviction(evicted(9, data), 0, 0, llc)
        assert result == WriteResult(writes=1)
        assert category_counts(ptmc) == {"data_write": 1}
        assert ptmc.memory.read(9) == data

    def test_compression_off_leaves_compressible_neighbours_alone(self):
        ptmc, llc = make_ptmc(policy=AlwaysOffPolicy()), FakeLLC()
        for i in (1, 2, 3):
            llc.add(8 + i, QUAD[i], dirty=(i > 1))
        # the whole group would pack 4:1, but with compression off the
        # neighbours are not candidates: line 8 goes home alone
        result = ptmc.handle_eviction(evicted(8, QUAD[0]), 0, 0, llc)
        assert result == WriteResult(writes=1)
        assert category_counts(ptmc) == {"data_write": 1}
        assert llc.force_evicted == []
        assert sorted(llc.lines) == [9, 10, 11]
        assert ptmc.memory.read(8) == QUAD[0]
        assert len(ptmc.memory) == 1
        # clean line 9, as lone under the same policy, costs nothing
        result = ptmc.handle_eviction(llc.force_evict(9), 0, 0, llc)
        assert result == WriteResult()
        assert category_counts(ptmc) == {"data_write": 1}


class TestGangedQuadWriteback:
    def test_quad_writeback_invalidates_three_stale_homes(self):
        ptmc, llc = make_ptmc(), FakeLLC()
        result = compact_quad(ptmc, llc)
        # 8..11 pack into slot 8: one data write (the victim is dirty); the
        # three partners leave the LLC with it, and each home copy they
        # leave behind is overwritten with Marker-IL
        assert result == WriteResult(
            writes=1, invalidates=3, level=Level.QUAD, ganged=[9, 10, 11]
        )
        assert category_counts(ptmc) == {"data_write": 1, "invalidate_write": 3}
        assert llc.force_evicted == [9, 10, 11]
        assert llc.lines == {}
        assert ptmc.markers.classify(8, ptmc.memory.read(8)).kind is SlotKind.QUAD
        for home in (9, 10, 11):
            assert ptmc.memory.read(home) == ptmc.markers.invalid_marker(home)
        assert (ptmc.invalidate_writes, ptmc.clean_writebacks) == (3, 0)

    def test_resident_quad_gangs_out_together(self):
        ptmc, llc = make_ptmc(), FakeLLC()
        compact_quad(ptmc, llc)
        # refill the group from slot 8 as the LLC would, 10 then dirtied
        for i in range(4):
            llc.add(8 + i, QUAD[i], dirty=(i == 2), fill_level=Level.QUAD)
        result = ptmc.handle_eviction(llc.force_evict(9), 0, 0, llc)
        # 9's slot-mates leave with it; the group still packs into slot 8,
        # which is rewritten once for the dirty member; nothing goes stale
        assert result == WriteResult(writes=1, level=Level.QUAD, ganged=[8, 10, 11])
        assert category_counts(ptmc) == {"data_write": 2, "invalidate_write": 3}
        assert llc.lines == {}

    def test_clean_resident_quad_is_free(self):
        ptmc, llc = make_ptmc(), FakeLLC()
        compact_quad(ptmc, llc)
        for i in range(4):
            llc.add(8 + i, QUAD[i], fill_level=Level.QUAD)
        result = ptmc.handle_eviction(llc.force_evict(11), 0, 0, llc)
        # slot 8 already holds exactly this group
        assert result == WriteResult(level=Level.QUAD, ganged=[8, 9, 10])
        assert category_counts(ptmc) == {"data_write": 1, "invalidate_write": 3}


class TestCollisionToRekey:
    def test_collision_inversion_overflow_rekey(self):
        ptmc = make_ptmc(config=PTMCConfig(lit_capacity=2, lit_policy=LITPolicy.REKEY))
        llc = FakeLLC()

        def colliding(addr):
            return b"\x33" * 60 + ptmc.markers.marker(addr, Level.PAIR)

        first, second, third = colliding(9), colliding(13), colliding(17)
        # 1. line 9 ends with its slot's 2:1 marker: it is stored inverted
        #    and takes one of the LIT's two entries
        assert ptmc.handle_eviction(evicted(9, first), 0, 0, llc) == WriteResult(writes=1)
        assert ptmc.memory.read(9) == invert(first)
        assert (ptmc.inversions, ptmc.rekeys, sorted(ptmc.lit.entries())) == (1, 0, [9])
        # the read sees a complemented marker; the LIT says "inverted"
        assert ptmc.read_line(9, 0, 0, llc).data == first
        # 2. a second collision fills the LIT
        assert ptmc.handle_eviction(evicted(13, second), 0, 0, llc) == WriteResult(writes=1)
        assert (ptmc.inversions, ptmc.rekeys, sorted(ptmc.lit.entries())) == (2, 0, [9, 13])
        assert category_counts(ptmc) == {"data_write": 2, "data_read": 1}
        # 3. a third overflows the LIT: the rekey sweep decodes and
        #    re-encodes both resident slots (2 x 2 maintenance accesses);
        #    under the fresh key none of the three lines collides any more
        assert ptmc.handle_eviction(evicted(17, third), 0, 0, llc) == WriteResult(writes=1)
        assert (ptmc.inversions, ptmc.rekeys, len(ptmc.lit)) == (2, 1, 0)
        assert category_counts(ptmc) == {"data_write": 3, "data_read": 1, "maintenance": 4}
        for addr, data in ((9, first), (13, second), (17, third)):
            assert ptmc.memory.read(addr) == data
            assert ptmc.read_line(addr, 0, 0, llc).data == data
        assert category_counts(ptmc) == {"data_write": 3, "data_read": 4, "maintenance": 4}


class TestMispredict:
    def test_mispredict_costs_exactly_one_extra_read(self):
        ptmc, llc = make_ptmc(), FakeLLC()
        compact_quad(ptmc, llc)
        # the LCT still says UNCOMPRESSED: the read goes to home slot 9,
        # finds Marker-IL, and one re-issue finds the line in slot 8
        result = ptmc.read_line(9, 0, 0, FakeLLC())
        assert (result.addr, result.data, result.level) == (9, QUAD[1], Level.QUAD)
        assert (result.accesses, result.mispredicted) == (2, True)
        # the co-fetched slot-mates, in slot order
        assert list(result.extra_lines.items()) == [(8, QUAD[0]), (10, QUAD[2]), (11, QUAD[3])]
        assert category_counts(ptmc) == {
            "data_write": 1, "invalidate_write": 3, "data_read": 1, "mispredict_read": 1,
        }
        llp = ptmc.llp
        assert (llp.predictions, llp.mispredictions, llp.extra_reissues) == (1, 1, 0)
        # the LCT learned QUAD for the page: the next read hits first time
        result = ptmc.read_line(11, 0, 0, FakeLLC())
        assert (result.data, result.accesses, result.mispredicted) == (QUAD[3], 1, False)
        assert category_counts(ptmc)["data_read"] == 2
        assert (llp.predictions, llp.mispredictions, llp.extra_reissues) == (2, 1, 0)

    def test_mispredict_walking_two_slots_is_one_misprediction(self):
        ptmc, llc = make_ptmc(), FakeLLC()
        llc.add(11, QUAD[3])
        # 10 and 11 pack 2:1 into slot 10; 11's home copy goes stale
        result = ptmc.handle_eviction(evicted(10, QUAD[2]), 0, 0, llc)
        assert result == WriteResult(writes=1, invalidates=1, level=Level.PAIR, ganged=[11])
        # predicted home 11 (Marker-IL), then the quad slot 8 (plain zeros,
        # line 8's own), then the pair slot 10: two re-issues, one mispredict
        result = ptmc.read_line(11, 0, 0, FakeLLC())
        assert (result.data, result.level, result.accesses) == (QUAD[3], Level.PAIR, 3)
        assert result.extra_lines == {10: QUAD[2]}
        assert category_counts(ptmc) == {
            "data_write": 1, "invalidate_write": 1, "data_read": 1, "mispredict_read": 2,
        }
        llp = ptmc.llp
        assert (llp.predictions, llp.mispredictions, llp.extra_reissues) == (1, 1, 1)


@pytest.mark.parametrize(
    "addr, predicted, probes",
    [
        (8, None, [8]),  # the group base never moves
        (9, Level.UNCOMPRESSED, [9, 8]),
        (9, Level.PAIR, [8, 9]),
        (9, Level.QUAD, [8, 9]),
        (10, Level.UNCOMPRESSED, [10, 8]),
        (10, Level.PAIR, [10, 8]),
        (10, Level.QUAD, [8, 10]),
        (11, Level.UNCOMPRESSED, [11, 8, 10]),
        (11, Level.PAIR, [10, 8, 11]),
        (11, Level.QUAD, [8, 10, 11]),
    ],
)
def test_read_walks_prediction_then_quad_pair_home(addr, predicted, probes):
    """The predicted slot first, then the quad, pair and home slots, each
    probed once; proven by a group whose every slot holds Marker-IL."""
    ptmc = make_ptmc()
    for slot in range(8, 12):
        ptmc.memory.write(slot, ptmc.markers.invalid_marker(slot))
    if predicted is not None:
        ptmc.llp.update(addr, predicted)
    seen = []
    access = ptmc.dram.access

    def recording(loc, now, category):
        seen.append((loc, category))
        return access(loc, now, category)

    ptmc.dram.access = recording
    with pytest.raises(RuntimeError, match="unlocatable"):
        ptmc.read_line(addr, 0, 0, FakeLLC())
    assert seen == [(probes[0], Category.DATA_READ)] + [
        (loc, Category.MISPREDICT_READ) for loc in probes[1:]
    ]
