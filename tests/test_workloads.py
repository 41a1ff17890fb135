"""Tests for the synthetic workload generators and suite roster."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import HybridCompressor
from repro.util.hashing import KeyedHash, mix64
from repro.workloads import (
    ALL_64,
    GAP,
    LOW_MPKI,
    MEMORY_INTENSIVE,
    MIXES,
    SPEC06,
    SPEC17,
    DataGenerator,
    DataProfile,
    PatternKind,
    WorkloadTraceGenerator,
    get_workload,
)
from repro.workloads.data_patterns import (
    ALL_ZERO,
    GRAPH_LIKE,
    INCOMPRESSIBLE,
    SPEC_LIKE,
    render_pattern,
)
from repro.workloads.generators import draw_below, draw_span


class TestDataPatterns:
    def test_deterministic(self):
        a = DataGenerator(SPEC_LIKE, seed=1).line(100, 0)
        b = DataGenerator(SPEC_LIKE, seed=1).line(100, 0)
        assert a == b

    def test_seed_changes_data(self):
        a = DataGenerator(SPEC_LIKE, seed=1).line(100, 0)
        b = DataGenerator(SPEC_LIKE, seed=2).line(100, 0)
        assert a != b

    def test_version_changes_data(self):
        gen = DataGenerator(SPEC_LIKE, seed=1)
        kind = gen.kind(100, 0)
        if kind is not PatternKind.ZERO:
            assert gen.line(100, 0) != gen.line(100, 1)

    def test_line_size(self):
        gen = DataGenerator(SPEC_LIKE, seed=1)
        for vline in range(50):
            assert len(gen.line(vline)) == 64

    def test_page_homogeneity(self):
        gen = DataGenerator(DataProfile({PatternKind.POINTER: 1.0}, noise=0.0), seed=3)
        kinds = {gen.kind(vline) for vline in range(64)}
        assert kinds == {PatternKind.POINTER}

    def test_write_scramble_rate(self):
        gen = DataGenerator(SPEC_LIKE, seed=5, write_scramble=1.0)
        assert gen.kind(100, version=1) is PatternKind.RANDOM

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DataProfile({})
        with pytest.raises(ValueError):
            DataProfile({PatternKind.ZERO: 1.0}, noise=2.0)

    def test_compressibility_by_family(self):
        hybrid = HybridCompressor()
        gen = DataGenerator(DataProfile({PatternKind.ZERO: 1.0}, noise=0.0), seed=1)
        assert hybrid.compressed_size(gen.line(0)) < 8
        gen = DataGenerator(DataProfile({PatternKind.RANDOM: 1.0}, noise=0.0), seed=1)
        assert hybrid.compressed_size(gen.line(0)) == 64
        gen = DataGenerator(DataProfile({PatternKind.MEDIUM: 1.0}, noise=0.0), seed=1)
        size = hybrid.compressed_size(gen.line(0))
        assert 30 < size < 64  # line-compressible, pair-incompatible

    def test_spec_more_compressible_than_graph(self):
        hybrid = HybridCompressor()
        spec_gen = DataGenerator(SPEC_LIKE, seed=1)
        graph_gen = DataGenerator(GRAPH_LIKE, seed=1)
        spec_size = sum(hybrid.compressed_size(spec_gen.line(v)) for v in range(0, 2048, 8))
        graph_size = sum(hybrid.compressed_size(graph_gen.line(v)) for v in range(0, 2048, 8))
        assert spec_size < graph_size


class TestTraceGenerator:
    def _trace(self, spec_name="lbm06", n=2000):
        gen = WorkloadTraceGenerator(get_workload(spec_name), core_id=0)
        return gen, list(gen.generate(n))

    def test_deterministic(self):
        _, a = self._trace()
        _, b = self._trace()
        assert [(r.vline, r.is_write) for r in a] == [(r.vline, r.is_write) for r in b]

    def test_cores_differ(self):
        spec = get_workload("lbm06")
        a = list(WorkloadTraceGenerator(spec, 0).generate(100))
        b = list(WorkloadTraceGenerator(spec, 1).generate(100))
        assert [r.vline for r in a] != [r.vline for r in b]

    def test_addresses_within_footprint(self):
        spec = get_workload("lbm06")
        _, records = self._trace()
        assert all(0 <= r.vline < spec.footprint_lines for r in records)

    def test_write_fraction_approximate(self):
        spec = get_workload("lbm06")
        _, records = self._trace(n=4000)
        writes = sum(r.is_write for r in records)
        assert abs(writes / 4000 - spec.write_frac) < 0.05

    def test_writes_carry_data(self):
        _, records = self._trace()
        for r in records:
            if r.is_write:
                assert r.write_data is not None and len(r.write_data.render()) == 64
            else:
                assert r.write_data is None

    def test_reference_tracks_latest_write(self):
        gen, records = self._trace()
        last = {}
        for r in records:
            if r.is_write:
                last[r.vline] = r.write_data.render()
        assert gen.reference == last

    def test_spatial_locality_spec_vs_gap(self):
        def seq_fraction(name):
            _, records = self._trace(name, n=4000)
            seq = sum(
                1
                for a, b in zip(records, records[1:])
                if b.vline == a.vline + 1
            )
            return seq / len(records)

        assert seq_fraction("lbm06") > 2 * seq_fraction("bfs.twitter")

    def test_current_data_version_aware(self):
        gen = WorkloadTraceGenerator(get_workload("lbm06"), 0)
        v0 = gen.current_data(10)
        for record in gen.generate(3000):
            pass
        if 10 in gen.reference:
            assert gen.current_data(10) == gen.reference[10]
        else:
            assert gen.current_data(10) == v0


class TestSuites:
    def test_counts_match_paper(self):
        assert len(SPEC06) == 7
        assert len(SPEC17) == 5
        assert len(GAP) == 9
        assert len(MIXES) == 6
        assert len(MEMORY_INTENSIVE) == 27  # paper's memory-intensive set
        assert len(ALL_64) == 64  # extended study (Fig. 17)

    def test_names_unique(self):
        names = [w.name for w in MEMORY_INTENSIVE + LOW_MPKI]
        assert len(names) == len(set(names))

    def test_lookup(self):
        assert get_workload("lbm06").suite == "spec06"
        assert get_workload("bfs.twitter").suite == "gap"
        with pytest.raises(KeyError):
            get_workload("nonexistent")

    def test_mix_assigns_specs_per_core(self):
        mix = MIXES[0]
        specs = {mix.spec_for_core(c).name for c in range(8)}
        assert len(specs) >= 2

    def test_rate_mode_runs_one_spec_with_a_seed_per_core(self):
        spec = get_workload("lbm06").with_seed(4)
        assert [spec.spec_for_core(c).seed for c in range(3)] == [4, 5, 6]
        assert spec.spec_for_core(2) == spec.with_seed(6)

    def test_gap_footprints_larger(self):
        spec_fp = max(w.footprint_lines for w in SPEC06)
        gap_fp = min(w.footprint_lines for w in GAP)
        assert gap_fp > spec_fp

    def test_memory_intensive_flag(self):
        assert all(w.memory_intensive for w in MEMORY_INTENSIVE)
        assert not any(w.memory_intensive for w in LOW_MPKI)


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2**20), st.integers(0, 5))
def test_line_data_pure_function(vline, version):
    gen1 = DataGenerator(SPEC_LIKE, seed=42)
    gen2 = DataGenerator(SPEC_LIKE, seed=42)
    assert gen1.line(vline, version) == gen2.line(vline, version)


# -- fast paths against their spelled-out references --------------------------

#: bounds from 1 to 2**24, plus every power of two in that range and its
#: neighbours (where the redraw rate changes)
draw_bounds = st.one_of(
    st.integers(min_value=1, max_value=1 << 24),
    st.integers(0, 24)
    .flatmap(lambda k: st.sampled_from([(1 << k) - 1, 1 << k, (1 << k) + 1]))
    .filter(lambda n: 1 <= n <= 1 << 24),
)


class TestDrawBelow:
    """``draw_below`` consumes a ``random.Random`` draw for draw as
    ``randrange``/``randint`` do, so the generators' record streams are
    the ones those calls would make."""

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**64), bounds=st.lists(draw_bounds, min_size=1, max_size=40))
    def test_matches_randrange_interleaved_with_random(self, seed, bounds):
        ref, fast = random.Random(seed), random.Random(seed)
        for n in bounds:
            assert draw_below(fast.getrandbits, n, n.bit_length()) == ref.randrange(n)
            assert fast.random() == ref.random()

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**64),
        ranges=st.lists(
            st.tuples(st.integers(-1000, 1000), draw_bounds), min_size=1, max_size=40
        ),
    )
    def test_matches_randint_interleaved_with_random(self, seed, ranges):
        ref, fast = random.Random(seed), random.Random(seed)
        for low, n in ranges:
            span, bits = draw_span(n)
            assert low + draw_below(fast.getrandbits, span, bits) == ref.randint(
                low, low + n - 1
            )
            assert fast.random() == ref.random()

    def test_span_rejects_an_empty_range(self):
        assert draw_span(1) == (1, 1)
        assert draw_span(1 << 24) == (1 << 24, 25)
        for n in (0, -3):
            with pytest.raises(ValueError):
                draw_span(n)


def _reference_kind(gen, vline, version):
    """The family rule spelled out with ``mix64`` calls, as it was first
    written; ``DataGenerator.kind`` runs the same chains inline."""
    profile = gen.profile
    kind = profile.kind_for_page(vline // 64, gen.seed)
    if profile.noise > 0.0:
        draw = (mix64(vline ^ gen.seed ^ 0x0F0F) % (1 << 30)) / (1 << 30)
        if draw < profile.noise:
            kind = PatternKind.RANDOM
    if version > 0 and gen.write_scramble > 0.0:
        draw = (mix64(vline ^ (version << 32) ^ gen.seed) % (1 << 30)) / (1 << 30)
        if draw < gen.write_scramble:
            return PatternKind.RANDOM
    return kind


def _reference_render(kind, nonce, keyed):
    """``render_pattern`` spelled out with ``mix64`` calls and ``struct.pack``."""
    if kind is PatternKind.ZERO:
        return b"\x00" * 64
    words, state = [], nonce
    if kind is PatternKind.SMALL_INT:
        words = [0] * 12
        for _ in range(4):
            state = mix64(state)
            words.append((state >> 8) % 15 - 7)
        return struct.pack("<16i", *words)
    if kind is PatternKind.POINTER:
        base = 0x7F0000000000 | ((nonce & 0xFFFF) << 20)
        for _ in range(8):
            state = mix64(state)
            words.append(base + (state % 120))
        return struct.pack("<8Q", *words)
    if kind is PatternKind.BOUNDARY:
        for i in range(16):
            state = mix64(state)
            magnitude = 9 + state % 90 if i % 2 == 0 else 300 + state % 29000
            words.append(magnitude if state & (1 << 40) else -magnitude)
        return struct.pack("<16i", *words)
    if kind is PatternKind.MEDIUM:
        for _ in range(16):
            state = mix64(state)
            words.append((state >> 4) % 60000 - 30000)
        return struct.pack("<16i", *words)
    base = keyed.hash64(nonce, tweak=0xBAD)
    return b"".join(mix64(base + i).to_bytes(8, "little") for i in range(8))


class TestInlineRendering:
    """Line rendering runs its SplitMix64 chains inline; it must agree
    with the ``mix64`` definition for every family, profile and draw."""

    @settings(max_examples=300)
    @given(
        profile=st.sampled_from([SPEC_LIKE, GRAPH_LIKE, INCOMPRESSIBLE, ALL_ZERO]),
        seed=st.integers(0, 2**40),
        scramble=st.sampled_from([0.0, 0.05, 0.35, 1.0]),
        vline=st.integers(0, 2**40),
        version=st.integers(0, 6),
    )
    def test_line_matches_mix64_reference(self, profile, seed, scramble, vline, version):
        gen = DataGenerator(profile, seed=seed, write_scramble=scramble)
        kind = _reference_kind(gen, vline, version)
        assert gen.kind(vline, version) is kind
        nonce = mix64(vline ^ (version << 20) ^ seed)
        expected = _reference_render(kind, nonce, KeyedHash(seed ^ 0xDA7A))
        assert gen.line(vline, version) == expected

    @settings(max_examples=300)
    @given(kind=st.sampled_from(list(PatternKind)), nonce=st.integers(-(2**64), 2**66))
    def test_render_pattern_matches_mix64_reference(self, kind, nonce):
        keyed = KeyedHash(7)
        assert render_pattern(kind, nonce, keyed) == _reference_render(kind, nonce, keyed)
