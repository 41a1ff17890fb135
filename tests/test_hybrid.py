"""Tests for the hybrid (best-of-N) compressor."""

import random
import struct

import pytest
from hypothesis import given

from repro.compression import BDI, CPack, FPC, HybridCompressor, ZeroLine
from repro.compression.base import CompressionAlgorithm, CompressionError
from tests.lineutils import any_lines, pointer_line, random_line, small_int_line, zero_line


class FixedSize(CompressionAlgorithm):
    """Test double: always compresses to a payload of a fixed size."""

    def __init__(self, name: str, size: int) -> None:
        self.name = name
        self._size = size

    def compress(self, line):
        self.check_line(line)
        return bytes(self._size)

    def decompress(self, payload):
        return b"\x00" * 64


@pytest.fixture
def hybrid():
    return HybridCompressor()


class TestHybrid:
    def test_default_is_fpc_plus_bdi(self, hybrid):
        assert [a.name for a in hybrid.algorithms] == ["fpc", "bdi"]

    def test_zero_line(self, hybrid):
        payload = hybrid.compress(zero_line())
        assert payload is not None
        assert hybrid.decompress(payload) == zero_line()

    def test_picks_smaller_algorithm(self, hybrid):
        line = pointer_line()  # BDI-friendly, FPC-hostile
        payload = hybrid.compress(line)
        assert payload is not None
        assert payload[0] == 1  # BDI tag
        assert hybrid.decompress(payload) == line

    def test_fpc_wins_on_small_ints(self, hybrid):
        line = small_int_line(start=0, step=1)
        payload = hybrid.compress(line)
        fpc_size = len(FPC().compress(line)) + 1
        assert len(payload) <= fpc_size

    def test_tag_charged_against_size(self, hybrid):
        line = small_int_line()
        raw = FPC().compress(line)
        payload = hybrid.compress(line)
        assert len(payload) <= len(raw) + 1

    def test_incompressible_returns_none(self, hybrid):
        rng = random.Random(21)
        assert hybrid.compress(random_line(rng)) is None

    def test_memoization_returns_same_result(self, hybrid):
        line = small_int_line()
        assert hybrid.compress(line) == hybrid.compress(line)

    def test_memoization_of_incompressible(self, hybrid):
        rng = random.Random(21)
        line = random_line(rng)
        assert hybrid.compress(line) is None
        assert hybrid.compress(line) is None  # served from cache

    def test_clear_cache(self, hybrid):
        hybrid.compress(zero_line())
        hybrid.clear_cache()
        assert hybrid.compress(zero_line()) is not None

    def test_custom_algorithm_set(self):
        h = HybridCompressor([ZeroLine(), CPack()])
        assert h.compress(zero_line())[0] == 0
        line = struct.pack(">16I", *([0xCAFEBABE] * 16))
        payload = h.compress(line)
        assert payload[0] == 1
        assert h.decompress(payload) == line

    def test_empty_algorithm_set_rejected(self):
        with pytest.raises(ValueError):
            HybridCompressor([])

    def test_decompress_unknown_tag(self, hybrid):
        with pytest.raises(CompressionError):
            hybrid.decompress(b"\x09\x00")

    def test_decompress_empty(self, hybrid):
        with pytest.raises(CompressionError):
            hybrid.decompress(b"")

    def test_compressed_size_helper(self, hybrid):
        rng = random.Random(21)
        assert hybrid.compressed_size(random_line(rng)) == 64
        assert hybrid.compressed_size(zero_line()) < 8

    def test_compress_and_size_agree(self, hybrid):
        for line in (zero_line(), small_int_line(), random_line(random.Random(21))):
            payload, size = hybrid.compress_and_size(line)
            assert size == (64 if payload is None else len(payload))
            assert size == hybrid.compressed_size(line)

    def test_cached_size_lifecycle(self):
        h = HybridCompressor([FixedSize("only", 10)], memoize=True)
        line = b"\x07" * 64
        assert h.cached_size(line) is None  # never compressed yet
        assert h.compressed_size(line) == 11  # payload + tag byte
        assert h.cached_size(line) == 11
        h.clear_cache()
        assert h.cached_size(line) is None

    def test_cached_size_derives_from_payload_memo(self):
        h = HybridCompressor([FixedSize("only", 10)], memoize=True)
        line = b"\x07" * 64
        h.compress(line)  # fills the payload memo
        h._sizes.clear()  # size memo empty: must derive, not recompress
        assert h.cached_size(line) == 11

    def test_seed_sizes_feeds_compressed_size(self):
        h = HybridCompressor([FixedSize("only", 10)], memoize=True)
        line = b"\x07" * 64
        h.seed_sizes([line], [11])
        assert h.cached_size(line) == 11
        assert h.compressed_size(line) == 11

    def test_seed_sizes_noop_without_memo(self):
        h = HybridCompressor([FixedSize("only", 10)], memoize=False)
        h.seed_sizes([b"\x07" * 64], [11])
        assert h.cached_size(b"\x07" * 64) is None


class TestTieBreaking:
    """Equal-size candidates must resolve to the first algorithm.

    The rule (strict ``<`` in constructor order) is load-bearing: the
    vectorized batch kernel applies the same first-minimum selection, and
    any divergence would break the batch-vs-scalar bitwise-identity
    guarantee the simulator relies on.
    """

    def test_tie_keeps_first_algorithm(self):
        line = b"\x07" * 64
        h = HybridCompressor(
            [FixedSize("a", 8), FixedSize("b", 8)], memoize=False
        )
        payload = h.compress(line)
        assert payload is not None and payload[0] == 0

    def test_tie_follows_constructor_order(self):
        line = b"\x07" * 64
        h = HybridCompressor(
            [FixedSize("b", 8), FixedSize("a", 8)], memoize=False
        )
        payload = h.compress(line)
        assert payload[0] == 0  # still the first listed, not a name sort

    def test_strictly_smaller_still_wins(self):
        line = b"\x07" * 64
        h = HybridCompressor(
            [FixedSize("a", 9), FixedSize("b", 8)], memoize=False
        )
        assert h.compress(line)[0] == 1

    def test_real_algorithm_ties_are_deterministic(self):
        """Replaying the same corpus twice (memoized and not) always
        lands on the same tag, even where FPC and BDI tie on size."""
        rng = random.Random(7)
        lines = [small_int_line(start=i, step=1) for i in range(32)]
        lines += [pointer_line(base=0x7FFF_AB00_0000 + i * 0x1000) for i in range(8)]
        lines += [random_line(rng) for _ in range(8)]
        fresh = HybridCompressor(memoize=False)
        memo = HybridCompressor(memoize=False)
        for line in lines:
            a, b = fresh.compress(line), memo.compress(line)
            assert a == b


@given(any_lines)
def test_hybrid_roundtrip_property(line):
    hybrid = HybridCompressor(memoize=False)
    payload = hybrid.compress(line)
    if payload is not None:
        assert len(payload) < 64
        assert hybrid.decompress(payload) == line


@given(any_lines)
def test_hybrid_never_worse_than_components(line):
    hybrid = HybridCompressor(memoize=False)
    payload = hybrid.compress(line)
    for algorithm in (FPC(), BDI()):
        component = algorithm.compress(line)
        if component is not None and len(component) + 1 < 64:
            assert payload is not None
            assert len(payload) <= len(component) + 1


class TestDecompressionMemo:
    """``decompress`` memoizes per instance; it must agree with an
    unmemoized compressor and ``clear_cache`` must empty it."""

    @staticmethod
    def _pattern_lines():
        from repro.util.hashing import KeyedHash
        from repro.workloads.data_patterns import PatternKind, render_pattern

        keyed = KeyedHash(7)
        return [
            render_pattern(kind, nonce, keyed)
            for kind in PatternKind
            for nonce in range(6)
        ]

    def test_agrees_with_unmemoized_on_pattern_families(self):
        memo, plain = HybridCompressor(), HybridCompressor(memoize=False)
        for line in self._pattern_lines():
            payload = plain.compress(line)
            if payload is None:
                continue
            first = memo.decompress(payload)
            again = memo.decompress(payload)  # served from the memo
            assert first == again == plain.decompress(payload) == line

    @given(any_lines)
    def test_agrees_with_unmemoized_on_random_lines(self, line):
        memo, plain = HybridCompressor(), HybridCompressor(memoize=False)
        payload = plain.compress(line)
        if payload is not None:
            assert memo.decompress(payload) == plain.decompress(payload) == line
            assert memo.decompress(payload) == line

    def test_memo_is_per_instance_and_cleared(self):
        memo = HybridCompressor()
        payload = memo.compress(small_int_line())
        memo.decompress(payload)
        assert memo._lines
        assert not HybridCompressor()._lines  # not shared across instances
        memo.clear_cache()
        assert not memo._lines
        assert memo.decompress(payload) == small_int_line()

    def test_unmemoized_keeps_nothing(self):
        plain = HybridCompressor(memoize=False)
        plain.decompress(plain.compress(small_int_line()))
        assert not plain._lines

    def test_corrupt_payloads_still_raise(self):
        memo = HybridCompressor()
        with pytest.raises(CompressionError):
            memo.decompress(b"")
        with pytest.raises(CompressionError):
            memo.decompress(b"\x09abc")
