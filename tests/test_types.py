"""Tests for the shared types module."""


from repro.types import Category, Level, ReadResult


class TestLevel:
    def test_values_are_group_sizes(self):
        assert int(Level.UNCOMPRESSED) == 1
        assert int(Level.PAIR) == 2
        assert int(Level.QUAD) == 4

    def test_ordering(self):
        assert Level.UNCOMPRESSED < Level.PAIR < Level.QUAD

    def test_max_works_for_result_levels(self):
        assert max([Level.PAIR, Level.UNCOMPRESSED]) is Level.PAIR


class TestCategory:
    def test_write_categories(self):
        assert Category.DATA_WRITE.is_write
        assert Category.METADATA_WRITE.is_write
        assert Category.CLEAN_WRITEBACK.is_write
        assert Category.INVALIDATE_WRITE.is_write

    def test_read_categories(self):
        assert not Category.DATA_READ.is_write
        assert not Category.METADATA_READ.is_write
        assert not Category.MISPREDICT_READ.is_write
        assert not Category.PREFETCH_READ.is_write
        assert not Category.MAINTENANCE.is_write

    def test_values_unique(self):
        values = [c.value for c in Category]
        assert len(values) == len(set(values))


class TestRecords:
    def test_read_result_defaults(self):
        result = ReadResult(addr=1, data=b"x", level=Level.UNCOMPRESSED, completion=5)
        assert result.accesses == 1
        assert result.extra_lines == {}
        assert not result.mispredicted
