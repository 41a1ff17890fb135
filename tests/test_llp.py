"""Tests for the Line Location Predictor."""

import pytest

from repro.core.llp import LINES_PER_PAGE, LineLocationPredictor
from repro.types import Level


class TestPrediction:
    def test_initial_prediction_uncompressed(self):
        llp = LineLocationPredictor()
        assert llp.predict(1234) is Level.UNCOMPRESSED

    def test_learns_last_status(self):
        llp = LineLocationPredictor()
        llp.update(100, Level.QUAD)
        assert llp.predict(100) is Level.QUAD

    def test_page_granularity(self):
        llp = LineLocationPredictor()
        llp.update(0, Level.PAIR)
        # line 1 shares page 0 with line 0
        assert llp.predict(1) is Level.PAIR
        # a different page is independent (modulo hash aliasing)
        other = LINES_PER_PAGE * 3 + 5
        assert llp.predict(other) in Level.__members__.values()

    def test_update_overwrites(self):
        llp = LineLocationPredictor()
        llp.update(100, Level.QUAD)
        llp.update(100, Level.UNCOMPRESSED)
        assert llp.predict(100) is Level.UNCOMPRESSED

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            LineLocationPredictor(entries=0)


def resolve(llp, addr, actual):
    """One read as the controller does it: predict, charge a wrong guess
    through ``record_mispredict``, then train the LCT."""
    predicted = llp.predict(addr)
    if predicted != actual:
        llp.record_mispredict()
    llp.update(addr, actual)


class TestAccuracyTracking:
    def test_perfect_accuracy_initially(self):
        llp = LineLocationPredictor()
        assert llp.accuracy == 1.0

    def test_mispredict_counting_via_record_mispredict(self):
        llp = LineLocationPredictor()
        resolve(llp, 100, Level.QUAD)
        assert llp.mispredictions == 1
        assert llp.predictions == 1
        assert llp.accuracy == 0.0

    def test_correct_prediction_not_counted(self):
        llp = LineLocationPredictor()
        llp.update(100, Level.QUAD)
        resolve(llp, 100, Level.QUAD)
        assert llp.mispredictions == 0

    def test_update_only_trains(self):
        """Accuracy has one path, ``record_mispredict``; ``update`` takes
        no prediction and never counts one."""
        llp = LineLocationPredictor()
        llp.predict(100)
        llp.update(100, Level.QUAD)
        assert llp.mispredictions == 0
        with pytest.raises(TypeError):
            llp.update(100, Level.QUAD, predicted=Level.UNCOMPRESSED)

    def test_out_of_range_accuracy_raises(self):
        """An explicit raise, not an ``assert``: it survives ``python -O``."""
        llp = LineLocationPredictor()
        llp.predict(5)
        llp.mispredictions = 2
        with pytest.raises(ValueError, match="out of range"):
            llp.accuracy

    def test_record_mispredict(self):
        # one prediction resolved after 2 extra probes: ONE misprediction,
        # with the second re-issue tracked separately (a prediction cannot
        # be wrong more than once)
        llp = LineLocationPredictor()
        llp.predict(5)
        llp.record_mispredict(2)
        assert llp.mispredictions == 1
        assert llp.extra_reissues == 1

    def test_accuracy_bounded_under_quad_group_mispredictions(self):
        """Regression: a quad-group miss re-issues up to 3 probes; accuracy
        must stay within [0, 1] even when every prediction is wrong."""
        llp = LineLocationPredictor()
        for addr in range(10):
            llp.predict(addr)
            llp.record_mispredict(3)  # worst case: walked all candidates
        assert llp.predictions == 10
        assert llp.mispredictions == 10
        assert llp.extra_reissues == 20
        assert llp.accuracy == 0.0

    def test_record_mispredict_zero_extra_is_noop(self):
        llp = LineLocationPredictor()
        llp.predict(5)
        llp.record_mispredict(0)
        assert llp.mispredictions == 0
        assert llp.accuracy == 1.0

    def test_reset_stats(self):
        llp = LineLocationPredictor()
        llp.predict(5)
        llp.record_mispredict(3)
        llp.reset_stats()
        assert llp.predictions == 0
        assert llp.extra_reissues == 0
        assert llp.accuracy == 1.0

    def test_accuracy_on_workload_with_page_locality(self):
        """Pages with homogeneous levels should predict near-perfectly."""
        llp = LineLocationPredictor(entries=512)
        # 8 pages, each with a fixed level, visited round-robin twice
        levels = [Level.QUAD, Level.PAIR, Level.UNCOMPRESSED, Level.QUAD] * 2
        for sweep in range(3):
            for page, level in enumerate(levels):
                for line in range(0, 64, 7):
                    resolve(llp, page * LINES_PER_PAGE + line, level)
        # after the first sweep everything is learned
        assert llp.accuracy > 0.6
        llp.reset_stats()
        for page, level in enumerate(levels):
            for line in range(0, 64, 7):
                resolve(llp, page * LINES_PER_PAGE + line, level)
        assert llp.accuracy == 1.0


class TestStorage:
    def test_paper_cost(self):
        # Table III: 512 entries x 2 bits = 128 bytes
        assert LineLocationPredictor(entries=512).storage_bits() == 128 * 8
