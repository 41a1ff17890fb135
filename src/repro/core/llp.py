"""Line Location Predictor (paper §IV-B, Figs. 7, 8, 9).

The LLP predicts a line's compression status — and therefore, through the
TMC address mapping, its location — before the memory access is issued.
It exploits the observation that lines within a page tend to have similar
compressibility: a small direct-mapped *Last Compressibility Table* (LCT),
indexed by a hash of the page address, remembers the last compression
status observed for that index.  The prediction is verified for free by
the inline marker on the retrieved line; a misprediction triggers a
re-issue to the line's other candidate location(s) and an LCT update.

512 entries x 2 bits = 128 bytes of storage (Table III).
"""

from __future__ import annotations

from typing import Dict, List

from repro.types import Level
from repro.telemetry import StatScope
from repro.util.hashing import mix64

LINES_PER_PAGE = 64
"""4KB pages of 64-byte lines; compressibility locality is per page."""


class LineLocationPredictor:
    """History-based compressibility (hence location) predictor."""

    def __init__(self, entries: int = 512, lines_per_page: int = LINES_PER_PAGE) -> None:
        if entries < 1:
            raise ValueError("LCT needs at least one entry")
        self._entries = entries
        self._lines_per_page = lines_per_page
        self._lct: List[Level] = [Level.UNCOMPRESSED] * entries
        #: page -> LCT index; the hash is pure, so each page is hashed once
        self._page_index: Dict[int, int] = {}
        self.predictions = 0
        self.mispredictions = 0
        #: extra re-issued accesses beyond the first correction (a quad
        #: group can need up to 3 probes); bandwidth accounting, not
        #: accuracy — a prediction is wrong at most once.
        self.extra_reissues = 0

    @property
    def entries(self) -> int:
        return self._entries

    def entry(self, addr: int) -> int:
        """The LCT entry of ``addr``'s page.

        A read looks its entry up once and passes it to
        :meth:`predict_entry` and :meth:`update_entry`.
        """
        page = addr // self._lines_per_page
        index = self._page_index.get(page)
        if index is None:
            index = mix64(page) % self._entries
            self._page_index[page] = index
        return index

    def predict(self, addr: int) -> Level:
        """Predicted compression status for ``addr`` (its page's last status)."""
        return self.predict_entry(self.entry(addr))

    def predict_entry(self, entry: int) -> Level:
        """:meth:`predict` for an LCT entry from :meth:`entry`."""
        self.predictions += 1
        return self._lct[entry]

    def update(self, addr: int, actual: Level) -> None:
        """Record the observed compression status after a resolved access.

        Accuracy is charged separately, by :meth:`record_mispredict`.
        """
        self._lct[self.entry(addr)] = actual

    def update_entry(self, entry: int, actual: Level) -> None:
        """:meth:`update` for an LCT entry from :meth:`entry`."""
        self._lct[entry] = actual

    def record_mispredict(self, extra_accesses: int = 1) -> None:
        """Charge one misprediction resolved after ``extra_accesses`` probes.

        A single prediction is wrong at most once, however many candidate
        locations had to be re-probed before the line was found; the
        re-issues beyond the first are tracked separately so bandwidth
        accounting keeps them without corrupting the accuracy statistic.
        """
        if extra_accesses < 1:
            return
        self.mispredictions += 1
        self.extra_reissues += extra_accesses - 1

    @property
    def accuracy(self) -> float:
        """Fraction of predictions that found the line in one access."""
        if self.predictions == 0:
            return 1.0
        value = 1.0 - self.mispredictions / self.predictions
        if not 0.0 <= value <= 1.0:
            raise ValueError(
                f"LLP accuracy out of range: {self.mispredictions} mispredictions "
                f"over {self.predictions} predictions"
            )
        return value

    def register_stats(self, scope: StatScope) -> None:
        """Expose prediction counters and windowed accuracy (``*.llp.*``)."""
        predictions = scope.counter("predictions", lambda: self.predictions)
        mispredictions = scope.counter("mispredictions", lambda: self.mispredictions)
        scope.counter("extra_reissues", lambda: self.extra_reissues)
        scope.ratio(
            "accuracy", mispredictions, [predictions], default=1.0, one_minus=True
        )

    def storage_bits(self) -> int:
        """2 bits of last-compressibility state per LCT entry (Table III)."""
        return self._entries * 2

    def reset_stats(self) -> None:
        self.predictions = 0
        self.mispredictions = 0
        self.extra_reissues = 0
