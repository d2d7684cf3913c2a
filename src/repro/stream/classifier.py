"""Online FP-Inconsistent scoring of columnar micro-batches.

The :class:`OnlineClassifier` is the serving-side counterpart of
:meth:`FPInconsistent.classify_table`: the same vectorized spatial match
per batch, with the temporal seen-state
(:class:`~repro.core.temporal.TemporalStreamState`) and the spatial state
(:class:`~repro.core.detector.SpatialMatchState`) carried across batches,
so scoring a stream of batches in arrival order gives the verdicts of one
batch classification of the concatenated table (``tests/test_stream.py``)
while each call touches only the arriving rows.  It classifies through its
own detector clone, so hot-swapping a refreshed list never touches the
fitted detector a caller handed in.
"""

from __future__ import annotations

from repro import obs
from repro.core.columnar import ColumnarTable
from repro.core.detector import FPInconsistent, Verdicts
from repro.core.rules import FilterList

_ROWS_SCORED = obs.counter(
    "repro_stream_rows_scored_total", "Rows scored by online classifiers."
)
_SWAPS = obs.counter(
    "repro_stream_refresh_swaps_total",
    "Filter-list hot-swaps deployed into online classifiers.",
)


class OnlineClassifier:
    """Scores micro-batches with persistent cross-batch temporal state."""

    def __init__(self, detector: FPInconsistent):
        # A private clone, so the filter list reference is swappable
        # without touching the source; the stream's temporal seen-state is
        # its own ``TemporalStreamState``.
        self._detector = detector.isolated_clone()
        self._state = self._detector.temporal_detector.new_stream_state()
        self._spatial = self._detector.new_spatial_state()
        self._rows_scored = 0
        self._swaps = 0

    # -- introspection ---------------------------------------------------------

    @property
    def filter_list(self) -> FilterList:
        return self._detector.filter_list

    @property
    def temporal_state(self):
        """The cross-batch seen-state (observability/tests)."""

        return self._state

    @property
    def rows_scored(self) -> int:
        return self._rows_scored

    @property
    def swaps(self) -> int:
        """How many filter-list hot-swaps this stream has performed."""

        return self._swaps

    # -- scoring ---------------------------------------------------------------

    def classify_batch(self, batch: ColumnarTable) -> Verdicts:
        """Score one micro-batch; returns its verdict columns in row order.

        The deployed list's compiled matcher scores the batch after
        extending its code translations by the batch's new vocabulary, the
        memoised Location predicate fills misses, and the temporal detector
        updates the stream's seen-state in place.  Rule indices point into
        this classifier's rule table, shared by every batch it scores.
        """

        verdicts = self._detector.classify_table(
            batch, temporal_state=self._state, spatial_state=self._spatial
        )
        self._rows_scored += batch.n_rows
        _ROWS_SCORED.inc(batch.n_rows)
        return verdicts

    def swap_filter_list(self, filter_list: FilterList) -> None:
        """Deploy a refreshed rule set, effective from the next batch.

        The new list is compiled once, on the first batch it scores; the
        rule table and Location memo carry over, and temporal state is
        rule-independent, so the swap is deterministic at the batch
        boundary: every row of batch *k* is scored by exactly one list.
        """

        self._detector.filter_list = filter_list
        self._swaps += 1
        _SWAPS.inc()

    def restore(
        self,
        *,
        filter_list: FilterList = None,
        temporal_state=None,
        rows_scored: int = 0,
        swaps: int = 0,
    ) -> "OnlineClassifier":
        """Adopt state carried over from a failed or checkpointed stream.

        The replay driver's supervision path rebuilds a failed classifier
        as a fresh one and hands it the failed one's deployed filter list,
        cross-batch seen-state and counters; the checkpoint restore path
        does the same from a snapshot.  Unlike
        :meth:`swap_filter_list` this does not count as a hot-swap — the
        restored stream continues exactly where the original stood.
        Returns ``self`` for chaining.
        """

        if filter_list is not None:
            self._detector.filter_list = filter_list
        if temporal_state is not None:
            self._state = temporal_state
        self._rows_scored = int(rows_scored)
        self._swaps = int(swaps)
        return self
