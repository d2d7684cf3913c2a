"""Periodic filter-list refresh over a sliding window of ingested rows.

A deployed filter list ages: bot services rotate configurations, so the
rule set mined from last month's traffic slowly loses coverage.  The
:class:`FilterListRefresher` keeps the most recent ``window_rows`` rows of
every observed batch (just the attribute code columns — the decode lists
are the ingestor's live vocabulary, shared by reference) and periodically
re-mines a fresh :class:`~repro.core.rules.FilterList` over that window
with the exact batch miner (:meth:`SpatialInconsistencyMiner.mine_table`),
serially: one dense count grid per attribute pair.

Two refresh schedules are supported, selected by exactly one constructor
knob:

* ``interval_batches`` — every N observed batches, the original replay
  cadence (``repro stream --refresh-every``);
* ``interval_days`` — every N days of **stream time** (batch timestamps
  are seconds since campaign start), which models filter-list staleness
  faithfully: a deployment re-mines on wall-clock cadence, not on a
  traffic-volume-dependent batch count (``repro stream --refresh-days``).

Mining over window columns encoded in the stream's global vocabulary is
equivalent to mining a fresh extraction of the same rows: co-occurrence
counts are code-numbering-independent, and the miner rebuilds its value
dictionaries in window-row first-occurrence order either way
(``tests/test_stream.py`` pins the equivalence).

The :class:`~repro.stream.replay.ReplayDriver` calls
:meth:`FilterListRefresher.maybe_refresh` after each observed batch.  A
re-mine that raises is rescheduled: the next attempt comes
:data:`REFRESH_BACKOFF_BASE_BATCHES` batches later, the delay doubling
per consecutive failure up to :data:`REFRESH_BACKOFF_CAP_BATCHES`, while
the stream keeps scoring with the deployed list.  The retry schedule is
part of the refresher's checkpointed state.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro import faults, obs
from repro.core.columnar import ColumnarTable
from repro.core.rules import FilterList
from repro.core.spatial import SpatialInconsistencyMiner
from repro.honeysite.storage import SECONDS_PER_DAY

#: Failed-re-mine retry backoff, in observed batches: the first retry
#: comes one batch later, then the delay doubles per consecutive failure
#: up to the cap, and resets on the next successful re-mine.
REFRESH_BACKOFF_BASE_BATCHES = 1
REFRESH_BACKOFF_CAP_BATCHES = 64

_WINDOW_ROWS = obs.gauge(
    "repro_stream_window_rows", "Rows currently retained in the refresh window."
)
_REFRESH_MINES = obs.counter(
    "repro_stream_refresh_mines_total", "Filter-list re-mines over the window."
)


class FilterListRefresher:
    """Re-mines the filter list over the last ``window_rows`` ingested rows.

    Exactly one of ``interval_batches`` (refresh every N batches) and
    ``interval_days`` (refresh every N days of stream time) must be given;
    ``window_rows`` bounds the sliding re-mining window.
    """

    def __init__(
        self,
        miner: Optional[SpatialInconsistencyMiner] = None,
        *,
        interval_batches: Optional[int] = None,
        interval_days: Optional[float] = None,
        window_rows: int,
    ):
        if (interval_batches is None) == (interval_days is None):
            raise ValueError(
                "set exactly one of interval_batches (refresh every N batches) "
                "or interval_days (refresh every N stream days)"
            )
        if interval_batches is not None and interval_batches < 1:
            raise ValueError(f"interval_batches must be >= 1, got {interval_batches}")
        if interval_days is not None and interval_days <= 0:
            raise ValueError(f"interval_days must be positive, got {interval_days}")
        if window_rows < 1:
            raise ValueError(f"window_rows must be >= 1, got {window_rows}")
        self._miner = miner if miner is not None else SpatialInconsistencyMiner()
        self.interval_batches = None if interval_batches is None else int(interval_batches)
        self.interval_days = None if interval_days is None else float(interval_days)
        self.window_rows = int(window_rows)
        #: retained per-batch code columns, oldest first
        self._recent: List[Dict] = []
        #: rows the window holds now
        self.rows_in_window = 0
        #: rows ever appended to the window (monotone; marks checkpoints)
        self.rows_observed = 0
        #: batches observed so far (the batch-driven schedule's clock)
        self.batches_seen = 0
        #: the latest observed batch: every batch shares the ingestor's
        #: live vocabulary, so any one of them can decode the window
        self._template: Optional[ColumnarTable] = None
        #: stream-clock bookkeeping (``interval_days`` mode only)
        self._latest_ts: Optional[float] = None
        self._next_due_ts: Optional[float] = None
        #: failed-re-mine retry schedule (see :meth:`maybe_refresh`)
        self._attempts = 0
        self._retry_at: Optional[int] = None
        self._backoff = REFRESH_BACKOFF_BASE_BATCHES

    @property
    def stream_day(self) -> Optional[int]:
        """The latest observed stream day (0-based), ``None`` before any.

        Only tracked in ``interval_days`` mode, where batch timestamps
        drive the refresh schedule.
        """

        if self._latest_ts is None:
            return None
        return int(self._latest_ts // SECONDS_PER_DAY)

    # -- checkpointing ---------------------------------------------------------

    def export_state(self, since_rows: int) -> Dict:
        """The refresher's durable state: the window rows observed after
        *since_rows*, the row counters, the schedule clock and the
        failed-re-mine retry schedule.

        ``window`` maps each attribute to the codes of the retained rows
        whose :attr:`rows_observed` position is past *since_rows*, oldest
        first — at most the whole window (``since_rows=0``), and one fresh
        concatenation, so it stays valid while later batches arrive.  A
        checkpointer passes the count of its last published save and so
        writes each window row once.  The template
        batch is deliberately absent — it only serves to decode the window
        against the live vocabulary, and the first post-restore
        :meth:`observe_batch` re-establishes it before any refresh can
        fire.
        """

        need = min(self.rows_observed - since_rows, self.rows_in_window)
        parts: List[Dict] = []
        for part in reversed(self._recent):
            if need <= 0:
                break
            rows = int(next(iter(part.values())).size)
            if rows > need:
                part = {attribute: column[rows - need :] for attribute, column in part.items()}
            parts.append(part)
            need -= rows
        window = {}
        if self._recent:
            window = {
                attribute: np.concatenate(
                    [column[:0]] + [part[attribute] for part in reversed(parts)]
                )
                for attribute, column in self._recent[0].items()
            }
        return {
            "window": window,
            "rows_in_window": self.rows_in_window,
            "rows_observed": self.rows_observed,
            "batches_seen": self.batches_seen,
            "latest_ts": self._latest_ts,
            "next_due_ts": self._next_due_ts,
            "attempts": self._attempts,
            "retry_at": self._retry_at,
            "backoff": self._backoff,
        }

    def restore_state(self, state: Dict) -> None:
        """Adopt a whole window exported by :meth:`export_state`.

        The window comes back as one retained part; trimming slices it
        exactly as it would the original per-batch parts.
        """

        window = dict(state["window"])
        self._recent = [window] if window else []
        self.rows_in_window = int(state["rows_in_window"])
        self.rows_observed = int(state["rows_observed"])
        self.batches_seen = int(state["batches_seen"])
        self._latest_ts = state["latest_ts"]
        self._next_due_ts = state["next_due_ts"]
        self._attempts = int(state["attempts"])
        self._retry_at = state["retry_at"]
        self._backoff = int(state["backoff"])
        self._template = None

    def observe_batch(self, batch: ColumnarTable) -> None:
        """Retain *batch*'s code columns and trim the window to size.

        The oldest retained batch is sliced — not just dropped whole — so
        the window is exactly the last ``window_rows`` rows regardless of
        how batch boundaries fall.  In ``interval_days`` mode the batch
        must carry timestamps (every ingestor-emitted batch does); they
        advance the stream clock the schedule runs on.
        """

        self._template = batch
        if self.interval_days is not None:
            if batch.timestamps is None:
                raise ValueError(
                    "day-driven refresh needs batches with timestamps "
                    "(tables built by the stream ingestor or extract_table)"
                )
            if batch.n_rows:
                first = float(batch.timestamps.min())
                latest = float(batch.timestamps.max())
                if self._next_due_ts is None:
                    self._next_due_ts = first + self.interval_days * SECONDS_PER_DAY
                if self._latest_ts is None or latest > self._latest_ts:
                    self._latest_ts = latest
        if batch.n_rows:
            self._recent.append(
                {attribute: batch.codes_of(attribute) for attribute in batch.attributes}
            )
            self.rows_in_window += batch.n_rows
            self.rows_observed += batch.n_rows
        overflow = self.rows_in_window - self.window_rows
        while overflow > 0:
            oldest = self._recent[0]
            oldest_rows = int(next(iter(oldest.values())).size)
            if overflow >= oldest_rows:
                self._recent.pop(0)
                self.rows_in_window -= oldest_rows
                overflow -= oldest_rows
            else:
                self._recent[0] = {
                    attribute: column[overflow:] for attribute, column in oldest.items()
                }
                self.rows_in_window -= overflow
                overflow = 0
        self.batches_seen += 1
        _WINDOW_ROWS.set(self.rows_in_window)

    def window_table(self) -> ColumnarTable:
        """The current window as one mineable columnar table.

        Columns are concatenations of the retained batch slices; decode
        lists are the ingestor's live vocabulary.  No request metadata —
        mining never reads it.
        """

        if not self._recent:
            raise ValueError("the refresh window is empty; observe at least one batch")
        attributes = list(self._recent[0])
        return self._template.with_columns(
            {
                attribute: np.concatenate([part[attribute] for part in self._recent])
                for attribute in attributes
            }
        )

    def poll_due(self) -> bool:
        """Whether a refresh interval just completed (call once per batch).

        ``interval_batches`` mode is a pure batch-count check.
        ``interval_days`` mode consumes the trigger: when the stream clock
        has crossed the next due time, the schedule advances to
        ``latest + interval`` so each crossing fires exactly once.
        """

        if self.interval_batches is not None:
            return bool(
                self.batches_seen and self.batches_seen % self.interval_batches == 0
            )
        if self._latest_ts is None or self._next_due_ts is None:
            return False
        if self._latest_ts >= self._next_due_ts:
            self._next_due_ts = self._latest_ts + self.interval_days * SECONDS_PER_DAY
            return True
        return False

    def mine(self, table: ColumnarTable) -> FilterList:
        """Mine a filter list over *table* with this refresher's miner knobs."""

        with obs.tracer().span("stream.refresh_mine", rows=table.n_rows):
            filter_list = self._miner.mine_table(table)
        _REFRESH_MINES.inc()
        return filter_list

    def refresh(self) -> FilterList:
        """Mine a fresh filter list over the current window."""

        return self.mine(self.window_table())

    def maybe_refresh(self) -> Optional[FilterList]:
        """A fresh list when a refresh is due, else ``None``.

        Call once per batch, after :meth:`observe_batch`; the driver swaps
        the returned list into the classifier before the next batch.  A
        refresh is due when an interval just completed or a failed
        re-mine's retry comes up.  :meth:`poll_due` runs every batch, even
        while a retry is pending, so the days-mode schedule consumes its
        triggers exactly as in a failure-free run.

        A failed re-mine (the ``refresh_mine`` fault point, keyed
        ``d<stream day>:r<attempt>``, fires first) re-raises after
        scheduling the retry; the caller keeps its deployed list.
        """

        due = self.poll_due()
        if not due and (self._retry_at is None or self.batches_seen < self._retry_at):
            return None
        self._retry_at = None
        key = f"d{self.stream_day}:r{self._attempts}"
        self._attempts += 1
        try:
            faults.check("refresh_mine", key)
            filter_list = self.refresh()
        except Exception:
            self._retry_at = self.batches_seen + self._backoff
            self._backoff = min(self._backoff * 2, REFRESH_BACKOFF_CAP_BATCHES)
            raise
        self._backoff = REFRESH_BACKOFF_BASE_BATCHES
        return filter_list
