"""The parallel detection gateway: one ingest stream, N scoring workers.

:class:`DetectionGateway` is the serving front-end of the reproduction.
It owns the full online scoring path for one arrival stream:

* **one** :class:`~repro.stream.ingest.StreamIngestor` encodes every
  arriving micro-batch against a single growing vocabulary (ingestion is
  sequential and cheap; a shared vocabulary is what keeps N workers'
  outputs mergeable and byte-identical to a single stream);
* a :class:`~repro.serve.partition.DeviceRouter` splits each encoded
  batch into device-closed row groups, one per worker;
* **N** :class:`~repro.stream.classifier.OnlineClassifier` workers score
  their row groups concurrently on a thread pool, each carrying only its
  own devices' temporal state;
* an optional :class:`~repro.stream.refresh.FilterListRefresher` re-mines
  the filter list over a sliding window — by default on a **background**
  worker, off the scoring path — and the gateway hot-swaps the result
  into every worker at a batch boundary.

The gateway's oracle, pinned by ``tests/test_serve.py`` and the CI serve
smoke: with a frozen filter list, the merged verdicts are byte-identical
to the single-stream :class:`~repro.stream.replay.ReplayDriver` and to
one batch :meth:`FPInconsistent.classify_table` — for any worker count.
The argument is short: ingestion is shared, each device key's rows form
an identical subsequence on whichever single worker holds its state
(migrations move state between batches, before dispatch), spatial
matching is stateless per row, and verdict serialisation sorts by
request id.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import faults, obs
from repro.core.columnar import ColumnarTable
from repro.core.detector import FPInconsistent, InconsistencyVerdict
from repro.core.rules import FilterList
from repro.honeysite.storage import RecordColumns, RecordedRequest
from repro.stream.classifier import OnlineClassifier
from repro.stream.ingest import StreamIngestor
from repro.stream.refresh import FilterListRefresher
from repro.serve.partition import DeviceRouter, KeyMigration

logger = logging.getLogger("repro.serve")

#: Refresh scheduling modes: mine on a background thread and deploy at a
#: later batch boundary, or mine inline like the replay driver.
REFRESH_MODES = ("background", "sync")

#: Scoring attempts per worker row group within one batch.  Each failed
#: attempt rebuilds the worker; a group still failing after the budget is
#: dead-lettered (recorded in :class:`GatewayHealth`, absent from the
#: batch's verdicts) instead of poisoning the stream.
WORKER_ATTEMPTS = 3

#: Seconds :meth:`DetectionGateway.close` waits for an in-flight
#: background re-mine before abandoning it.
CLOSE_JOIN_TIMEOUT = 5.0

#: Failed-re-mine retry backoff, in batches: the first retry launches one
#: batch later, then the delay doubles per consecutive failure up to the
#: cap, and resets on the next successful deploy.
REFRESH_BACKOFF_BASE_BATCHES = 1
REFRESH_BACKOFF_CAP_BATCHES = 64

#: Registry mirrors of :class:`GatewayHealth`.  The incident counters are
#: always on — health stays answerable in untraced runs, and the registry
#: is the cumulative source of truth across every gateway in the process
#: (the per-gateway ``health`` object keeps the detail: which rows were
#: dead-lettered, the last error).  Restoring a checkpoint does *not*
#: re-count: only live record_* events increment.
_WORKER_FAILURES = obs.counter(
    "repro_serve_worker_failures_total",
    "Supervised scoring failures, by gateway worker.",
    always=True,
)
_WORKER_REBUILDS = obs.counter(
    "repro_serve_worker_rebuilds_total",
    "Gateway workers rebuilt after a failure.",
    always=True,
)
_DEAD_LETTERS = obs.counter(
    "repro_serve_dead_letters_total",
    "Row groups dead-lettered after exhausting the attempt budget.",
    always=True,
)
_REFRESH_FAILURES = obs.counter(
    "repro_serve_refresh_failures_total",
    "Failed filter-list re-mines (background or sync).",
    always=True,
)
_MIGRATIONS = obs.counter(
    "repro_serve_migrations_total", "Device keys migrated between workers."
)
_REFRESH_DEPLOYS = obs.counter(
    "repro_serve_refresh_deploys_total",
    "Refreshed filter lists deployed across gateway workers.",
)
_WORKER_SCORE_SECONDS = obs.histogram(
    "repro_serve_worker_score_seconds",
    "Per-batch scoring wall-clock, by gateway worker.",
)


@dataclass
class GatewayHealth:
    """Incident report of one gateway's supervised execution.

    Every recovery action leaves a trace here: per-worker failure counts,
    how many workers were rebuilt, which row groups were dead-lettered
    after exhausting their attempt budget (batch index, worker, request
    ids) and how many background/sync re-mines failed.  A clean run is
    all zeros — the serve smoke asserts the *non*-zero counters under an
    injected fault plan.
    """

    worker_failures: Dict[int, int] = field(default_factory=dict)
    worker_rebuilds: int = 0
    dead_letters: List[Dict] = field(default_factory=list)
    refresh_failures: int = 0
    last_error: Optional[str] = None

    @property
    def total_worker_failures(self) -> int:
        return sum(self.worker_failures.values())

    def record_worker_failure(self, worker: int, exc: BaseException) -> None:
        self.worker_failures[worker] = self.worker_failures.get(worker, 0) + 1
        self.last_error = f"worker {worker}: {exc}"
        _WORKER_FAILURES.inc(worker=worker)

    def record_worker_rebuild(self) -> None:
        self.worker_rebuilds += 1
        _WORKER_REBUILDS.inc()

    def record_dead_letter(self, *, batch: int, worker: int, rows: List[int]) -> None:
        self.dead_letters.append({"batch": batch, "worker": worker, "rows": rows})
        _DEAD_LETTERS.inc()

    def record_refresh_failure(self, exc: BaseException) -> None:
        self.refresh_failures += 1
        self.last_error = f"refresh: {exc}"
        _REFRESH_FAILURES.inc()

    def to_dict(self) -> Dict:
        """JSON-ready summary (the serve CLI embeds it)."""

        return {
            "worker_failures": {
                str(worker): count for worker, count in sorted(self.worker_failures.items())
            },
            "total_worker_failures": self.total_worker_failures,
            "worker_rebuilds": self.worker_rebuilds,
            "dead_letters": [dict(entry) for entry in self.dead_letters],
            "refresh_failures": self.refresh_failures,
            "last_error": self.last_error,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "GatewayHealth":
        health = cls(
            worker_failures={
                int(worker): int(count)
                for worker, count in data.get("worker_failures", {}).items()
            },
            worker_rebuilds=int(data.get("worker_rebuilds", 0)),
            dead_letters=[dict(entry) for entry in data.get("dead_letters", ())],
            refresh_failures=int(data.get("refresh_failures", 0)),
            last_error=data.get("last_error"),
        )
        return health


class DetectionGateway:
    """Parallel online scoring: shared ingest, device-closed workers."""

    def __init__(
        self,
        detector: FPInconsistent,
        *,
        router: Optional[DeviceRouter] = None,
        workers: int = 1,
        refresher: Optional[FilterListRefresher] = None,
        refresh_mode: str = "background",
    ):
        """Assemble a gateway around a fitted *detector*.

        ``router`` defaults to a fresh dynamic :class:`DeviceRouter` with
        ``workers`` workers; pass :meth:`DeviceRouter.from_table` output to
        pre-pin the device partition (the replay path — zero migrations).
        When a ``router`` is given, ``workers`` is taken from it.
        ``refresh_mode`` is ``"background"`` (mine off the scoring path,
        deploy at a later batch boundary) or ``"sync"`` (mine inline at the
        due boundary — the :class:`ReplayDriver` cadence, byte-compatible
        with it).
        """

        if refresh_mode not in REFRESH_MODES:
            raise ValueError(
                f"refresh_mode must be one of {REFRESH_MODES}, got {refresh_mode!r}"
            )
        self._router = router if router is not None else DeviceRouter(workers)
        self.workers = self._router.workers
        #: the shared fitted detector — kept so supervision can rebuild a
        #: failed worker from scratch (each rebuild takes a fresh clone)
        self._detector = detector
        self._ingestor = StreamIngestor(attributes=detector.table_attributes())
        self._classifiers = [OnlineClassifier(detector) for _ in range(self.workers)]
        self._pool = (
            ThreadPoolExecutor(max_workers=self.workers) if self.workers > 1 else None
        )
        self._refresher = refresher
        self.refresh_mode = refresh_mode
        self._refresh_pool = (
            ThreadPoolExecutor(max_workers=1)
            if refresher is not None and refresh_mode == "background"
            else None
        )
        self._inflight: Optional[Future] = None
        self._inflight_day: Optional[int] = None
        self.batches = 0
        self.migrations = 0
        #: one entry per filter-list hot-swap: {"batch", "rules"[, "stream_day"]}
        self.refreshes: List[Dict] = []
        #: supervision incident report (failures, rebuilds, dead letters)
        self.health = GatewayHealth()
        self._health_lock = threading.Lock()
        self._refresh_attempts = 0
        self._refresh_retry_at: Optional[int] = None
        self._refresh_backoff = REFRESH_BACKOFF_BASE_BATCHES
        self._closed = False

    # -- introspection ---------------------------------------------------------

    @property
    def router(self) -> DeviceRouter:
        return self._router

    @property
    def ingestor(self) -> StreamIngestor:
        return self._ingestor

    @property
    def classifiers(self) -> List[OnlineClassifier]:
        """The per-worker scoring streams (observability/tests)."""

        return self._classifiers

    @property
    def rows_scored(self) -> int:
        return sum(classifier.rows_scored for classifier in self._classifiers)

    def worker_rows(self) -> List[int]:
        """Rows scored per worker — the gateway's load-balance report."""

        return [classifier.rows_scored for classifier in self._classifiers]

    # -- submission ------------------------------------------------------------

    def submit_records(
        self, records: Sequence[RecordedRequest]
    ) -> Dict[int, InconsistencyVerdict]:
        """Ingest and score one micro-batch of record objects.

        Returns one verdict per request id, exactly as the single-stream
        classifier would.  Batches must arrive in global timestamp order —
        the same contract the replay driver and a live collector satisfy.
        """

        self._check_open()
        return self._score(self._ingestor.ingest_records(records))

    def submit_rows(
        self, columns: RecordColumns, rows: np.ndarray
    ) -> Dict[int, InconsistencyVerdict]:
        """Ingest and score a row slice of cached record columns."""

        self._check_open()
        return self._score(self._ingestor.ingest_rows(columns, rows))

    # -- the scoring path ------------------------------------------------------

    def _score(self, batch: ColumnarTable) -> Dict[int, InconsistencyVerdict]:
        telemetry_on = obs.telemetry_enabled()
        score_wall = time.time() if telemetry_on else 0.0
        score_started = time.perf_counter() if telemetry_on else 0.0
        # A background-mined list deploys at the earliest batch boundary
        # after mining completes; every row of a batch sees one list.
        self._apply_ready_refresh(block=False)

        assignments, migrations = self._router.route(batch)
        for migration in migrations:
            self._migrate(migration)
        self.migrations += len(migrations)
        if migrations:
            _MIGRATIONS.inc(len(migrations))

        busy = [worker for worker, rows in enumerate(assignments) if rows.size]
        groups = {worker: batch.take(assignments[worker]) for worker in busy}
        if self._pool is not None and len(busy) > 1:
            futures = {
                worker: self._pool.submit(self._classify_supervised, worker, groups[worker])
                for worker in busy
            }
            partials = {worker: futures[worker].result() for worker in busy}
        else:
            partials = {
                worker: self._classify_supervised(worker, groups[worker])
                for worker in busy
            }

        merged: Dict[int, InconsistencyVerdict] = {}
        for worker in busy:
            merged.update(partials[worker])
        # Re-emit in batch row order so callers see arrival-ordered
        # verdicts regardless of how rows were scattered over workers.
        # Dead-lettered rows (a worker's attempt budget exhausted) are the
        # one legitimate absence.
        verdicts: Dict[int, InconsistencyVerdict] = {}
        for rid in batch.request_ids:
            rid = int(rid)
            verdict = merged.get(rid)
            if verdict is not None:
                verdicts[rid] = verdict

        self.batches += 1
        if self._refresher is not None:
            self._refresher.observe_batch(batch)
            # poll_due runs every batch, even while a retry is pending, so
            # the days-mode schedule keeps consuming its triggers exactly
            # as in a failure-free run.
            due = self._refresher.poll_due()
            retry = (
                self._refresh_retry_at is not None
                and self.batches >= self._refresh_retry_at
            )
            if self.refresh_mode == "sync":
                if due or retry:
                    self._refresh_retry_at = None
                    try:
                        faults.check("refresh_mine", self._refresh_key())
                        refreshed = self._refresher.refresh()
                    except Exception as exc:
                        self._refresh_failed(exc)
                    else:
                        self._refresh_backoff = REFRESH_BACKOFF_BASE_BATCHES
                        self._deploy(refreshed)
            elif self._inflight is None and (due or retry):
                # Snapshot the window on the scoring path (cheap copies),
                # mine it off-path; at most one mining job is in flight.
                self._refresh_retry_at = None
                window = self._refresher.window_table()
                self._inflight_day = self._refresher.stream_day
                self._inflight = self._refresh_pool.submit(
                    self._mine_guarded, window, self._refresh_key()
                )
        if telemetry_on:
            obs.tracer().record(
                "serve.score",
                ts=score_wall,
                duration=time.perf_counter() - score_started,
                batch=self.batches - 1,
                rows=batch.n_rows,
                workers=len(busy),
            )
        return verdicts

    # -- supervision -----------------------------------------------------------

    def _classify_supervised(
        self, worker: int, rows_table: ColumnarTable
    ) -> Dict[int, InconsistencyVerdict]:
        """Score one worker's row group, surviving worker failures.

        Each failed attempt rebuilds the worker and re-scores the group
        (an injected fault fires before any state mutates, so the retry
        is exact; a genuine mid-batch crash re-scores best-effort from
        the carried-over state).  A group still failing after
        :data:`WORKER_ATTEMPTS` attempts is dead-lettered: recorded in
        :attr:`health` and absent from the batch's verdicts, so one
        poisoned group never takes the stream down.
        """

        for attempt in range(WORKER_ATTEMPTS):
            classifier = self._classifiers[worker]
            try:
                faults.check("worker_classify", f"b{self.batches}:w{worker}:a{attempt}")
                scored_at = time.perf_counter()
                partial = classifier.classify_batch(rows_table)
                _WORKER_SCORE_SECONDS.observe(
                    time.perf_counter() - scored_at, worker=worker
                )
                return partial
            except Exception as exc:
                with self._health_lock:
                    self.health.record_worker_failure(worker, exc)
                logger.warning("gateway worker %d failed (%s); rebuilding", worker, exc)
                self._rebuild_worker(worker)
        with self._health_lock:
            self.health.record_dead_letter(
                batch=self.batches,
                worker=worker,
                rows=[int(rid) for rid in rows_table.request_ids],
            )
        logger.error(
            "gateway worker %d dead-lettered %d rows of batch %d",
            worker,
            rows_table.n_rows,
            self.batches,
        )
        return {}

    def _rebuild_worker(self, worker: int) -> None:
        """Replace a failed worker with a rebuilt one, state carried over.

        The rebuilt classifier is a fresh clone of the shared detector
        carrying the failed worker's deployed filter list, its full
        device seen-state (the wholesale re-migration of every key the
        worker held — the router's key → worker pins stay valid) and its
        counters, so scoring resumes exactly where the failed worker
        stood.
        """

        failed = self._classifiers[worker]
        self._classifiers[worker] = OnlineClassifier(self._detector).restore(
            filter_list=failed.filter_list,
            temporal_state=failed.temporal_state,
            rows_scored=failed.rows_scored,
            swaps=failed.swaps,
        )
        with self._health_lock:
            self.health.record_worker_rebuild()

    def _migrate(self, migration: KeyMigration) -> None:
        """Move one device key's temporal seen-state between workers.

        State entries are independent per (kind, key, attribute), so a
        straight dict move is exact: the target worker continues the key's
        observation sequence precisely where the source left off.
        """

        source = self._classifiers[migration.source].temporal_state.seen
        target = self._classifiers[migration.target].temporal_state.seen
        attributes = self._classifiers[0]._detector.temporal_detector.tracked_attributes
        for attribute in attributes:
            state_key = (migration.kind, migration.key, attribute)
            values = source.pop(state_key, None)
            if values is not None:
                target[state_key] = values

    # -- refresh plumbing ------------------------------------------------------

    def _refresh_key(self) -> str:
        """The fault-point key of the next mining attempt (monotonic)."""

        key = f"d{self._refresher.stream_day}:r{self._refresh_attempts}"
        self._refresh_attempts += 1
        return key

    def _mine_guarded(self, window: ColumnarTable, key: str) -> FilterList:
        """Background mining unit: fire the ``refresh_mine`` point, then mine."""

        faults.check("refresh_mine", key)
        return self._refresher.mine(window)

    def _refresh_failed(self, exc: BaseException) -> None:
        """A re-mine failed: keep the deployed list, log, reschedule.

        The stream keeps scoring with the current filter list — a stale
        list degrades coverage, never correctness — and the next mining
        attempt is scheduled :attr:`_refresh_backoff` batches out, with
        the delay doubling per consecutive failure up to
        :data:`REFRESH_BACKOFF_CAP_BATCHES`.
        """

        with self._health_lock:
            self.health.record_refresh_failure(exc)
        self._refresh_retry_at = self.batches + self._refresh_backoff
        self._refresh_backoff = min(self._refresh_backoff * 2, REFRESH_BACKOFF_CAP_BATCHES)
        logger.warning(
            "filter-list refresh failed (%s); keeping the deployed list, "
            "retrying at batch %d",
            exc,
            self._refresh_retry_at,
        )

    def _apply_ready_refresh(self, *, block: bool) -> None:
        if self._inflight is None:
            return
        if not block and not self._inflight.done():
            return
        inflight, self._inflight = self._inflight, None
        day, self._inflight_day = self._inflight_day, None
        try:
            refreshed = inflight.result()
        except Exception as exc:
            self._refresh_failed(exc)
            return
        self._refresh_backoff = REFRESH_BACKOFF_BASE_BATCHES
        self._deploy(refreshed, stream_day=day)

    def _deploy(self, filter_list: FilterList, stream_day: Optional[int] = None) -> None:
        for classifier in self._classifiers:
            classifier.swap_filter_list(filter_list)
        entry = {"batch": self.batches, "rules": len(filter_list)}
        if stream_day is None and self._refresher is not None:
            stream_day = self._refresher.stream_day
        if stream_day is not None:
            entry["stream_day"] = stream_day
        self.refreshes.append(entry)
        _REFRESH_DEPLOYS.inc()

    # -- checkpointing ---------------------------------------------------------

    @property
    def checkpointable(self) -> bool:
        """Snapshot-safe right now? (no background re-mine in flight).

        The serve replay driver skips checkpoint boundaries where mining
        is in flight — the next boundary after the deploy captures a
        clean state.
        """

        return self._inflight is None

    def export_state(self) -> Dict:
        """The gateway's durable state, as live references for a checkpoint.

        Covers everything a resumed gateway needs to continue the stream
        exactly, in :class:`~repro.stream.StreamCheckpointer`'s state
        shape: ingest vocabulary, router pins, the worker classifiers
        (filter list + seen-state + counters), the refresher
        window/schedule, the hot-swap history, and under ``gateway`` the
        counters, refresh backoff and health report.
        """

        if self._inflight is not None:
            raise RuntimeError("cannot snapshot with a background re-mine in flight")
        return {
            "ingest": self._ingestor.export_state(),
            "router": self._router.export_state(),
            "classifiers": list(self._classifiers),
            "refresher": (
                self._refresher.export_state() if self._refresher is not None else None
            ),
            "refreshes": self.refreshes,
            "gateway": {
                "workers": self.workers,
                "batches": self.batches,
                "migrations": self.migrations,
                "refresh": {
                    "attempts": self._refresh_attempts,
                    "retry_at": self._refresh_retry_at,
                    "backoff": self._refresh_backoff,
                },
                "health": self.health.to_dict(),
            },
        }

    def restore_state(self, state: Dict) -> None:
        """Adopt a state loaded by :meth:`StreamCheckpointer.load`."""

        gateway = state["gateway"]
        if gateway is None or int(gateway["workers"]) != self.workers:
            workers = None if gateway is None else gateway["workers"]
            raise ValueError(
                f"checkpointed gateway has {workers} workers; "
                f"this gateway has {self.workers}"
            )
        self._ingestor.restore_state(state["ingest"])
        self._router.restore_state(state["router"])
        self._classifiers = [
            OnlineClassifier(self._detector).restore(**entry)
            for entry in state["classifiers"]
        ]
        self.batches = int(gateway["batches"])
        self.migrations = int(gateway["migrations"])
        self.refreshes = [dict(entry) for entry in state["refreshes"]]
        if state.get("refresher") is not None and self._refresher is not None:
            self._refresher.restore_state(state["refresher"])
        refresh = gateway["refresh"]
        self._refresh_attempts = int(refresh["attempts"])
        self._refresh_retry_at = refresh["retry_at"]
        self._refresh_backoff = int(refresh["backoff"])
        self.health = GatewayHealth.from_dict(gateway["health"])

    def drain(self) -> None:
        """Wait for any in-flight background mining and deploy its result.

        Call at end of stream (the replay drivers do) so a refresh that
        was still mining when the last batch arrived is not silently lost.
        """

        self._check_open()
        self._apply_ready_refresh(block=True)

    def close(self) -> None:
        """Shut the worker pools down; the gateway accepts no more batches.

        An in-flight background re-mine is cancelled if still queued, else
        joined with a bounded timeout and its outcome — result or
        exception — swallowed: close never raises for work the caller
        already chose to abandon, and never blocks indefinitely on a
        stuck mining job.
        """

        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self._refresh_pool is not None:
            inflight, self._inflight = self._inflight, None
            if inflight is not None:
                inflight.cancel()
                try:
                    inflight.exception(timeout=CLOSE_JOIN_TIMEOUT)
                except Exception:
                    pass  # cancelled, timed out or failed — all abandoned
            self._refresh_pool.shutdown(wait=False)

    def __enter__(self) -> "DetectionGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("the gateway is closed")
