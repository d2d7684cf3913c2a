"""Corpus replay through the streaming subsystem — the one online engine.

The :class:`ReplayDriver` feeds a request store's record columns through
the online pipeline in timestamp order: a
:class:`~repro.stream.ingest.StreamIngestor` encodes each micro-batch, an
:class:`~repro.stream.classifier.OnlineClassifier` scores it, and an
optional :class:`~repro.stream.refresh.FilterListRefresher` hot-swaps a
re-mined filter list at batch boundaries.  With a **frozen** filter list
the replay's verdicts serialise byte for byte like one batch
:meth:`FPInconsistent.classify_table` over the whole store, for any batch
size (:func:`same_verdicts` checks it, :func:`verdicts_digest` publishes
it).  Scoring is supervised: a batch whose classification raises is
retried on a rebuilt classifier up to :data:`WORKER_ATTEMPTS` times, then
dead-lettered, and every recovery is recorded in :class:`StreamHealth`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro import faults, obs
from repro.core.columnar import ColumnarTable
from repro.core.detector import FPInconsistent, Verdicts
from repro.core.rules import FilterList, rule_key
from repro.core.temporal import ATTRIBUTES, KEY_KINDS
from repro.fingerprint.attributes import Attribute
from repro.honeysite.storage import RequestStore
from repro.stream.checkpoint import CheckpointError, StreamCheckpointer
from repro.stream.classifier import OnlineClassifier
from repro.stream.ingest import StreamIngestor
from repro.stream.refresh import FilterListRefresher

logger = logging.getLogger("repro.stream")

#: Default micro-batch size of the replay driver and the CLI.
DEFAULT_BATCH_SIZE = 1024

#: Classification attempts per batch.  Each failed attempt rebuilds the
#: classifier; a batch still failing after the budget is dead-lettered
#: (recorded in :class:`StreamHealth`, absent from the verdicts) instead
#: of taking the stream down.
WORKER_ATTEMPTS = 3

#: Per-batch wall-clock by stage (``ingest``/``classify``/``refresh``)
#: plus the end-to-end ``total``.
_BATCH_SECONDS = obs.histogram(
    "repro_stream_batch_seconds",
    "Per-batch latency in seconds, by stage (ingest, classify, refresh, total).",
)

#: Registry mirrors of :class:`StreamHealth`.  The incident counters are
#: always on — health stays answerable in untraced runs, and the registry
#: is the cumulative source of truth across every replay in the process
#: (the per-replay ``health`` object keeps the detail: which rows were
#: dead-lettered, the last error).  Restoring a checkpoint does *not*
#: re-count: only live record_* events increment.
_CLASSIFY_FAILURES = obs.counter(
    "repro_stream_classify_failures_total",
    "Supervised batch classifications that raised.",
    always=True,
)
_CLASSIFIER_REBUILDS = obs.counter(
    "repro_stream_classifier_rebuilds_total",
    "Online classifiers rebuilt after a failure.",
    always=True,
)
_DEAD_LETTERS = obs.counter(
    "repro_stream_dead_letters_total",
    "Batches dead-lettered after exhausting the attempt budget.",
    always=True,
)
_REFRESH_FAILURES = obs.counter(
    "repro_stream_refresh_failures_total",
    "Failed filter-list re-mines.",
    always=True,
)

#: Filter-list churn per hot swap: rules of the refreshed list that the
#: deployed one lacked (``added``), rules it drops (``removed``) and rules
#: both share (``kept``), compared by :func:`~repro.core.rules.rule_key`.
_REFRESH_RULES = obs.counter(
    "repro_stream_refresh_rules_total",
    "Rules added, removed or kept by filter-list hot swaps, by change.",
)


def _count_rule_changes(deployed: FilterList, refreshed: FilterList) -> None:
    before = {rule_key(rule) for rule in deployed}
    after = {rule_key(rule) for rule in refreshed}
    _REFRESH_RULES.inc(len(after - before), change="added")
    _REFRESH_RULES.inc(len(before - after), change="removed")
    _REFRESH_RULES.inc(len(before & after), change="kept")


@dataclass
class StreamHealth:
    """Incident report of one replay's supervised execution.

    Every recovery action leaves a trace here: failed classification
    attempts, how many classifiers were rebuilt, which batches were
    dead-lettered after exhausting their attempt budget (batch index and
    request ids) and how many re-mines failed.  A clean run is all zeros —
    the CI fault smoke asserts the *non*-zero counters under an injected
    fault plan.
    """

    classify_failures: int = 0
    classifier_rebuilds: int = 0
    dead_letters: List[Dict] = field(default_factory=list)
    refresh_failures: int = 0
    last_error: Optional[str] = None

    def record_classify_failure(self, exc: BaseException) -> None:
        self.classify_failures += 1
        self.last_error = f"classify: {exc}"
        _CLASSIFY_FAILURES.inc()

    def record_classifier_rebuild(self) -> None:
        self.classifier_rebuilds += 1
        _CLASSIFIER_REBUILDS.inc()

    def record_dead_letter(self, *, batch: int, rows: List[int]) -> None:
        self.dead_letters.append({"batch": batch, "rows": rows})
        _DEAD_LETTERS.inc()

    def record_refresh_failure(self, exc: BaseException) -> None:
        self.refresh_failures += 1
        self.last_error = f"refresh: {exc}"
        _REFRESH_FAILURES.inc()

    def to_dict(self) -> Dict:
        """JSON-ready summary (the CLI and checkpoints embed it)."""

        return {
            "classify_failures": self.classify_failures,
            "classifier_rebuilds": self.classifier_rebuilds,
            "dead_letters": [dict(entry) for entry in self.dead_letters],
            "refresh_failures": self.refresh_failures,
            "last_error": self.last_error,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "StreamHealth":
        return cls(
            classify_failures=int(data["classify_failures"]),
            classifier_rebuilds=int(data["classifier_rebuilds"]),
            dead_letters=[dict(entry) for entry in data["dead_letters"]],
            refresh_failures=int(data["refresh_failures"]),
            last_error=data["last_error"],
        )


class ArrivalStream:
    """A request store viewed in arrival (stable timestamp) order.

    Rows are sorted by timestamp (stable, so equal timestamps keep store
    order) and sliced into micro-batches of the store's record columns.

    The columns may be read-only maps over the cached ``.npz`` archive
    (every warm cache hit): the argsort and every batch take copy only
    the slice being scored into fresh arrays, so the backing archive is
    never written and never fully resident.
    """

    def __init__(self, store: RequestStore):
        self._columns = store.columns
        self._order = np.argsort(self._columns.timestamps, kind="stable")
        self.total = int(self._columns.n_rows)

    def ingest(self, ingestor: StreamIngestor, start: int, size: int) -> ColumnarTable:
        """Encode arrival rows ``[start, start + size)`` through *ingestor*."""

        return ingestor.ingest_rows(self._columns, self._order[start : start + size])


@dataclass
class ReplayResult:
    """Everything one replay produced."""

    #: every verdict of the stream so far (resumed ones included), in
    #: arrival order
    verdicts: Verdicts
    #: rows that received a verdict in this invocation (a resumed run
    #: excludes the rows its checkpoint already covered; dead-lettered
    #: rows are not counted)
    rows: int
    #: batches scored in the whole stream so far, resumed ones included
    batches: int
    seconds: float
    #: wall-clock seconds per scored batch (ingest + classify), in order
    batch_seconds: List[float] = field(default_factory=list)
    #: one entry per filter-list hot-swap: ``batch`` is the 0-based index
    #: of the first batch scored with the new list, ``rules`` its size,
    #: and ``stream_day`` the stream day it was mined on (day-driven
    #: refresh only)
    refreshes: List[Dict] = field(default_factory=list)
    #: snapshots published / failed attempts (0 without a checkpointer)
    checkpoints_saved: int = 0
    checkpoint_failures: int = 0
    #: the batch index this run resumed from (``None`` for a fresh run)
    resumed_from_batch: Optional[int] = None
    #: the supervision incident report (carried over on resume)
    health: StreamHealth = field(default_factory=StreamHealth)

    @property
    def rows_per_second(self) -> float:
        """Sustained end-to-end throughput of the replay (0 when empty)."""

        return self.rows / self.seconds if self.seconds > 0 else 0.0

    def latency_quantile(self, quantile: float) -> float:
        """Per-batch latency quantile in seconds (0 with no batches).

        Nearest-rank on the sorted per-batch wall-clock times; p50/p99 are
        what the benchmark and the CLI report.
        """

        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        if not self.batch_seconds:
            return 0.0
        ordered = sorted(self.batch_seconds)
        rank = min(len(ordered) - 1, max(0, int(np.ceil(quantile * len(ordered))) - 1))
        return ordered[rank]

    def latency_quantiles_ms(self) -> Dict[str, float]:
        """The reported batch-latency quantiles (p50/p95/p99), in ms.

        One definition shared by the CLI summaries (human-readable and
        ``--json``).
        """

        return {
            f"p{int(quantile * 100)}_batch_ms": self.latency_quantile(quantile) * 1000
            for quantile in (0.5, 0.95, 0.99)
        }

    def rule_hits(self) -> Dict[str, int]:
        """Spatial verdicts per rule (``InconsistencyRule.describe()``).

        One ``np.bincount`` over the rule column.  Rules with equal
        descriptions (a rule re-mined with another support) share an
        entry, every generalised Location-predicate rule counts in the
        ``"location_predicate"`` bucket, and rules without hits are left
        out, so the values sum to ``verdicts.counts()["spatial"]``.
        """

        column = self.verdicts.rule_index
        rules = self.verdicts.rules.rules
        counts = np.bincount(column[column >= 0], minlength=len(rules)).tolist()
        hits: Dict[str, int] = {}
        for rule, count in zip(rules, counts):
            if count:
                # Predicate rules carry support 0, mined ones a positive
                # support (also after a checkpoint round trip).
                generalised = (
                    rule.support == 0
                    and rule.attribute_a is Attribute.IP_COUNTRY
                    and rule.attribute_b is Attribute.TIMEZONE
                )
                name = "location_predicate" if generalised else rule.describe()
                hits[name] = hits.get(name, 0) + count
        return hits


class ReplayDriver:
    """Replays a request store through the online pipeline in time order.

    One :class:`~repro.stream.ingest.StreamIngestor` and one
    :class:`~repro.stream.classifier.OnlineClassifier` (built fresh per
    :meth:`replay` from the fitted *detector*, which is never mutated)
    score ``batch_size``-row micro-batches in stable timestamp order.
    An optional *refresher* re-mines the filter list at its due batch
    boundaries (every N batches or every N stream days) and hot-swaps
    the result.
    """

    def __init__(
        self,
        detector: FPInconsistent,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        refresher: Optional[FilterListRefresher] = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._detector = detector
        self.batch_size = int(batch_size)
        self._refresher = refresher

    def replay(
        self,
        store: RequestStore,
        *,
        checkpointer: Optional[StreamCheckpointer] = None,
        resume: bool = False,
        max_batches: Optional[int] = None,
    ) -> ReplayResult:
        """Stream every record of *store* and collect the online verdicts.

        The store replays straight from its record columns, in stable
        timestamp order — the arrival order a live deployment would see.

        With a *checkpointer*, the online state (vocabulary, temporal
        seen-state, filter list, verdicts, health, cursor) is saved
        incrementally and crash-safely at each due batch boundary;
        ``resume=True`` restores the published snapshot first and continues
        the stream from its cursor — the combined run is byte-identical to
        an uninterrupted one.  *max_batches* bounds how many batches this
        invocation scores (the deterministic stand-in for a mid-replay
        kill in tests and the CI kill-and-resume smoke).
        """

        ingestor = StreamIngestor(attributes=self._detector.table_attributes())
        classifier = OnlineClassifier(self._detector)
        arrivals = ArrivalStream(store)
        total = arrivals.total

        # Per-batch verdict chunks, concatenated once after the loop.
        chunks: List[Verdicts] = []
        batch_seconds: List[float] = []
        refreshes: List[Dict] = []
        health = StreamHealth()
        start_row = 0
        batches_done = 0
        resumed_from: Optional[int] = None
        if resume:
            if checkpointer is None:
                raise ValueError("resume=True requires a checkpointer")
            state = self._load_resume_state(checkpointer)
            if state is not None:
                if int(state["batch_size"]) != self.batch_size or int(state["rows_total"]) != total:
                    raise CheckpointError(
                        "checkpoint does not match this replay "
                        "(different batch size or store)"
                    )
                ingestor.restore_state(state["ingest"])
                classifier.restore(**state["classifier"])
                if self._refresher is not None and state.get("refresher") is not None:
                    self._refresher.restore_state(state["refresher"])
                chunks = [state["verdicts"]]
                refreshes = [dict(entry) for entry in state["refreshes"]]
                health = StreamHealth.from_dict(state["health"])
                start_row = int(state["cursor_rows"])
                batches_done = int(state["batches"])
                resumed_from = batches_done

        scored_this_run = 0
        rows_this_run = 0
        # One switch read per replay keeps the disabled path at exactly
        # the pre-telemetry cost; the enabled path adds two clock reads
        # and three histogram observes per batch (bench-gated ≤ 2%).
        telemetry_on = obs.telemetry_enabled()
        tracer = obs.tracer()
        started = time.perf_counter()
        for start in range(start_row, total, self.batch_size):
            if max_batches is not None and scored_this_run >= max_batches:
                break
            batch_wall = time.time() if telemetry_on else 0.0
            batch_started = time.perf_counter()
            batch = arrivals.ingest(ingestor, start, self.batch_size)
            ingested = time.perf_counter()
            index = batches_done
            classifier, scored = self._classify_supervised(classifier, batch, index, health)
            if scored is not None:
                chunks.append(scored)
                rows_this_run += batch.n_rows
            elapsed = time.perf_counter() - batch_started
            batch_seconds.append(elapsed)
            batches_done += 1
            scored_this_run += 1
            if telemetry_on:
                _BATCH_SECONDS.observe(ingested - batch_started, stage="ingest")
                _BATCH_SECONDS.observe(elapsed - (ingested - batch_started), stage="classify")
                _BATCH_SECONDS.observe(elapsed, stage="total")
                tracer.record(
                    "stream.batch",
                    ts=batch_wall,
                    duration=elapsed,
                    index=index,
                    rows=batch.n_rows,
                )
            if self._refresher is not None:
                refresh_started = time.perf_counter() if telemetry_on else 0.0
                self._refresher.observe_batch(batch)
                try:
                    refreshed = self._refresher.maybe_refresh()
                except Exception as exc:
                    # A stale list degrades coverage, never correctness:
                    # keep scoring with the deployed one.
                    health.record_refresh_failure(exc)
                    logger.warning(
                        "filter-list refresh failed (%s); keeping the deployed list", exc
                    )
                    refreshed = None
                if telemetry_on:
                    _BATCH_SECONDS.observe(
                        time.perf_counter() - refresh_started, stage="refresh"
                    )
                if refreshed is not None:
                    if telemetry_on:
                        _count_rule_changes(classifier.filter_list, refreshed)
                    classifier.swap_filter_list(refreshed)
                    entry = {"batch": batches_done, "rules": len(refreshed)}
                    if self._refresher.stream_day is not None:
                        entry["stream_day"] = self._refresher.stream_day
                    refreshes.append(entry)
            if checkpointer is not None and checkpointer.due(batches_done):
                checkpointer.save(
                    {
                        "batch_size": self.batch_size,
                        "rows_total": total,
                        "cursor_rows": min(start + self.batch_size, total),
                        "batches": batches_done,
                        "ingest": ingestor.export_state(),
                        "classifier": classifier,
                        "refresher": self._refresher,
                        "refreshes": refreshes,
                        "health": health.to_dict(),
                        "verdicts": chunks,
                    }
                )
        verdicts = Verdicts.concat(chunks)
        seconds = time.perf_counter() - started
        return ReplayResult(
            verdicts=verdicts,
            rows=rows_this_run,
            batches=batches_done,
            seconds=seconds,
            batch_seconds=batch_seconds,
            refreshes=refreshes,
            checkpoints_saved=0 if checkpointer is None else checkpointer.saves,
            checkpoint_failures=0 if checkpointer is None else checkpointer.failures,
            resumed_from_batch=resumed_from,
            health=health,
        )

    def _classify_supervised(
        self,
        classifier: OnlineClassifier,
        batch: ColumnarTable,
        index: int,
        health: StreamHealth,
    ):
        """Score batch *index*, surviving classification failures.

        Returns ``(classifier, verdicts)``: the classifier to continue
        with and the batch's verdicts (``None`` when dead-lettered).  Each failed attempt rebuilds the
        classifier — a fresh clone of the fitted detector carrying the
        failed one's deployed filter list, temporal seen-state and
        counters — and re-scores the batch (an injected ``worker_classify``
        fault, keyed ``b<batch>:a<attempt>``, fires before any state
        mutates, so the retry is exact; a genuine mid-batch crash re-scores
        best-effort from the carried-over state).  A batch still failing
        after :data:`WORKER_ATTEMPTS` attempts is dead-lettered: recorded
        in *health*, its rows left without a verdict.
        """

        for attempt in range(WORKER_ATTEMPTS):
            try:
                faults.check("worker_classify", f"b{index}:a{attempt}")
                return classifier, classifier.classify_batch(batch)
            except Exception as exc:
                health.record_classify_failure(exc)
                logger.warning("classifying batch %d failed (%s); rebuilding", index, exc)
                classifier = OnlineClassifier(self._detector).restore(
                    filter_list=classifier.filter_list,
                    temporal_state=classifier.temporal_state,
                    rows_scored=classifier.rows_scored,
                    swaps=classifier.swaps,
                )
                health.record_classifier_rebuild()
        health.record_dead_letter(
            batch=index, rows=[int(rid) for rid in batch.request_ids]
        )
        logger.error("dead-lettered the %d rows of batch %d", batch.n_rows, index)
        return classifier, None

    @staticmethod
    def _load_resume_state(checkpointer: StreamCheckpointer) -> Optional[Dict]:
        """The published snapshot, or ``None`` — unreadable counts as none.

        A corrupt snapshot (torn by a crash the atomic writer could not
        prevent, or tampered) must not block recovery: warn and replay
        from row zero.  A *mismatched* snapshot (wrong batch size or
        store) still raises — that is a configuration error, not damage.
        """

        try:
            return checkpointer.load()
        except CheckpointError as exc:
            logger.warning("checkpoint unreadable (%s); replaying from the start", exc)
            return None


# -- verdict serialisation ------------------------------------------------------


#: The canonical JSON encoder (``json.dumps`` with these settings).
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: A flag's canonical JSON up to its key, by attribute id, and between its
#: key and its new value, by kind id (keys in sorted order).
_FLAG_HEADS = tuple(f'{{"attribute":{_CANONICAL.encode(a.value)},"key":' for a in ATTRIBUTES)
_FLAG_KINDS = tuple(f',"key_kind":{_CANONICAL.encode(k)},"new_value":' for k in KEY_KINDS)

#: Text between a row's request id and the next row's (see
#: :func:`verdicts_digest`).
_NEXT_ROW = ',{"request_id":'


def _decoded(decode: Dict[int, List], slots: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Canonical JSON of ``decode[slot][id]`` per entry, as an object array;
    each distinct (slot, id) is encoded once."""

    texts = np.empty(ids.size, dtype=object)
    for slot, items in decode.items():
        entries = np.flatnonzero(slots == slot)
        used = np.zeros(len(items), dtype=bool)
        used[ids[entries]] = True
        lookup = np.empty(len(items), dtype=object)
        distinct = np.flatnonzero(used)
        lookup[distinct] = [_CANONICAL.encode(items[item]) for item in distinct.tolist()]
        texts[entries] = lookup[ids[entries]]
    return texts


def _joined(texts: np.ndarray, counts: np.ndarray) -> List[str]:
    """Consecutive runs of *texts*, ``counts[i]`` for run *i*, each joined
    by commas."""

    joined = np.full(counts.size, "", dtype=object)
    filled = np.flatnonzero(counts)
    if filled.size:
        starts = (np.cumsum(counts) - counts)[filled]
        pieces = "," + texts
        pieces[starts] = texts[starts]
        joined[filled] = np.add.reduceat(pieces, starts)
    return joined.tolist()


class SerialisedVerdicts(NamedTuple):
    """The canonical serialisation of a verdict set as columns, rows in
    request-id order: the request ids; each used rule's canonical JSON
    (``None`` for an unused one, then ``"null"`` for no rule) and each
    row's index into them; and each flag's row position and canonical
    JSON, a row's flags in their column order."""

    ids: np.ndarray
    rule_texts: List[Optional[str]]
    rules: np.ndarray
    positions: np.ndarray
    flag_texts: np.ndarray


def _serialised(verdicts: Verdicts) -> SerialisedVerdicts:
    """The :class:`SerialisedVerdicts` of *verdicts*.  Every used rule and
    every distinct flag key and value is encoded once."""

    order = np.argsort(verdicts.request_ids, kind="stable")
    rules = verdicts.rules.rules
    used = np.bincount(verdicts.rule_index + 1, minlength=len(rules) + 1)[1:].tolist()
    rule_texts = [
        _CANONICAL.encode(rule.to_dict()) if hits else None for rule, hits in zip(rules, used)
    ] + ["null"]
    position = np.empty(len(verdicts), dtype=np.int64)
    position[order] = np.arange(len(verdicts))
    flags = verdicts.flags
    positions = position[flags.row]
    by_row = np.argsort(positions, kind="stable")
    previous = _joined(
        _decoded(flags.values, np.repeat(flags.attribute, flags.n_prev), flags.prev),
        flags.n_prev,
    )
    flag_texts = np.array(
        [
            f'{_FLAG_HEADS[attribute]}{key}{_FLAG_KINDS[kind]}{new},"previous_values":[{prev}]}}'
            for attribute, kind, key, new, prev in zip(
                flags.attribute.tolist(),
                flags.kind.tolist(),
                _decoded(flags.keys, flags.kind, flags.key).tolist(),
                _decoded(flags.values, flags.attribute, flags.new).tolist(),
                previous,
            )
        ],
        dtype=object,
    )
    return SerialisedVerdicts(
        verdicts.request_ids[order],
        rule_texts,
        verdicts.rule_index[order],
        positions[by_row],
        flag_texts[by_row],
    )


def serialise_verdicts(verdicts: Verdicts | SerialisedVerdicts) -> SerialisedVerdicts:
    """*verdicts* as :class:`SerialisedVerdicts`, returned as they are when
    they already are.

    :func:`same_verdicts` and :func:`verdicts_digest` take the result in
    place of the verdicts, so a caller that both compares and hashes one
    side (``repro stream --verify-batch --json``) serialises it once and
    holds the serialisation only as long as it keeps the reference.
    """

    if isinstance(verdicts, SerialisedVerdicts):
        return verdicts
    return _serialised(verdicts)


def verdicts_digest(verdicts: Verdicts | SerialisedVerdicts) -> str:
    """SHA-256 over the canonical verdict serialisation.

    The canonical form is a JSON list sorted by request id, one object per
    verdict with sorted keys: ``request_id``, ``spatial_rule`` (the rule's
    ``to_dict()`` or ``null``) and ``temporal_flags`` (every flag with its
    full evidence), dumped with ``sort_keys=True`` and compact separators,
    here assembled from *verdicts*' :class:`SerialisedVerdicts` (which
    may be passed instead): an unflagged row's text after its request id
    is fixed by its rule, so the rows take one formatting pass.
    """

    ids, rule_texts, rules, positions, flag_texts = serialise_verdicts(verdicts)
    if not ids.size:
        return hashlib.sha256(b"[]").hexdigest()
    middles = [
        None if text is None else f',"spatial_rule":{text},"temporal_flags":'
        for text in rule_texts
    ]
    # Each row's text after its request id, through the next row's opening.
    tails = np.array(
        [None if middle is None else f"{middle}[]}}{_NEXT_ROW}" for middle in middles],
        dtype=object,
    )[rules]
    if positions.size:
        starts = np.flatnonzero(np.diff(positions, prepend=-1))
        rows = positions[starts]
        tails[rows] = [
            f"{middles[rule]}[{row_flags}]}}{_NEXT_ROW}"
            for rule, row_flags in zip(
                rules[rows].tolist(), _joined(flag_texts, np.diff(starts, append=positions.size))
            )
        ]
    tails[-1] = tails[-1][: -len(_NEXT_ROW)] + "]"
    arguments = [None] * (2 * ids.size)
    arguments[0::2] = ids.tolist()
    arguments[1::2] = tails.tolist()
    payload = '[{"request_id":' + ("%d%s" * ids.size) % tuple(arguments)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def same_verdicts(
    left: Verdicts | SerialisedVerdicts, right: Verdicts | SerialisedVerdicts
) -> bool:
    """Whether two verdict sets have the same canonical serialisation.

    Compares the columns of their :class:`SerialisedVerdicts` (either side
    may be passed as one) instead of hashing both documents: request ids,
    each row's rule as canonical JSON, each flag's row and canonical JSON.
    Keys and values are compared as JSON text, never with ``==``, under
    which ``1``, ``1.0`` and ``True`` would pass for one another; so this
    holds exactly when :func:`verdicts_digest` of the two would match.
    """

    sides = map(serialise_verdicts, (left, right))
    columns = [
        (ids, np.array(rule_texts, dtype=object)[rules], positions, flag_texts)
        for ids, rule_texts, rules, positions, flag_texts in sides
    ]
    return all(np.array_equal(*pair) for pair in zip(*columns))
