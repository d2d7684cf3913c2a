"""Incremental, crash-safe checkpoint/restore for stream replays.

A killed ``repro stream`` process would otherwise lose the whole online
state — ingest vocabulary, per-visitor temporal seen-state, the deployed
filter list, the emitted verdicts and the stream cursor — and have to
replay from row zero.  This module persists that state periodically so a
restarted replay continues from the last published save and produces
verdicts byte-identical to an uninterrupted run
(``tests/test_checkpoint.py`` pins it).  ``docs/robustness.md`` describes
the format in full.

A checkpoint is a directory of append-only **segments**
(``segment-000000.npz``, …), one per published save, each holding only
what the growing structures gained since the previous save, plus one small
**snapshot** (``stream_checkpoint``), atomically replaced, that lists the
valid segments with their sha256 and carries the bounded state.  Each file
is an ``.npz`` (numeric columns plus a JSON ``meta`` member); the snapshot
sits behind a ``RPCK | version | sha256`` header.  Loading uses
``np.load(..., allow_pickle=False)`` and ``json`` only, so reading a
checkpoint never executes code.  Only the current format is read; older
versions are refused unread, so a resume replays from the start.

Every write is crash-safe (temp file, fsync, rename, directory fsync), and
a save appends its segment before it publishes the snapshot.  Per-save
cost scales with the rows since the last save: the checkpointer keeps a
high-water mark per growing structure and writes only what lies past it.
Saving is best-effort: :meth:`StreamCheckpointer.save` never raises an
I/O failure into the scoring loop.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import tempfile
import time
import zipfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import faults, obs
from repro.core.detector import Verdicts
from repro.core.rules import FilterList, InconsistencyRule, RuleTable, rule_key
from repro.core.temporal import (
    ATTRIBUTES,
    KEY_KINDS,
    TemporalFlags,
    TemporalStreamState,
    run_positions,
)
from repro.fingerprint.attributes import Attribute

logger = logging.getLogger("repro.stream")

#: Leading magic bytes of a snapshot file.
CHECKPOINT_MAGIC = b"RPCK"

#: The checkpoint format version, the only one this build reads.  Older
#: versions are refused unread (1 was a pickled state blob, 2 carried
#: per-worker classifiers and router pins, 3 kept the whole refresh window
#: in the snapshot); newer versions refuse to load.
CHECKPOINT_VERSION = 4

#: The published snapshot inside a checkpoint directory (atomic replace
#: keeps exactly one valid snapshot at all times).
CHECKPOINT_FILENAME = "stream_checkpoint"

#: Segment file names, numbered by position in the segment sequence.
SEGMENT_FILENAME = "segment-{:06d}.npz"

#: Default snapshot cadence, in scored batches.
DEFAULT_EVERY_BATCHES = 16

#: Committed ceiling on the bytes one save writes (segment + snapshot)
#: per row scored since the previous save; window rows are written once,
#: so it holds at any window size.  CI's fault smoke and
#: ``tests/test_checkpoint.py`` gate on it.
CHECKPOINT_BYTES_PER_ROW_CEILING = 160

_HEADER_SIZE = len(CHECKPOINT_MAGIC) + 4 + 32

#: Temporal key kinds by the code segments store them under.
_KIND_CODES = {kind: code for code, kind in enumerate(KEY_KINDS)}

#: The temporal flag columns a segment stores, each as ``flag_<name>``.
_FLAG_COLUMNS = ("row", "kind", "key", "attribute", "new", "n_prev", "prev")

_BYTES = obs.counter(
    "repro_stream_checkpoint_bytes_total",
    "Bytes published by stream checkpoint saves (segments + snapshots).",
    always=True,
)
_LAST_SAVE_BYTES = obs.gauge(
    "repro_stream_checkpoint_last_save_bytes",
    "Bytes the most recent published save wrote.",
    always=True,
)
_MAX_SAVE_BYTES = obs.gauge(
    "repro_stream_checkpoint_max_save_bytes",
    "Largest single published save of the current checkpointer, in bytes.",
    always=True,
)
_SEGMENTS = obs.gauge(
    "repro_stream_checkpoint_segments",
    "Segments the published snapshot lists.",
    always=True,
)
_AGE_BATCHES = obs.gauge(
    "repro_stream_checkpoint_age_batches",
    "Batches scored since the last published save.",
    always=True,
)
_SAVE_SECONDS = obs.histogram(
    "repro_stream_checkpoint_save_seconds",
    "Wall-clock seconds per published checkpoint save.",
    always=True,
)


class CheckpointError(ValueError):
    """A checkpoint could not be read, or does not match the replay."""


# -- file primitives -----------------------------------------------------------


def _write_atomic(path: Path, data: bytes, *, key: str) -> None:
    """Same-directory temp + fsync + ``os.replace`` + directory fsync.

    After a crash at any instant, *path* is either its previous content
    or *data*, both intact.  *key* feeds the ``checkpoint_write`` fault
    point (fired after fsync, before the rename).
    """

    fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        faults.check("checkpoint_write", key, path=tmp)
        os.replace(tmp, path)
        directory_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory_fd)
        finally:
            os.close(directory_fd)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _pack_npz(meta: Dict, arrays: Dict[str, np.ndarray]) -> bytes:
    """An uncompressed ``.npz`` of *arrays* plus *meta* as a JSON member."""

    buffer = io.BytesIO()
    text = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    np.savez(buffer, meta=np.frombuffer(text, dtype=np.uint8), **arrays)
    return buffer.getvalue()


def _unpack_npz(payload: bytes, what: str) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Inverse of :func:`_pack_npz`; never unpickles."""

    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(arrays.pop("meta").tobytes().decode("utf-8"))
    except (ValueError, KeyError, OSError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{what} is undecodable: {exc}") from exc
    return meta, arrays


def write_checkpoint(path, meta: Dict, arrays: Dict[str, np.ndarray], *, key: str = "") -> int:
    """Atomically write a snapshot file; returns the bytes written.

    The file is ``RPCK | version (4 bytes, big-endian) | sha256(payload)
    | payload`` where the payload is :func:`_pack_npz` of *meta* and
    *arrays*.
    """

    payload = _pack_npz(meta, arrays)
    blob = (
        CHECKPOINT_MAGIC
        + CHECKPOINT_VERSION.to_bytes(4, "big")
        + hashlib.sha256(payload).digest()
        + payload
    )
    _write_atomic(Path(path), blob, key=key)
    return len(blob)


def read_checkpoint(path) -> Tuple[Dict, Dict[str, np.ndarray]]:
    """Load and validate a snapshot written by :func:`write_checkpoint`.

    Returns ``(meta, arrays)``.  Raises :class:`CheckpointError` for
    anything untrustworthy: a non-checkpoint file, a format older than
    :data:`CHECKPOINT_VERSION` (the payload is never decoded), a newer
    format, or a checksum mismatch (torn or tampered).
    """

    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"checkpoint {path} is unreadable: {exc}") from exc
    if len(blob) < _HEADER_SIZE or blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a stream checkpoint")
    version = int.from_bytes(blob[len(CHECKPOINT_MAGIC) : len(CHECKPOINT_MAGIC) + 4], "big")
    if version < CHECKPOINT_VERSION:
        layout = "a pickled state blob" if version == 1 else "an older layout"
        raise CheckpointError(
            f"checkpoint {path} has format version {version} ({layout}), "
            "which this build no longer reads"
        )
    if version > CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}; "
            f"this build reads up to {CHECKPOINT_VERSION}"
        )
    payload = blob[_HEADER_SIZE:]
    if hashlib.sha256(payload).digest() != blob[len(CHECKPOINT_MAGIC) + 4 : _HEADER_SIZE]:
        raise CheckpointError(f"checkpoint {path} is corrupt (checksum mismatch)")
    return _unpack_npz(payload, f"checkpoint {path}")


def _pack_ints(values) -> np.ndarray:
    """Integers >= -1, shifted by one into the smallest unsigned dtype."""

    if not isinstance(values, np.ndarray):
        values = np.asarray(values, dtype=np.int64)
    top = int(values.max()) + 1 if values.size else 0
    packed = np.empty(values.shape, dtype=np.min_scalar_type(top))
    return np.add(values, 1, out=packed, casting="unsafe")


def _unpack_ints(packed: np.ndarray, dtype=np.int64) -> np.ndarray:
    return packed.astype(dtype) - 1


def _packed(prefix: str, columns: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """*columns* as packed ``<prefix>_<name>`` members."""

    return {f"{prefix}_{name}": _pack_ints(column) for name, column in columns.items()}


def _require_ingest_lists(ingest: Dict, slots) -> None:
    """Refuse temporal ids that are not codes of *ingest*'s vocabulary:
    each ``(slot, decode list)`` of *slots* must name the ingest's own list."""

    for (field, name), items in slots:
        decode = ingest[f"{name}_values"] if field == "key" else ingest["values"].get(name)
        if items is not decode:
            raise CheckpointError(
                f"temporal {field} ids of {name} do not index the ingest's decode list"
            )


# -- the checkpointer ----------------------------------------------------------


class StreamCheckpointer:
    """Periodic incremental snapshot writer/reader for one checkpoint directory.

    :meth:`save` takes the replay's state as live references — nothing is
    copied up front — with these keys:

    * ``batch_size``, ``rows_total``, ``cursor_rows``, ``batches``: ints;
    * ``ingest``: :meth:`StreamIngestor.export_state` (live vocabulary);
    * ``classifier``: the :class:`OnlineClassifier`;
    * ``refresher``: the :class:`~repro.stream.refresh.FilterListRefresher`
      or ``None``;
    * ``refreshes``: the hot-swap history (JSON-able dicts);
    * ``health``: the JSON-able :class:`StreamHealth` report;
    * ``verdicts``: the emitted verdicts, a list of
      :class:`~repro.core.detector.Verdicts` chunks that only grows.

    :meth:`load` returns the same keys with restored values: ``ingest``
    and ``refresher`` in their ``restore_state`` shapes, ``classifier``
    as :meth:`OnlineClassifier.restore` keyword arguments and
    ``verdicts`` as one :class:`~repro.core.detector.Verdicts` chunk.
    """

    def __init__(self, directory, *, every_batches: int = DEFAULT_EVERY_BATCHES):
        if every_batches < 1:
            raise ValueError(f"every_batches must be >= 1, got {every_batches}")
        self.directory = Path(directory)
        self.every_batches = int(every_batches)
        #: snapshots successfully published / failed attempts this run
        self.saves = 0
        self.failures = 0
        # High-water marks: how much of each growing structure the
        # published segments already hold.
        self._segments: List[Dict] = []
        self._last_good_batch = 0
        self._vocab_marks: List[int] = []
        self._rule_ids: Dict[Tuple, int] = {}
        #: verdict chunks the published segments hold
        self._verdict_mark = 0
        #: (temporal state, last epoch the published segments cover)
        self._seen_mark: Optional[Tuple[TemporalStreamState, int]] = None
        #: (deployed filter list, its rule-table indices) at the last save
        self._filter_list_mark: Optional[Tuple[FilterList, List[int]]] = None
        #: refresher rows observed when the published segments were written
        self._window_mark = 0
        for gauge in (_LAST_SAVE_BYTES, _MAX_SAVE_BYTES, _SEGMENTS, _AGE_BATCHES):
            gauge.set(0)

    @property
    def path(self) -> Path:
        """The published snapshot file."""

        return self.directory / CHECKPOINT_FILENAME

    def due(self, batches_done: int) -> bool:
        """Whether a snapshot is due after *batches_done* scored batches.

        Called once per scored batch by the driver, so it also keeps the
        checkpoint-age gauge current.
        """

        _AGE_BATCHES.set(batches_done - self._last_good_batch)
        return batches_done > 0 and batches_done % self.every_batches == 0

    # -- saving ----------------------------------------------------------------

    @staticmethod
    def _encode_flags(flags: TemporalFlags, attributes, ingest: Dict) -> Dict:
        """Flag columns with keys and values as vocabulary codes (the ids
        as they are) and attributes as positions in *attributes*."""

        _require_ingest_lists(ingest, [
            *((("key", KEY_KINDS[kind]), items) for kind, items in flags.keys.items()),
            *((("value", ATTRIBUTES[attribute]), items)
              for attribute, items in flags.values.items()),
        ])
        position = np.full(len(ATTRIBUTES), -1, dtype=np.int64)
        position[[ATTRIBUTES.index(attribute) for attribute in attributes]] = np.arange(
            len(attributes)
        )
        return _packed("flag", {
            "row": flags.row, "kind": flags.kind, "key": flags.key,
            "attribute": position[flags.attribute], "new": flags.new, "n_prev": flags.n_prev,
            "prev": flags.prev,
        })

    @staticmethod
    def _encode_seen(
        state: TemporalStreamState, since: int, attributes, ingest: Dict
    ) -> Dict[str, np.ndarray]:
        """Columns of the seen-state entries changed after epoch *since*.

        Each entry is one (kind, key, attribute) with its full value list;
        keys and values are written as they are, codes against the
        vocabulary of *ingest* (:meth:`StreamIngestor.export_state`), and
        entries are grouped by attribute.  The state stamps every change
        as it happens, so finding them is one comparison per column.
        """

        position = {attribute: index for index, attribute in enumerate(attributes)}
        columns = {
            name: [np.empty(0, dtype=np.int64)]
            for name in ("kind", "key", "attribute", "count", "values")
        }
        for kind, attribute, keys, counts, values in sorted(
            state.changes_since(since),
            key=lambda group: (position[group[1]], _KIND_CODES[group[0]]),
        ):
            slots = (("key", kind), ("value", attribute))
            _require_ingest_lists(ingest, [(slot, state.items(slot)) for slot in slots])
            columns["kind"].append(np.full(keys.size, _KIND_CODES[kind], dtype=np.int64))
            columns["key"].append(keys)
            columns["attribute"].append(np.full(keys.size, position[attribute], dtype=np.int64))
            columns["count"].append(counts)
            columns["values"].append(values)
        return _packed("seen", {name: np.concatenate(parts) for name, parts in columns.items()})

    def save(self, state: Dict) -> bool:
        """Best-effort incremental snapshot; returns whether it published.

        Appends one segment with everything the growing structures gained
        since the last published save, then publishes the snapshot.  Never
        raises into the scoring loop for an I/O failure: a full disk, a
        permission error or an injected ``checkpoint_write`` fault is
        counted and logged, the high-water marks stay put, and the next
        due boundary writes the accumulated delta — the previously
        published snapshot stays valid throughout.
        """

        started = time.perf_counter()
        attempt = self.saves + self.failures
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            segment_meta, segment_arrays, snapshot_meta, commit = self._encode(state)
            name = SEGMENT_FILENAME.format(len(self._segments))
            segment = _pack_npz(segment_meta, segment_arrays)
            _write_atomic(self.directory / name, segment, key=f"save{attempt}:segment")
            snapshot_meta["segments"] = self._segments + [
                {
                    "name": name,
                    "sha256": hashlib.sha256(segment).hexdigest(),
                    "bytes": len(segment),
                }
            ]
            snapshot_bytes = write_checkpoint(self.path, snapshot_meta, {}, key=f"save{attempt}")
        except (faults.InjectedFault, OSError) as exc:
            self.failures += 1
            logger.warning(
                "checkpoint write failed (%s); previous snapshot stays valid", exc
            )
            return False
        commit()
        self._segments = snapshot_meta["segments"]
        self._last_good_batch = int(state["batches"])
        self.saves += 1
        written = len(segment) + snapshot_bytes
        _BYTES.inc(written)
        _LAST_SAVE_BYTES.set(written)
        _MAX_SAVE_BYTES.set(max(_MAX_SAVE_BYTES.value(), written))
        _SEGMENTS.set(len(self._segments))
        _AGE_BATCHES.set(0)
        _SAVE_SECONDS.observe(time.perf_counter() - started)
        return True

    def _encode(self, state: Dict):
        """The next segment and snapshot, plus a commit of the new marks.

        Nothing here mutates the marks: a failed write must leave them at
        the last published save.
        """

        ingest = state["ingest"]
        attributes = tuple(ingest["attributes"])
        segment_meta: Dict = {}
        segment_arrays: Dict[str, np.ndarray] = {}

        # Vocabulary: decode-list entries past each mark.
        vocabulary = [ingest["values"][attribute] for attribute in attributes]
        vocabulary += [ingest["cookie_values"], ingest["ip_values"]]
        marks = self._vocab_marks or [0] * len(vocabulary)
        segment_meta["vocabulary"] = [
            values[mark:] for values, mark in zip(vocabulary, marks)
        ]
        vocab_marks = [len(values) for values in vocabulary]

        # Rules: an append-only table; verdicts and filter lists index it.
        rule_ids = self._rule_ids
        new_rules: Dict[Tuple, int] = {}

        def rule_index(rule: InconsistencyRule) -> int:
            key = rule_key(rule)
            index = rule_ids.get(key)
            if index is None:
                index = new_rules.setdefault(key, len(rule_ids) + len(new_rules))
            return index

        # Verdicts: the chunk list only grows; the new chunks' columns are
        # written as they are, the rules they use translated into the
        # table (slot -1 of a translation keeps "no rule" at -1).
        chunks = state["verdicts"]
        fresh = chunks[self._verdict_mark :]
        translations: Dict[int, np.ndarray] = {}
        for chunk in fresh:
            translation = translations.get(id(chunk.rules))
            if translation is None:
                translation = np.full(len(chunk.rules) + 1, -1, dtype=np.int64)
                translations[id(chunk.rules)] = translation
            hit = np.flatnonzero(np.bincount(chunk.rule_index + 1)[1:])
            for rule in hit[translation[hit] < 0].tolist():
                translation[rule] = rule_index(chunk.rules.rules[rule])
        merged = Verdicts.concat(fresh)
        segment_arrays["verdict_ids"] = _pack_ints(merged.request_ids)
        segment_arrays["verdict_rules"] = _pack_ints(
            np.concatenate(
                [np.empty(0, dtype=np.int64)]
                + [translations[id(chunk.rules)][chunk.rule_index] for chunk in fresh]
            )
        )
        # Temporal flags: the new chunks' columns, rows offset into the
        # segment's verdicts.
        segment_arrays.update(self._encode_flags(merged.flags, attributes, ingest))

        # Temporal seen-state: every key that is new or grew since the
        # last save, with its full value list (folding is a set union, so
        # re-writing a known prefix is harmless).
        classifier = state["classifier"]
        temporal_state = classifier.temporal_state
        mark = self._seen_mark
        since = mark[1] if mark is not None and mark[0] is temporal_state else 0
        closed = temporal_state.close_epoch()
        segment_arrays.update(
            self._encode_seen(temporal_state, since, attributes, ingest)
        )

        # The deployed list changes only at a hot swap; its indices into
        # the append-only rule table stay valid until then.
        filter_list = classifier.filter_list
        if self._filter_list_mark is not None and self._filter_list_mark[0] is filter_list:
            filter_list_indices = self._filter_list_mark[1]
        else:
            filter_list_indices = [rule_index(rule) for rule in filter_list]
        classifier_meta = {
            "filter_list": filter_list_indices,
            "rows_scored": classifier.rows_scored,
            "swaps": classifier.swaps,
        }
        segment_meta["rules"] = [key[0].to_dict() for key in new_rules]

        snapshot_meta = {
            "version": CHECKPOINT_VERSION,
            "batch_size": int(state["batch_size"]),
            "rows_total": int(state["rows_total"]),
            "cursor_rows": int(state["cursor_rows"]),
            "batches": int(state["batches"]),
            "attributes": [attribute.value for attribute in attributes],
            "ingest": {
                "rows_ingested": int(ingest["rows_ingested"]),
                "batches_emitted": int(ingest["batches_emitted"]),
            },
            "classifier": classifier_meta,
            "refreshes": state["refreshes"],
            "health": state["health"],
            "refresher": None,
        }
        # Refresh window: the rows observed since the last published save
        # (at most the window) go into the segment; the snapshot keeps the
        # counters that say how many trailing rows make up the window.
        refresher = state.get("refresher")
        window_mark = self._window_mark
        if refresher is not None:
            exported = refresher.export_state(window_mark)
            window = exported.pop("window")
            exported["window_attributes"] = [attribute.value for attribute in window]
            snapshot_meta["refresher"] = exported
            window_mark = exported["rows_observed"]
            if window:
                segment_arrays["window"] = _pack_ints(np.column_stack(list(window.values())))

        def commit() -> None:
            self._vocab_marks = vocab_marks
            rule_ids.update(new_rules)
            self._verdict_mark = len(chunks)
            self._seen_mark = (temporal_state, closed)
            self._filter_list_mark = (filter_list, filter_list_indices)
            self._window_mark = window_mark

        return segment_meta, segment_arrays, snapshot_meta, commit

    # -- loading ---------------------------------------------------------------

    def load(self) -> Optional[Dict]:
        """The published state, folded from its segments; ``None`` if absent.

        Raises :class:`CheckpointError` when a snapshot exists but cannot
        be trusted — a torn or tampered snapshot, a listed segment that is
        missing or fails its sha256, or an older format version.  On
        success the checkpointer adopts the loaded high-water marks, so
        the next save appends to the same segment sequence.
        """

        if not self.path.exists():
            return None
        meta, _arrays = read_checkpoint(self.path)
        try:
            return self._fold(meta)
        except CheckpointError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint {self.path} is malformed: {exc!r}") from exc

    def _fold(self, meta: Dict) -> Dict:
        """Fold the listed segments into a restorable state; adopt its marks."""

        attributes = tuple(Attribute(value) for value in meta["attributes"])
        vocabulary: List[List] = [[] for _ in range(len(attributes) + 2)]
        key_values = (vocabulary[-2], vocabulary[-1])
        rules: List[InconsistencyRule] = []
        #: one verdict chunk per segment, rule codes indexing ``rules``
        chunks: List[Verdicts] = []
        temporal_state = TemporalStreamState()
        refresher = meta["refresher"]
        window_rows = 0 if refresher is None else int(refresher["rows_in_window"])
        #: trailing segment window deltas, trimmed to cover ``window_rows``
        windows: List[np.ndarray] = []
        for entry in meta["segments"]:
            segment_meta, segment = self._read_segment(entry)
            for values, new in zip(vocabulary, segment_meta["vocabulary"]):
                values.extend(new)
            rules.extend(InconsistencyRule.from_dict(rule) for rule in segment_meta["rules"])
            chunks.append(
                Verdicts(
                    _unpack_ints(segment["verdict_ids"]),
                    _unpack_ints(segment["verdict_rules"]),
                    chunks[0].rules if chunks else RuleTable(),
                    self._fold_flags(segment, attributes, vocabulary, key_values),
                )
            )
            self._fold_seen(segment, attributes, vocabulary, key_values, temporal_state)
            if "window" in segment:
                windows.append(segment["window"])
                while len(windows) > 1 and sum(map(len, windows[1:])) >= window_rows:
                    windows.pop(0)
        verdicts = Verdicts.concat(chunks)
        verdicts.rule_index = verdicts.rules.indices(rules)[verdicts.rule_index]

        classifier_meta = meta["classifier"]
        classifier = {
            "filter_list": FilterList(rules[index] for index in classifier_meta["filter_list"]),
            "temporal_state": temporal_state,
            "rows_scored": int(classifier_meta["rows_scored"]),
            "swaps": int(classifier_meta["swaps"]),
        }

        window_mark = 0
        if refresher is not None:
            refresher = dict(refresher)
            names = refresher.pop("window_attributes")
            window_mark = int(refresher["rows_observed"])
            refresher["window"] = {}
            if names:
                window = np.concatenate(
                    [np.empty((0, len(names)), dtype=np.int32)]
                    + [_unpack_ints(part, np.int32) for part in windows]
                )
                if len(window) < window_rows:
                    raise CheckpointError(
                        f"checkpoint {self.path} holds {len(window)} of its "
                        f"{window_rows} window rows"
                    )
                window = window[len(window) - window_rows :]
                refresher["window"] = {
                    Attribute(name): np.ascontiguousarray(window[:, column])
                    for column, name in enumerate(names)
                }

        # Adopt the marks of the folded state: the next save appends.
        self._segments = list(meta["segments"])
        self._last_good_batch = int(meta["batches"])
        self._vocab_marks = [len(values) for values in vocabulary]
        self._rule_ids = {}
        for index, rule in enumerate(rules):
            self._rule_ids.setdefault(rule_key(rule), index)
        self._verdict_mark = 1
        self._seen_mark = (temporal_state, temporal_state.close_epoch())
        self._filter_list_mark = None
        self._window_mark = window_mark
        _SEGMENTS.set(len(self._segments))

        return {
            "batch_size": int(meta["batch_size"]),
            "rows_total": int(meta["rows_total"]),
            "cursor_rows": int(meta["cursor_rows"]),
            "batches": int(meta["batches"]),
            "ingest": {
                "attributes": attributes,
                "values": dict(zip(attributes, vocabulary)),
                "cookie_values": key_values[0],
                "ip_values": key_values[1],
                **meta["ingest"],
            },
            "classifier": classifier,
            "refresher": refresher,
            "refreshes": meta["refreshes"],
            "health": meta["health"],
            "verdicts": verdicts,
        }

    def _read_segment(self, entry: Dict) -> Tuple[Dict, Dict[str, np.ndarray]]:
        name = entry["name"]
        if Path(name).name != name:
            raise CheckpointError(f"checkpoint lists a segment outside its directory: {name!r}")
        path = self.directory / name
        try:
            payload = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(f"checkpoint segment {path} is unreadable: {exc}") from exc
        if hashlib.sha256(payload).hexdigest() != entry["sha256"]:
            raise CheckpointError(f"checkpoint segment {path} is corrupt (checksum mismatch)")
        return _unpack_npz(payload, f"checkpoint segment {path}")

    @staticmethod
    def _fold_flags(segment, attributes, vocabulary, key_values) -> TemporalFlags:
        """A segment's flag columns as a :class:`TemporalFlags`.

        Keys and values are codes against the folded vocabulary, whose
        decode lists the restored state and ingest adopt as they are, so
        the codes serve as the flags' ids; attribute positions become
        :data:`~repro.core.temporal.ATTRIBUTES` ids.
        """

        columns = {name: _unpack_ints(segment[f"flag_{name}"]) for name in _FLAG_COLUMNS}
        ids = np.array([ATTRIBUTES.index(attribute) for attribute in attributes], dtype=np.int64)
        positions = np.flatnonzero(np.bincount(columns["attribute"], minlength=len(attributes)))
        columns["attribute"] = ids[columns["attribute"]]
        return TemporalFlags(
            **columns,
            keys={kind: key_values[kind] for kind in set(columns["kind"].tolist())},
            values={int(ids[position]): vocabulary[position] for position in positions.tolist()},
        )

    @staticmethod
    def _fold_seen(segment, attributes, vocabulary, key_values, state) -> None:
        kinds, keys, entry_attributes, counts = (
            _unpack_ints(segment[f"seen_{name}"])
            for name in ("kind", "key", "attribute", "count")
        )
        values = _unpack_ints(segment["seen_values"])
        groups = kinds * len(attributes) + entry_attributes
        for group in np.unique(groups).tolist():
            kind, attribute = divmod(group, len(attributes))
            entries = np.flatnonzero(groups == group)
            state.merge(
                KEY_KINDS[kind],
                attributes[attribute],
                key_values[kind],
                keys[entries],
                vocabulary[attribute],
                counts[entries],
                values[run_positions(counts, entries)],
            )
