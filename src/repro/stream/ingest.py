"""Incremental encoding of arriving traffic into columnar micro-batches.

The batch detection engine extracts a whole :class:`RequestStore` into one
:class:`~repro.core.columnar.ColumnarTable` up front.  A live deployment
never has "the whole store": requests arrive in micro-batches, and every
batch may carry attribute values the vocabulary has never seen.  The
:class:`StreamIngestor` closes that gap — it owns a **growing** per-attribute
code vocabulary (value → ``int32`` code, assigned in stream
first-occurrence order, never remapped) and encodes each incoming batch
against it, emitting a :class:`ColumnarTable` whose decode lists are live
views of the shared vocabulary.

Because codes are append-only, everything the batch engine already does
with a table works unchanged on a batch: the filter list compiles against
it, the temporal detector streams it, and the refresher can mine a window
of concatenated batch columns.  Ingesting an entire store in one batch
produces exactly the table :meth:`ColumnarTable.from_store` would — the
stream tests pin it.

Two ingestion paths mirror the two physical record representations:

* :meth:`StreamIngestor.ingest_records` — object form (one
  :class:`RecordedRequest` at a time), the path a live endpoint would use;
* :meth:`StreamIngestor.ingest_rows` — a row slice of a
  :class:`~repro.honeysite.storage.RecordColumns`, the replay path: no
  record object is materialised, and per-session encodings are memoized so
  a session's grouping transformation runs once per session, not once per
  request.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.columnar import ColumnarTable, default_table_attributes
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import Fingerprint, grouping_value
from repro.honeysite.storage import RecordColumns, RecordedRequest

_ROWS_INGESTED = obs.counter(
    "repro_stream_rows_ingested_total", "Rows encoded into micro-batches."
)
_BATCHES_EMITTED = obs.counter(
    "repro_stream_batches_total", "Micro-batches emitted by stream ingestors."
)
_VOCABULARY_VALUES = obs.gauge(
    "repro_stream_vocabulary_values",
    "Total decode-list entries across attributes (grows monotonically).",
)


class StreamIngestor:
    """Encodes arriving rows against a growing attribute-code vocabulary.

    The emitted batches share the ingestor's decode lists *by reference*:
    they keep growing as later batches arrive, but existing codes never
    change meaning, so a batch stays decodable forever.  Consumers that
    compile against a batch (the filter-list index keys on vocabulary
    sizes) must do so per batch — which is exactly what the online
    classifier does.
    """

    def __init__(self, attributes: Optional[Iterable[Attribute]] = None):
        self.attributes: Tuple[Attribute, ...] = (
            tuple(attributes) if attributes is not None else default_table_attributes()
        )
        #: grouping value → code, and the matching decode lists; these are
        #: the live objects every emitted batch references.
        self._indexes: Dict[Attribute, Dict[object, int]] = {
            attribute: {} for attribute in self.attributes
        }
        self._values: Dict[Attribute, List[object]] = {
            attribute: [] for attribute in self.attributes
        }
        #: raw value → code per attribute, so the grouping transformation
        #: runs once per distinct raw value — the same memo the batch
        #: extractor keeps, but persistent across the whole stream.
        self._raw_codes: Dict[Attribute, Dict[object, int]] = {
            attribute: {} for attribute in self.attributes
        }
        self._cookie_index: Dict[str, int] = {}
        self.cookie_values: List[str] = []
        self._ip_index: Dict[str, int] = {}
        self.ip_values: List[str] = []
        self._rows_ingested = 0
        self._batches_emitted = 0
        # Memos of the column-slice path, scoped to one RecordColumns
        # instance (codes are meaningless across instances).
        self._memo_columns: Optional[RecordColumns] = None
        self._session_rows: Dict[int, np.ndarray] = {}
        self._session_ips: Dict[int, int] = {}
        self._cookie_map: Dict[int, int] = {}

    # -- introspection ---------------------------------------------------------

    @property
    def rows_ingested(self) -> int:
        return self._rows_ingested

    @property
    def batches_emitted(self) -> int:
        return self._batches_emitted

    def vocabulary_sizes(self) -> Dict[Attribute, int]:
        """Current decode-list length per attribute (monotonically growing)."""

        return {attribute: len(values) for attribute, values in self._values.items()}

    # -- checkpointing ---------------------------------------------------------

    def export_state(self) -> Dict:
        """The ingestor's durable state, as live references.

        Only the vocabulary (decode lists, in code order) and the row
        counters are durable.  Nothing is copied: the lists and the
        value → code indexes are the ingestor's own, valid until the next
        ingest, and must be treated as read-only — the checkpointer reads
        the entries past its high-water marks and encodes values as codes
        through the indexes.  The raw-value memo and the column-slice
        session memos are pure caches — :meth:`restore_state` rebuilds the
        indexes and lets the memos refill lazily, so a restored ingestor
        encodes every future batch exactly as the original would have.
        """

        return {
            "attributes": self.attributes,
            "values": self._values,
            "indexes": self._indexes,
            "cookie_values": self.cookie_values,
            "cookie_index": self._cookie_index,
            "ip_values": self.ip_values,
            "ip_index": self._ip_index,
            "rows_ingested": self._rows_ingested,
            "batches_emitted": self._batches_emitted,
        }

    def restore_state(self, state: Dict) -> None:
        """Adopt a vocabulary exported by :meth:`export_state`.

        Decode lists are mutated in place (emitted batches hold them by
        reference) and the value → code indexes are rebuilt from code
        order; every cache resets empty.  Only the decode lists and
        counters are read, so a checkpoint's folded vocabulary restores
        as well as another ingestor's export.
        """

        if tuple(state["attributes"]) != self.attributes:
            raise ValueError(
                "checkpointed attribute set does not match this ingestor's attributes"
            )
        for attribute in self.attributes:
            restored = list(state["values"][attribute])
            values = self._values[attribute]
            values.clear()
            values.extend(restored)
            index = self._indexes[attribute]
            index.clear()
            index.update({value: code for code, value in enumerate(values)})
            self._raw_codes[attribute].clear()
        cookie_values, ip_values = list(state["cookie_values"]), list(state["ip_values"])
        self.cookie_values.clear()
        self.cookie_values.extend(cookie_values)
        self._cookie_index = {value: code for code, value in enumerate(self.cookie_values)}
        self.ip_values.clear()
        self.ip_values.extend(ip_values)
        self._ip_index = {value: code for code, value in enumerate(self.ip_values)}
        self._rows_ingested = int(state["rows_ingested"])
        self._batches_emitted = int(state["batches_emitted"])
        self._memo_columns = None
        self._session_rows = {}
        self._session_ips = {}
        self._cookie_map = {}

    # -- encoding helpers ------------------------------------------------------

    def _encode_value(self, attribute: Attribute, raw: object) -> int:
        raw_codes = self._raw_codes[attribute]
        code = raw_codes.get(raw)
        if code is None:
            grouped = grouping_value(attribute, raw)
            index = self._indexes[attribute]
            code = index.get(grouped)
            if code is None:
                values = self._values[attribute]
                code = len(values)
                index[grouped] = code
                values.append(grouped)
            raw_codes[raw] = code
        return code

    def _encode_fingerprint(self, fingerprint: Fingerprint) -> np.ndarray:
        row = np.empty(len(self.attributes), dtype=np.int32)
        get = fingerprint._values.get
        for position, attribute in enumerate(self.attributes):
            raw = get(attribute)
            row[position] = -1 if raw is None else self._encode_value(attribute, raw)
        return row

    @staticmethod
    def _intern(value: Optional[str], index: Dict[str, int], values: List[str]) -> int:
        if value is None:
            return -1
        code = index.get(value)
        if code is None:
            code = len(values)
            index[value] = code
            values.append(value)
        return code

    def _emit(
        self,
        matrix: np.ndarray,
        *,
        request_ids: np.ndarray,
        timestamps: np.ndarray,
        cookie_codes: np.ndarray,
        ip_codes: np.ndarray,
    ) -> ColumnarTable:
        n_rows = int(timestamps.size)
        table = ColumnarTable(
            codes={
                attribute: np.ascontiguousarray(matrix[:, position])
                for position, attribute in enumerate(self.attributes)
            },
            values=self._values,
            indexes=self._indexes,
            n_rows=n_rows,
            request_ids=request_ids,
            timestamps=timestamps,
            cookie_codes=cookie_codes,
            cookie_values=self.cookie_values,
            ip_codes=ip_codes,
            ip_values=self.ip_values,
        )
        self._rows_ingested += n_rows
        self._batches_emitted += 1
        _ROWS_INGESTED.inc(n_rows)
        _BATCHES_EMITTED.inc()
        # Decode lists only grow, so summing lengths here keeps the gauge
        # exact without a per-row cost.
        _VOCABULARY_VALUES.set(
            sum(len(values) for values in self._values.values())
        )
        return table

    # -- ingestion -------------------------------------------------------------

    def ingest_records(self, records: Sequence[RecordedRequest]) -> ColumnarTable:
        """Encode one micro-batch of record objects.

        Rows come out in the given order; the caller owns arrival ordering
        (the replay driver feeds timestamp order).
        """

        records = list(records)
        n = len(records)
        matrix = np.empty((n, len(self.attributes)), dtype=np.int32)
        request_ids = np.empty(n, dtype=np.int64)
        timestamps = np.empty(n, dtype=np.float64)
        cookie_codes = np.empty(n, dtype=np.int32)
        ip_codes = np.empty(n, dtype=np.int32)
        for position, record in enumerate(records):
            request = record.request
            matrix[position] = self._encode_fingerprint(request.fingerprint)
            request_ids[position] = request.request_id
            timestamps[position] = record.timestamp
            cookie_codes[position] = self._intern(
                record.cookie, self._cookie_index, self.cookie_values
            )
            ip_codes[position] = self._intern(
                request.ip_address, self._ip_index, self.ip_values
            )
        return self._emit(
            matrix,
            request_ids=request_ids,
            timestamps=timestamps,
            cookie_codes=cookie_codes,
            ip_codes=ip_codes,
        )

    def ingest_rows(self, columns: RecordColumns, rows) -> ColumnarTable:
        """Encode a row slice of *columns* without materialising records.

        Per-session encodings (attribute code row, source-address code) and
        per-cookie translations are memoized for the lifetime of *columns*,
        so replaying a corpus costs one fingerprint encoding per *session*.
        The columns must be renumbered (request ids present) — a corpus
        store always is.

        The code arrays here are only indexed, never mutated, and the
        compat views (``session_fingerprints`` et al.) decode one session
        at a time on demand — so a read-only memory-mapped corpus (a warm
        ``REPRO_CORPUS_MMAP`` cache hit) streams through unchanged, paging
        in exactly the rows each micro-batch touches.
        """

        if columns.request_ids is None:
            raise ValueError(
                "streaming ingestion needs renumbered record columns "
                "(RecordColumns.renumbered assigns request ids)"
            )
        if columns is not self._memo_columns:
            self._memo_columns = columns
            self._session_rows = {}
            self._session_ips = {}
            self._cookie_map = {}

        rows = np.asarray(rows, dtype=np.int64)
        session_codes = columns.session_codes[rows]
        unique_sessions, inverse = np.unique(session_codes, return_inverse=True)
        session_matrix = np.empty((unique_sessions.size, len(self.attributes)), dtype=np.int32)
        session_ip_codes = np.empty(unique_sessions.size, dtype=np.int32)
        for position, session in enumerate(unique_sessions.tolist()):
            row = self._session_rows.get(session)
            if row is None:
                row = self._encode_fingerprint(columns.session_fingerprints[session])
                self._session_rows[session] = row
                self._session_ips[session] = self._intern(
                    columns.session_ips[session], self._ip_index, self.ip_values
                )
            session_matrix[position] = row
            session_ip_codes[position] = self._session_ips[session]

        served = columns.served_codes[rows]
        unique_cookies = np.unique(served)
        cookie_map = self._cookie_map
        for local in unique_cookies.tolist():
            if local not in cookie_map:
                cookie_map[local] = self._intern(
                    columns.cookie_values[local], self._cookie_index, self.cookie_values
                )
        translate = np.empty(int(unique_cookies.max()) + 1 if unique_cookies.size else 0,
                             dtype=np.int32)
        for local in unique_cookies.tolist():
            translate[local] = cookie_map[local]

        return self._emit(
            session_matrix[inverse] if rows.size else
            np.empty((0, len(self.attributes)), dtype=np.int32),
            request_ids=columns.request_ids[rows],
            timestamps=columns.timestamps[rows],
            cookie_codes=translate[served] if rows.size else np.empty(0, dtype=np.int32),
            ip_codes=session_ip_codes[inverse] if rows.size else np.empty(0, dtype=np.int32),
        )
