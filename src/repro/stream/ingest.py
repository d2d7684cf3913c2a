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
with a table works unchanged on a batch: the compiled filter list matches
it (extending its code translations by the new vocabulary only), the
temporal detector streams it, and the refresher can mine a window of
concatenated batch columns.  Ingesting an entire store in one batch
produces exactly the table :meth:`ColumnarTable.from_store` would — the
stream tests pin it.

Two ingestion paths mirror the two physical record representations:

* :meth:`StreamIngestor.ingest_records` — object form (one
  :class:`RecordedRequest` at a time), the path a live endpoint would use;
* :meth:`StreamIngestor.ingest_rows` — a row slice of a
  :class:`~repro.honeysite.storage.RecordColumns`, the replay path: no
  record object is materialised.  Each column is one gather through a
  remap table from the archive's codes to stream codes, so the grouping
  transformation runs once per distinct raw value of the whole replay.

Both paths assign new codes in row first-occurrence order, so the same
rows in the same order yield the same vocabulary either way.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.columnar import ColumnarTable, default_table_attributes, intern_values
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import grouping_value
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
    change meaning, so a batch stays decodable forever.  Consumers cache
    per-code translations against these lists and extend them by the new
    tail only — the compiled filter-list matcher, the Location-predicate
    memo and the temporal state's remaps all rely on codes being
    append-only.
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
        # Remap tables of the column-slice path, scoped to one RecordColumns
        # instance (archive codes are meaningless across instances).
        self._remap_columns: Optional[RecordColumns] = None
        self._raw_columns: List[Tuple[np.ndarray, List[object]]] = []
        self._value_remaps: List[np.ndarray] = []
        self._ip_remap = np.empty(0, dtype=np.int32)
        self._cookie_remap = np.empty(0, dtype=np.int32)

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
        remap tables are pure caches — :meth:`restore_state` rebuilds the
        indexes and lets the caches refill lazily, so a restored ingestor
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
        self._remap_columns = None

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
        codes: Dict[Attribute, np.ndarray],
        *,
        request_ids: np.ndarray,
        timestamps: np.ndarray,
        cookie_codes: np.ndarray,
        ip_codes: np.ndarray,
    ) -> ColumnarTable:
        n_rows = int(timestamps.size)
        table = ColumnarTable(
            codes=codes,
            values=self._values,
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
        fingerprints = [record.request.fingerprint._values for record in records]
        encode, cookies, ips = self._encode_value, self._cookie_index, self._ip_index
        return self._emit(
            {
                attribute: np.array(
                    [
                        -1 if (raw := values.get(attribute)) is None else encode(attribute, raw)
                        for values in fingerprints
                    ],
                    dtype=np.int32,
                )
                for attribute in self.attributes
            },
            request_ids=np.array(
                [record.request.request_id for record in records], dtype=np.int64
            ),
            timestamps=np.array([record.timestamp for record in records], dtype=np.float64),
            cookie_codes=np.array(
                [self._intern(record.cookie, cookies, self.cookie_values) for record in records],
                dtype=np.int32,
            ),
            ip_codes=np.array(
                [
                    self._intern(record.request.ip_address, ips, self.ip_values)
                    for record in records
                ],
                dtype=np.int32,
            ),
        )

    def ingest_rows(self, columns: RecordColumns, rows) -> ColumnarTable:
        """Encode a row slice of *columns* without materialising records.

        Every column is a gather through a remap table from archive codes
        to stream codes: per attribute from the raw-value codes of
        ``sessions.attribute_value_codes``, plus session → source address
        and archive cookie → cookie.  The tables live as long as
        *columns*; a batch calls :func:`grouping_value` only for raw
        values the stream has never seen, and assigns new codes in row
        first-occurrence order, exactly as :meth:`ingest_records` does.
        The columns must be renumbered (request ids present) — a corpus
        store always is.

        The archive arrays here are only indexed, never mutated, so a
        read-only memory-mapped corpus (a warm ``REPRO_CORPUS_MMAP`` cache
        hit) streams through unchanged, paging in exactly the rows each
        micro-batch touches.
        """

        if columns.request_ids is None:
            raise ValueError(
                "streaming ingestion needs renumbered record columns "
                "(RecordColumns.renumbered assigns request ids)"
            )
        if columns is not self._remap_columns:
            self._adopt_columns(columns)

        rows = np.asarray(rows, dtype=np.int64)
        sessions = columns.session_codes[rows]
        codes = {}
        for attribute, (session_raw, raw_values), remap in zip(
            self.attributes, self._raw_columns, self._value_remaps
        ):
            codes[attribute] = _gather(
                remap,
                session_raw[sessions],
                lambda new, attribute=attribute, raw_values=raw_values: [
                    self._encode_value(attribute, raw_values[raw]) for raw in new
                ],
            )
        session_ips, cookie_values = columns.session_ips, columns.cookie_values
        return self._emit(
            codes,
            request_ids=columns.request_ids[rows],
            timestamps=columns.timestamps[rows],
            cookie_codes=_gather(
                self._cookie_remap,
                columns.served_codes[rows],
                lambda new: intern_values(
                    [cookie_values[raw] for raw in new], self._cookie_index, self.cookie_values
                ),
            ),
            ip_codes=_gather(
                self._ip_remap,
                sessions,
                lambda new: intern_values(
                    [session_ips[raw] for raw in new], self._ip_index, self.ip_values
                ),
            ),
        )

    def _adopt_columns(self, columns: RecordColumns) -> None:
        """Start empty remap tables for a new :class:`RecordColumns`."""

        self._remap_columns = columns
        self._raw_columns = [
            columns.sessions.attribute_value_codes(attribute.value)
            for attribute in self.attributes
        ]
        # One extra slot, left at -1, so a missing attribute (raw code -1)
        # gathers -1.
        self._value_remaps = []
        for _session_raw, raw_values in self._raw_columns:
            remap = np.full(len(raw_values) + 1, _UNMAPPED, dtype=np.int32)
            remap[-1] = -1
            self._value_remaps.append(remap)
        self._ip_remap = np.full(columns.n_sessions, _UNMAPPED, dtype=np.int32)
        self._cookie_remap = np.full(len(columns.cookie_values), _UNMAPPED, dtype=np.int32)


#: Remap-table slot of an archive code the stream has not encoded yet.
_UNMAPPED = -2


def _gather(remap: np.ndarray, raw: np.ndarray, encode) -> np.ndarray:
    """``remap[raw]``, first filling the never-seen codes.

    *encode* maps the never-seen archive codes, in row first-occurrence
    order, to their stream codes.
    """

    codes = remap[raw]
    pending = np.flatnonzero(codes == _UNMAPPED)
    if pending.size:
        new, first = np.unique(raw[pending], return_index=True)
        new = new[np.argsort(first)]
        remap[new] = encode(new.tolist())
        codes = remap[raw]
    return codes
