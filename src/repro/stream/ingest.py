"""Incremental encoding of arriving traffic into columnar micro-batches.

The batch detection engine extracts a whole store into one
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
concatenated batch columns.

A batch is a row slice of a
:class:`~repro.honeysite.storage.RecordColumns`.  The encoding itself is
the batch extractor's, :class:`~repro.core.columnar.TableEncoder`, kept
for the life of the stream: each column is one gather through a remap
table from the archive's codes to stream codes, so the grouping
transformation runs once per distinct raw value of the whole replay, and
ingesting a whole store in one batch yields exactly the table
:meth:`~repro.core.detector.FPInconsistent.extract_table` builds.  The
stream counters live here, so a batch extraction never counts as ingest.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro import obs
from repro.core.columnar import ColumnarTable, TableEncoder
from repro.fingerprint.attributes import Attribute
from repro.honeysite.storage import RecordColumns

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
        self._encoder = TableEncoder(attributes)
        self.attributes = self._encoder.attributes
        #: rows encoded and micro-batches emitted so far
        self.rows_ingested = 0
        self.batches_emitted = 0

    # -- introspection ---------------------------------------------------------

    def vocabulary_sizes(self) -> Dict[Attribute, int]:
        """Current decode-list length per attribute (monotonically growing)."""

        return {attribute: len(values) for attribute, values in self._encoder.values.items()}

    # -- checkpointing ---------------------------------------------------------

    def export_state(self) -> Dict:
        """The ingestor's durable state, as live references.

        Only the vocabulary (decode lists, in code order) and the row
        counters are durable.  Nothing is copied: the lists and the
        value → code indexes are the ingestor's own, valid until the next
        ingest, and must be treated as read-only — the checkpointer reads
        the entries past its high-water marks and encodes values as codes
        through the indexes.  The raw-value memo and the remap tables are
        pure caches — :meth:`restore_state` rebuilds the indexes and lets
        the caches refill lazily, so a restored ingestor encodes every
        future batch exactly as the original would have.
        """

        encoder = self._encoder
        return {
            "attributes": self.attributes,
            "values": encoder.values,
            "indexes": encoder.indexes,
            "cookie_values": encoder.cookie_values,
            "cookie_index": encoder.cookie_index,
            "ip_values": encoder.ip_values,
            "ip_index": encoder.ip_index,
            "rows_ingested": self.rows_ingested,
            "batches_emitted": self.batches_emitted,
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
        self._encoder.restore(state["values"], state["cookie_values"], state["ip_values"])
        self.rows_ingested = int(state["rows_ingested"])
        self.batches_emitted = int(state["batches_emitted"])

    # -- ingestion -------------------------------------------------------------

    def ingest_rows(self, columns: RecordColumns, rows) -> ColumnarTable:
        """Encode a row slice of *columns* as the next micro-batch.

        Rows come out in the given order; the caller owns arrival ordering
        (the replay driver feeds timestamp order).  New codes are assigned
        in row first-occurrence order through the stream's
        :class:`~repro.core.columnar.TableEncoder`.  The columns must be
        renumbered (request ids present) — a corpus store always is.
        """

        table = self._encoder.encode(columns, rows)
        self.rows_ingested += table.n_rows
        self.batches_emitted += 1
        _ROWS_INGESTED.inc(table.n_rows)
        _BATCHES_EMITTED.inc()
        # Decode lists only grow, so summing lengths here keeps the gauge
        # exact without a per-row cost.
        _VOCABULARY_VALUES.set(
            sum(len(values) for values in self._encoder.values.values())
        )
        return table
