"""Incremental encoding of arriving traffic into columnar micro-batches.

A live deployment never has "the whole store": requests arrive in
micro-batches that may carry values the vocabulary has never seen.  The
:class:`StreamIngestor` owns a **growing** per-attribute vocabulary (codes
in stream first-occurrence order, never remapped) and encodes each batch,
a row slice of a :class:`~repro.honeysite.storage.RecordColumns`, with the
batch extractor's :class:`~repro.core.columnar.TableEncoder`.  Codes are
append-only, so the matcher, the temporal detector and the refresher work
on a batch unchanged, and ingesting a whole store in one batch yields
exactly :meth:`~repro.core.detector.FPInconsistent.extract_table`'s table.
The stream counters live here, so a batch extraction never counts as
ingest.
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
    tail only — the compiled filter-list matcher and the Location-predicate
    memo — and the temporal state takes the codes as its ids; all rely on
    codes being append-only.
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
        counters are durable.  Nothing is copied: the lists are the
        ingestor's own and must be treated as read-only — the checkpointer
        writes the entries past its high-water marks, and the temporal
        state's ids are their codes.  The indexes, the raw-value memo and
        the remap tables are derived — :meth:`restore_state` adopts the
        vocabulary and rebuilds or refills them, so a restored ingestor
        encodes every future batch exactly as the original would have.
        """

        encoder = self._encoder
        return {
            "attributes": self.attributes,
            "values": encoder.values,
            "cookie_values": encoder.cookie_values,
            "ip_values": encoder.ip_values,
            "rows_ingested": self.rows_ingested,
            "batches_emitted": self.batches_emitted,
        }

    def restore_state(self, state: Dict) -> None:
        """Adopt a vocabulary exported by :meth:`export_state` or folded
        from a checkpoint.

        The decode lists become this ingestor's own, uncopied, so the
        restored temporal state and the restored flags, bound to the same
        lists, never meet a second list for a slot (which they refuse); pass
        copies of a live export's lists, since its owner keeps extending
        them.  Indexes are rebuilt from code order and every cache resets
        empty.
        """

        if tuple(state["attributes"]) != self.attributes:
            raise ValueError(
                "checkpointed attribute set does not match this ingestor's attributes"
            )
        self._encoder.restore(state)
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
