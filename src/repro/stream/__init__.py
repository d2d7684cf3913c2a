"""Streaming detection subsystem: online FP-Inconsistent scoring.

Every other layer of the reproduction is batch-only — verdicts exist once
a whole corpus has been assembled and mined.  This package turns the
detection stack into a *servable* engine that scores requests as they
arrive, in five pieces:

* :class:`~repro.stream.ingest.StreamIngestor` — encodes arriving
  micro-batches (record objects or ``RecordColumns`` row slices) against a
  growing attribute-code vocabulary, emitting ``core.columnar`` tables;
* :class:`~repro.stream.classifier.OnlineClassifier` — vectorized matching
  with a filter list compiled once plus **incremental** spatial and
  temporal state carried across batches, emitting verdict columns;
* :class:`~repro.stream.refresh.FilterListRefresher` — periodic re-mining
  over a sliding window of ingested rows, hot-swapped at batch boundaries;
* :class:`~repro.stream.replay.ReplayDriver` — the one online engine:
  replays any cached corpus through the stream in timestamp order, with
  supervised scoring and refresh recorded in a
  :class:`~repro.stream.replay.StreamHealth` report; with a frozen filter
  list the verdicts are identical to the batch pipeline's (the
  subsystem's oracle);
* :class:`~repro.stream.checkpoint.StreamCheckpointer` — periodic
  incremental, crash-safe saves of the online state (append-only delta
  segments plus one small snapshot, no pickle), so an interrupted replay
  resumes byte-identically (``docs/robustness.md``).

``repro stream`` on the command line drives this package; the
architecture is documented in ``docs/streaming.md``.
"""

from repro.stream.checkpoint import CheckpointError, StreamCheckpointer
from repro.stream.classifier import OnlineClassifier
from repro.stream.ingest import StreamIngestor
from repro.stream.refresh import FilterListRefresher
from repro.stream.replay import (
    DEFAULT_BATCH_SIZE,
    WORKER_ATTEMPTS,
    ArrivalStream,
    ReplayDriver,
    ReplayResult,
    StreamHealth,
    verdicts_digest,
)

__all__ = [
    "ArrivalStream",
    "CheckpointError",
    "DEFAULT_BATCH_SIZE",
    "FilterListRefresher",
    "OnlineClassifier",
    "ReplayDriver",
    "ReplayResult",
    "StreamCheckpointer",
    "StreamHealth",
    "StreamIngestor",
    "WORKER_ATTEMPTS",
    "verdicts_digest",
]
