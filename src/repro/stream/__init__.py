"""Streaming detection subsystem: online FP-Inconsistent scoring.

The batch layers score a corpus once it is assembled; this package scores
requests as they arrive.  :class:`StreamIngestor` encodes micro-batches
against a growing vocabulary, :class:`OnlineClassifier` scores them with
incremental spatial and temporal state, :class:`FilterListRefresher`
re-mines the list over a sliding window and hot-swaps it,
:class:`ReplayDriver` (the one online engine) replays a cached corpus
through them with supervised scoring, and :class:`StreamCheckpointer`
saves the online state so an interrupted replay resumes byte-identically.
With a frozen filter list the verdicts equal the batch pipeline's.

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
    same_verdicts,
    serialise_verdicts,
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
    "same_verdicts",
    "serialise_verdicts",
    "verdicts_digest",
]
