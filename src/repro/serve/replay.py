"""Corpus replay through the parallel detection gateway.

The serving counterpart of :class:`~repro.stream.replay.ReplayDriver`:
the same arrival-ordered micro-batching (via
:class:`~repro.stream.replay.ArrivalStream`), but each batch is submitted
to a :class:`~repro.serve.gateway.DetectionGateway`, which fans scoring
out over its device-closed workers.  ``repro serve`` and
``benchmarks/bench_serve_scaling.py`` drive this class.

Like the single-stream driver, the gateway replay reads a lazy store's
columns without mutating them, so a memory-mapped corpus (warm
``REPRO_CORPUS_MMAP`` cache hit) replays directly from the on-disk
archive; worker submissions carry copied batch slices, never the maps.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.core.detector import InconsistencyVerdict
from repro.honeysite.storage import RequestStore
from repro.serve.gateway import DetectionGateway
from repro.stream.checkpoint import CheckpointError, StreamCheckpointer
from repro.stream.replay import DEFAULT_BATCH_SIZE, ArrivalStream, ReplayResult

logger = logging.getLogger("repro.serve")

#: The same per-batch latency histogram the single-stream driver fills
#: (interned by name): gateway batches are the same unit of work, so one
#: series answers "batch latency" for both front-ends.
_BATCH_SECONDS = obs.histogram("repro_stream_batch_seconds")


@dataclass
class ServeResult(ReplayResult):
    """A :class:`ReplayResult` plus the gateway's parallelism counters."""

    #: how many scoring workers the gateway ran
    workers: int = 1
    #: device keys whose state moved between workers during the replay
    #: (always 0 when the router was pre-pinned with ``from_table``)
    migrations: int = 0
    #: rows scored per worker, the replay's load-balance report
    worker_rows: List[int] = field(default_factory=list)
    #: the gateway's supervision incident report (JSON-ready)
    health: Optional[Dict] = None


class GatewayReplayDriver:
    """Replays a request store through a :class:`DetectionGateway`."""

    def __init__(self, gateway: DetectionGateway, *, batch_size: int = DEFAULT_BATCH_SIZE):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._gateway = gateway
        self.batch_size = int(batch_size)

    def replay(
        self,
        store: RequestStore,
        *,
        checkpointer: Optional[StreamCheckpointer] = None,
        resume: bool = False,
        max_batches: Optional[int] = None,
    ) -> ServeResult:
        """Stream every record of *store* through the gateway.

        Batches are submitted in stable timestamp order — the contract
        both the gateway and the single-stream driver assume.  The gateway
        is drained at end of stream so an in-flight background refresh is
        deployed (and counted) rather than lost, but it is left open:
        closing is the caller's job (``with gateway: ...``).

        Checkpointing mirrors :meth:`ReplayDriver.replay`: with a
        *checkpointer*, the gateway's state is saved incrementally at due
        batch boundaries (skipping boundaries where a background re-mine
        is in flight — the next boundary after the deploy captures a
        clean state); ``resume=True`` restores and continues, and
        *max_batches* bounds this invocation (the deterministic stand-in
        for a kill).
        """

        arrivals = ArrivalStream(store)
        total = arrivals.total

        verdicts: Dict[int, InconsistencyVerdict] = {}
        batch_seconds: List[float] = []
        start_row = 0
        resumed_from: Optional[int] = None
        if resume:
            if checkpointer is None:
                raise ValueError("resume=True requires a checkpointer")
            try:
                state = checkpointer.load()
            except CheckpointError as exc:
                logger.warning("checkpoint unreadable (%s); replaying from the start", exc)
                state = None
            if state is not None:
                if int(state["batch_size"]) != self.batch_size or int(state["rows_total"]) != total:
                    raise CheckpointError(
                        "checkpoint does not match this replay "
                        "(different batch size or store)"
                    )
                self._gateway.restore_state(state)
                verdicts = state["verdicts"]
                start_row = int(state["cursor_rows"])
                resumed_from = int(state["batches"])

        scored_this_run = 0
        rows_this_run = 0
        started = time.perf_counter()
        for start in range(start_row, total, self.batch_size):
            if max_batches is not None and scored_this_run >= max_batches:
                break
            batch_started = time.perf_counter()
            verdicts.update(arrivals.submit(self._gateway, start, self.batch_size))
            elapsed = time.perf_counter() - batch_started
            batch_seconds.append(elapsed)
            _BATCH_SECONDS.observe(elapsed, stage="total")
            scored_this_run += 1
            rows_this_run += min(self.batch_size, total - start)
            if (
                checkpointer is not None
                and checkpointer.due(self._gateway.batches)
                and self._gateway.checkpointable
            ):
                checkpointer.save(
                    {
                        "batch_size": self.batch_size,
                        "rows_total": total,
                        "cursor_rows": min(start + self.batch_size, total),
                        "batches": self._gateway.batches,
                        "verdicts": verdicts,
                        **self._gateway.export_state(),
                    }
                )
        self._gateway.drain()
        seconds = time.perf_counter() - started
        return ServeResult(
            verdicts=verdicts,
            rows=rows_this_run,
            batches=self._gateway.batches,
            seconds=seconds,
            batch_seconds=batch_seconds,
            refreshes=list(self._gateway.refreshes),
            checkpoints_saved=0 if checkpointer is None else checkpointer.saves,
            checkpoint_failures=0 if checkpointer is None else checkpointer.failures,
            resumed_from_batch=resumed_from,
            workers=self._gateway.workers,
            migrations=self._gateway.migrations,
            worker_rows=self._gateway.worker_rows(),
            health=self._gateway.health.to_dict(),
        )
