"""Sharded, parallel corpus engine.

Every corpus is built here, along one **sharded** design:

* every traffic source (each of the 20 bot services, the real-user share,
  each privacy technology) is one :class:`ShardSpec`;
* every shard derives its randomness from its own
  ``numpy.random.SeedSequence`` spawned from the master seed, so its output
  is a pure function of ``(seed, spec)`` — independent of worker count
  and scheduling order;
* every shard generates into its own miniature
  :class:`~repro.honeysite.site.HoneySite` whose
  :class:`~repro.geo.ipaddr.IpAddressSpace` is partitioned (shard *i* of
  *n* allocates /16 blocks ``i, i+n, i+2n, ...``), so merged shards never
  collide on address space;
* the coordinator mints every source's URL token up front, fans shards out
  over a process pool, and merges results **in shard order**,
  adopting each shard's URL mapping and prefix assignments into the final
  site.

Shard results travel **columnar**: a worker returns a
:class:`~repro.honeysite.storage.RecordColumns` payload (per-row arrays
over session-deduplicated fingerprint/header/decision dictionaries),
never a pickled list of record objects.  The coordinator concatenates
payloads, renumbers request ids, wraps the result in a
:class:`~repro.honeysite.storage.RequestStore`, which answers every query
from those arrays, and encodes each subset's fingerprint table once with
:class:`~repro.core.columnar.TableEncoder`.

Identical output for a given seed regardless of worker count is the
engine's core contract; ``tests/test_engine.py`` pins it.
"""

from __future__ import annotations

import concurrent.futures
import logging
import os
import pickle
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs
from repro.obs import SpanRecord
from repro.analysis.corpus import Corpus, default_scale
from repro.bots.marketplace import build_marketplace
from repro.bots.service import BotServiceProfile
from repro.bots.traffic import BotTrafficGenerator
from repro.core.columnar import TableEncoder
from repro.geo.geolite import GeoDatabase
from repro.geo.ipaddr import IpAddressSpace, PrefixAssignment
from repro.honeysite.site import HoneySite, SessionRecorder
from repro.honeysite.storage import RecordColumns, RecordColumnsBuilder, RequestStore
from repro.honeysite.urls import generate_url_token
from repro.users.privacy import PrivacyTechnology, PrivacyTrafficGenerator
from repro.users.realuser import REAL_USER_SOURCE, RealUserTrafficGenerator

#: Environment variable selecting the shard worker count (unset → 1).
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Environment variable bounding per-shard retry attempts after a worker
#: failure (exception, killed process, timeout) before the shard falls
#: back to in-process serial execution.
RETRIES_ENV_VAR = "REPRO_SHARD_RETRIES"

#: Default per-shard retry budget when ``REPRO_SHARD_RETRIES`` is unset.
DEFAULT_SHARD_RETRIES = 2

#: Environment variable setting a per-shard-attempt timeout in seconds
#: (unset or 0 → no timeout).  A timed-out attempt counts as a failure:
#: the pool is abandoned (the stuck worker cannot be cancelled) and the
#: affected shards are retried on a fresh pool.
TIMEOUT_ENV_VAR = "REPRO_SHARD_TIMEOUT"

#: Exponential-backoff schedule between shard retry rounds: the sleep
#: before retry round *k* is ``BACKOFF_BASE * 2**k``, capped, and scaled
#: by a deterministic jitter in [0.5, 1.5) drawn from the retry seed —
#: reruns of the same configuration back off identically.
BACKOFF_BASE_SECONDS = 0.05
BACKOFF_CAP_SECONDS = 2.0

#: A bot service whose scaled volume exceeds this many requests is split
#: into sub-shards of roughly this size, so the largest service no longer
#: bounds parallel speedup.  Deliberately independent of the worker count:
#: the shard plan (and therefore the corpus) must be a pure function of
#: (seed, scale, configuration), or corpora would differ across
#: parallelism and the content-addressed cache would break.
SUBSHARD_TARGET_RECORDS = 2048

#: Hard ceiling on the total shard count of one plan.  Every shard
#: allocates its own interleaved slice of the partitioned address space;
#: a bot shard saturates the distinct (ASN, region) pool at roughly 77
#: cloud blocks regardless of its request budget.  The widened per-kind
#: octet segments (``geo.ipaddr.DEFAULT_KIND_OCTET_RANGES``: cloud holds
#: 31 × 256 blocks) support ~100 concurrent partitions (31 × 256 ÷ 77 ≈
#: 103), and the format-v4 bump (``CORPUS_FORMAT_VERSION``) legitimised
#: re-pinning every shard plan, so the ceiling now sits at 96: large-scale
#: plans split the biggest services three times finer, and the cheaper
#: pure-array transport keeps the extra merges almost free.  The plan (and
#: therefore the corpus) is still a pure function of (seed, scale,
#: configuration) — raising this again requires another format bump.
MAX_TOTAL_SHARDS = 96

#: Fan-out clamp for the columnar shard transport: every worker must have
#: at least this many records of planned work.  Since format v4 a shard
#: payload is pure numpy arrays over scalar decode lists — zero pickled
#: objects, measured at ~162 bytes per record at the reference tiny config
#: against ~353 for the v3 payload (which still pickled one fingerprint
#: object per session).  Transfer and coordinator-side decode are both
#: effectively memcpy, so the floor is set by pool startup alone: a
#: forked worker costs ~0.2 s before its first record, which the
#: vectorized generators amortise over a few thousand records.  Below this
#: floor the clamp falls back toward one inline worker.
MIN_RECORDS_PER_WORKER_COLUMNAR = 4_000

#: CI regression ceiling on measured columnar transfer cost, in pickled
#: payload bytes per planned record (``last_plan["payload_bytes"] /
#: last_plan["planned_records"]``).  The v4 record columns, the whole
#: transport since the merge encodes the fingerprint tables, measure ~162
#: B/record at the reference tiny config and ~102 at scale 0.01, falling as
#: decode lists amortise; the committed v3 baseline was ~353.  The gate
#: fails any change that silently reintroduces per-session objects (or
#: otherwise bloats the payload) into the shard transport.
PAYLOAD_BYTES_PER_RECORD_CEILING = 200


#: The ``map_shards`` recovery-stat keys, in reporting order.  Each is
#: mirrored into an always-on registry counter (labelled by fan-out
#: pool) so ``repro.obs`` is the single cumulative source of truth;
#: ``CorpusEngine.last_plan["faults"]`` remains the per-build view.
_SHARD_STAT_KEYS = (
    "attempt_rounds",
    "failures",
    "retried",
    "serial_fallbacks",
    "pool_rebuilds",
)

_SHARD_STAT_COUNTERS = {
    key: obs.counter(
        f"repro_shard_{key}_total",
        f"Shard fan-out {key.replace('_', ' ')}, by worker pool.",
        always=True,
    )
    for key in _SHARD_STAT_KEYS
}

_SHARD_RUNS = obs.counter(
    "repro_shard_runs_total", "Shard payloads executed, by worker pool."
)

_PAYLOAD_BYTES = obs.counter(
    "repro_corpus_payload_bytes_total",
    "Columnar shard payload bytes, as measured inside the workers.",
    always=True,
)

_CACHE_LOOKUPS = obs.counter(
    "repro_corpus_cache_lookups_total",
    "Corpus cache lookups by status (hit, miss, uncached).",
    always=True,
)


#: Privacy technologies generated by default (Section 7.5's five).
PRIVACY_TECHNOLOGIES: Tuple[PrivacyTechnology, ...] = (
    PrivacyTechnology.SAFARI,
    PrivacyTechnology.BRAVE,
    PrivacyTechnology.TOR,
    PrivacyTechnology.UBLOCK_ORIGIN,
    PrivacyTechnology.ADBLOCK_PLUS,
)

def default_workers() -> Optional[int]:
    """Worker count requested through ``REPRO_WORKERS`` (``None`` if unset)."""

    raw = os.environ.get(WORKERS_ENV_VAR)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{WORKERS_ENV_VAR} must be >= 1, got {value}")
    return value


def default_shard_retries() -> int:
    """Retry budget requested through ``REPRO_SHARD_RETRIES`` (default 2)."""

    raw = os.environ.get(RETRIES_ENV_VAR)
    if not raw:
        return DEFAULT_SHARD_RETRIES
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{RETRIES_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"{RETRIES_ENV_VAR} cannot be negative, got {value}")
    return value


def default_shard_timeout() -> Optional[float]:
    """Per-attempt shard timeout from ``REPRO_SHARD_TIMEOUT`` (``None`` if unset)."""

    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{TIMEOUT_ENV_VAR} must be a number, got {raw!r}") from exc
    if value < 0:
        raise ValueError(f"{TIMEOUT_ENV_VAR} cannot be negative, got {value}")
    return value or None


def retry_backoff_seconds(attempt: int, *, seed: int = 0, label: str = "shards") -> float:
    """The sleep before retry round *attempt* (0-based), jitter included.

    Exponential with a deterministic jitter in [0.5, 1.5) drawn from
    ``(seed, label, attempt)`` — a rerun of the same configuration backs
    off identically, in any interpreter (the label enters through a CRC,
    not the per-process salted ``hash``), while fan-outs with different
    labels decorrelate.
    """

    base = min(BACKOFF_CAP_SECONDS, BACKOFF_BASE_SECONDS * (2 ** max(0, attempt)))
    jitter = np.random.default_rng(
        np.random.SeedSequence((seed, zlib.crc32(label.encode()), attempt))
    ).random()
    return base * (0.5 + jitter)


def _guarded_call(task):
    """Worker entry point: fire the ``shard_run`` fault point, then run.

    Module-level so process pools can pickle it.  The key carries the
    fan-out label, payload index and attempt number, so retried attempts
    draw fresh fault decisions.  The call always runs in a pool process,
    so a ``kill`` fault may end it.
    """

    fn, payload, key = task
    faults.check("shard_run", key, allow_kill=True)
    return fn(payload)


def map_shards(
    fn,
    payloads,
    *,
    workers: int,
    retries: Optional[int] = None,
    retry_seed: int = 0,
    label: str = "shards",
    stats: Optional[Dict[str, int]] = None,
) -> list:
    """Map *fn* over *payloads* on a process pool, preserving order.

    The corpus engine's fan-out: ``workers <= 1`` (or a single payload)
    runs inline; otherwise a process pool executes the payloads and
    results come back in input order.  *fn* must be a module-level
    callable and payloads picklable.

    The pooled path is **fault tolerant**: a worker exception, a killed
    process (``BrokenProcessPool``) or a timed-out attempt
    (``REPRO_SHARD_TIMEOUT``) triggers up to *retries* bounded retry
    rounds (default ``REPRO_SHARD_RETRIES``) with exponential backoff and
    deterministic jitter from *retry_seed*; a broken pool is rebuilt
    between rounds.  A payload still failing after the budget falls back
    to **in-process serial execution** — every payload is a pure function
    of its spec, so results (and the merged corpus) are byte-identical to
    a fault-free run no matter which path executed it.  *stats*, when
    given, is filled with the recovery counters (``attempt_rounds``,
    ``failures``, ``retried``, ``serial_fallbacks``, ``pool_rebuilds``).
    """

    payloads = list(payloads)
    track = dict.fromkeys(_SHARD_STAT_KEYS, 0)

    def _finalize(result_list: list) -> list:
        if stats is not None:
            stats.update(track)
        _SHARD_RUNS.inc(len(payloads), pool=label)
        for key, value in track.items():
            if value:
                _SHARD_STAT_COUNTERS[key].inc(value, pool=label)
        return result_list

    if workers <= 1 or len(payloads) <= 1:
        return _finalize([fn(payload) for payload in payloads])
    if retries is None:
        retries = default_shard_retries()
    timeout = default_shard_timeout()
    max_workers = min(workers, len(payloads))
    # Loads multiprocessing; a warm cache hit never fans out, so pay here.
    from concurrent.futures.process import BrokenProcessPool

    results: list = [None] * len(payloads)
    pending = list(range(len(payloads)))
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)
    try:
        for attempt in range(retries + 1):
            track["attempt_rounds"] += 1
            with obs.tracer().span(
                "shards.round", pool=label, round=attempt, pending=len(pending)
            ):
                futures = {}
                for index in pending:
                    try:
                        futures[index] = pool.submit(
                            _guarded_call,
                            (fn, payloads[index], f"{label}:{index}:{attempt}"),
                        )
                    except BrokenProcessPool:
                        # A payload killed its worker while the round was
                        # being submitted: the rest fail this round.
                        break
                failed: List[int] = [index for index in pending if index not in futures]
                broken = bool(failed)
                for index in futures:
                    try:
                        results[index] = futures[index].result(timeout=timeout)
                    except (BrokenProcessPool, concurrent.futures.TimeoutError):
                        # A killed worker breaks the pool, and a timed-out
                        # attempt cannot be cancelled mid-run: abandon the
                        # pool so neither blocks a retry.
                        failed.append(index)
                        broken = True
                    except Exception:
                        failed.append(index)
            track["failures"] += len(failed)
            if not failed:
                pending = []
                break
            pending = failed
            if broken:
                pool.shutdown(wait=False, cancel_futures=True)
                pool = concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)
                track["pool_rebuilds"] += 1
            if attempt < retries:
                track["retried"] += len(failed)
                time.sleep(retry_backoff_seconds(attempt, seed=retry_seed, label=label))
    finally:
        pool.shutdown(wait=False, cancel_futures=True)

    # Poisoned shards: the retry budget is spent, so run the stragglers
    # inline — trusted in-process execution, no fault point, no pool.
    if pending:
        with obs.tracer().span(
            "shards.serial_fallback", pool=label, pending=len(pending)
        ):
            for index in pending:
                results[index] = fn(payloads[index])
    track["serial_fallbacks"] += len(pending)
    return _finalize(results)


@dataclass(frozen=True)
class ShardSpec:
    """One independently seeded unit of corpus generation."""

    index: int
    total: int
    kind: str  # "bots" | "real_users" | "privacy"
    source: str
    url_path: str
    seed: np.random.SeedSequence
    scale: float = 1.0
    campaign_days: int = 90
    profile: Optional[BotServiceProfile] = None
    technology: Optional[PrivacyTechnology] = None
    num_requests: int = 0
    #: request volume this shard generates when it is one slice of a split
    #: service (``None`` → the profile's full scaled volume)
    request_budget: Optional[int] = None


@dataclass
class ShardResult:
    """Everything one shard produced, ready to merge."""

    index: int
    source: str
    kind: str
    recorded: int
    #: the compact columnar record payload
    columns: RecordColumns
    assignments: List[PrefixAssignment] = field(default_factory=list)
    #: pickled size of ``columns``, measured in the worker
    payload_bytes: int = 0
    #: telemetry spans recorded inside the worker (empty while telemetry
    #: is disabled); the coordinator adopts them into its tracer so one
    #: timeline covers every process
    spans: List[SpanRecord] = field(default_factory=list)


def shard_site(spec: ShardSpec) -> Tuple[HoneySite, np.random.SeedSequence]:
    """The private honey site a shard generates into, plus its generator seed.

    The site sits over the shard's partitioned slice of the address space
    and has adopted the pre-minted URL path.  Both child sequences derive
    statelessly (equivalent to ``spec.seed.spawn(2)`` but without mutating
    the spec's SeedSequence), so running a shard is a pure function of its
    spec.
    """

    site_seed = np.random.SeedSequence(
        entropy=spec.seed.entropy, spawn_key=spec.seed.spawn_key + (0,)
    )
    generator_seed = np.random.SeedSequence(
        entropy=spec.seed.entropy, spawn_key=spec.seed.spawn_key + (1,)
    )
    space = IpAddressSpace(partition=(spec.index, spec.total))
    site = HoneySite(geo=GeoDatabase(space), rng=np.random.default_rng(site_seed))
    site.urls.adopt(spec.source, spec.url_path)
    return site, generator_seed


def run_shard(spec: ShardSpec) -> ShardResult:
    """Generate one shard in isolation (the worker entry point).

    Runs the matching vectorized traffic generator into the shard's
    private site (:func:`shard_site`).  Module-level so
    :class:`concurrent.futures` process pools can pickle it.
    """

    # Spans are recorded by hand rather than through the worker's global
    # tracer: pool processes are reused across shards, so the span must
    # travel back in the result rather than stay in that process.
    span_ts = time.time()
    span_started = time.perf_counter()

    site, generator_seed = shard_site(spec)
    # The recorder sinks rows into a payload builder instead of
    # constructing record objects.
    builder = RecordColumnsBuilder()
    recorder = SessionRecorder(site, sink=builder)

    if spec.kind == "bots":
        if spec.profile is None:
            raise ValueError("bot shard requires a profile")
        recorded = BotTrafficGenerator(site, rng=generator_seed).run_service_vectorized(
            spec.profile,
            scale=spec.scale,
            campaign_days=spec.campaign_days,
            total_requests=spec.request_budget,
            recorder=recorder,
        )
    elif spec.kind == "real_users":
        recorded = RealUserTrafficGenerator(site, rng=generator_seed).run_vectorized(
            num_requests=spec.num_requests,
            source=spec.source,
            recorder=recorder,
        )
    elif spec.kind == "privacy":
        if spec.technology is None:
            raise ValueError("privacy shard requires a technology")
        recorded = PrivacyTrafficGenerator(site, rng=generator_seed).run_technology_vectorized(
            spec.technology,
            num_requests=spec.num_requests,
            recorder=recorder,
        )
    else:
        raise ValueError(f"unknown shard kind {spec.kind!r}")

    columns = builder.columns()
    # Measured here, whether or not this call runs in a pool process: a
    # serial build ships nothing, but the size is still the transport cost
    # a pooled build pays, and the payload-bytes gate reads it for every
    # build.  The coordinator never re-serialises what a pool shipped.
    payload_bytes = len(pickle.dumps(columns, pickle.HIGHEST_PROTOCOL))
    spans: List[SpanRecord] = []
    if obs.telemetry_enabled():
        attrs: Dict[str, object] = {
            "index": spec.index,
            "source": spec.source,
            "kind": spec.kind,
            "recorded": recorded,
            "payload_bytes": payload_bytes,
        }
        spans.append(
            SpanRecord(
                name="corpus.shard",
                ts=span_ts,
                duration=time.perf_counter() - span_started,
                pid=os.getpid(),
                tid=threading.get_ident(),
                attrs=attrs,
            )
        )
    return ShardResult(
        index=spec.index,
        source=spec.source,
        kind=spec.kind,
        recorded=recorded,
        columns=columns,
        assignments=site.geo.space.assignments,
        payload_bytes=payload_bytes,
        spans=spans,
    )


class CorpusEngine:
    """Plans, executes and merges sharded corpus builds."""

    def __init__(
        self,
        *,
        seed: int = 7,
        scale: Optional[float] = None,
        include_real_users: bool = True,
        include_privacy: bool = False,
        real_user_requests: int = 2206,
        privacy_requests_each: int = 60,
        campaign_days: int = 90,
        profiles: Optional[Sequence[BotServiceProfile]] = None,
        technologies: Sequence[PrivacyTechnology] = PRIVACY_TECHNOLOGIES,
        subshard_target: int = SUBSHARD_TARGET_RECORDS,
        min_records_per_worker: Optional[int] = None,
    ):
        self.seed = int(seed)
        self.scale = default_scale() if scale is None else float(scale)
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        self.include_real_users = include_real_users
        self.include_privacy = include_privacy
        self.real_user_requests = int(real_user_requests)
        self.privacy_requests_each = int(privacy_requests_each)
        self.campaign_days = int(campaign_days)
        self.profiles: Tuple[BotServiceProfile, ...] = tuple(
            profiles if profiles is not None else build_marketplace()
        )
        self.technologies: Tuple[PrivacyTechnology, ...] = tuple(technologies)
        self.subshard_target = int(subshard_target)
        if self.subshard_target < 1:
            raise ValueError("subshard_target must be positive")
        if min_records_per_worker is not None and int(min_records_per_worker) < 1:
            raise ValueError("min_records_per_worker must be positive")
        #: per-worker planned-records floor for the fan-out clamp; ``None``
        #: means :data:`MIN_RECORDS_PER_WORKER_COLUMNAR`
        self.min_records_per_worker = (
            None if min_records_per_worker is None else int(min_records_per_worker)
        )
        #: Execution summary of the most recent :meth:`build` call — the
        #: shard plan and the fan-out actually used (tests and CI read it).
        self.last_plan: Dict[str, object] = {}

    # -- planning -------------------------------------------------------------

    def _sources(self) -> List[Tuple[str, str, object]]:
        """Ordered (kind, source, payload) triples, one per shard."""

        sources: List[Tuple[str, str, object]] = [
            ("bots", profile.name, profile) for profile in self.profiles
        ]
        if self.include_real_users:
            sources.append(("real_users", REAL_USER_SOURCE, None))
        if self.include_privacy:
            for technology in self.technologies:
                sources.append(("privacy", f"privacy:{technology.value}", technology))
        return sources

    def _plan_parts(self, sources: Sequence[Tuple[str, str, object]]) -> Dict[str, int]:
        """Sub-shard count per bot service, under the global shard ceiling.

        Splits are granted one at a time to the service with the largest
        remaining per-shard slice (ties: first in source order) until every
        slice fits the sub-shard target or :data:`MAX_TOTAL_SHARDS` is
        reached.  Depends only on the configuration — never on the worker
        count — so the plan (and the corpus) stays a pure function of the
        seed and configuration.
        """

        volumes: List[Tuple[str, int]] = [
            (source, payload.scaled_requests(self.scale))
            for kind, source, payload in sources
            if kind == "bots"
        ]
        parts = {source: 1 for source, _volume in volumes}
        budget = MAX_TOTAL_SHARDS - len(sources)
        while budget > 0:
            best: Optional[str] = None
            best_slice = float(self.subshard_target)
            for source, volume in volumes:
                slice_size = volume / parts[source]
                if slice_size > best_slice:
                    best, best_slice = source, slice_size
            if best is None:
                break
            parts[best] += 1
            budget -= 1
        return parts

    @staticmethod
    def _subshard_budgets(volume: int, parts: int) -> List[Optional[int]]:
        """Balanced request budgets of one service's *parts* slices."""

        if parts <= 1:
            return [None]
        base, remainder = divmod(volume, parts)
        return [base + 1 if index < remainder else base for index in range(parts)]

    def plan(self) -> List[ShardSpec]:
        """Derive the deterministic shard list for this configuration.

        Every traffic source receives one spawned seed exactly as before;
        a bot service whose scaled volume exceeds ``subshard_target`` is
        additionally split into sub-shards (one slice of its volume each,
        subject to the global :data:`MAX_TOTAL_SHARDS` ceiling), whose
        seeds derive statelessly from the source seed.  Unsplit
        configurations therefore produce the exact plan — and corpus —
        previous revisions did.
        """

        sources = self._sources()
        master = np.random.SeedSequence(self.seed)
        url_seed, _site_seed, *source_seeds = master.spawn(2 + len(sources))
        url_rng = np.random.default_rng(url_seed)

        parts = self._plan_parts(sources)
        planned: List[Tuple[str, str, object, np.random.SeedSequence, str, Optional[int]]] = []
        taken_paths: set = set()
        for (kind, source, payload), source_seed in zip(sources, source_seeds):
            while True:
                path = "/" + generate_url_token(url_rng)
                if path not in taken_paths:
                    break
            taken_paths.add(path)
            if kind == "bots":
                budgets = self._subshard_budgets(
                    payload.scaled_requests(self.scale), parts.get(source, 1)
                )
            else:
                budgets = [None]
            if len(budgets) == 1:
                planned.append((kind, source, payload, source_seed, path, budgets[0]))
            else:
                for part, budget in enumerate(budgets):
                    # Stateless children of the source seed, one per slice;
                    # the (2 + part) offset keeps them clear of the (0,)/(1,)
                    # site/generator children run_shard derives.
                    sub_seed = np.random.SeedSequence(
                        entropy=source_seed.entropy,
                        spawn_key=source_seed.spawn_key + (2 + part,),
                    )
                    planned.append((kind, source, payload, sub_seed, path, budget))

        specs: List[ShardSpec] = []
        for index, (kind, source, payload, seed, path, budget) in enumerate(planned):
            specs.append(
                ShardSpec(
                    index=index,
                    total=len(planned),
                    kind=kind,
                    source=source,
                    url_path=path,
                    seed=seed,
                    scale=self.scale,
                    campaign_days=self.campaign_days,
                    profile=payload if kind == "bots" else None,
                    technology=payload if kind == "privacy" else None,
                    num_requests=(
                        self.real_user_requests
                        if kind == "real_users"
                        else self.privacy_requests_each
                        if kind == "privacy"
                        else 0
                    ),
                    request_budget=budget,
                )
            )
        return specs

    # -- execution ------------------------------------------------------------

    def _execute(self, specs: Sequence[ShardSpec], workers: int) -> List[ShardResult]:
        # Submit the heaviest shards first so a big service never lands
        # last on an otherwise idle pool; results are re-ordered below.
        ordered = sorted(specs, key=_shard_weight, reverse=True)
        stats: Dict[str, int] = {}
        results = map_shards(
            run_shard,
            ordered,
            workers=workers,
            retry_seed=self.seed,
            label="corpus",
            stats=stats,
        )
        self.last_plan["faults"] = stats
        # Shard workers record their spans locally (possibly in another
        # process); merging them here puts every shard on one timeline.
        obs.tracer().adopt(
            span for result in results for span in result.spans
        )
        return sorted(results, key=lambda result: result.index)

    def records_per_worker_floor(self) -> int:
        """The clamp threshold in effect.

        :data:`MIN_RECORDS_PER_WORKER_COLUMNAR`, derived from the columnar
        transport's transfer cost, unless the constructor's
        ``min_records_per_worker`` overrides it.
        """

        if self.min_records_per_worker is not None:
            return self.min_records_per_worker
        return MIN_RECORDS_PER_WORKER_COLUMNAR

    def effective_workers(self, requested: int, specs: Sequence[ShardSpec]) -> int:
        """Clamp *requested* workers so shard overhead cannot dominate.

        Every worker must have at least :meth:`records_per_worker_floor`
        records of planned work (and there is no point in more workers than
        shards).  Returns at least 1; a result of 1 runs inline without a
        pool.  This only changes wall-clock behaviour — corpus content
        is identical for every fan-out.
        """

        requested = max(1, int(requested))
        total_records = sum(_shard_weight(spec) for spec in specs)
        cap = max(1, total_records // self.records_per_worker_floor())
        return min(requested, cap, max(1, len(specs)))

    def build(self, *, workers: Optional[int] = None) -> Corpus:
        """Build the corpus, fanning shards out over *workers* processes.

        The merged corpus is byte-identical for any worker count; it only
        changes wall-clock time.  The
        fan-out actually used is clamped through :meth:`effective_workers`
        and recorded in :attr:`last_plan`.
        """

        if workers is None:
            workers = default_workers() or 1

        specs = self.plan()
        effective = self.effective_workers(workers, specs)
        subshard_sources = sorted({spec.source for spec in specs if spec.request_budget is not None})
        self.last_plan = {
            "shards": len(specs),
            "planned_records": int(sum(_shard_weight(spec) for spec in specs)),
            "requested_workers": int(workers),
            "effective_workers": int(effective),
            "min_records_per_worker": self.records_per_worker_floor(),
            "subshard_target": self.subshard_target,
            "subsharded_sources": subshard_sources,
        }
        master = np.random.SeedSequence(self.seed)
        _url_seed, site_seed = master.spawn(2)
        site = HoneySite(rng=np.random.default_rng(site_seed))

        with obs.tracer().span("corpus.generate", shards=len(specs), workers=effective):
            results = self._execute(specs, effective)

        corpus = Corpus(
            site=site, scale=self.scale, seed=self.seed, bot_profiles=self.profiles
        )
        for spec in specs:
            site.urls.adopt(spec.source, spec.url_path)
        for result in results:
            for assignment in result.assignments:
                site.geo.space.adopt(assignment)
            if result.kind == "bots":
                corpus.service_volumes[result.source] = (
                    corpus.service_volumes.get(result.source, 0) + result.recorded
                )
            elif result.kind == "real_users":
                corpus.real_user_requests = result.recorded
            elif result.kind == "privacy":
                technology = PrivacyTechnology(result.source.split(":", 1)[1])
                corpus.privacy_requests[technology] = result.recorded

        with obs.tracer().span("corpus.merge"):
            self._merge_columnar(corpus, results)
        return corpus

    def _merge_columnar(self, corpus: Corpus, results: Sequence[ShardResult]) -> None:
        """Columnar-transport merge: concatenate payloads, renumber ids,
        attach the store, and encode the per-subset fingerprint tables.
        """

        merged = RecordColumns.concat([result.columns for result in results])
        # ``concat`` returns freshly allocated row arrays, so assigning the
        # merged-order id sequence directly is safe (no aliasing with any
        # shard payload).
        merged.request_ids = np.arange(1, merged.n_rows + 1, dtype=np.int64)
        corpus.site.store = RequestStore(merged)
        # Transfer volume as measured by each shard, serial builds included,
        # so the payload-bytes gate tracks per-record transport cost.
        payload_bytes = sum(result.payload_bytes for result in results)
        self.last_plan["payload_bytes"] = payload_bytes
        _PAYLOAD_BYTES.inc(payload_bytes)

        # Per-subset tables: a subset's rows are the merged rows of its
        # shards, in shard order (bots: every bot shard; privacy: one shard
        # per technology), and a fresh encoder per subset codes them in row
        # first-occurrence order, so each table is exactly what extraction
        # of that subset's store produces.
        subsets: Dict[str, List[np.ndarray]] = {}
        offset = 0
        for result in results:
            key = result.kind if result.kind in ("bots", "real_users") else result.source
            end = offset + result.columns.n_rows
            subsets.setdefault(key, []).append(np.arange(offset, end, dtype=np.int64))
            offset = end
        for key, parts in subsets.items():
            rows = np.concatenate(parts)
            if rows.size:
                corpus.columnar_tables[key] = TableEncoder().encode(merged, rows)


def _shard_weight(spec: ShardSpec) -> int:
    """Rough request volume of a shard, for longest-first scheduling."""

    if spec.request_budget is not None:
        return spec.request_budget
    if spec.kind == "bots" and spec.profile is not None:
        return spec.profile.scaled_requests(spec.scale)
    return spec.num_requests


def build_or_load_corpus(
    *,
    seed: int = 7,
    scale: Optional[float] = None,
    include_real_users: bool = True,
    include_privacy: bool = False,
    real_user_requests: int = 2206,
    privacy_requests_each: int = 60,
    campaign_days: int = 90,
    workers: Optional[int] = None,
    cache=None,
) -> Tuple[Corpus, str]:
    """Build a sharded corpus, or reuse a cached one.

    *cache* is a cache root path or a
    :class:`~repro.analysis.cache.CorpusCache`; ``None`` reads
    ``REPRO_CORPUS_CACHE``, ``False`` disables caching outright.  Returns
    ``(corpus, status)`` with status one of ``"hit"``, ``"miss"`` (built
    and stored) or ``"uncached"`` (no cache configured).
    """

    from repro.analysis.cache import CorpusCache, corpus_cache_key, default_cache_dir

    engine = CorpusEngine(
        seed=seed,
        scale=scale,
        include_real_users=include_real_users,
        include_privacy=include_privacy,
        real_user_requests=real_user_requests,
        privacy_requests_each=privacy_requests_each,
        campaign_days=campaign_days,
    )
    if cache is None:
        cache = default_cache_dir()
    if cache is False:
        cache = None
    if cache is not None and not isinstance(cache, CorpusCache):
        cache = CorpusCache(cache)
    # One span for the whole lookup: a warm hit's archive load, or a
    # miss's build and store.
    with obs.tracer().span("corpus.load", status="uncached", archive_bytes=0) as span:
        if cache is None:
            _CACHE_LOOKUPS.inc(status="uncached")
            return engine.build(workers=workers), "uncached"

        key = corpus_cache_key(
            seed=engine.seed,
            scale=engine.scale,
            include_real_users=engine.include_real_users,
            include_privacy=engine.include_privacy,
            real_user_requests=engine.real_user_requests,
            privacy_requests_each=engine.privacy_requests_each,
            campaign_days=engine.campaign_days,
        )
        corpus = cache.load(key)
        status = "hit" if corpus is not None else "miss"
        _CACHE_LOOKUPS.inc(status=status)
        if corpus is None:
            corpus = engine.build(workers=workers)
            try:
                cache.store(key, corpus)
            except Exception as exc:
                # Caching is an optimisation: a failed archive write (full
                # disk, permissions, an injected ``cache_write`` fault) must
                # not take down the build that just succeeded.  The staged
                # entry is cleaned up by ``store`` itself, so the cache never
                # holds a torn archive.
                logging.getLogger("repro.analysis").warning(
                    "corpus cache store failed (%s); continuing uncached", exc
                )
        span.set(status=status, archive_bytes=cache.archive_bytes(key))
        return corpus, status
