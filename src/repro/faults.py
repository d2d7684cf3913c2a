"""Deterministic fault injection for the execution layer.

A production detection pipeline must degrade gracefully — a crashed shard
process, a scoring exception mid-batch, a failed re-mine or a
truncated archive write must never take the run down or corrupt its
output.  The only way to trust those recovery paths is to exercise them
systematically, so this module gives every resilient layer a **named
fault point** and a **seeded plan** that decides, deterministically,
which invocations of each point fail and how.

A plan is configured through ``REPRO_FAULTS`` as comma-separated
``point:mode:probability`` rules::

    REPRO_FAULTS="shard_run:raise:0.1,refresh_mine:raise:1,checkpoint_write:truncate:0.5"

* **point** — one of :data:`FAULT_POINTS`; each call site documents its
  own key scheme (shard index + attempt, batch + attempt, …).
* **mode** — ``raise`` (raise :class:`InjectedFault`), ``kill``
  (``os._exit`` the worker process — only honoured where the call site
  marks a kill as survivable, i.e. inside a process-pool worker;
  elsewhere it downgrades to ``raise``) or ``truncate`` (truncate the
  file being written, then raise — the "crashed mid-write" model).
* **probability** — per-invocation trigger chance in ``[0, 1]``.

Every decision is a pure function of ``(seed, point, key)``: the seed
comes from ``REPRO_FAULTS_SEED`` (default 0) and the key from the call
site, which includes the attempt number — so a retried operation draws a
fresh decision, a re-run of the same configuration fails in exactly the
same places, and the decision is identical no matter which worker
process evaluates it.

When ``REPRO_FAULTS`` is unset, :func:`check` is a single dictionary
lookup returning immediately — the fault machinery costs nothing on the
production path.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import knobs

#: The variables holding the plan and seeding its draws (see :mod:`repro.knobs`).
FAULTS_ENV_VAR = knobs.FAULTS.name
FAULTS_SEED_ENV_VAR = knobs.FAULTS_SEED.name

#: The registered fault points (see ``docs/robustness.md`` for the map of
#: call sites and key schemes).
FAULT_POINTS = (
    "shard_run",        # analysis.engine.map_shards worker execution
    "worker_classify",  # stream.replay supervised batch scoring
    "refresh_mine",     # stream.refresh filter-list re-mining
    "checkpoint_write", # stream.checkpoint segment and snapshot writes
    "cache_write",      # analysis.cache columnar-archive writes
)

#: Supported failure modes.
FAULT_MODES = ("raise", "kill", "truncate")

#: Exit status used by ``kill``-mode faults, so a dead worker is
#: attributable in process listings and core-dump-free.
KILL_EXIT_STATUS = 73


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault-injection harness."""


class FaultPlanError(ValueError):
    """``REPRO_FAULTS`` (or an explicit spec) could not be parsed."""


@dataclass(frozen=True)
class FaultRule:
    """One ``point:mode:probability`` entry of a plan."""

    point: str
    mode: str
    probability: float


def _uniform(seed: int, point: str, key: str) -> float:
    """A deterministic draw in ``[0, 1)`` from ``(seed, point, key)``."""

    digest = hashlib.sha256(f"{seed}|{point}|{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultPlan:
    """A parsed, seeded set of fault rules (at most one per point)."""

    def __init__(self, rules: Tuple[FaultRule, ...], *, seed: int = 0):
        by_point = {}
        for rule in rules:
            if rule.point in by_point:
                raise FaultPlanError(f"duplicate fault point {rule.point!r}")
            by_point[rule.point] = rule
        #: point -> its rule
        self.rules: Dict[str, FaultRule] = by_point
        self.seed = int(seed)

    @classmethod
    def parse(cls, spec: str, *, seed: int = 0) -> "FaultPlan":
        """Parse a ``point:mode:probability[,...]`` spec string."""

        rules = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            pieces = part.split(":")
            if len(pieces) != 3:
                raise FaultPlanError(
                    f"fault rule {part!r} is not of the form point:mode:probability"
                )
            point, mode, raw_probability = (piece.strip() for piece in pieces)
            if point not in FAULT_POINTS:
                raise FaultPlanError(
                    f"unknown fault point {point!r}; registered points: {FAULT_POINTS}"
                )
            if mode not in FAULT_MODES:
                raise FaultPlanError(
                    f"unknown fault mode {mode!r}; supported modes: {FAULT_MODES}"
                )
            try:
                probability = float(raw_probability)
            except ValueError as exc:
                raise FaultPlanError(
                    f"fault probability {raw_probability!r} is not a number"
                ) from exc
            if not 0.0 <= probability <= 1.0:
                raise FaultPlanError(
                    f"fault probability must be in [0, 1], got {probability}"
                )
            rules.append(FaultRule(point=point, mode=mode, probability=probability))
        return cls(tuple(rules), seed=seed)

    def decide(self, point: str, key: str) -> Optional[FaultRule]:
        """The rule that fires for this ``(point, key)``, or ``None``.

        Pure: the same plan, point and key always decide the same way,
        in any process.
        """

        rule = self.rules.get(point)
        if rule is None:
            return None
        if rule.probability >= 1.0 or _uniform(self.seed, point, key) < rule.probability:
            return rule
        return None

    def check(self, point: str, key: str, *, path=None, allow_kill: bool = False) -> None:
        """Fire the configured fault for ``(point, key)``, if any.

        ``path`` names the file a ``truncate`` fault mutilates (required
        for that mode to have its mid-write-crash effect; without one it
        degrades to ``raise``).  ``allow_kill`` marks the calling context
        as surviving a process kill (a process-pool worker); elsewhere
        ``kill`` downgrades to ``raise`` so a fault never takes down the
        coordinator itself.
        """

        rule = self.decide(point, key)
        if rule is None:
            return
        if rule.mode == "kill" and allow_kill:
            os._exit(KILL_EXIT_STATUS)
        if rule.mode == "truncate" and path is not None:
            _truncate_file(path)
        raise InjectedFault(f"injected {rule.mode} fault at {point} ({key})")


def _truncate_file(path) -> None:
    """Cut the file at *path* to half its size — a torn, mid-crash write."""

    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
    except OSError:
        pass  # the fault still raises; a missing file is already "torn"


# -- the process-wide active plan -------------------------------------------------

_cache_key: Optional[Tuple[str, str]] = None
_cache_plan: Optional[FaultPlan] = None


def active_plan() -> Optional[FaultPlan]:
    """The plan configured through ``REPRO_FAULTS``, or ``None``.

    Parsed once per distinct ``(REPRO_FAULTS, REPRO_FAULTS_SEED)`` value,
    so tests can flip the environment between cases and workers forked
    with the environment inherit the exact coordinator plan.
    """

    raw = knobs.FAULTS.raw()
    if not raw:
        return None
    raw_seed = knobs.FAULTS_SEED.raw()
    global _cache_key, _cache_plan
    if _cache_key != (raw, raw_seed):
        try:
            plan, seed = knobs.FAULTS.read(raw), knobs.FAULTS_SEED.read(raw_seed)
        except ValueError as exc:
            raise FaultPlanError(str(exc)) from None
        plan.seed = seed
        _cache_plan, _cache_key = plan, (raw, raw_seed)
    return _cache_plan


def check(point: str, key: str, *, path=None, allow_kill: bool = False) -> None:
    """Fire the active plan's fault for ``(point, key)``, if any.

    The call sites' one-line entry point: a no-op returning after one
    environment lookup when no plan is configured.
    """

    plan = active_plan()
    if plan is not None:
        plan.check(point, key, path=path, allow_kill=allow_kill)
