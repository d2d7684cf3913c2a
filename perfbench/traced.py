"""Run one ``repro`` subcommand with its layer boundaries timed.

Usage (from a checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced.py OUT.json -- pipeline --scale 0.1 --json p.json

The benchmark harness (``perfbench/run.py``) starts this script in a
fresh interpreter for every traced command.  It times ``import
repro.cli``, wraps the public callables listed in :data:`BOUNDARIES`
where the product calls them (a module attribute at its use site, or a
method on its class), then calls ``repro.cli.main`` with the remaining
arguments.  Nothing under ``src/`` changes: every span is recorded from
this file.

Nested wrapped calls give self time: a span's self time is its duration
minus the durations of the wrapped calls made inside it.  The document
written to ``OUT.json`` holds per-span self seconds, call counts, the
counters some boundaries collect, garbage-collector pauses (through
``gc.callbacks``) and the boundaries that no longer resolve.  A missing
boundary is listed by name; it is never reported as zero.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


class Boundary(NamedTuple):
    """One wrapped public callable: ``module:qualname`` and its span name."""

    span: str
    target: str
    #: calls made inside a span of one of these names add no span of their
    #: own: their time stays in that parent's self time
    fold_under: Tuple[str, ...] = ()
    #: name of a hook in :data:`HOOKS` that reads counters off the call
    hook: Optional[str] = None


#: Every layer boundary the traced run times, in layer order.
BOUNDARIES: Tuple[Boundary, ...] = (
    # Corpus engine and cache.  ``build_or_load_corpus`` is wrapped where
    # the CLI imported it; a warm hit is the cache load, a miss is renamed
    # to the lookup that preceded the build (see ``_cache_status``).
    Boundary("analysis.cache.load", "repro.cli:build_or_load_corpus", hook="cache_status"),
    Boundary("analysis.engine.build", "repro.analysis.engine:CorpusEngine.build", hook="plan"),
    Boundary("analysis.cache.store", "repro.analysis.cache:CorpusCache.store"),
    # Batch detection pipeline.
    Boundary("core.pipeline", "repro.core.pipeline:FPInconsistentPipeline.run"),
    Boundary("core.detector.resolve", "repro.core.detector:FPInconsistent.resolve_table"),
    Boundary("core.spatial.mine", "repro.core.detector:FPInconsistent.fit_table"),
    Boundary(
        "core.detector.classify",
        "repro.core.detector:FPInconsistent.classify_table",
        fold_under=("stream.classifier",),
    ),
    Boundary("core.evaluation", "repro.core.pipeline:evaluate_table3"),
    Boundary("core.evaluation", "repro.core.pipeline:evaluate_table4"),
    Boundary("core.evaluation", "repro.core.pipeline:true_negative_rate"),
    # Report and the analyses behind its heaviest sections.
    Boundary("analysis.report", "repro.analysis.report:generate_report"),
    Boundary("analysis.attributes.table2", "repro.analysis.report:table2"),
    Boundary(
        "ml.encoding.fit_transform", "repro.ml.encoding:FingerprintEncoder.fit_transform"
    ),
    Boundary("ml.forest.fit", "repro.ml.forest:RandomForestClassifier.fit"),
    Boundary(
        "ml.forest.predict", "repro.ml.forest:RandomForestClassifier.predict", hook="rows_arg"
    ),
    Boundary(
        "ml.forest.predict",
        "repro.ml.forest:RandomForestClassifier.predict_proba",
        hook="rows_arg",
    ),
    Boundary("ml.explain.permutation", "repro.analysis.attributes:permutation_importance"),
    Boundary("analysis.figures.figure9", "repro.analysis.report:figure9_daily_series"),
    Boundary("analysis.figures.figure9", "repro.analysis.report:new_fingerprints_over_time"),
    Boundary("analysis.ip_analysis.blocklist", "repro.analysis.report:analyze_asn_blocklist"),
    Boundary("analysis.ip_analysis.blocklist", "repro.analysis.report:analyze_ip_blocklist"),
    # Online stream path.
    Boundary("stream.replay", "repro.stream.replay:ReplayDriver.replay"),
    Boundary("stream.ingest", "repro.stream.ingest:StreamIngestor.ingest_rows", hook="rows_arg"),
    Boundary("stream.classifier", "repro.stream.classifier:OnlineClassifier.classify_batch"),
    Boundary(
        "core.temporal.observe",
        "repro.core.temporal:TemporalInconsistencyDetector.observe_table",
    ),
    Boundary(
        "stream.refresh.swap",
        "repro.stream.classifier:OnlineClassifier.swap_filter_list",
        hook="swap",
    ),
    Boundary("stream.refresh", "repro.stream.refresh:FilterListRefresher.observe_batch"),
    Boundary("stream.refresh", "repro.stream.refresh:FilterListRefresher.maybe_refresh"),
    Boundary("stream.refresh.mine", "repro.stream.refresh:FilterListRefresher.mine"),
    Boundary(
        "stream.checkpoint.save",
        "repro.stream.checkpoint:StreamCheckpointer.save",
        hook="checkpoint",
    ),
    Boundary("stream.digest", "repro.stream:verdicts_digest"),
)

#: Set by the parent to its ``time.perf_counter()`` reading just before
#: the spawn (one system-wide monotonic clock), so interpreter start-up is
#: measured too.
SPAWNED_ENV_VAR = "PERFBENCH_SPAWNED"

#: The span around ``repro.cli.main`` itself: argument parsing, dispatch,
#: summaries and ``--json`` writing, minus every wrapped call inside.
CLI_SPAN = "cli"


class Recorder:
    """Span stack and accumulators for one traced process (main thread only)."""

    def __init__(self) -> None:
        self._main_thread = threading.get_ident()
        self._stack: List[list] = []  # [name, start, child seconds]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.info: Dict[str, object] = {}
        #: time spent in hooks (harness bookkeeping, never a layer)
        self.hook_s = 0.0

    def wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        hook = HOOKS[boundary.hook] if boundary.hook else None
        name = boundary.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if threading.get_ident() != self._main_thread or (
                stack and (stack[-1][0] == name or stack[-1][0] in boundary.fold_under)
            ):
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            frame[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[1]
                stack.pop()
            span = name
            hook_seconds = 0.0
            if hook is not None:
                hook_started = time.perf_counter()
                span = hook(self, name, args, result) or name
                hook_seconds = time.perf_counter() - hook_started
                self.hook_s += hook_seconds
            self.self_s[span] += duration - frame[2]
            self.total_s[span] += duration
            self.calls[span] += 1
            if stack:
                # The hook ran inside the parent's interval: bill it to the
                # harness, not to the parent's self time.
                stack[-1][2] += duration + hook_seconds
            return result

        return wrapper


# -- hooks: read counters off a finished call ----------------------------------
#
# A hook gets ``(recorder, span name, positional args, result)`` and may
# return a different span name for the call.


def _cache_status(recorder: Recorder, name, args, result):
    _corpus, status = result
    return None if status == "hit" else "analysis.cache.lookup"


def _plan(recorder: Recorder, name, args, result):
    plan = args[0].last_plan
    recorder.info["plan"] = {
        "planned_records": plan.get("planned_records"),
        "payload_bytes": plan.get("payload_bytes"),
        "effective_workers": plan.get("effective_workers"),
        "shard_failures": (plan.get("faults") or {}).get("failures", 0),
    }


def _rows_arg(recorder: Recorder, name, args, result):
    recorder.counts[f"{name}.rows"] += len(args[-1])


def _rule_set(filter_list) -> List[str]:
    return sorted(json.dumps(rule.to_dict(), sort_keys=True) for rule in filter_list)


def _initial_rules(recorder: Recorder, name, args, result):
    recorder.info["deployed_rules"] = _rule_set(args[0].filter_list)


def _swap(recorder: Recorder, name, args, result):
    # Runs after the swap: compare the rule set now deployed with the one
    # deployed before it (by the previous swap or the initial mining).
    rules = _rule_set(args[0].filter_list)
    if rules != recorder.info.get("deployed_rules"):
        recorder.counts["stream.refresh.changed_swaps"] += 1
    recorder.info["deployed_rules"] = rules


def _checkpoint(recorder: Recorder, name, args, result):
    checkpointer, state = args[0], args[1]
    recorder.info["checkpoint_saves"] = checkpointer.saves
    recorder.info["checkpoint_failures"] = checkpointer.failures
    if result:
        recorder.info["checkpoint_bytes_last"] = checkpointer.path.stat().st_size
        recorder.info["checkpoint_rows_last"] = int(state["cursor_rows"])


HOOKS = {
    "cache_status": _cache_status,
    "plan": _plan,
    "rows_arg": _rows_arg,
    "initial_rules": _initial_rules,
    "swap": _swap,
    "checkpoint": _checkpoint,
}

#: Records the rule set a stream starts with, so the first swap can tell
#: whether it changed anything.
INITIAL_RULES = Boundary(
    "stream.classifier",
    "repro.stream.classifier:OnlineClassifier.__init__",
    hook="initial_rules",
)

ALL_BOUNDARIES = BOUNDARIES + (INITIAL_RULES,)


def resolve(target: str):
    """``(owner, attribute, callable)`` for ``module:qualname``.

    Raises ``ImportError`` or ``AttributeError`` when the boundary no
    longer exists.
    """

    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, getattr(owner, attribute)


def install(recorder: Recorder, boundaries=ALL_BOUNDARIES) -> List[str]:
    """Wrap every boundary in place; return the targets that did not resolve."""

    missing = []
    for boundary in boundaries:
        try:
            owner, attribute, fn = resolve(boundary.target)
        except (ImportError, AttributeError):
            missing.append(boundary.target)
            continue
        setattr(owner, attribute, recorder.wrap(boundary, fn))
    return missing


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py OUT.json -- <repro arguments>", file=sys.stderr)
        return 2
    out_path, repro_args = argv[0], argv[2:]

    gc_state = {"started": 0.0, "pause_s": 0.0, "gen2": 0}

    def on_gc(phase, info):
        if phase == "start":
            gc_state["started"] = time.perf_counter()
        else:
            gc_state["pause_s"] += time.perf_counter() - gc_state["started"]
            if info.get("generation") == 2:
                gc_state["gen2"] += 1

    recorder = Recorder()
    started = time.perf_counter()
    spawned = os.environ.get(SPAWNED_ENV_VAR)
    if spawned is not None:
        recorder.self_s["python.startup"] = started - float(spawned)
    import repro.cli

    recorder.self_s["repro.import"] = time.perf_counter() - started
    gc.callbacks.append(on_gc)

    # Importing the layer modules to wrap them happens here, up front; the
    # untraced command imports only the ones it uses, on first call.
    started = time.perf_counter()
    missing = install(recorder)
    recorder.self_s["repro.layer_import"] = time.perf_counter() - started

    cli_main = recorder.wrap(Boundary(CLI_SPAN, "repro.cli:main"), repro.cli.main)
    try:
        code = cli_main(repro_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    gc.callbacks.remove(on_gc)

    document = {
        "self_s": dict(recorder.self_s),
        "total_s": dict(recorder.total_s),
        "calls": dict(recorder.calls),
        "counts": dict(recorder.counts),
        "info": {key: value for key, value in recorder.info.items() if key != "deployed_rules"},
        "gc_pause_s": gc_state["pause_s"],
        "gc_gen2_collections": gc_state["gen2"],
        "hook_s": recorder.hook_s,
        "missing": missing,
        "ended": time.perf_counter(),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
