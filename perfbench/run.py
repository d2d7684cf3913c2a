"""End-to-end benchmark of the ``repro`` command line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch_repro --seed 7 --seconds 20 --trace 0

Every workload builds one corpus from ``--seed`` (cold ``repro corpus``
into an empty cache directory, several times; ``setup_s`` is the median)
and then runs its ``repro`` subcommands in fresh subprocesses against
the warm cache, again and again for ``--seconds``.  All commands run
with ``--workers 2`` and telemetry off.  Each command's output is
checked (see ``perfbench/README.md``); a failed check counts as a failed
operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs
every command once more under ``perfbench/traced.py``, which times the
calls into each layer, and prints the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run's provenance.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import traced  # noqa: E402  (the boundary table lives beside this file)

DEFAULT_SCALE = 0.1
WORKERS = 2
#: cold corpus builds per run; ``setup_s`` is their median
SETUP_BUILDS = 3
#: timed iterations per run, whatever ``--seconds`` says
MIN_ITERATIONS = 3
#: a child still running after this long is killed and counted as failed
COMMAND_TIMEOUT_S = 120.0
#: ``repro stream`` snapshots every 16 batches by default
CHECKPOINT_EVERY = 16

WORKLOADS = ("batch_repro", "stream_frozen", "stream_durable")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "success_share": "share",
}

#: Per-layer self-time metrics summed over a workload's timed commands:
#: metric name -> the span names (see ``traced.BOUNDARIES``) it adds up.
SELF_TIME_METRICS = {
    "python.startup_s": ("python.startup",),
    "python.shutdown_s": ("python.shutdown",),
    "repro.import_s": ("repro.import",),
    "repro.layer_import_s": ("repro.layer_import",),
    "cli.self_s": ("cli",),
    "analysis.cache.load_s": ("analysis.cache.load",),
    "core.pipeline.self_s": ("core.pipeline",),
    "core.detector.resolve_s": ("core.detector.resolve",),
    "core.spatial.mine_s": ("core.spatial.mine",),
    "core.detector.classify_s": ("core.detector.classify",),
    "core.evaluation_s": ("core.evaluation",),
    "analysis.report.self_s": ("analysis.report",),
    "analysis.attributes.table2.self_s": ("analysis.attributes.table2",),
    "ml.encoding.fit_transform_s": ("ml.encoding.fit_transform",),
    "ml.forest.fit_s": ("ml.forest.fit",),
    "ml.forest.predict_s": ("ml.forest.predict",),
    "ml.explain.permutation_s": ("ml.explain.permutation",),
    "analysis.figures.figure9_s": ("analysis.figures.figure9",),
    "analysis.ip_analysis.blocklist_s": ("analysis.ip_analysis.blocklist",),
    "stream.replay.self_s": ("stream.replay",),
    "stream.ingest_s": ("stream.ingest",),
    "stream.classifier_s": ("stream.classifier",),
    "core.temporal.observe_s": ("core.temporal.observe",),
    "stream.refresh.self_s": ("stream.refresh", "stream.refresh.swap"),
    "stream.refresh.mine_s": ("stream.refresh.mine",),
    "stream.checkpoint.save_s": ("stream.checkpoint.save",),
    "stream.digest_s": ("stream.digest",),
}

#: Per-layer metrics computed from something other than a plain self-time
#: sum: metric name -> (unit, the span names it needs resolved).
DERIVED_METRICS = {
    "ml.explain.permutation_total_s": ("s", ("ml.explain.permutation",)),
    "ml.forest.predict_rows": ("count", ("ml.forest.predict",)),
    "stream.ingest.us_per_row": ("us", ("stream.ingest",)),
    "stream.refresh.swaps": ("count", ("stream.refresh.swap",)),
    "stream.refresh.changed_share": ("share", ("stream.refresh.swap", "stream.classifier")),
    "stream.checkpoint.saves": ("count", ("stream.checkpoint.save",)),
    "stream.checkpoint.failures": ("count", ("stream.checkpoint.save",)),
    "stream.checkpoint.bytes_last": ("B", ("stream.checkpoint.save",)),
    "stream.checkpoint.bytes_per_row": ("B/row", ("stream.checkpoint.save",)),
    "python.gc_pause_s": ("s", ()),
    "python.gc_gen2_collections": ("count", ()),
    "analysis.engine.build_s": ("s", ("analysis.engine.build",)),
    "analysis.engine.payload_bytes_per_record": ("B/record", ("analysis.engine.build",)),
    "analysis.engine.effective_workers": ("count", ("analysis.engine.build",)),
    "analysis.engine.shard_failures": ("count", ("analysis.engine.build",)),
    "analysis.cache.store_s": ("s", ("analysis.cache.store",)),
    "analysis.cache.lookup_s": ("s", ("analysis.cache.load",)),
    "cmd.pipeline_s": ("s", ()),
    "cmd.report_s": ("s", ()),
    "cmd.stream_s": ("s", ()),
    "batch_p50_ms": ("ms", ()),
    "batch_p95_ms": ("ms", ()),
    "traced_wall_s": ("s", ()),
    "unattributed_s": ("s", ()),
    "unattributed_share_max": ("share", ()),
    "trace_overhead_s": ("s", ()),
    "trace.hook_s": ("s", ()),
    "trace.missing_layers": ("count", ()),
}

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    **{name: unit for name, (unit, _spans) in DERIVED_METRICS.items()},
}


def nearest_rank(values: List[float], quantile: float) -> float:
    """Nearest-rank quantile, the definition ``repro stream`` reports."""

    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(quantile * len(ordered)) - 1))
    return ordered[rank]


class Run:
    """One benchmark invocation: its work directory, children and tallies."""

    def __init__(self, root: Path, args: argparse.Namespace):
        self.args = args
        self.work = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(root / "src")
        #: the output every later run of the same command must reproduce
        self.reference: Dict[str, object] = {}

    # -- children --------------------------------------------------------------

    def knobs(self) -> List[str]:
        return [
            "--scale", str(self.args.scale),
            "--seed", str(self.args.seed),
            "--workers", str(WORKERS),
        ]

    def spawn(self, label: str, argv: List[str], cache: Path, traced_out: Optional[Path] = None):
        """Run one ``repro`` command; return ``(wall s, max RSS MB, stdout)``
        or ``None`` when it exited non-zero."""

        if traced_out is None:
            command = [sys.executable, "-m", "repro", *argv]
        else:
            command = [sys.executable, str(HERE / "traced.py"), str(traced_out), "--", *argv]
        env = dict(self.env, REPRO_CORPUS_CACHE=str(cache))
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        self.attempted += 1
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            if traced_out is not None:
                env[traced.SPAWNED_ENV_VAR] = repr(started)
            child = subprocess.Popen(command, stdout=out, stderr=err, env=env, cwd=self.work)
            watchdog = threading.Timer(COMMAND_TIMEOUT_S, child.kill)
            watchdog.start()
            _pid, status, usage = os.wait4(child.pid, 0)
            ended = time.perf_counter()
            watchdog.cancel()
            child.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        if child.returncode != 0:
            return self.fail(label, f"exit {child.returncode}\n{stderr[-2000:]}")
        if argv[0] != "corpus" and "corpus: cache hit" not in stderr:
            return self.fail(label, "the warm corpus cache was not hit")
        if traced_out is not None:
            # Interpreter teardown happens after the child's last clock
            # read; perf_counter is one system-wide monotonic clock.
            trace = json.loads(traced_out.read_text())
            trace["self_s"]["python.shutdown"] = ended - trace["ended"]
            traced_out.write_text(json.dumps(trace))
        return ended - started, usage.ru_maxrss / 1024.0, out_path.read_text(encoding="utf-8")

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        print(f"perfbench: FAIL {label}: {reason}", file=sys.stderr)
        return None

    def same_as_before(self, key: str, value) -> bool:
        """Record *value* the first time; afterwards, compare with it."""

        if key not in self.reference:
            self.reference[key] = value
            return True
        if self.reference[key] == value:
            return True
        self.fail(key, "output differs from the first run of this set")
        return False

    # -- set-up ----------------------------------------------------------------

    def build_corpus(self, cache: Path, traced_out: Optional[Path] = None):
        """One cold ``repro corpus``; return its wall seconds or ``None``."""

        shutil.rmtree(cache, ignore_errors=True)
        outcome = self.spawn("corpus", ["corpus", *self.knobs()], cache, traced_out)
        if outcome is None:
            return None
        wall, _rss, stdout = outcome
        summary = json.loads(stdout)
        if not self.same_as_before("corpus", summary):
            return None
        return wall

    # -- workload commands ---------------------------------------------------------

    def commands(self, tag: str) -> List[tuple]:
        """``(label, argv)`` for each timed command of the workload."""

        workload = self.args.workload
        knobs = self.knobs()
        if workload == "batch_repro":
            return [
                ("pipeline", ["pipeline", *knobs, "--json", f"pipeline-{tag}.json"]),
                (
                    "report",
                    ["report", *knobs, "--json", f"report-{tag}.json", "--check-materialization"],
                ),
            ]
        if workload == "stream_frozen":
            return [
                (
                    "stream",
                    [
                        "stream", *knobs, "--batch-size", "512", "--verify-batch",
                        "--json", f"stream-{tag}.json",
                    ],
                )
            ]
        return [
            (
                "stream",
                [
                    "stream", *knobs, "--batch-size", "256", "--refresh-every", "64",
                    "--checkpoint-dir", f"checkpoints-{tag}", "--json", f"stream-{tag}.json",
                ],
            )
        ]

    def check(self, label: str, document: dict, bot_rows: int) -> Optional[dict]:
        """Verify one command's ``--json`` document; return its measurements."""

        if label == "pipeline":
            outcome = {
                "rules": document["rules"],
                "evasion_reduction": document["evasion_reduction"],
                "real_user_tnr": document["real_user_tnr"],
            }
            if not self.same_as_before("pipeline", outcome):
                return None
            seconds = document["seconds"]
            return {"rows": bot_rows, "seconds": seconds, "latencies": [seconds]}
        if label == "report":
            if document["materialized_records"]:
                return self.fail("report", "record objects were materialised")
            digests = {section["key"]: section["digest"] for section in document["sections"]}
            if not self.same_as_before("report", digests):
                return None
            return {}
        # A full replay scores every batch; rows must count those, capped at
        # the store's bot rows, or rows_per_s would be inflated.
        batch_size = document["batch_size"]
        rows = min(document["batches"] * batch_size, bot_rows)
        if document["rows"] != rows or rows != bot_rows:
            return self.fail(
                "stream", f"reports {document['rows']} rows, but scored {rows} of {bot_rows}"
            )
        if not self.same_as_before("stream", document["verdicts_digest"]):
            return None
        if self.args.workload == "stream_durable":
            checkpoints = document.get("checkpoints") or {}
            expected = document["batches"] // CHECKPOINT_EVERY
            if checkpoints.get("saved") != expected or checkpoints.get("failures") != 0:
                return self.fail(
                    "stream", f"checkpoints {checkpoints}, expected {expected} saved and 0 failed"
                )
        return {"rows": rows, "seconds": document["seconds"], "latencies": document["batch_seconds"]}

    def iteration(self, index: int, cache: Path, bot_rows: int, traced_dir: Optional[Path] = None):
        """Run the workload's commands once; ``None`` if any failed."""

        tag = f"{'t' if traced_dir else 'u'}{index}"
        result = {"walls": {}, "rss": 0.0, "measured": {}, "traces": {}}
        for label, argv in self.commands(tag):
            traced_out = None if traced_dir is None else traced_dir / f"{label}.json"
            outcome = self.spawn(label, argv, cache, traced_out)
            if outcome is None:
                return None
            wall, rss, _stdout = outcome
            json_path = self.work / argv[argv.index("--json") + 1]
            measured = self.check(label, json.loads(json_path.read_text()), bot_rows)
            json_path.unlink()
            if measured is None:
                return None
            result["walls"][label] = wall
            result["rss"] = max(result["rss"], rss)
            result["measured"].update(measured)
            if traced_out is not None:
                result["traces"][label] = json.loads(traced_out.read_text())
        shutil.rmtree(self.work / f"checkpoints-{tag}", ignore_errors=True)
        return result


def best_replay_quantile_ms(iterations: List[dict], quantile: float) -> float:
    """The lowest over the iterations of each one's own batch-latency quantile.

    Other tenants of a small shared machine slow it down in phases, and a
    quantile of a replay that straddles fast and slow phases jumps between
    the two; the least disturbed replay is the steadiest reading (see
    ``perfbench/README.md``).
    """

    return 1000.0 * min(
        nearest_rank(item["measured"]["latencies"], quantile) for item in iterations
    )


def end_to_end(run: Run, setup: List[float], iterations: List[dict]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(item["walls"].values()) for item in iterations),
        "rows_per_s": statistics.median(
            item["measured"]["rows"] / item["measured"]["seconds"] for item in iterations
        ),
        "peak_rss_mb": statistics.median(item["rss"] for item in iterations),
        "success_share": (run.attempted - run.failed) / run.attempted,
    }


def per_layer(
    setup_trace: dict,
    setup_wall: float,
    traced: dict,
    iterations: List[dict],
) -> Dict[str, float]:
    """Per-layer metrics from one traced set-up and one traced iteration."""

    traces = list(traced["traces"].values())
    missing = sorted({target for trace in [setup_trace, *traces] for target in trace["missing"]})

    def total(key: str, span: str) -> float:
        return sum(trace[key].get(span, 0.0) for trace in traces)

    metrics = {
        name: sum(total("self_s", span) for span in spans)
        for name, spans in SELF_TIME_METRICS.items()
    }
    ingest_rows = sum(trace["counts"].get("stream.ingest.rows", 0) for trace in traces)
    swaps = sum(trace["calls"].get("stream.refresh.swap", 0) for trace in traces)
    changed = sum(trace["counts"].get("stream.refresh.changed_swaps", 0) for trace in traces)
    info = [trace["info"] for trace in traces]
    bytes_last = max((item.get("checkpoint_bytes_last", 0) for item in info), default=0)
    rows_last = max((item.get("checkpoint_rows_last", 0) for item in info), default=0)
    plan = setup_trace["info"].get("plan", {})
    walls = traced["walls"]
    untraced = {
        label: statistics.median(item["walls"][label] for item in iterations) for label in walls
    }
    attributed = {
        label: sum(trace["self_s"].values())
        for label, trace in [("corpus", setup_trace), *traced["traces"].items()]
    }
    traced_walls = {"corpus": setup_wall, **walls}
    metrics.update(
        {
            "ml.explain.permutation_total_s": total("total_s", "ml.explain.permutation"),
            "ml.forest.predict_rows": sum(
                trace["counts"].get("ml.forest.predict.rows", 0) for trace in traces
            ),
            "stream.ingest.us_per_row": (
                metrics["stream.ingest_s"] / ingest_rows * 1e6 if ingest_rows else 0.0
            ),
            "stream.refresh.swaps": swaps,
            "stream.refresh.changed_share": changed / swaps if swaps else 0.0,
            "stream.checkpoint.saves": sum(item.get("checkpoint_saves", 0) for item in info),
            "stream.checkpoint.failures": sum(item.get("checkpoint_failures", 0) for item in info),
            "stream.checkpoint.bytes_last": bytes_last,
            "stream.checkpoint.bytes_per_row": bytes_last / rows_last if rows_last else 0.0,
            "python.gc_pause_s": sum(trace["gc_pause_s"] for trace in traces),
            "python.gc_gen2_collections": sum(trace["gc_gen2_collections"] for trace in traces),
            "analysis.engine.build_s": setup_trace["self_s"].get("analysis.engine.build", 0.0),
            "analysis.engine.payload_bytes_per_record": (
                (plan.get("payload_bytes") or 0) / plan["planned_records"]
                if plan.get("planned_records")
                else 0.0
            ),
            "analysis.engine.effective_workers": plan.get("effective_workers", 0),
            "analysis.engine.shard_failures": plan.get("shard_failures", 0),
            "analysis.cache.store_s": setup_trace["self_s"].get("analysis.cache.store", 0.0),
            "analysis.cache.lookup_s": setup_trace["self_s"].get("analysis.cache.lookup", 0.0),
            "cmd.pipeline_s": untraced.get("pipeline", 0.0),
            "cmd.report_s": untraced.get("report", 0.0),
            "cmd.stream_s": untraced.get("stream", 0.0),
            "batch_p50_ms": best_replay_quantile_ms(iterations, 0.50),
            "batch_p95_ms": best_replay_quantile_ms(iterations, 0.95),
            "traced_wall_s": sum(walls.values()),
            "unattributed_s": sum(walls[label] - attributed[label] for label in walls),
            "unattributed_share_max": max(
                (traced_walls[label] - attributed[label]) / traced_walls[label]
                for label in traced_walls
            ),
            "trace_overhead_s": sum(walls[label] - untraced[label] for label in walls),
            "trace.hook_s": sum(trace["hook_s"] for trace in [setup_trace, *traces]),
            "trace.missing_layers": len(missing),
        }
    )
    for label, wall in traced_walls.items():
        print(
            f"perfbench: traced {label}: {wall:.3f}s wall, "
            f"{wall - attributed[label]:.3f}s unattributed",
            file=sys.stderr,
        )
    for target in missing:
        print(f"perfbench: missing layer boundary {target}", file=sys.stderr)
    dropped = dropped_metrics(missing)
    return {name: value for name, value in metrics.items() if name not in dropped}


def dropped_metrics(missing_targets) -> set:
    """The per-layer metrics that need a boundary which did not resolve.

    They are left out of the result, never reported as zero.
    """

    spans = {
        boundary.span for boundary in traced.ALL_BOUNDARIES if boundary.target in missing_targets
    }
    needs = {
        **SELF_TIME_METRICS,
        **{name: needed for name, (_unit, needed) in DERIVED_METRICS.items()},
    }
    return {name for name, needed in needs.items() if spans.intersection(needed)}


def provenance(args: argparse.Namespace, root: Path) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # a plain checkout carries no git metadata
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "workers": WORKERS,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7, help="corpus seed (default 7)")
    parser.add_argument("--seconds", type=float, default=25.0, help="timed span of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE, help=f"corpus scale (default {DEFAULT_SCALE})"
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {root / 'src'}", file=sys.stderr)
        return 2
    run = Run(root, args)
    run.work.mkdir(parents=True)
    try:
        # Compile the sources once, so the first timed child does not pay it.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(root / "src")],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        setup = []
        cache = run.work / "cache"
        for _ in range(SETUP_BUILDS):
            wall = run.build_corpus(cache)
            if wall is not None:
                setup.append(wall)
        if not setup:
            print("perfbench: no corpus could be built", file=sys.stderr)
            return 1
        bot_rows = run.reference["corpus"]["bot_requests"]

        iterations = []
        deadline = time.perf_counter() + args.seconds
        index = 0
        while index < MIN_ITERATIONS or time.perf_counter() < deadline:
            outcome = run.iteration(index, cache, bot_rows)
            index += 1
            if outcome is not None:
                iterations.append(outcome)
        if not iterations:
            print("perfbench: every iteration failed", file=sys.stderr)
            return 1

        if args.trace:
            traced_dir = run.work / "traces"
            traced_dir.mkdir()
            traced_cache = run.work / "traced-cache"
            setup_trace_path = traced_dir / "corpus.json"
            setup_wall = run.build_corpus(traced_cache, setup_trace_path)
            traced_run = run.iteration(0, traced_cache, bot_rows, traced_dir)
            if setup_wall is None or traced_run is None:
                print("perfbench: the traced run failed", file=sys.stderr)
                return 1
            values = per_layer(
                json.loads(setup_trace_path.read_text()),
                setup_wall,
                traced_run,
                iterations,
            )
            units = PER_LAYER_UNITS
        else:
            values = end_to_end(run, setup, iterations)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass  # another run still owns a work directory beside this one

    info = provenance(args, root)
    info["iterations"] = len(iterations)
    print(json.dumps({"provenance": info}, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
