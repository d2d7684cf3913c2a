"""The ``repro`` command line interface.

Four subcommands cover the reproduction workflow end to end::

    repro corpus    build (or load from cache) a measurement corpus
    repro pipeline  build a corpus and run the FP-Inconsistent evaluation
    repro report    regenerate every paper table and figure from a corpus
    repro stream    replay a corpus through the online streaming detector

Installed as a console script by ``setup.py``; also runnable without
installing via ``PYTHONPATH=src python -m repro ...``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.analysis.cache import CACHE_ENV_VAR, corpus_digest
from repro.analysis.corpus import Corpus, default_scale
from repro.analysis.engine import WORKERS_ENV_VAR, build_or_load_corpus, default_workers


def _add_execution_knobs(parser: argparse.ArgumentParser) -> None:
    """The seed/scale/workers knob set every subcommand shares.

    One definition keeps defaults, env-variable fallbacks and help text
    identical everywhere.
    """

    group = parser.add_argument_group("execution")
    group.add_argument("--seed", type=int, default=7, help="master seed (default 7)")
    group.add_argument(
        "--scale",
        type=float,
        default=None,
        help="fraction of the paper's volumes (default: REPRO_SCALE or 0.05; 1.0 = 507,080 requests)",
    )
    group.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "shard worker count for corpus generation "
            f"(default: {WORKERS_ENV_VAR} or 1)"
        ),
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``--trace``/``--metrics-out`` exporter knobs every subcommand shares.

    Either flag enables telemetry for the whole run — including
    process-pool shard workers, which inherit ``REPRO_TELEMETRY``
    through the environment and ship their spans back to the
    coordinator's tracer.
    """

    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the run's spans as Chrome trace-event JSON to PATH "
        "(open in chrome://tracing or Perfetto); implies REPRO_TELEMETRY=1",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's metrics in Prometheus text format to PATH; "
        "implies REPRO_TELEMETRY=1",
    )


def _write_telemetry_artifacts(args: argparse.Namespace) -> None:
    """Export the trace/metrics files a run asked for (after dispatch)."""

    trace_path = getattr(args, "trace", None)
    if trace_path:
        obs.write_chrome_trace(trace_path)
        print(f"telemetry: wrote trace {trace_path}", file=sys.stderr)
    metrics_path = getattr(args, "metrics_out", None)
    if metrics_path:
        obs.write_prometheus(metrics_path)
        print(f"telemetry: wrote metrics {metrics_path}", file=sys.stderr)


def _attach_telemetry(document: dict) -> None:
    """Embed the metrics snapshot in a ``--json`` document when enabled."""

    if obs.telemetry_enabled():
        document["telemetry"] = obs.metrics_snapshot()


def _write_document(command: str, path: str, document: dict, **options) -> None:
    """Write a ``--json`` document (see :func:`_attach_telemetry`)."""

    _attach_telemetry(document)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True, **options)
        handle.write("\n")
    print(f"{command}: wrote {path}", file=sys.stderr)


def _validate_execution_knobs(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject bad execution knobs up front with a usage error.

    Covers the command-line flags and the environment fallbacks they
    default to (``REPRO_WORKERS`` / ``REPRO_SCALE``),
    so a typo'd knob fails before minutes of corpus generation start.
    """

    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.scale is not None and not (math.isfinite(args.scale) and args.scale > 0):
        parser.error(f"--scale must be positive and finite, got {args.scale}")
    try:
        if args.workers is None:
            default_workers()
        if args.scale is None:
            default_scale()
    except ValueError as exc:
        parser.error(str(exc))


def _add_corpus_arguments(parser: argparse.ArgumentParser) -> None:
    _add_execution_knobs(parser)
    _add_telemetry_arguments(parser)
    group = parser.add_argument_group("corpus")
    group.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help=f"corpus cache directory (default: {CACHE_ENV_VAR}; see also --no-cache)",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the corpus cache even when configured",
    )
    group.add_argument(
        "--no-real-users",
        action="store_true",
        help="skip the Section 7.4 real-user traffic",
    )
    group.add_argument(
        "--include-privacy",
        action="store_true",
        help="also generate the Section 7.5 privacy-technology traffic",
    )
    group.add_argument(
        "--real-user-requests", type=int, default=2206, help="real-user volume (default 2206)"
    )
    group.add_argument(
        "--privacy-requests", type=int, default=60, help="requests per privacy technology (default 60)"
    )
    group.add_argument(
        "--campaign-days", type=int, default=90, help="campaign length in days (default 90)"
    )


def _add_checkpoint_arguments(group) -> None:
    """The ``stream`` checkpoint/restore knobs."""

    group.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="snapshot the full online state (vocabulary, temporal state, "
        "filter list, cursor, verdicts) crash-safely into DIR at periodic "
        "batch boundaries",
    )
    group.add_argument(
        "--checkpoint-every",
        type=int,
        default=16,
        metavar="BATCHES",
        help="batches between snapshots (default 16; needs --checkpoint-dir)",
    )
    group.add_argument(
        "--resume",
        action="store_true",
        help="restore the snapshot in --checkpoint-dir and continue the "
        "replay from its cursor; the combined run is byte-identical to an "
        "uninterrupted one",
    )
    group.add_argument(
        "--max-batches",
        type=int,
        default=None,
        metavar="N",
        help="stop after scoring N batches this run (deterministic stand-in "
        "for a mid-replay kill; pair with --checkpoint-dir, then --resume)",
    )


#: The checkpoint instruments the ``--json`` ``checkpoints`` block reads.
_CHECKPOINT_BYTES = "repro_stream_checkpoint_bytes_total"
_CHECKPOINT_MAX_SAVE_BYTES = "repro_stream_checkpoint_max_save_bytes"
_CHECKPOINT_SAVE_SECONDS = "repro_stream_checkpoint_save_seconds"


def _checkpoint_totals() -> Tuple[float, float]:
    """Bytes published and seconds spent saving so far, from the registry."""

    seconds = obs.registry().get(_CHECKPOINT_SAVE_SECONDS)
    return (
        obs.metric_value(_CHECKPOINT_BYTES),
        0.0 if seconds is None else seconds.snapshot()["sum"],
    )


def _checkpoint_summary(result, totals_before: Tuple[float, float]) -> Dict:
    """The ``checkpoints`` block of a stream summary.

    Byte and time figures come from the registry's checkpoint
    instruments: the growth over this replay of the bytes counter and of
    the save-seconds histogram's sum, and the largest-save gauge, which
    each checkpointer resets when it is built.
    """

    bytes_now, seconds_now = _checkpoint_totals()
    return {
        "saved": result.checkpoints_saved,
        "failures": result.checkpoint_failures,
        "resumed_from_batch": result.resumed_from_batch,
        "bytes_written": int(bytes_now - totals_before[0]),
        "max_save_bytes": int(obs.metric_value(_CHECKPOINT_MAX_SAVE_BYTES)),
        "save_seconds": seconds_now - totals_before[1],
    }


def _checkpointer_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """Validate the checkpoint knobs and build the checkpointer (or None)."""

    from repro.stream import StreamCheckpointer

    if args.checkpoint_every < 1:
        parser.error(f"--checkpoint-every must be >= 1, got {args.checkpoint_every}")
    if args.max_batches is not None and args.max_batches < 0:
        parser.error(f"--max-batches cannot be negative, got {args.max_batches}")
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume needs --checkpoint-dir (there is nothing to restore)")
    if args.verify_batch and args.max_batches is not None:
        parser.error(
            "--verify-batch compares a full replay against the batch pipeline; "
            "drop --max-batches (a truncated replay cannot match)"
        )
    if args.checkpoint_dir is None:
        return None
    return StreamCheckpointer(args.checkpoint_dir, every_batches=args.checkpoint_every)


def _validate_corpus_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Validate the shared execution knobs plus the corpus-only flags."""

    _validate_execution_knobs(parser, args)
    if args.real_user_requests < 0:
        parser.error(f"--real-user-requests cannot be negative, got {args.real_user_requests}")
    if args.privacy_requests < 0:
        parser.error(f"--privacy-requests cannot be negative, got {args.privacy_requests}")
    if args.campaign_days < 1:
        parser.error(f"--campaign-days must be >= 1, got {args.campaign_days}")


def _build_from_args(args: argparse.Namespace) -> Corpus:
    if args.no_cache:
        cache = False
    elif args.cache:
        cache = args.cache
    else:
        cache = None  # build_or_load_corpus falls back to REPRO_CORPUS_CACHE
    started = time.perf_counter()
    corpus, status = build_or_load_corpus(
        seed=args.seed,
        scale=args.scale,
        include_real_users=not args.no_real_users,
        include_privacy=args.include_privacy,
        real_user_requests=args.real_user_requests,
        privacy_requests_each=args.privacy_requests,
        campaign_days=args.campaign_days,
        workers=args.workers,
        cache=cache,
    )
    elapsed = time.perf_counter() - started
    # The loaded corpus and the imported modules live until exit.  Moving
    # them to the permanent generation keeps the evaluation's full
    # collections from re-walking that heap on every gen-2 pass.
    gc.freeze()
    label = {"hit": "cache hit", "miss": "cache miss (stored)", "uncached": "uncached build"}[status]
    print(f"corpus: {label} in {elapsed:.2f}s — {len(corpus.store)} records", file=sys.stderr)
    return corpus


def _cmd_corpus(args: argparse.Namespace) -> int:
    _validate_corpus_args(args.parser, args)
    corpus = _build_from_args(args)
    summary = {
        "seed": corpus.seed,
        "scale": corpus.scale,
        "records": len(corpus.store),
        "digest": corpus_digest(corpus),
        "bot_requests": sum(corpus.service_volumes.values()),
        "real_user_requests": corpus.real_user_requests,
        "privacy_requests": {
            str(technology): count for technology, count in corpus.privacy_requests.items()
        },
        "unique_ips": corpus.store.unique_ips(),
        "unique_cookies": corpus.store.unique_cookies(),
        "sources": len(corpus.service_volumes)
        + (1 if corpus.real_user_requests else 0)
        + len(corpus.privacy_requests),
    }
    _attach_telemetry(summary)
    json.dump(summary, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro.analysis.paper import paper_rows, pipeline_measurements
    from repro.core.pipeline import FPInconsistentPipeline

    _validate_corpus_args(args.parser, args)
    corpus = _build_from_args(args)
    started = time.perf_counter()
    pipeline = FPInconsistentPipeline()
    result = pipeline.run(
        corpus.bot_store,
        real_user_store=corpus.real_user_store if not args.no_real_users else None,
        check_generalization=args.generalization,
        bot_table=corpus.columnar_tables.get("bots"),
        real_user_table=corpus.columnar_tables.get("real_users"),
    )
    elapsed = time.perf_counter() - started
    print(f"pipeline: evaluated in {elapsed:.2f}s", file=sys.stderr)
    if result.table_sources.get("bots") == "reused":
        print(
            "pipeline: columnar extraction skipped (pre-extracted tables reused)",
            file=sys.stderr,
        )

    summary = {
        "rules": len(result.filter_list),
        "table_sources": dict(result.table_sources),
        "evasion_reduction": {
            name: round(value, 4) for name, value in result.evasion_reductions.items()
        },
        "real_user_tnr": None
        if result.real_user_tnr is None
        else round(result.real_user_tnr, 4),
    }
    if result.generalization is not None:
        summary["generalization"] = {
            name: round(entry.test_detection_rate, 4)
            for name, entry in result.generalization.items()
        }
    if args.json:
        document = dict(summary)
        document["seconds"] = round(elapsed, 3)
        document["filter_list"] = [rule.to_dict() for rule in result.filter_list]
        document["table3"] = [
            {
                "service": row.service,
                "num_requests": row.num_requests,
                "datadome_baseline": round(row.datadome_baseline, 4),
                "datadome_improved": round(row.datadome_improved, 4),
                "botd_baseline": round(row.botd_baseline, 4),
                "botd_improved": round(row.botd_improved, 4),
            }
            for row in result.table3
        ]
        document["table4"] = {
            name: {
                "baseline": round(rates.baseline, 4),
                "with_spatial": round(rates.with_spatial, 4),
                "with_temporal": round(rates.with_temporal, 4),
                "with_combined": round(rates.with_combined, 4),
            }
            for name, rates in result.table4.items()
        }
        document["paper"] = paper_rows(
            pipeline_measurements(
                result,
                bot_requests=len(corpus.bot_store),
                real_user_requests=len(corpus.real_user_store),
            ),
            corpus.scale,
        )
        _write_document("pipeline", args.json, document)
        summary["saved_to"] = str(args.json)
    json.dump(summary, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.cache import corpus_cache_key
    from repro.analysis.report import generate_report, report_section_keys

    parser = args.parser
    _validate_corpus_args(parser, args)
    if args.ml_samples < 20:
        parser.error(f"--ml-samples must be >= 20, got {args.ml_samples}")
    sections = None
    if args.sections:
        sections = [part.strip() for part in args.sections.split(",") if part.strip()]
        unknown = sorted(set(sections) - set(report_section_keys()))
        if unknown:
            parser.error(
                f"unknown report section(s): {', '.join(unknown)}; "
                f"known: {', '.join(report_section_keys())}"
            )

    corpus = _build_from_args(args)
    cache_key = corpus_cache_key(
        seed=args.seed,
        scale=args.scale if args.scale is not None else default_scale(),
        include_real_users=not args.no_real_users,
        include_privacy=args.include_privacy,
        real_user_requests=args.real_user_requests,
        privacy_requests_each=args.privacy_requests,
        campaign_days=args.campaign_days,
    )
    report = generate_report(
        corpus,
        ml_samples=args.ml_samples,
        sections=sections,
        cache_key=cache_key,
    )
    print(report.render())
    print(
        f"report: {len(report.sections)} section(s) in {report.total_seconds:.2f}s "
        f"({report.materialized_records} record object(s) materialised)",
        file=sys.stderr,
    )
    for section in report.sections:
        print(
            f"report:   {section.key}: {section.seconds:.3f}s [{section.digest}]",
            file=sys.stderr,
        )
    if args.json:
        document = report.to_document()
        _write_document("report", args.json, document, default=str)
    if args.check_materialization and report.materialized_records:
        print(
            f"report: FAIL — {report.materialized_records} record object(s) "
            "materialised",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.core.detector import FPInconsistent
    from repro.stream import (
        DEFAULT_BATCH_SIZE,
        FilterListRefresher,
        ReplayDriver,
        same_verdicts,
        serialise_verdicts,
        verdicts_digest,
    )

    parser = args.parser
    _validate_corpus_args(parser, args)
    batch_size = DEFAULT_BATCH_SIZE if args.batch_size is None else args.batch_size
    if batch_size < 1:
        parser.error(f"--batch-size must be >= 1, got {batch_size}")
    if args.refresh_every < 0:
        parser.error(f"--refresh-every cannot be negative, got {args.refresh_every}")
    if not (math.isfinite(args.refresh_days) and args.refresh_days >= 0):
        parser.error(f"--refresh-days cannot be negative or non-finite, got {args.refresh_days}")
    if args.refresh_every and args.refresh_days:
        parser.error(
            "--refresh-every and --refresh-days are two refresh schedules; pick one"
        )
    if args.window < 1:
        parser.error(f"--window must be >= 1, got {args.window}")
    if args.verify_batch and (args.refresh_every or args.refresh_days):
        parser.error(
            "--verify-batch compares against the batch pipeline, which has no "
            "refresh; drop --refresh-every/--refresh-days (the oracle needs a "
            "frozen filter list)"
        )
    checkpointer = _checkpointer_from_args(parser, args)

    corpus = _build_from_args(args)
    bot_store = corpus.bot_store
    # The initial filter list is mined exactly as the batch pipeline would,
    # reusing the corpus's pre-extracted bot table when it is acceptable.
    detector = FPInconsistent()
    with obs.tracer().span("stream.mine_filter_list") as span:
        table, table_source = detector.resolve_table(
            bot_store, corpus.columnar_tables.get("bots")
        )
        detector.fit_table(table)
        span.set(rules=len(detector.filter_list), table=table_source)
    print(
        f"stream: filter list mined in {span.duration:.2f}s "
        f"({len(detector.filter_list)} rules, table {table_source})",
        file=sys.stderr,
    )

    refresher = None
    if args.refresh_every or args.refresh_days:
        refresher = FilterListRefresher(
            detector.miner,
            interval_batches=args.refresh_every or None,
            interval_days=args.refresh_days or None,
            window_rows=args.window,
        )
    driver = ReplayDriver(detector, batch_size=batch_size, refresher=refresher)
    checkpoint_totals = _checkpoint_totals()
    result = driver.replay(
        bot_store,
        checkpointer=checkpointer,
        resume=args.resume,
        max_batches=args.max_batches,
    )
    print(
        f"stream: replayed {result.rows} rows in {result.seconds:.2f}s "
        f"({result.rows_per_second:.0f} rows/s, {result.batches} batch(es) of "
        f"{batch_size}, {len(result.refreshes)} refresh(es))",
        file=sys.stderr,
    )
    quantiles = result.latency_quantiles_ms()
    print(
        "stream: batch latency "
        + " ".join(
            f"{name[:name.index('_')]}={value:.2f}ms"
            for name, value in sorted(quantiles.items())
        ),
        file=sys.stderr,
    )
    health = result.health
    if health.classify_failures or health.refresh_failures:
        print(
            f"stream: recovered from {health.classify_failures} classify "
            f"failure(s) ({health.classifier_rebuilds} rebuild(s), "
            f"{len(health.dead_letters)} dead-lettered batch(es)) and "
            f"{health.refresh_failures} refresh failure(s)",
            file=sys.stderr,
        )
    if checkpointer is not None:
        checkpoints = _checkpoint_summary(result, checkpoint_totals)
        resumed = (
            "fresh start"
            if result.resumed_from_batch is None
            else f"resumed from batch {result.resumed_from_batch}"
        )
        share = checkpoints["save_seconds"] / result.seconds if result.seconds > 0 else 0.0
        print(
            f"stream: {resumed}, {result.checkpoints_saved} checkpoint(s) saved, "
            f"{result.checkpoint_failures} failed, {checkpoints['save_seconds']:.3f}s "
            f"saving ({share:.1%} of the replay)",
            file=sys.stderr,
        )

    # What the digest reads: under --verify-batch --json, the streamed side's
    # serialisation, made once for the comparison and the digest together.
    streamed = result.verdicts
    if args.verify_batch:
        # The oracle compares verdict columns; the digest is only published.
        with obs.tracer().span("stream.verify"):
            if args.json:
                streamed = serialise_verdicts(streamed)
            same = same_verdicts(streamed, detector.classify_table(table))
        if not same:
            print(
                "stream: FAIL — streaming verdicts diverge from the batch pipeline",
                file=sys.stderr,
            )
            return 1
        print("stream: verdicts byte-identical to batch pipeline", file=sys.stderr)

    summary = {
        "rows": result.rows,
        "batches": result.batches,
        "batch_size": batch_size,
        "rules": len(detector.filter_list),
        "rows_per_second": round(result.rows_per_second, 1),
        **{name: round(value, 3) for name, value in quantiles.items()},
        "refreshes": result.refreshes,
        "verdicts": result.verdicts.counts(),
        "table_source": table_source,
        "health": health.to_dict(),
    }
    if checkpointer is not None:
        summary["checkpoints"] = checkpoints
    if args.json:
        document = dict(summary)
        document["seconds"] = round(result.seconds, 3)
        document["batch_seconds"] = [round(value, 6) for value in result.batch_seconds]
        with obs.tracer().span("stream.digest"):
            document["verdicts_digest"] = verdicts_digest(streamed)
        document["rule_hits"] = result.rule_hits()
        _write_document("stream", args.json, document)
        summary["saved_to"] = str(args.json)
    json.dump(summary, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit: corpus generation, evaluation, paper report, stream.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    corpus_parser = subparsers.add_parser(
        "corpus", help="build (or load from cache) a measurement corpus"
    )
    _add_corpus_arguments(corpus_parser)
    corpus_parser.set_defaults(func=_cmd_corpus, parser=corpus_parser)

    pipeline_parser = subparsers.add_parser(
        "pipeline", help="build a corpus and run the FP-Inconsistent evaluation"
    )
    _add_corpus_arguments(pipeline_parser)
    pipeline_parser.add_argument(
        "--generalization",
        action="store_true",
        help="also run the Section 7.3 80/20 train/test check",
    )
    pipeline_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the full result document (filter list, Tables 3/4, paper rows) as JSON",
    )
    pipeline_parser.set_defaults(func=_cmd_pipeline, parser=pipeline_parser)

    report_parser = subparsers.add_parser(
        "report", help="regenerate every paper table and figure from a corpus"
    )
    _add_corpus_arguments(report_parser)
    report_group = report_parser.add_argument_group("report")
    report_group.add_argument(
        "--sections",
        default=None,
        metavar="KEYS",
        help="comma-separated subset of report sections (default: all)",
    )
    report_group.add_argument(
        "--ml-samples",
        type=int,
        default=4000,
        metavar="N",
        help="training-sample cap for the Table 2 classifiers (default 4000)",
    )
    report_group.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the full report document (per-section seconds, "
        "digests, data, paper-value rows, materialised-record counter, "
        "corpus cache key) as JSON",
    )
    report_group.add_argument(
        "--check-materialization",
        action="store_true",
        help="exit non-zero if any record object was materialised "
        "(guards the columnar path's zero-materialisation invariant)",
    )
    report_parser.set_defaults(func=_cmd_report, parser=report_parser)

    stream_parser = subparsers.add_parser(
        "stream", help="replay a corpus through the online streaming detector"
    )
    _add_corpus_arguments(stream_parser)
    stream_group = stream_parser.add_argument_group("stream")
    stream_group.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="ROWS",
        help="micro-batch size of the replay (default 1024)",
    )
    stream_group.add_argument(
        "--refresh-every",
        type=int,
        default=0,
        metavar="BATCHES",
        help="re-mine the filter list every N batches and hot-swap it "
        "(default 0 = frozen list)",
    )
    stream_group.add_argument(
        "--refresh-days",
        type=float,
        default=0,
        metavar="DAYS",
        help="re-mine the filter list every N days of stream time and hot-swap "
        "it (default 0 = frozen list; excludes --refresh-every)",
    )
    stream_group.add_argument(
        "--window",
        type=int,
        default=25_000,
        metavar="ROWS",
        help="sliding window of ingested rows the refresher mines over (default 25000)",
    )
    stream_group.add_argument(
        "--verify-batch",
        action="store_true",
        help="also run the batch classification and assert the streaming "
        "verdicts are byte-identical (requires a frozen list)",
    )
    stream_group.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the full replay document (latencies, refreshes, digest) as JSON",
    )
    _add_checkpoint_arguments(stream_group)
    stream_parser.set_defaults(func=_cmd_stream, parser=stream_parser)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "trace", None) or getattr(args, "metrics_out", None):
        # Before dispatch, through the environment: process-pool shard
        # workers inherit the setting and ship their spans back.
        obs.enable_telemetry()
    try:
        code = args.func(args)
    except (ValueError, OSError) as exc:
        # Bad configuration (scale/seed/env values) or unwritable paths:
        # report like a CLI, not with a traceback.  Set REPRO_DEBUG=1 to
        # re-raise so genuine internal errors keep their stack.
        if os.environ.get("REPRO_DEBUG"):
            raise
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    _write_telemetry_artifacts(args)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
