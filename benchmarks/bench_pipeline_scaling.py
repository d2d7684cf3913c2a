"""Detection-pipeline scaling benchmark: legacy vs columnar vs sharded.

Times the full FP-Inconsistent evaluation (mining + classification +
Tables 3/4 + real-user TNR) under each engine:

* ``legacy`` — the object-at-a-time reference path,
* ``columnar`` — vectorized mining and classification, one worker,
* ``sharded`` — the columnar engine fanned out over the worker pool.

Each engine runs against a freshly built corpus so per-fingerprint
memoization warmed by one engine cannot flatter the next.  Results land in
``BENCH_pipeline_scaling.json`` next to the repository root so successive
PRs accumulate a perf trajectory; all three engines must report the same
rule count (full verdict equivalence is pinned by
``tests/test_columnar.py``).

The ≥3× columnar-vs-legacy claim holds at scale 0.05; at smaller scales
the constant extraction cost dominates, so the hard assertion is opt-in
via ``REPRO_BENCH_REQUIRE_SPEEDUP`` (and the sharded claim additionally
needs real cores).
"""

import json
import os
import tempfile
import time
from pathlib import Path

from repro.analysis.corpus import default_scale
from repro.analysis.engine import CorpusEngine
from repro.core.pipeline import FPInconsistentPipeline

#: Required columnar-vs-legacy speedup when the assertion is armed.
TARGET_SPEEDUP = 3.0

#: Scale below which the constant extraction cost dominates and the target
#: is not meaningful.
MIN_SCALE_FOR_TARGET = 0.05

#: Environment variable turning the speedup target into a hard failure.
REQUIRE_SPEEDUP_ENV_VAR = "REPRO_BENCH_REQUIRE_SPEEDUP"

SHARDED_WORKERS = 4

#: Environment variable overriding where the result document is written.
OUTPUT_ENV_VAR = "REPRO_BENCH_PIPELINE_OUTPUT"

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_pipeline_scaling.json"


def _result_path(scale: float) -> Path:
    """Where to write this run's document.

    The committed repo-root baseline holds scale-0.05 numbers; runs at
    smaller scales (CI smoke uses 0.01) write to a scratch file instead so
    they never clobber the perf trajectory.  ``REPRO_BENCH_PIPELINE_OUTPUT``
    overrides either default.
    """

    override = os.environ.get(OUTPUT_ENV_VAR)
    if override:
        return Path(override)
    if scale >= MIN_SCALE_FOR_TARGET:
        return RESULT_PATH
    return Path(tempfile.gettempdir()) / "BENCH_pipeline_scaling.json"


def _measure(
    engine: str,
    scale: float,
    workers: int = 1,
    executor: str = "thread",
    use_tables: bool = False,
):
    """Build a fresh corpus and time one full pipeline evaluation on it.

    ``use_tables=True`` hands the corpus's pre-extracted columnar tables to
    the pipeline — the warm-cache path, where extraction is skipped
    entirely; otherwise the pipeline extracts them itself.
    """

    corpus = CorpusEngine(seed=7, scale=scale, include_real_users=True).build(workers=1)
    tables = corpus.columnar_tables if use_tables else {}
    pipeline = FPInconsistentPipeline(engine=engine, workers=workers, executor=executor)
    started = time.perf_counter()
    result = pipeline.run(
        corpus.bot_store,
        real_user_store=corpus.real_user_store,
        bot_table=tables.get("bots"),
        real_user_table=tables.get("real_users"),
    )
    seconds = time.perf_counter() - started
    if use_tables:
        assert result.table_sources == {"bots": "reused", "real_users": "reused"}
        # The reused tables must mine what a fresh extraction of the same
        # corpus mines.
        fresh = pipeline.run(corpus.bot_store, real_user_store=corpus.real_user_store)
        assert fresh.table_sources == {"bots": "extracted", "real_users": "extracted"}
        assert len(fresh.filter_list) == len(result.filter_list)
    return {
        "engine": engine,
        "workers": workers,
        "records": len(corpus.bot_store) + len(corpus.real_user_store),
        "rules": len(result.filter_list),
        "seconds": round(seconds, 3),
        "requests_per_second": round(
            (len(corpus.bot_store) + len(corpus.real_user_store)) / seconds, 1
        ),
    }, seconds


def bench_pipeline_scaling():
    scale = default_scale()

    legacy, legacy_seconds = _measure("legacy", scale)
    columnar, columnar_seconds = _measure("columnar", scale)
    sharded, sharded_seconds = _measure(
        "columnar", scale, workers=SHARDED_WORKERS, executor="thread"
    )
    sharded["engine"] = "sharded"
    pretabled, pretabled_seconds = _measure("columnar", scale, use_tables=True)
    pretabled["engine"] = "columnar+tables"
    runs = [legacy, columnar, sharded, pretabled]
    for run, raw_seconds in zip(
        runs[1:], (columnar_seconds, sharded_seconds, pretabled_seconds)
    ):
        # Raw timings, not the rounded display values, so the recorded
        # number always agrees with the asserted one.
        run["speedup_vs_legacy"] = round(legacy_seconds / raw_seconds, 2)

    document = {
        "benchmark": "pipeline_scaling",
        "seed": 7,
        "scale": scale,
        "cpu_count": os.cpu_count(),
        "runs": runs,
    }
    result_path = _result_path(scale)
    result_path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {result_path}")
    for run in runs:
        speedup = run.get("speedup_vs_legacy", 1.0)
        print(
            f"{run['engine']:>8} ({run['workers']}w): {run['seconds']}s "
            f"{run['requests_per_second']} req/s ({speedup}x vs legacy)"
        )

    # All engines evaluating the same corpus must mine the same rule set
    # (the full equivalence — byte-identical lists and verdicts — is pinned
    # in tests/test_columnar.py and tests/test_vectorized.py).
    # The pretabled run validates against its own corpus inside _measure.
    assert legacy["rules"] == columnar["rules"] == sharded["rules"]

    columnar_speedup = legacy_seconds / columnar_seconds
    if os.environ.get(REQUIRE_SPEEDUP_ENV_VAR) and scale >= MIN_SCALE_FOR_TARGET:
        assert columnar_speedup >= TARGET_SPEEDUP, (
            f"expected the columnar engine to be >= {TARGET_SPEEDUP}x faster than the "
            f"legacy path at scale {scale}, got {columnar_speedup:.2f}x"
        )
    else:
        print(
            f"columnar speedup {columnar_speedup:.2f}x; set {REQUIRE_SPEEDUP_ENV_VAR}=1 "
            f"at scale >= {MIN_SCALE_FOR_TARGET} to enforce the {TARGET_SPEEDUP}x target"
        )
    # The columnar engine must not be pathologically slower than the
    # reference — but only where the comparison is meaningful: at smoke
    # scales both engines run sub-second and scheduler noise on shared CI
    # runners could flake an unconditional floor.
    if scale >= MIN_SCALE_FOR_TARGET:
        assert columnar_speedup > 0.8, (
            f"columnar engine collapsed: {columnar_speedup:.2f}x vs legacy"
        )
