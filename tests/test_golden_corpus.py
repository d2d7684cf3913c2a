"""Frozen golden digests of the corpus and everything derived from it.

``tests/golden/corpus.json`` pins, at the TINY configuration, the
:func:`~repro.analysis.cache.corpus_digest` for two seeds over every
worker count and executor, and — at seed 29 — the mined filter list, the
batch verdicts digest and all fourteen report-section digests.  The pins
were taken before the serial build, the legacy generation engine and the
JSONL cache layout were retired, so they hold the one remaining corpus
path to the bytes the old paths produced.  Regenerate them only with a
``CORPUS_FORMAT_VERSION`` bump or an intended change of output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.cache import corpus_digest
from repro.analysis.engine import CorpusEngine, build_or_load_corpus
from repro.analysis.report import generate_report
from repro.core.pipeline import FPInconsistentPipeline
from repro.stream import verdicts_digest

GOLDEN_CORPUS = Path(__file__).parent / "golden" / "corpus.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_CORPUS.read_text())


@pytest.fixture(scope="module")
def corpus(golden):
    return CorpusEngine(**golden["corpus"]).build(workers=1)


@pytest.mark.parametrize("executor", ["process", "thread"])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("seed", [7, 29])
def test_corpus_digest_matches_golden(golden, seed, workers, executor):
    engine = CorpusEngine(
        **{**golden["corpus"], "seed": seed},
        min_records_per_worker=golden["min_records_per_worker"],
    )
    built = engine.build(workers=workers, executor=executor)
    assert engine.last_plan["effective_workers"] == workers  # the fan-out is real
    assert corpus_digest(built) == golden["corpus_digest"][str(seed)]


def test_cache_hit_digest_matches_golden(golden, tmp_path):
    cold, cold_status = build_or_load_corpus(**golden["corpus"], cache=tmp_path)
    warm, warm_status = build_or_load_corpus(**golden["corpus"], cache=tmp_path)
    assert (cold_status, warm_status) == ("miss", "hit")
    expected = golden["corpus_digest"][str(golden["corpus"]["seed"])]
    assert corpus_digest(cold) == corpus_digest(warm) == expected


def test_filter_list_and_verdicts_match_golden(golden, corpus):
    result = FPInconsistentPipeline().run(
        corpus.bot_store,
        real_user_store=corpus.real_user_store,
        bot_table=corpus.columnar_tables.get("bots"),
        real_user_table=corpus.columnar_tables.get("real_users"),
    )
    rules = json.dumps(
        [rule.to_dict() for rule in result.filter_list], sort_keys=True, separators=(",", ":")
    )
    assert hashlib.sha256(rules.encode()).hexdigest() == golden["filter_list_sha256"]
    assert verdicts_digest(result.verdicts) == golden["verdicts_digest"]


def test_report_digests_match_golden(golden, corpus):
    report = generate_report(corpus, ml_samples=golden["report_ml_samples"])
    assert report.digests() == golden["report_digests"]
    assert len(report.digests()) == 14
