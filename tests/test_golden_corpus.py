"""Frozen golden digests of the corpus and everything derived from it.

``tests/golden/corpus.json`` pins, at the TINY configuration, the
:func:`~repro.analysis.cache.corpus_digest` for two seeds over every
worker count; per seed (``detection``) the mined filter
list, the batch verdicts digest and the real-user true-negative rate; at
seed 29 the Section 7.3 generalisation rates and all fourteen
report-section digests.  Rates are pinned as exact float reprs.  The
corpus pins were taken before the serial build, the legacy generation
engine and the JSONL cache layout were retired, and the detection and
report pins before the object-at-a-time detection and report engines
were, so they hold the one remaining path of each to the bytes the old
paths produced.  Regenerate them only with a ``CORPUS_FORMAT_VERSION``
bump or an intended change of output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.cache import corpus_digest
from repro.analysis.engine import CorpusEngine, build_or_load_corpus
from repro.analysis.report import generate_report, report_section_keys
from repro.core.evaluation import evaluate_generalization
from repro.core.pipeline import FPInconsistentPipeline
from repro.stream import verdicts_digest

GOLDEN_CORPUS = Path(__file__).parent / "golden" / "corpus.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_CORPUS.read_text())


@pytest.fixture(scope="module")
def corpora(golden):
    """The TINY corpus of every seed with detection pins, by seed string."""

    return {
        seed: CorpusEngine(**{**golden["corpus"], "seed": int(seed)}).build(workers=1)
        for seed in golden["detection"]
    }


@pytest.fixture(scope="module")
def corpus(golden, corpora):
    return corpora[str(golden["corpus"]["seed"])]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("seed", [7, 29])
def test_corpus_digest_matches_golden(golden, seed, workers):
    engine = CorpusEngine(
        **{**golden["corpus"], "seed": seed},
        min_records_per_worker=golden["min_records_per_worker"],
    )
    built = engine.build(workers=workers)
    assert engine.last_plan["effective_workers"] == workers  # the fan-out is real
    assert corpus_digest(built) == golden["corpus_digest"][str(seed)]


def test_cache_hit_digest_matches_golden(golden, tmp_path):
    cold, cold_status = build_or_load_corpus(**golden["corpus"], cache=tmp_path)
    warm, warm_status = build_or_load_corpus(**golden["corpus"], cache=tmp_path)
    assert (cold_status, warm_status) == ("miss", "hit")
    expected = golden["corpus_digest"][str(golden["corpus"]["seed"])]
    assert corpus_digest(cold) == corpus_digest(warm) == expected


def test_filter_list_and_verdicts_match_golden(golden, corpora):
    assert set(golden["detection"]) == {"7", "29"}
    for seed, pinned in golden["detection"].items():
        corpus = corpora[seed]
        result = FPInconsistentPipeline().run(
            corpus.bot_store,
            real_user_store=corpus.real_user_store,
            bot_table=corpus.columnar_tables.get("bots"),
            real_user_table=corpus.columnar_tables.get("real_users"),
        )
        rules = json.dumps(
            [rule.to_dict() for rule in result.filter_list],
            sort_keys=True,
            separators=(",", ":"),
        )
        assert hashlib.sha256(rules.encode()).hexdigest() == pinned["filter_list_sha256"], seed
        assert verdicts_digest(result.verdicts) == pinned["verdicts_digest"], seed
        assert repr(result.real_user_tnr) == pinned["real_user_tnr"], seed


def test_generalization_matches_golden(golden, corpus):
    pinned = golden["detection"][str(golden["corpus"]["seed"])]["generalization"]
    results = evaluate_generalization(corpus.bot_store, seed=0)
    assert {
        name: {
            "train": repr(result.train_detection_rate),
            "test": repr(result.test_detection_rate),
        }
        for name, result in results.items()
    } == pinned


def test_report_digests_match_golden(golden, corpus):
    report = generate_report(corpus, ml_samples=golden["report_ml_samples"])
    assert report.digests() == golden["report_digests"]
    assert list(report.digests()) == list(report_section_keys())
    assert len(report.digests()) == 14
    assert report.materialized_records == 0
