"""One store type: no record objects in ``src/``, every table from columns.

The product keeps a single, columnar :class:`RequestStore`; the record
objects and the record-iterating extraction live in
``tests/reference/store.py``.  These tests pin that structurally (no
``src/`` module can name or build a record object) and behaviourally
(the one extractor reproduces the reference extraction, a library fit
equals the fit of the corpus's pre-emitted table, and a batch extraction
is not stream ingest).
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from reference.store import from_store

from repro import obs
from repro.analysis.engine import CorpusEngine
from repro.core.detector import FPInconsistent
from repro.honeysite import storage
from repro.honeysite.storage import RecordColumnsBuilder, RequestStore, materialized_record_count
from repro.stream import StreamIngestor

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Names that only the object form of a record ever needed, and the
#: generation-time table emitter (a second extractor beside TableEncoder).
RETIRED_NAMES = frozenset(
    {
        "RecordedRequest",
        "from_store",
        "ingest_records",
        "_materialize",
        "TableEmitter",
        "TablePayload",
        "assemble_table",
    }
)

TINY = dict(
    seed=29,
    scale=0.004,
    include_real_users=True,
    include_privacy=True,
    real_user_requests=120,
    privacy_requests_each=12,
)


@pytest.fixture(scope="module")
def corpus():
    return CorpusEngine(**TINY).build(workers=1)


def _identifiers(tree: ast.AST):
    """Every name *tree* defines, imports or reads."""

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname
        elif isinstance(node, ast.arg):
            yield node.arg


def test_src_cannot_name_or_build_a_record_object():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50  # the scan sees the whole package
    found = {
        (str(path.relative_to(SRC)), name)
        for path in modules
        for name in _identifiers(ast.parse(path.read_text(encoding="utf-8")))
        if name in RETIRED_NAMES
    }
    assert found == set()


def test_request_store_cannot_iterate_records():
    tree = ast.parse((SRC / "honeysite" / "storage.py").read_text(encoding="utf-8"))
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    methods = {
        node.name for node in classes["RequestStore"].body if isinstance(node, ast.FunctionDef)
    }
    assert {"__len__", "take", "by_sources"} <= methods  # the scan sees the class
    assert methods.isdisjoint({"__iter__", "__getitem__", "records", "filter", "add", "extend"})
    assert "LazyRequestStore" not in classes and not hasattr(storage, "LazyRequestStore")
    assert not hasattr(RequestStore, "__iter__")


def test_library_fit_equals_the_pre_emitted_table_fit(corpus):
    before = materialized_record_count()
    fitted = FPInconsistent().fit(corpus.bot_store)
    assert materialized_record_count() == before
    expected = FPInconsistent().fit_table(corpus.columnar_tables["bots"])
    assert len(fitted.filter_list) > 0
    assert fitted.filter_list.to_json() == expected.filter_list.to_json()


def _assert_tables_equal(actual, expected) -> None:
    assert actual.attributes == expected.attributes
    assert actual.n_rows == expected.n_rows
    for attribute in expected.attributes:
        assert np.array_equal(actual.codes_of(attribute), expected.codes_of(attribute))
        assert actual.values_of(attribute) == expected.values_of(attribute)
    assert np.array_equal(actual.request_ids, expected.request_ids)
    assert np.array_equal(actual.timestamps, expected.timestamps)
    assert np.array_equal(actual.cookie_codes, expected.cookie_codes)
    assert actual.cookie_values == expected.cookie_values
    assert np.array_equal(actual.ip_codes, expected.ip_codes)
    assert actual.ip_values == expected.ip_values


@pytest.mark.parametrize("case", ("whole", "by_sources", "shuffled_take", "empty"))
def test_extract_table_equals_the_reference_extraction(corpus, case):
    store = corpus.store
    if case == "by_sources":
        store = store.by_sources(store.sources()[1::3])
    elif case == "shuffled_take":
        rows = np.random.default_rng(5).permutation(len(store))[: len(store) // 2]
        store = store.take(rows)
    elif case == "empty":
        store = RequestStore(RecordColumnsBuilder().columns().renumbered())
    detector = FPInconsistent()
    table = detector.extract_table(store)
    assert table.n_rows == len(store)
    _assert_tables_equal(table, from_store(store, attributes=detector.table_attributes()))


def test_batch_extraction_is_not_stream_ingest(corpus):
    obs.set_telemetry(True)
    try:
        before = obs.metric_value("repro_stream_rows_ingested_total")
        FPInconsistent().fit(corpus.bot_store)
        assert obs.metric_value("repro_stream_rows_ingested_total") == before
        # The counter is live: a stream batch of the same rows counts.
        store = corpus.bot_store
        StreamIngestor().ingest_rows(store.columns, np.arange(len(store)))
        assert obs.metric_value("repro_stream_rows_ingested_total") == before + len(store)
    finally:
        obs.set_telemetry(None)
