"""One fan-out on one pool: ``map_shards`` serves corpus generation only.

Classification, mining and serving each ran on a worker pool once; none
beat one worker on the cheap per-row work that FP-Inconsistent does, so
the only pool left is the corpus engine's process pool.  These tests pin
that structurally: ``map_shards`` is called from ``analysis/engine.py``
alone, and no ``src/`` module can name a thread pool or the retired
device partitioner.
"""

from __future__ import annotations

import ast

from test_one_store import SRC, _identifiers

#: Names of the retired fan-out machinery.
RETIRED_NAMES = frozenset({"ThreadPoolExecutor", "partition_rows_by_device", "device_components"})


def _modules():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50  # the scan sees the whole package
    return [(str(path.relative_to(SRC)), ast.parse(path.read_text(encoding="utf-8")))
            for path in modules]


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_map_shards_is_called_only_by_the_corpus_engine():
    callers = {
        name
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "map_shards"
    }
    assert callers == {"analysis/engine.py"}


def test_src_names_no_thread_pool_or_device_partitioner():
    found = {
        (name, identifier)
        for name, tree in _modules()
        for identifier in _identifiers(tree)
        if identifier in RETIRED_NAMES
    }
    assert found == set()
