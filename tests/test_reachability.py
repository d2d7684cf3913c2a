"""Reach or go: every ``src/repro`` function is reached by a command or an example.

One fresh interpreter runs the ``repro`` workflow at the TINY config —
a cold ``corpus``, ``pipeline --generalization``, ``stream
--verify-batch``, a day-driven refresh with checkpoints stopped mid-run
and resumed, a batch-driven refresh, ``report`` with every exporter, one
``REPRO_FAULTS`` stream run — and then the four examples, all under
``sys.setprofile``/``threading.setprofile``.  Every top-level function
and method under ``src/repro`` that the run never enters must be on
:data:`ALLOWLIST` with one of four reasons; everything else belongs in
``tests/reference/`` (an oracle or fixture builder) or nowhere.  An
allowlist entry that no longer exists, or that the run now reaches,
fails too, so the list only shrinks.

Run this file directly (``python tests/test_reachability.py OUT.json``,
with ``src/`` on the path) to write the reached set without the test.
"""

from __future__ import annotations

import ast
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"

#: The tests' TINY corpus as ``repro`` flags (seed 29, real users and
#: privacy traffic); the scale, 0.004, comes from ``REPRO_SCALE`` for the
#: cold build and from ``--scale`` afterwards.
TINY_FLAGS = [
    "--seed", "29", "--include-privacy", "--real-user-requests", "120",
    "--privacy-requests", "12",
]
TINY_SCALE = "0.004"

#: The four reasons an unreached function may stay in ``src/``.
POOL_OR_FAULT = "reached only through the process pool or a fault mode"
TRACED = "a perfbench/traced.py boundary"
PROTOCOL = "required by an ABC or by the Python data model"
OBSERVER = "an accessor or reset a tier-1 test calls to observe product state"

#: ``"path/relative/to/src/repro.py::Qualified.name"`` -> (reason, where).
#: *where* names the test that drives the entry (or the boundary).  The
#: workflow builds its corpus on one worker (TINY is below the fan-out
#: floor), so the pooled half of ``map_shards`` runs only in tests.
ALLOWLIST = {
    "analysis/engine.py::retry_backoff_seconds": (
        POOL_OR_FAULT, "tests/test_faults.py::test_corpus_is_byte_identical_under_shard_faults"),
    # Runs inside the pool's worker processes.
    "analysis/engine.py::_guarded_call": (
        POOL_OR_FAULT, "tests/test_faults.py::test_corpus_is_byte_identical_under_shard_faults"),
    # Unpickling a shard payload in the coordinator.
    "honeysite/storage.py::SessionArrays.__setstate__": (
        POOL_OR_FAULT, "tests/test_engine.py::test_same_seed_identical_for_one_and_four_workers"),
    # Off by default; kept only for the ml.explain.permutation boundary.
    "ml/explain.py::permutation_importance": (TRACED, "ml.explain.permutation"),
    "antibot/base.py::BotDetector.evaluate": (PROTOCOL, "abstract in the BotDetector ABC"),
    "fingerprint/fingerprint.py::Fingerprint.__getitem__": (PROTOCOL, "abstract in Mapping"),
    "fingerprint/fingerprint.py::Fingerprint.__iter__": (PROTOCOL, "abstract in Mapping"),
    "fingerprint/fingerprint.py::Fingerprint.__len__": (PROTOCOL, "abstract in Mapping"),
    "analysis/report.py::Report.digests": (
        OBSERVER, "tests/test_golden_corpus.py::test_report_digests_match_golden"),
    "ml/encoding.py::FingerprintEncoder.categories_of": (
        OBSERVER, "tests/test_report.py::test_code_column_features_match_decoded_fingerprints"),
    "stream/ingest.py::StreamIngestor.vocabulary_sizes": (
        OBSERVER, "tests/test_stream.py::test_incremental_matcher_matches_the_per_batch_compile"),
    "obs/metrics.py::set_telemetry": (
        OBSERVER, "tests/test_obs.py::test_gated_counter_is_a_noop_when_disabled"),
    "obs/metrics.py::_Instrument.reset": (
        OBSERVER, "tests/test_obs.py::test_counter_labels_totals_and_monotonicity"),
    "obs/trace.py::Tracer.reset": (
        OBSERVER, "tests/test_obs.py::test_span_nesting_depth_and_parent"),
}


def _workflow(workdir: Path) -> None:
    """The profiled run: every ``repro`` command, one fault run, the examples."""

    from repro.cli import main

    cache = ["--cache", str(workdir / "cache")]
    corpus = [*TINY_FLAGS, "--scale", TINY_SCALE, *cache]
    checkpoints = str(workdir / "checkpoints")
    os.environ["REPRO_SCALE"] = TINY_SCALE
    assert main(["corpus", *TINY_FLAGS, *cache]) == 0
    del os.environ["REPRO_SCALE"]
    commands = [
        ["pipeline", *corpus, "--generalization", "--json", str(workdir / "p.json")],
        ["stream", *corpus, "--batch-size", "64", "--verify-batch",
         "--json", str(workdir / "s.json")],
        ["stream", *corpus, "--batch-size", "64", "--refresh-days", "15",
         "--checkpoint-dir", checkpoints, "--checkpoint-every", "2", "--max-batches", "9",
         "--metrics-out", str(workdir / "refresh.prom")],
        ["stream", *corpus, "--batch-size", "64", "--refresh-days", "15",
         "--checkpoint-dir", checkpoints, "--checkpoint-every", "2", "--resume"],
        ["stream", *corpus, "--batch-size", "64", "--refresh-every", "8"],
        ["report", *corpus, "--trace", str(workdir / "t.json"),
         "--metrics-out", str(workdir / "m.prom"), "--check-materialization",
         "--json", str(workdir / "r.json")],
        ["report", *corpus, "--sections", "table1"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    os.environ["REPRO_FAULTS"] = (
        "worker_classify:raise:0.6,refresh_mine:raise:1,checkpoint_write:truncate:0.5"
    )
    try:
        assert main(["stream", *corpus, "--batch-size", "64", "--refresh-days", "20",
                     "--checkpoint-dir", str(workdir / "faulty")]) == 0
    finally:
        del os.environ["REPRO_FAULTS"]
    os.chdir(workdir)  # the rule-mining example writes fp_rules.json here
    for example in sorted(EXAMPLES.glob("*.py")):
        # Examples that take a scale run at TINY's; the others ignore it.
        sys.argv = [str(example), TINY_SCALE]
        runpy.run_path(str(example), run_name="__main__")


def _reached_while(run) -> set:
    """``(path relative to src/repro, first line)`` of every code object
    under ``src/repro`` entered while *run* executes."""

    codes = set()
    add = codes.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    root = str(SRC) + os.sep
    return {
        (code.co_filename[len(root):].replace(os.sep, "/"), code.co_firstlineno)
        for code in codes
        if code.co_filename.startswith(root)
    }


def defined_functions() -> dict:
    """``"path::Qualified.name"`` -> ``(path, first line)`` for every
    module-level function and every method of a module-level class."""

    found = {}
    for path in sorted(SRC.rglob("*.py")):
        relative = str(path.relative_to(SRC)).replace(os.sep, "/")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            members = [(node, "")]
            if isinstance(node, ast.ClassDef):
                members = [(child, f"{node.name}.") for child in node.body]
            for child, prefix in members:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    # A decorated function's code starts at its first decorator.
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[f"{relative}::{prefix}{child.name}"] = (relative, first)
    return found


def run_workflow() -> set:
    """Run the profiled workflow in a fresh interpreter; the reached set."""

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "reached.json"
        env = {
            name: value
            for name, value in os.environ.items()
            if not name.startswith("REPRO_")  # the workflow sets its own knobs
        }
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
        completed = subprocess.run(
            [sys.executable, __file__, str(out)],
            env=env, cwd=tmp, capture_output=True, text=True, timeout=600,
        )
        assert completed.returncode == 0, completed.stderr[-4000:]
        return {tuple(entry) for entry in json.loads(out.read_text(encoding="utf-8"))}


@pytest.fixture(scope="module")
def reached():
    return run_workflow()


def test_allowlist_is_short_and_every_entry_has_a_known_reason():
    assert len(ALLOWLIST) <= 30
    reasons = {POOL_OR_FAULT, TRACED, PROTOCOL, OBSERVER}
    assert {reason for reason, _where in ALLOWLIST.values()} <= reasons
    for _reason, where in ALLOWLIST.values():
        if where.startswith("tests/"):
            path, _, name = where.partition("::")
            assert f"def {name}(" in (ROOT / path).read_text(encoding="utf-8"), where


def test_every_src_function_is_reached_or_allowlisted(reached):
    defined = defined_functions()
    assert len(defined) > 500  # the scan sees the whole package
    unreached = {name for name, key in defined.items() if key not in reached}
    assert sorted(unreached - set(ALLOWLIST)) == []


def test_allowlist_names_only_existing_unreached_functions(reached):
    defined = defined_functions()
    missing = sorted(name for name in ALLOWLIST if name not in defined)
    now_reached = sorted(
        name for name in ALLOWLIST if name in defined and defined[name] in reached
    )
    assert (missing, now_reached) == ([], [])


def _main(out: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        reached = _reached_while(lambda: _workflow(Path(tmp)))
    Path(out).write_text(json.dumps(sorted(reached)), encoding="utf-8")


if __name__ == "__main__":
    _main(sys.argv[1])
