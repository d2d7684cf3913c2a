"""Self-test of the benchmark harness at a tiny corpus scale.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

Each workload runs once with ``--trace 0`` and once with ``--trace 1``.
The test asserts that every metric ``BENCHMARK.json`` names is emitted
with its unit, that the outputs checked out, and that every layer
boundary resolved.  Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import traced  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
#: tiny, so a run takes seconds; the metric set does not depend on scale
SCALE = "0.01"


def bench(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--scale", SCALE,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def expected_units(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def test_benchmark_json_matches_the_harness():
    assert WORKLOADS == list(run.WORKLOADS)
    assert expected_units("end_to_end") == run.END_TO_END_UNITS
    assert expected_units("per_layer") == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = expected_units("per_layer" if trace else "end_to_end")
    assert {name: item["unit"] for name, item in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["trace.missing_layers"]["value"] == 0
    else:
        assert all(item["value"] > 0 for item in result["metrics"].values())


def test_every_boundary_resolves():
    for boundary in traced.ALL_BOUNDARIES:
        traced.resolve(boundary.target)


def test_a_missing_boundary_is_reported_not_zeroed():
    recorder = traced.Recorder()
    gone = "repro.stream.replay:NoSuchDriver.replay"
    assert traced.install(recorder, (traced.Boundary("stream.replay", gone),)) == [gone]
    # Every metric that reads the span is dropped from the result.
    assert "stream.replay.self_s" in run.dropped_metrics(
        ["repro.stream.replay:ReplayDriver.replay"]
    )
    assert run.dropped_metrics([]) == set()
