"""Tests for the ``repro`` command line interface."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.cli as cli_module
from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corpus_summary(capsys):
    argv = ("corpus", "--seed", "5", "--scale", "0.002", "--no-real-users", "--no-cache")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert "uncached build" in err
    summary = json.loads(out)
    assert summary["seed"] == 5
    assert summary["records"] == summary["bot_requests"] > 0
    # The content digest is the determinism check: equal for any fan-out.
    assert len(summary["digest"]) == 64
    code, out, _err = run_cli(capsys, *argv, "--workers", "3")
    assert code == 0
    assert json.loads(out)["digest"] == summary["digest"]


def test_corpus_cache_miss_then_hit(capsys, tmp_path):
    argv = (
        "corpus",
        "--seed", "5",
        "--scale", "0.002",
        "--no-real-users",
        "--cache", str(tmp_path),
    )
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and "cache miss" in err
    code, out2, err = run_cli(capsys, *argv)
    assert code == 0 and "cache hit" in err
    assert json.loads(out) == json.loads(out2)


def test_pipeline_summary(capsys):
    code, out, err = run_cli(
        capsys,
        "pipeline",
        "--seed", "5",
        "--scale", "0.003",
        "--no-cache",
        "--workers", "2",
    )
    assert code == 0
    summary = json.loads(out)
    assert set(summary["evasion_reduction"]) == {"DataDome", "BotD"}
    assert summary["rules"] > 0
    assert 0.0 <= summary["real_user_tnr"] <= 1.0


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_pipeline_json_document(capsys, tmp_path):
    json_path = tmp_path / "pipeline.json"
    code, out, err = run_cli(
        capsys,
        "pipeline",
        "--seed", "5",
        "--scale", "0.003",
        "--no-cache",
        "--workers", "2",
        "--json", str(json_path),
    )
    assert code == 0
    document = json.loads(json_path.read_text())
    assert "engine" not in document
    assert len(document["filter_list"]) == document["rules"] > 0
    assert set(document["table4"]) == {"DataDome", "BotD"}
    # Table 4, both evasion reductions and the real-user TNR, beside the paper's.
    paper = {row["key"]: row for row in document["paper"]}
    assert len(paper) == 11 and paper["real_users.tnr"]["paper"] == 0.9684
    assert paper["table4.BotD.baseline"]["reproduced"] == document["table4"]["BotD"]["baseline"]
    assert json.loads(out)["saved_to"] == str(json_path)


@pytest.mark.parametrize(
    "argv", [("pipeline", "--engine", "legacy"), ("report", "--engine", "object")]
)
def test_engine_flag_is_an_argparse_error(capsys, argv):
    # One detection engine and one report engine: the selectors are gone.
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--scale", "0.002", "--no-cache"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_stream_replays_and_verifies_against_batch(capsys, tmp_path):
    out_path = tmp_path / "stream.json"
    code, out, err = run_cli(
        capsys,
        "stream",
        "--seed", "5",
        "--scale", "0.003",
        "--no-cache",
        "--batch-size", "200",
        "--verify-batch",
        "--json", str(out_path),
    )
    assert code == 0
    assert "verdicts byte-identical to batch pipeline" in err
    summary = json.loads(out)
    assert summary["batch_size"] == 200
    assert summary["batches"] == -(-summary["rows"] // 200)
    assert summary["rules"] > 0
    assert summary["verdicts"]["inconsistent"] > 0
    assert 0 < summary["p50_batch_ms"] <= summary["p99_batch_ms"]
    document = json.loads(out_path.read_text())
    assert len(document["batch_seconds"]) == summary["batches"]
    assert len(document["verdicts_digest"]) == 64


@pytest.fixture(scope="module")
def stream_cache(tmp_path_factory):
    """One cached corpus for the oracle's failure-path runs."""

    directory = tmp_path_factory.mktemp("stream-cache")
    assert main(["corpus", "--seed", "5", "--scale", "0.003", "--cache", str(directory)]) == 0
    return directory


def test_stream_verify_batch_json_serialises_each_side_once(
    capsys, monkeypatch, stream_cache, tmp_path
):
    """``--verify-batch --json`` serialises the streamed verdicts once, for
    the comparison and the digest together, and the batch side once; the
    digest is the canonical serialisation's, and no serialisation is left
    behind when the command returns."""

    from reference.detection import reference_digest

    from repro.stream import replay

    serialise, calls = replay._serialised, []

    def counted(verdicts):
        calls.append(verdicts)
        return serialise(verdicts)

    monkeypatch.setattr(replay, "_serialised", counted)
    out = tmp_path / "stream.json"
    status, _out, err = run_cli(
        capsys, "stream", "--seed", "5", "--scale", "0.003", "--cache", str(stream_cache),
        "--batch-size", "200", "--verify-batch", "--json", str(out),
    )
    assert status == 0, err
    assert len(calls) == 2 and calls[0] is not calls[1]
    assert json.loads(out.read_text())["verdicts_digest"] == reference_digest(calls[0])
    # The command held its serialisations in locals only: none outlives it.
    gc.collect()
    assert not [held for held in gc.get_objects() if isinstance(held, replay.SerialisedVerdicts)]


def _retype_a_flag(verdicts, value) -> None:
    """Point the new value of one flag at *value*: the first flag of the
    lowest flagged request id, so both sides pick the same one."""

    flags = verdicts.flags
    flag = int(np.argmin(verdicts.request_ids[flags.row]))
    attribute = int(flags.attribute[flag])
    flags.values = {**flags.values, attribute: [*flags.values[attribute], value]}
    flags.new = flags.new.copy()
    flags.new[flag] = len(flags.values[attribute]) - 1


def _drop_a_rule_hit(verdicts, _value) -> None:
    verdicts.rule_index = verdicts.rule_index.copy()
    verdicts.rule_index[np.flatnonzero(verdicts.rule_index >= 0)[0]] = -1


@pytest.mark.parametrize(
    "alter, streamed, batch, code",
    [
        (_retype_a_flag, True, 1, 1),
        (_retype_a_flag, 1, 1, 0),
        (_drop_a_rule_hit, None, None, 1),
    ],
    ids=["flag-True-vs-1", "flag-1-vs-1", "rule-hit-dropped"],
)
def test_stream_verify_batch_fails_on_diverging_columns(
    capsys, monkeypatch, stream_cache, alter, streamed, batch, code
):
    """``--verify-batch`` exits 1 when one streamed flag value differs only
    in type (``True`` against ``1``) or one rule hit is gone, and passes when
    both sides carry the same value."""

    from repro.core.detector import FPInconsistent
    from repro.stream import ReplayDriver

    replay, classify = ReplayDriver.replay, FPInconsistent.classify_table

    def altered_replay(self, *args, **kwargs):
        result = replay(self, *args, **kwargs)
        alter(result.verdicts, streamed)
        return result

    def altered_classify(self, table, **kwargs):
        verdicts = classify(self, table, **kwargs)
        if alter is _retype_a_flag and kwargs.get("temporal_state") is None:
            alter(verdicts, batch)  # the batch side of the oracle
        return verdicts

    monkeypatch.setattr(ReplayDriver, "replay", altered_replay)
    monkeypatch.setattr(FPInconsistent, "classify_table", altered_classify)
    status, _out, err = run_cli(
        capsys, "stream", "--seed", "5", "--scale", "0.003", "--cache", str(stream_cache),
        "--batch-size", "200", "--verify-batch",
    )
    assert status == code
    assert ("streaming verdicts diverge" in err) == (code == 1)
    assert ("verdicts byte-identical to batch pipeline" in err) == (code == 0)


def test_stream_refresh_hot_swaps(capsys):
    code, out, err = run_cli(
        capsys,
        "stream",
        "--seed", "5",
        "--scale", "0.003",
        "--no-cache",
        "--batch-size", "250",
        "--refresh-every", "3",
        "--window", "1000",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["refreshes"]
    assert all(entry["rules"] > 0 for entry in summary["refreshes"])


def test_stream_refresh_days_logs_stream_days(capsys):
    code, out, err = run_cli(
        capsys,
        "stream",
        "--seed", "5",
        "--scale", "0.003",
        "--no-cache",
        "--batch-size", "250",
        "--refresh-days", "20",
        "--window", "1000",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["refreshes"]
    assert all("stream_day" in entry for entry in summary["refreshes"])
    assert summary["health"]["refresh_failures"] == 0


def _no_corpus_build(args):
    raise AssertionError("a bad knob must fail before any corpus build")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("pipeline", "--workers", "0"), "--workers must be >= 1"),
        (("corpus", "--scale", "-1"), "--scale must be positive"),
        (("corpus", "--workers", "-2"), "--workers must be >= 1"),
        (("pipeline", "--campaign-days", "0"), "--campaign-days must be >= 1"),
        (("corpus", "--real-user-requests", "-5"), "cannot be negative"),
        (("bench",), "invalid choice"),
        (("corpus", "--generation", "legacy"), "unrecognized arguments"),
        (("corpus", "--seed", "-1"), "--seed must be non-negative"),
        (("stream", "--batch-size", "0"), "--batch-size must be >= 1"),
        (("stream", "--refresh-every", "-1"), "--refresh-every cannot be negative"),
        (("stream", "--window", "0"), "--window must be >= 1"),
        (("stream", "--verify-batch", "--refresh-every", "2"), "frozen filter list"),
        (("stream", "--workers", "0"), "--workers must be >= 1"),
        (("stream", "--refresh-days", "-1"), "--refresh-days cannot be negative"),
        (("stream", "--refresh-every", "2", "--refresh-days", "5"), "pick one"),
        (("stream", "--verify-batch", "--refresh-days", "5"), "frozen filter list"),
        (("serve",), "invalid choice"),
        (("corpus", "--out", "store.jsonl.gz"), "unrecognized arguments"),
        (("pipeline", "--generation", "vectorized"), "unrecognized arguments"),
        (("report", "--generation", "legacy"), "unrecognized arguments"),
        (("stream", "--generation", "legacy"), "unrecognized arguments"),
        (("corpus", "--executor", "thread"), "unrecognized arguments"),
        (("stream", "--refresh-days", "nan"), "--refresh-days cannot be negative or non-finite"),
        (("stream", "--refresh-days", "inf"), "--refresh-days cannot be negative or non-finite"),
        (("corpus", "--scale", "nan"), "--scale must be positive and finite"),
        (("corpus", "--scale", "inf"), "--scale must be positive and finite"),
        (("stream", "--scale", "1e400"), "--scale must be positive and finite"),
    ],
)
def test_bad_knobs_fail_fast(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli_module, "_build_from_args", _no_corpus_build)
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["inf", "nan", "1e400", "-0.5"])
def test_bad_scale_env_fails_before_any_corpus_build(capsys, monkeypatch, scale):
    monkeypatch.setenv("REPRO_SCALE", scale)
    monkeypatch.setattr(cli_module, "_build_from_args", _no_corpus_build)
    with pytest.raises(SystemExit) as excinfo:
        main(["stream", "--no-cache"])
    assert excinfo.value.code == 2
    assert "REPRO_SCALE must be positive and finite" in capsys.readouterr().err


def test_bad_workers_env_fails_cleanly(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "zero")
    with pytest.raises(SystemExit) as excinfo:
        main(["corpus", "--scale", "0.002", "--no-cache"])
    assert excinfo.value.code == 2
    assert "REPRO_WORKERS" in capsys.readouterr().err


#: Run in a fresh interpreter: import the CLI, run the ``pipeline`` and
#: ``stream`` handlers on a warm TINY cache, and print which report-only
#: layers were imported along the way (and whether the warm path built a
#: random generator, which imports ``numpy.random``), and after which
#: command ``numpy.ma`` was loaded.
_STARTUP_SCRIPT = """
import json, sys
from repro.cli import main
masked = []
for argv in (["pipeline"], ["stream", "--batch-size", "256"]):
    assert main(argv + sys.argv[1:]) == 0
    if "numpy.ma" in sys.modules:
        masked.append(argv[0])
unwanted = ("repro.ml", "repro.analysis.figures", "repro.analysis.evasion",
            "repro.analysis.attributes", "numpy.random")
loaded = sorted(name for name in sys.modules if name.startswith("repro.ml.") or name in unwanted)
from repro import FPInconsistent
from repro.analysis import build_corpus, corpus_digest
print(json.dumps({"loaded": loaded, "numpy.ma": masked,
                  "names": [FPInconsistent.__name__, build_corpus.__name__,
                            corpus_digest.__name__]}))
"""


@pytest.fixture(scope="module")
def warm_commands(tmp_path_factory):
    """The startup script's document, run once on a freshly built TINY cache."""

    knobs = ["--seed", "29", "--scale", "0.004", "--cache", str(tmp_path_factory.mktemp("cache"))]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(["corpus", *knobs]) == 0
    assert "cache miss" in err.getvalue()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {
        name: value for name, value in os.environ.items() if not name.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, *knobs],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.count("cache hit") == 2
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_pipeline_and_stream_never_import_the_report_layers(warm_commands):
    """The package ``__init__``s re-export lazily, so the commands that do
    not build the report pay neither for the ML stack nor for the figure,
    evasion and attribute analyses; the public names still import."""

    assert warm_commands["loaded"] == []
    assert warm_commands["names"] == ["FPInconsistent", "build_corpus", "corpus_digest"]


def test_pipeline_and_stream_never_import_numpy_ma(warm_commands):
    """A plain ``np.unique`` on NumPy 2.x imports ``numpy.ma`` on first use,
    10-15 ms inside a timed evaluation; neither command may trigger it."""

    assert warm_commands["numpy.ma"] == []
