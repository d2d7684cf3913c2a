"""Tests for stream checkpoint/restore (``repro.stream.checkpoint``).

The contract under test: a replay killed mid-stream (modelled
deterministically by ``max_batches``) and resumed from its last published
save produces verdicts **byte-identical** to an uninterrupted run — with
either refresh schedule, under injected faults — and the checkpoint
directory itself is crash-safe: segments are appended before the snapshot
that lists them is published, unlisted segments are ignored, damaged
ones evict the checkpoint, older formats are evicted unread, and loading
never unpickles anything.  Each
save writes only what changed since the previous one, so its size is
bounded by the rows it covers.
"""

from __future__ import annotations

import hashlib
import json
import logging
import pickle
import re
import tarfile
from pathlib import Path

import numpy as np
import pytest
from reference.detection import verdicts_equal

import repro
from repro import faults, obs
from repro.analysis.engine import CorpusEngine
from repro.cli import main
from repro.core.detector import FPInconsistent
from repro.stream import (
    ArrivalStream,
    CheckpointError,
    FilterListRefresher,
    ReplayDriver,
    StreamCheckpointer,
    StreamIngestor,
    verdicts_digest,
)
from repro.stream import checkpoint as checkpoint_module
from repro.stream.checkpoint import (
    CHECKPOINT_BYTES_PER_ROW_CEILING,
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    SEGMENT_FILENAME,
    read_checkpoint,
    write_checkpoint,
)

FIXTURES = Path(__file__).parent / "fixtures"

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


@pytest.fixture(scope="module")
def fitted(corpus):
    detector = FPInconsistent()
    table = detector.extract_table(corpus.bot_store)
    detector.fit_table(table)
    verdicts = detector.classify_table(table)
    return detector, table, verdicts


def _segments(directory: Path):
    return sorted(directory.glob("segment-*.npz"))


# -- the snapshot file format ----------------------------------------------------


def test_checkpoint_blob_roundtrips(tmp_path):
    path = tmp_path / "ck"
    written = write_checkpoint(path, {"cursor": 7, "values": ["a", "é"]}, {"array": np.arange(5)})
    meta, arrays = read_checkpoint(path)
    assert meta == {"cursor": 7, "values": ["a", "é"]}
    assert np.array_equal(arrays["array"], np.arange(5))
    blob = path.read_bytes()
    assert written == len(blob)
    assert blob[:4] == CHECKPOINT_MAGIC
    assert int.from_bytes(blob[4:8], "big") == CHECKPOINT_VERSION == 4
    assert not list(tmp_path.glob(".*.tmp"))  # temp file consumed by the rename


def test_read_rejects_non_checkpoint_files(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(CheckpointError, match="not a stream checkpoint"):
        read_checkpoint(path)
    with pytest.raises(CheckpointError, match="unreadable"):
        read_checkpoint(tmp_path / "absent")


def test_read_rejects_torn_and_tampered_blobs(tmp_path):
    path = tmp_path / "ck"
    write_checkpoint(path, {"cursor": 1}, {})
    blob = path.read_bytes()

    torn = tmp_path / "torn"
    torn.write_bytes(blob[: len(blob) - 3])
    with pytest.raises(CheckpointError, match="checksum"):
        read_checkpoint(torn)

    tampered = tmp_path / "tampered"
    tampered.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
    with pytest.raises(CheckpointError, match="checksum"):
        read_checkpoint(tampered)


def test_read_rejects_future_format_versions(tmp_path):
    path = tmp_path / "ck"
    write_checkpoint(path, {"cursor": 1}, {})
    blob = bytearray(path.read_bytes())
    blob[4:8] = (CHECKPOINT_VERSION + 1).to_bytes(4, "big")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="format version"):
        read_checkpoint(path)


def test_no_pickle_in_the_online_packages():
    root = Path(repro.__file__).parent
    sources = sorted((root / "stream").glob("*.py"))
    assert sources
    for source in sources:
        text = source.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(import|from)\s+pickle\b", text, re.MULTILINE), source
        for line in text.splitlines():
            if "np.load(" in line:
                assert "allow_pickle=False" in line, (source, line)


# -- the periodic checkpointer ---------------------------------------------------


def test_checkpointer_cadence_and_validation(tmp_path):
    with pytest.raises(ValueError, match="every_batches"):
        StreamCheckpointer(tmp_path, every_batches=0)
    checkpointer = StreamCheckpointer(tmp_path, every_batches=4)
    assert [n for n in range(13) if checkpointer.due(n)] == [4, 8, 12]
    assert checkpointer.load() is None  # nothing published yet


def test_failed_save_keeps_the_previous_snapshot(monkeypatch, tmp_path, corpus, fitted):
    detector, _table, _verdicts = fitted
    directory = tmp_path / "ck"

    def run(**kwargs):
        return ReplayDriver(detector, batch_size=256).replay(
            corpus.bot_store,
            checkpointer=StreamCheckpointer(directory, every_batches=1),
            max_batches=1,
            **kwargs,
        )

    assert run().checkpoints_saved == 1

    # Every write now crashes mid-stream (truncated then raised): save()
    # absorbs it, and the published snapshot stays the batch-1 one.
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "checkpoint_write:truncate:1")
    failed = run(resume=True)
    assert failed.checkpoints_saved == 0 and failed.checkpoint_failures == 1
    assert StreamCheckpointer(directory).load()["batches"] == 1
    assert [path.name for path in _segments(directory)] == [SEGMENT_FILENAME.format(0)]
    assert not list(directory.glob(".*.tmp"))  # the torn temp was removed

    monkeypatch.delenv(faults.FAULTS_ENV_VAR)
    assert run(resume=True).checkpoints_saved == 1
    assert StreamCheckpointer(directory).load()["batches"] == 2
    assert len(_segments(directory)) == 2


def test_every_save_is_bounded_by_the_rows_it_covers(tmp_path, corpus, fitted):
    detector, _table, _verdicts = fitted
    batch_size, every = 128, 4
    # Window rows are written once, so the bound holds with a window far
    # larger than the rows between saves.
    refresher = FilterListRefresher(detector.miner, interval_batches=3, window_rows=25_000)
    checkpointer = StreamCheckpointer(tmp_path / "ck", every_batches=every)
    saves = []
    original = checkpointer.save

    def recording_save(state):
        published = original(state)
        size = obs.metric_value("repro_stream_checkpoint_last_save_bytes")
        saves.append((published, state["cursor_rows"], size))
        return published

    checkpointer.save = recording_save
    bytes_before = obs.metric_value("repro_stream_checkpoint_bytes_total")
    result = ReplayDriver(detector, batch_size=batch_size, refresher=refresher).replay(
        corpus.bot_store, checkpointer=checkpointer
    )
    assert len(saves) >= 3 and all(published for published, _, _ in saves)
    previous = 0
    for _published, cursor, size in saves:
        assert 0 < size <= CHECKPOINT_BYTES_PER_ROW_CEILING * (cursor - previous), (cursor, size)
        previous = cursor
    sizes = [size for _, _, size in saves]
    assert obs.metric_value("repro_stream_checkpoint_bytes_total") - bytes_before == sum(sizes)
    assert obs.metric_value("repro_stream_checkpoint_max_save_bytes") == max(sizes)
    assert obs.metric_value("repro_stream_checkpoint_segments") == len(saves)
    # The snapshot lists every segment, and the age gauge counts the
    # batches scored after the last save.
    meta, _ = read_checkpoint(checkpointer.path)
    assert [entry["name"] for entry in meta["segments"]] == [
        path.name for path in _segments(tmp_path / "ck")
    ]
    assert obs.metric_value("repro_stream_checkpoint_age_batches") == result.batches % every


# -- stream kill-and-resume ------------------------------------------------------


def test_stream_resume_is_byte_identical(tmp_path, corpus, fitted):
    detector, _table, batch_verdicts = fitted
    full = ReplayDriver(detector, batch_size=256).replay(corpus.bot_store)
    assert full.rows == len(batch_verdicts)

    directory = tmp_path / "ck"
    partial = ReplayDriver(detector, batch_size=256).replay(
        corpus.bot_store,
        checkpointer=StreamCheckpointer(directory, every_batches=2),
        max_batches=3,
    )
    assert partial.batches == 3
    assert partial.rows == 3 * 256  # rows this invocation scored, not the store's
    assert partial.checkpoints_saved == 1  # due at batch 2
    assert partial.resumed_from_batch is None

    resumed = ReplayDriver(detector, batch_size=256).replay(
        corpus.bot_store,
        checkpointer=StreamCheckpointer(directory, every_batches=2),
        resume=True,
    )
    # The snapshot was taken at batch 2, one batch before the kill: the
    # resumed run re-scores from there and converges byte-identically.
    assert resumed.resumed_from_batch == 2
    assert resumed.rows == full.rows - 2 * 256
    assert resumed.batches == full.batches
    assert verdicts_equal(resumed.verdicts, batch_verdicts)
    assert verdicts_digest(resumed.verdicts) == verdicts_digest(full.verdicts)
    assert verdicts_digest(resumed.verdicts) == verdicts_digest(batch_verdicts)


@pytest.mark.parametrize("kill_at", [3, 5, 8])
def test_stream_resume_with_refresh_at_several_kill_points(tmp_path, corpus, fitted, kill_at):
    detector, _table, _verdicts = fitted

    def driver():
        refresher = FilterListRefresher(detector.miner, interval_batches=2, window_rows=700)
        return ReplayDriver(detector, batch_size=128, refresher=refresher)

    full = driver().replay(corpus.bot_store)
    assert len(full.refreshes) >= 3

    directory = tmp_path / "ck"
    driver().replay(
        corpus.bot_store,
        checkpointer=StreamCheckpointer(directory, every_batches=2),
        max_batches=kill_at,
    )
    resumed = driver().replay(
        corpus.bot_store,
        checkpointer=StreamCheckpointer(directory, every_batches=2),
        resume=True,
    )
    assert resumed.resumed_from_batch == kill_at - kill_at % 2
    assert resumed.refreshes == full.refreshes
    assert verdicts_digest(resumed.verdicts) == verdicts_digest(full.verdicts)


def _refreshing_driver(detector):
    refresher = FilterListRefresher(detector.miner, interval_batches=2, window_rows=700)
    return ReplayDriver(detector, batch_size=128, refresher=refresher)


def test_chained_kill_and_resume_with_refresh(tmp_path, corpus, fitted):
    # kill -> resume and kill again -> resume: the second run folds the
    # first run's segments, appends its own deltas to the same sequence,
    # and the last run folds both.
    detector, _table, _verdicts = fitted
    full = _refreshing_driver(detector).replay(corpus.bot_store)

    directory = tmp_path / "ck"
    runs = []
    for max_batches in (3, 4, None):
        runs.append(
            _refreshing_driver(detector).replay(
                corpus.bot_store,
                checkpointer=StreamCheckpointer(directory, every_batches=2),
                resume=bool(runs),
                max_batches=max_batches,
            )
        )
    assert [run.resumed_from_batch for run in runs] == [None, 2, 6]
    assert [run.checkpoints_saved for run in runs[:2]] == [1, 2]
    assert len(_segments(directory)) > 3
    assert runs[-1].refreshes == full.refreshes
    assert verdicts_digest(runs[-1].verdicts) == verdicts_digest(full.verdicts)


def _extract_v3_fixture(directory: Path) -> Path:
    with tarfile.open(FIXTURES / "stream_checkpoint_v3_dict_state.tar.gz") as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(directory, filter="data")
        else:  # pragma: no cover - Python without extraction filters
            archive.extractall(directory)
    return directory


def test_window_folds_from_segment_deltas_across_a_failed_save(
    monkeypatch, tmp_path, corpus, fitted
):
    detector, _table, _verdicts = fitted
    refresher = FilterListRefresher(detector.miner, interval_batches=4, window_rows=700)
    checkpointer = StreamCheckpointer(tmp_path / "ck", every_batches=1)
    real_check = faults.check

    def fail_sixth_save(point, key, **kwargs):
        if point == "checkpoint_write" and key == "save5:segment":
            raise faults.InjectedFault("injected fault at the sixth segment")
        real_check(point, key, **kwargs)

    monkeypatch.setattr(faults, "check", fail_sixth_save)
    ReplayDriver(detector, batch_size=128, refresher=refresher).replay(
        corpus.bot_store, checkpointer=checkpointer, max_batches=9
    )
    assert (checkpointer.saves, checkpointer.failures) == (8, 1)

    # Each segment holds the rows since the previous published save, so
    # the one after the failed save carries two batches.
    meta, _ = read_checkpoint(checkpointer.path)
    rows = [
        np.load(tmp_path / "ck" / entry["name"], allow_pickle=False)["window"].shape[0]
        for entry in meta["segments"]
    ]
    assert rows == [128, 128, 128, 128, 128, 256, 128, 128]
    spanned = np.searchsorted(np.cumsum(rows[::-1]), refresher.rows_in_window) + 1
    assert spanned >= 3

    live = refresher.export_state(0)["window"]
    folded = StreamCheckpointer(tmp_path / "ck").load()["refresher"]["window"]
    assert list(folded) == list(live)
    for attribute, column in live.items():
        assert column.size == refresher.rows_in_window == 700
        assert np.array_equal(folded[attribute], column), attribute


def test_stream_resume_restores_refresher_state(tmp_path, corpus, fitted):
    detector, _table, _verdicts = fitted

    def refresher():
        return FilterListRefresher(detector.miner, interval_days=20.0, window_rows=2_000)

    full = ReplayDriver(detector, batch_size=256, refresher=refresher()).replay(
        corpus.bot_store
    )
    assert full.refreshes  # the schedule actually fires on this corpus

    directory = tmp_path / "ck"
    ReplayDriver(detector, batch_size=256, refresher=refresher()).replay(
        corpus.bot_store,
        checkpointer=StreamCheckpointer(directory, every_batches=2),
        max_batches=5,
    )
    resumed = ReplayDriver(detector, batch_size=256, refresher=refresher()).replay(
        corpus.bot_store,
        checkpointer=StreamCheckpointer(directory, every_batches=2),
        resume=True,
    )
    # The sliding window, stream clock and deployed list all came back:
    # the re-mining schedule and the verdicts match the uninterrupted run.
    assert resumed.refreshes == full.refreshes
    assert verdicts_digest(resumed.verdicts) == verdicts_digest(full.verdicts)


@pytest.mark.parametrize("kill_at", [3, 5, 8])
def test_stream_resume_with_day_refresh_at_several_kill_points(
    monkeypatch, tmp_path, corpus, fitted, kill_at
):
    detector, _table, _verdicts = fitted
    # Classification faults ride along: recovery never changes bytes, and
    # the health report is part of the checkpointed state.
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "worker_classify:raise:0.3")

    def driver():
        refresher = FilterListRefresher(detector.miner, interval_days=10.0, window_rows=700)
        return ReplayDriver(detector, batch_size=128, refresher=refresher)

    full = driver().replay(corpus.bot_store)
    assert len(full.refreshes) >= 3
    assert all("stream_day" in entry for entry in full.refreshes)
    assert full.health.classify_failures > 0

    directory = tmp_path / "ck"
    driver().replay(
        corpus.bot_store,
        checkpointer=StreamCheckpointer(directory, every_batches=2),
        max_batches=kill_at,
    )
    resumed = driver().replay(
        corpus.bot_store,
        checkpointer=StreamCheckpointer(directory, every_batches=2),
        resume=True,
    )
    assert resumed.resumed_from_batch == kill_at - kill_at % 2
    assert resumed.refreshes == full.refreshes
    assert resumed.health == full.health
    assert verdicts_digest(resumed.verdicts) == verdicts_digest(full.verdicts)


def test_resume_with_failing_saves_still_converges(monkeypatch, tmp_path, corpus, fitted):
    detector, _table, _verdicts = fitted
    full = ReplayDriver(detector, batch_size=256).replay(corpus.bot_store)

    # Some snapshot writes crash mid-stream; losing a save costs recovery
    # granularity, never correctness — the next save carries its delta.
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, "checkpoint_write:truncate:0.3")
    directory = tmp_path / "ck"
    partial = ReplayDriver(detector, batch_size=256).replay(
        corpus.bot_store,
        checkpointer=StreamCheckpointer(directory, every_batches=1),
        max_batches=5,
    )
    assert partial.checkpoint_failures > 0
    assert partial.checkpoints_saved > 0

    monkeypatch.delenv(faults.FAULTS_ENV_VAR)
    resumed = ReplayDriver(detector, batch_size=256).replay(
        corpus.bot_store,
        checkpointer=StreamCheckpointer(directory, every_batches=1),
        resume=True,
    )
    assert resumed.resumed_from_batch is not None
    assert verdicts_digest(resumed.verdicts) == verdicts_digest(full.verdicts)


def test_unlisted_segments_are_ignored(monkeypatch, tmp_path, corpus, fitted):
    detector, _table, batch_verdicts = fitted
    directory = tmp_path / "ck"

    # A crash between appending a segment and publishing the snapshot:
    # the second save's segment lands, its snapshot never does.
    real_write = checkpoint_module.write_checkpoint
    calls = []

    def crash_on_second_publish(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise OSError("simulated crash before publish")
        return real_write(*args, **kwargs)

    monkeypatch.setattr(checkpoint_module, "write_checkpoint", crash_on_second_publish)
    partial = ReplayDriver(detector, batch_size=256).replay(
        corpus.bot_store,
        checkpointer=StreamCheckpointer(directory, every_batches=2),
        max_batches=5,
    )
    monkeypatch.undo()
    assert partial.checkpoints_saved == 1 and partial.checkpoint_failures == 1
    assert len(_segments(directory)) == 2  # segment 1 is on disk, unlisted

    # A torn trailing segment is ignored just the same.
    (directory / SEGMENT_FILENAME.format(2)).write_bytes(b"PK\x03\x04torn")
    resumed = ReplayDriver(detector, batch_size=256).replay(
        corpus.bot_store,
        checkpointer=StreamCheckpointer(directory, every_batches=2),
        resume=True,
    )
    assert resumed.resumed_from_batch == 2
    assert verdicts_digest(resumed.verdicts) == verdicts_digest(batch_verdicts)
    # The resumed run overwrote the stale segments with its own.
    meta, _ = read_checkpoint(directory / "stream_checkpoint")
    for entry in meta["segments"]:
        payload = (directory / entry["name"]).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == entry["sha256"]


def test_corrupt_snapshot_falls_back_to_a_fresh_replay(tmp_path, corpus, fitted):
    detector, _table, batch_verdicts = fitted
    directory = tmp_path / "ck"
    checkpointer = StreamCheckpointer(directory, every_batches=2)
    ReplayDriver(detector, batch_size=256).replay(
        corpus.bot_store, checkpointer=checkpointer, max_batches=3
    )
    # Corrupt the published snapshot the way a disk error would.
    blob = bytearray(checkpointer.path.read_bytes())
    blob[-1] ^= 0xFF
    checkpointer.path.write_bytes(bytes(blob))

    resumed = ReplayDriver(detector, batch_size=256).replay(
        corpus.bot_store,
        checkpointer=StreamCheckpointer(directory, every_batches=2),
        resume=True,
    )
    # Damage must not block recovery: warn, start fresh, same verdicts.
    assert resumed.resumed_from_batch is None
    assert verdicts_digest(resumed.verdicts) == verdicts_digest(batch_verdicts)


def test_tampered_listed_segment_replays_fresh(caplog, tmp_path, corpus, fitted):
    detector, _table, batch_verdicts = fitted
    directory = tmp_path / "ck"
    ReplayDriver(detector, batch_size=256).replay(
        corpus.bot_store,
        checkpointer=StreamCheckpointer(directory, every_batches=2),
        max_batches=5,
    )
    segment = directory / SEGMENT_FILENAME.format(0)
    blob = bytearray(segment.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    segment.write_bytes(bytes(blob))

    with caplog.at_level(logging.WARNING, logger="repro.stream"):
        resumed = ReplayDriver(detector, batch_size=256).replay(
            corpus.bot_store,
            checkpointer=StreamCheckpointer(directory, every_batches=2),
            resume=True,
        )
    assert "checksum mismatch" in caplog.text
    assert resumed.resumed_from_batch is None
    assert verdicts_digest(resumed.verdicts) == verdicts_digest(batch_verdicts)


def test_v1_pickle_checkpoint_is_never_unpickled(caplog, monkeypatch, tmp_path, corpus, fitted):
    detector, _table, batch_verdicts = fitted
    directory = tmp_path / "ck"
    directory.mkdir()
    payload = pickle.dumps({"batch_size": 256, "cursor_rows": 512})
    (directory / "stream_checkpoint").write_bytes(
        CHECKPOINT_MAGIC + (1).to_bytes(4, "big") + hashlib.sha256(payload).digest() + payload
    )

    def refuse(*_args, **_kwargs):
        raise AssertionError("a checkpoint was unpickled")

    monkeypatch.setattr(pickle, "loads", refuse)
    monkeypatch.setattr(pickle, "load", refuse)
    with caplog.at_level(logging.WARNING, logger="repro.stream"):
        resumed = ReplayDriver(detector, batch_size=256).replay(
            corpus.bot_store,
            checkpointer=StreamCheckpointer(directory, every_batches=2),
            resume=True,
        )
    assert "format version 1" in caplog.text
    assert resumed.resumed_from_batch is None
    assert verdicts_digest(resumed.verdicts) == verdicts_digest(batch_verdicts)


def test_v2_checkpoint_is_evicted_unread(caplog, monkeypatch, tmp_path, corpus, fitted):
    detector, _table, batch_verdicts = fitted
    directory = tmp_path / "ck"
    directory.mkdir()
    payload = checkpoint_module._pack_npz({"classifiers": [{}, {}], "router": {}}, {})
    (directory / "stream_checkpoint").write_bytes(
        CHECKPOINT_MAGIC + (2).to_bytes(4, "big") + hashlib.sha256(payload).digest() + payload
    )

    def refuse(*_args, **_kwargs):
        raise AssertionError("a version-2 checkpoint was decoded")

    monkeypatch.setattr(checkpoint_module, "_unpack_npz", refuse)
    with caplog.at_level(logging.WARNING, logger="repro.stream"):
        resumed = ReplayDriver(detector, batch_size=256).replay(
            corpus.bot_store,
            checkpointer=StreamCheckpointer(directory, every_batches=2),
            resume=True,
        )
    assert "format version 2" in caplog.text
    assert resumed.resumed_from_batch is None
    assert verdicts_digest(resumed.verdicts) == verdicts_digest(batch_verdicts)


def test_v3_checkpoint_is_evicted_unread(caplog, monkeypatch, tmp_path, corpus, fitted):
    """A version-3 directory (the whole window in the snapshot, written by
    the earlier dict-of-dicts seen-state encoder) is refused unread."""

    detector, _table, _verdicts = fitted
    directory = _extract_v3_fixture(tmp_path / "ck")
    blob = (directory / "stream_checkpoint").read_bytes()
    assert int.from_bytes(blob[len(CHECKPOINT_MAGIC) : len(CHECKPOINT_MAGIC) + 4], "big") == 3

    def refuse(*_args, **_kwargs):
        raise AssertionError("a version-3 checkpoint was decoded")

    monkeypatch.setattr(checkpoint_module, "_unpack_npz", refuse)
    with caplog.at_level(logging.WARNING, logger="repro.stream"):
        resumed = _refreshing_driver(detector).replay(
            corpus.bot_store,
            checkpointer=StreamCheckpointer(directory, every_batches=2),
            resume=True,
        )
    assert "format version 3" in caplog.text
    assert resumed.resumed_from_batch is None
    assert verdicts_digest(resumed.verdicts) == verdicts_digest(
        _refreshing_driver(detector).replay(corpus.bot_store).verdicts
    )


def test_mismatched_snapshot_is_a_configuration_error(tmp_path, corpus, fitted):
    detector, _table, _verdicts = fitted
    directory = tmp_path / "ck"
    ReplayDriver(detector, batch_size=256).replay(
        corpus.bot_store,
        checkpointer=StreamCheckpointer(directory, every_batches=2),
        max_batches=3,
    )
    with pytest.raises(CheckpointError, match="does not match"):
        ReplayDriver(detector, batch_size=128).replay(
            corpus.bot_store,
            checkpointer=StreamCheckpointer(directory, every_batches=2),
            resume=True,
        )
    with pytest.raises(CheckpointError, match="does not match"):
        ReplayDriver(detector, batch_size=256).replay(
            corpus.real_user_store,
            checkpointer=StreamCheckpointer(directory, every_batches=2),
            resume=True,
        )


def test_resume_requires_a_checkpointer(corpus, fitted):
    detector, _table, _verdicts = fitted
    with pytest.raises(ValueError, match="requires a checkpointer"):
        ReplayDriver(detector, batch_size=256).replay(corpus.bot_store, resume=True)


# -- restorable component state --------------------------------------------------


def test_ingestor_state_roundtrip_preserves_the_vocabulary(corpus, fitted):
    detector, _table, _verdicts = fitted
    arrivals = ArrivalStream(corpus.bot_store)

    original = StreamIngestor(attributes=detector.table_attributes())
    arrivals.ingest(original, 0, 512)
    restored = StreamIngestor(attributes=detector.table_attributes())
    restored.restore_state(original.export_state())
    assert restored.rows_ingested == original.rows_ingested

    next_original = arrivals.ingest(original, 512, 256)
    next_restored = arrivals.ingest(restored, 512, 256)
    for attribute in next_original.attributes:
        assert np.array_equal(
            next_original.codes_of(attribute), next_restored.codes_of(attribute)
        )
        assert next_original.values_of(attribute) == next_restored.values_of(attribute)
    assert np.array_equal(next_original.cookie_codes, next_restored.cookie_codes)
    assert np.array_equal(next_original.ip_codes, next_restored.ip_codes)


def test_ingestor_restore_rejects_a_different_attribute_set(fitted):
    detector, _table, _verdicts = fitted
    attributes = detector.table_attributes()
    original = StreamIngestor(attributes=attributes)
    with pytest.raises(ValueError, match="attribute"):
        StreamIngestor(attributes=attributes[:-1]).restore_state(
            original.export_state()
        )


# -- truthful throughput and the checkpoint block on the CLI ---------------------


@pytest.mark.parametrize("command", ["stream"])
def test_cli_rows_count_only_scored_rows(capsys, tmp_path, command):
    out_path = tmp_path / "out.json"
    code = main(
        [
            command,
            "--seed", "5",
            "--scale", "0.004",
            "--no-cache",
            "--batch-size", "256",
            "--max-batches", "3",
            "--checkpoint-dir", str(tmp_path / "ck"),
            "--checkpoint-every", "2",
            "--json", str(out_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    document = json.loads(out_path.read_text())
    assert document["batches"] == 3
    assert document["rows"] == 768
    checkpoints = document["checkpoints"]
    assert checkpoints["saved"] == 1
    assert 0 < checkpoints["max_save_bytes"] == checkpoints["bytes_written"]


def test_cli_reports_checkpoint_save_seconds(capsys, tmp_path):
    histogram = obs.registry().get("repro_stream_checkpoint_save_seconds")
    before = histogram.snapshot()["sum"]
    out_path = tmp_path / "out.json"
    code = main(
        [
            "stream",
            "--seed", "5",
            "--scale", "0.004",
            "--no-cache",
            "--batch-size", "128",
            "--refresh-every", "4",
            "--checkpoint-dir", str(tmp_path / "ck"),
            "--checkpoint-every", "2",
            "--json", str(out_path),
        ]
    )
    stderr = capsys.readouterr().err
    assert code == 0
    document = json.loads(out_path.read_text())
    checkpoints = document["checkpoints"]
    assert checkpoints["saved"] >= 2
    # The histogram's growth over the replay, read from the registry.
    assert checkpoints["save_seconds"] == histogram.snapshot()["sum"] - before
    assert 0 < checkpoints["save_seconds"] < document["seconds"]
    assert re.search(r"\d+\.\d{3}s saving \(\d+\.\d% of the replay\)", stderr), stderr
