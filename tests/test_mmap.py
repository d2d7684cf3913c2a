"""Tests for memory-mapped corpus loading (format v4, ``REPRO_CORPUS_MMAP``).

The mmap contract has three legs, each pinned here: a warm cache hit maps
the archive's code columns read-only instead of reading them into RAM, the
mapped corpus is byte-identical to the in-RAM load through every consumer
(record materialisation, the batch detection pipeline, the streaming
replay), and the archive file itself is never written to.
"""

from __future__ import annotations

import hashlib
import mmap

import numpy as np
import pytest
from reference.store import records

from repro.analysis.cache import (
    COMPRESS_ENV_VAR,
    MMAP_ENV_VAR,
    CorpusCache,
    load_corpus,
    save_corpus,
)
from repro.analysis.engine import CorpusEngine, build_or_load_corpus
from repro.analysis.npzmap import load_npz_mapped
from repro.core.detector import FPInconsistent
from repro.honeysite.storage import RequestStore
from repro.stream import ReplayDriver, verdicts_digest

TINY = dict(
    seed=29,
    scale=0.004,
    include_real_users=True,
    include_privacy=True,
    real_user_requests=120,
    privacy_requests_each=12,
)


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """(directory, built corpus, archive sha) — one v4 save shared below."""

    directory = tmp_path_factory.mktemp("mmap") / "entry"
    corpus = CorpusEngine(**TINY).build(workers=1)
    save_corpus(corpus, directory)
    digest = hashlib.sha256((directory / "store_columnar.npz").read_bytes()).hexdigest()
    return directory, corpus, digest


def _archive_sha(directory) -> str:
    return hashlib.sha256((directory / "store_columnar.npz").read_bytes()).hexdigest()


def record_dicts(store):
    return [record.to_dict() for record in records(store)]


def batch_digest(corpus) -> str:
    """Digest of the batch pipeline's verdicts over the bot subset."""

    detector = FPInconsistent()
    table = detector.extract_table(corpus.bot_store)
    detector.fit_table(table)
    return verdicts_digest(detector.classify_table(table)), detector


def test_mapped_load_is_read_only_and_byte_identical(archive, monkeypatch):
    directory, corpus, saved_sha = archive
    monkeypatch.setenv(MMAP_ENV_VAR, "1")
    mapped = load_corpus(directory)
    assert isinstance(mapped.store, RequestStore)
    columns = mapped.store.columns
    # the per-row and code columns are views over the on-disk archive
    assert not columns.timestamps.flags.writeable
    assert not columns.sessions.fp_value_codes.flags.writeable
    monkeypatch.setenv(MMAP_ENV_VAR, "0")
    in_ram = load_corpus(directory)
    assert in_ram.store.columns.timestamps.flags.writeable
    assert record_dicts(mapped.store) == record_dicts(in_ram.store)
    assert record_dicts(mapped.store) == record_dicts(corpus.store)
    assert _archive_sha(directory) == saved_sha, "archive file was written to"


def test_pipeline_on_mmap_cache_hit_matches_in_ram(archive, monkeypatch, tmp_path):
    """The full detection pipeline over an mmap warm hit is byte-identical
    to the in-RAM load (and the archive stays untouched)."""

    directory, corpus, saved_sha = archive
    monkeypatch.setenv(MMAP_ENV_VAR, "1")
    mapped = load_corpus(directory)
    mapped_digest, _ = batch_digest(mapped)
    monkeypatch.setenv(MMAP_ENV_VAR, "0")
    in_ram_digest, _ = batch_digest(load_corpus(directory))
    fresh_digest, _ = batch_digest(corpus)
    assert mapped_digest == in_ram_digest == fresh_digest
    assert _archive_sha(directory) == saved_sha


def test_stream_replay_on_mmap_matches_batch(archive, monkeypatch):
    """``repro stream --verify-batch`` semantics over a mapped corpus: the
    frozen-list replay reproduces the batch verdicts bit for bit."""

    directory, _corpus, saved_sha = archive
    monkeypatch.setenv(MMAP_ENV_VAR, "1")
    mapped = load_corpus(directory)
    oracle, detector = batch_digest(mapped)
    store = mapped.bot_store
    replay = ReplayDriver(detector, batch_size=256).replay(store)
    assert verdicts_digest(replay.verdicts) == oracle
    assert _archive_sha(directory) == saved_sha


def test_cache_hit_serves_mapped_columns(tmp_path, monkeypatch):
    """`build_or_load_corpus` end-to-end: miss builds and stores, the warm
    hit comes back memory-mapped and decodes identically."""

    monkeypatch.setenv(MMAP_ENV_VAR, "1")
    cache = CorpusCache(tmp_path / "cache")
    built, status = build_or_load_corpus(**TINY, workers=1, cache=cache)
    assert status == "miss"
    hit, status = build_or_load_corpus(**TINY, workers=1, cache=cache)
    assert status == "hit"
    assert not hit.store.columns.timestamps.flags.writeable
    assert record_dicts(hit.store) == record_dicts(built.store)


def test_compressed_archive_falls_back_to_in_ram(tmp_path, monkeypatch):
    """``REPRO_CORPUS_COMPRESS=1`` trades mappability for disk space: the
    loader detects the deflated members and loads into RAM, with identical
    content."""

    corpus = CorpusEngine(**TINY).build(workers=1)
    monkeypatch.setenv(COMPRESS_ENV_VAR, "1")
    compressed_dir = tmp_path / "compressed"
    save_corpus(corpus, compressed_dir)
    monkeypatch.setenv(COMPRESS_ENV_VAR, "0")
    plain_dir = tmp_path / "plain"
    save_corpus(corpus, plain_dir)
    size_compressed = (compressed_dir / "store_columnar.npz").stat().st_size
    size_plain = (plain_dir / "store_columnar.npz").stat().st_size
    assert size_compressed < size_plain
    monkeypatch.setenv(MMAP_ENV_VAR, "1")
    fallback = load_corpus(compressed_dir)
    assert fallback.store.columns.timestamps.flags.writeable  # in-RAM copy
    assert record_dicts(fallback.store) == record_dicts(corpus.store)


def test_mapped_arrays_survive_process_pickling(archive, monkeypatch):
    """Sharded pipeline fan-out pickles mmap-backed columns to worker
    processes; the pickle must carry the data (as plain arrays), not a
    dangling map."""

    import pickle

    directory, corpus, _sha = archive
    monkeypatch.setenv(MMAP_ENV_VAR, "1")
    mapped = load_corpus(directory)
    columns = mapped.store.columns
    clone = pickle.loads(pickle.dumps(columns, pickle.HIGHEST_PROTOCOL))
    assert np.array_equal(clone.timestamps, columns.timestamps)
    assert record_dicts(RequestStore(clone)) == record_dicts(corpus.store)


def _buffer_owner(array):
    """The object that owns *array*'s memory, past views and memoryviews."""

    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


def test_mapped_load_shares_one_mapping_and_reads_meta_into_the_heap(archive, monkeypatch):
    """One ``mmap`` per load: every mapped member is a read-only view into
    the same mapping, while the ``meta`` JSON is a ``uint8`` vector copied
    into the heap (read once, so its pages never stay mapped)."""

    directory, _corpus, saved_sha = archive
    arrays = load_npz_mapped(directory / "store_columnar.npz")
    meta = arrays.pop("meta")
    assert meta.dtype == np.uint8 and meta.ndim == 1
    assert not isinstance(_buffer_owner(meta), mmap.mmap)
    assert all(not array.flags.writeable for array in arrays.values())
    owners = {id(_buffer_owner(array)) for array in arrays.values() if array.ndim and array.size}
    assert len(owners) == 1
    assert isinstance(_buffer_owner(arrays["timestamps"]), mmap.mmap)

    monkeypatch.setenv(MMAP_ENV_VAR, "1")
    columns = load_corpus(directory).store.columns
    served = [columns.timestamps, columns.session_codes, columns.sessions.fp_value_codes]
    assert all(not column.flags.writeable for column in served)
    assert len({id(_buffer_owner(column)) for column in served}) == 1
    assert _archive_sha(directory) == saved_sha
