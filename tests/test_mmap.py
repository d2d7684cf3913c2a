"""Tests for memory-mapped corpus loading (format v4), the one load path.

The mmap contract has four legs, each pinned here: a warm cache hit maps
the archive's code columns read-only instead of reading them into RAM, the
mapped corpus is byte-identical to the reference ``np.load`` reader
(``tests/reference/archive.py``) through every consumer (record
materialisation, the batch detection pipeline, the streaming replay), the
archive file itself is never written to, and an entry holding a deflated
member is evicted and rebuilt, never served.
"""

from __future__ import annotations

import hashlib
import mmap
import zipfile

import numpy as np
import pytest
from reference.archive import load_corpus_in_ram, read_archive
from reference.store import records

from repro.analysis.cache import CorpusCache, load_corpus, save_corpus
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


def test_mapped_load_is_read_only_and_byte_identical(archive):
    directory, corpus, saved_sha = archive
    mapped = load_corpus(directory)
    assert isinstance(mapped.store, RequestStore)
    columns = mapped.store.columns
    # the per-row and code columns are views over the on-disk archive
    assert not columns.timestamps.flags.writeable
    assert not columns.sessions.fp_value_codes.flags.writeable
    in_ram = load_corpus_in_ram(directory)
    assert in_ram.store.columns.timestamps.flags.writeable
    assert record_dicts(mapped.store) == record_dicts(in_ram.store)
    assert record_dicts(mapped.store) == record_dicts(corpus.store)
    assert _archive_sha(directory) == saved_sha, "archive file was written to"


def test_pipeline_on_mmap_cache_hit_matches_in_ram(archive):
    """The full detection pipeline over an mmap warm hit is byte-identical
    to the reference in-RAM read (and the archive stays untouched)."""

    directory, corpus, saved_sha = archive
    mapped = load_corpus(directory)
    mapped_digest, _ = batch_digest(mapped)
    in_ram_digest, _ = batch_digest(load_corpus_in_ram(directory))
    fresh_digest, _ = batch_digest(corpus)
    assert mapped_digest == in_ram_digest == fresh_digest
    assert _archive_sha(directory) == saved_sha


def test_stream_replay_on_mmap_matches_batch(archive):
    """``repro stream --verify-batch`` semantics over a mapped corpus: the
    frozen-list replay reproduces the batch verdicts bit for bit."""

    directory, _corpus, saved_sha = archive
    mapped = load_corpus(directory)
    oracle, detector = batch_digest(mapped)
    store = mapped.bot_store
    replay = ReplayDriver(detector, batch_size=256).replay(store)
    assert verdicts_digest(replay.verdicts) == oracle
    assert _archive_sha(directory) == saved_sha


def test_cache_hit_serves_mapped_columns(tmp_path):
    """`build_or_load_corpus` end-to-end: miss builds and stores, the warm
    hit comes back memory-mapped and decodes identically."""

    cache = CorpusCache(tmp_path / "cache")
    built, status = build_or_load_corpus(**TINY, workers=1, cache=cache)
    assert status == "miss"
    hit, status = build_or_load_corpus(**TINY, workers=1, cache=cache)
    assert status == "hit"
    assert not hit.store.columns.timestamps.flags.writeable
    assert record_dicts(hit.store) == record_dicts(built.store)


def test_deflated_archive_is_evicted_and_rebuilt(tmp_path):
    """An entry whose archive holds deflated members (``np.savez_compressed``,
    which the cache never writes) cannot be mapped: the lookup reads it as
    a miss, evicts it and rebuilds the stored archive, and the next lookup
    is a mapped hit.  The deflated corpus is never served."""

    cache = CorpusCache(tmp_path / "cache")
    built, status = build_or_load_corpus(**TINY, workers=1, cache=cache)
    assert status == "miss"
    (entry,) = [path for path in cache.root.iterdir() if not path.name.startswith(".")]
    path = entry / "store_columnar.npz"
    stored_sha = _archive_sha(entry)
    arrays = read_archive(path)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    with zipfile.ZipFile(path) as archive:
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_DEFLATED}
    with pytest.raises(ValueError, match="compressed"):
        load_npz_mapped(path)

    rebuilt, status = build_or_load_corpus(**TINY, workers=1, cache=cache)
    assert status == "miss"
    assert _archive_sha(entry) == stored_sha
    hit, status = build_or_load_corpus(**TINY, workers=1, cache=cache)
    assert status == "hit"
    assert not hit.store.columns.timestamps.flags.writeable
    assert record_dicts(hit.store) == record_dicts(rebuilt.store) == record_dicts(built.store)


def test_mapped_arrays_survive_process_pickling(archive):
    """Sharded pipeline fan-out pickles mmap-backed columns to worker
    processes; the pickle must carry the data (as plain arrays), not a
    dangling map."""

    import pickle

    directory, corpus, _sha = archive
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


def test_mapped_load_shares_one_mapping_and_reads_meta_into_the_heap(archive):
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
    reference = read_archive(directory / "store_columnar.npz")
    assert sorted(reference) == sorted([*arrays, "meta"])
    assert np.array_equal(reference.pop("meta"), meta)
    assert all(
        array.dtype == reference[name].dtype and np.array_equal(array, reference[name])
        for name, array in arrays.items()
    )

    columns = load_corpus(directory).store.columns
    served = [columns.timestamps, columns.session_codes, columns.sessions.fp_value_codes]
    assert all(not column.flags.writeable for column in served)
    assert len({id(_buffer_owner(column)) for column in served}) == 1
    assert _archive_sha(directory) == saved_sha
