"""Content-addressed on-disk corpus cache.

Benchmarks and CI used to regenerate the whole corpus from scratch every
session.  This module persists a built :class:`~repro.analysis.corpus.Corpus`
under a key derived from everything that determines its content — master
seed, scale, inclusion flags, request budgets, campaign length and the
on-disk format version — so an unchanged configuration is a cache hit and
any change (different seed, different scale, bumped format) is a rebuild.

Layout, one directory per key under the cache root: the corpus persists
as **one** columnar archive — record columns and every pre-extracted
fingerprint table in a single file::

    <root>/<key>/meta.json              corpus metadata + URL map + geo assignments
    <root>/<key>/store_columnar.npz     record columns + embedded fingerprint tables

Loading the archive attaches a
:class:`~repro.honeysite.storage.RequestStore`.  Since format v4 the
archive is pure code arrays over scalar decode lists (no serialised
objects), always written uncompressed, and a warm hit always memory-maps
the columns read-only instead of reading them into RAM — and skips
columnar extraction entirely (the embedded tables are exactly what
extraction would produce).  An archive of any other format version, or
one holding a deflated member, is rejected, so the cache evicts and
rebuilds it.

Writes go through a temporary directory renamed into place, so a crashed
build never leaves a half-written entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro import faults
from repro.analysis.corpus import Corpus
from repro.analysis.npzmap import load_npz_mapped
from repro.bots.marketplace import build_marketplace
from repro.core.columnar import ColumnarTable
from repro.geo.geolite import GeoDatabase
from repro.geo.ipaddr import GeoRegion, IpAddressSpace, PrefixAssignment
from repro.honeysite.site import HoneySite
from repro.honeysite.storage import (
    CORPUS_FORMAT_VERSION,
    RecordColumns,
    RequestStore,
    StoreFormatError,
)
from repro.users.privacy import PrivacyTechnology

#: Environment variable pointing at the cache root directory.  Unset means
#: caching is disabled.
CACHE_ENV_VAR = "REPRO_CORPUS_CACHE"


def default_cache_dir() -> Optional[Path]:
    """Cache root requested through ``REPRO_CORPUS_CACHE`` (``None`` if unset)."""

    raw = os.environ.get(CACHE_ENV_VAR)
    if not raw:
        return None
    return Path(raw).expanduser()


def corpus_cache_key(
    *,
    seed: int,
    scale: float,
    include_real_users: bool,
    include_privacy: bool,
    real_user_requests: int,
    privacy_requests_each: int,
    campaign_days: int,
    format_version: int = CORPUS_FORMAT_VERSION,
) -> str:
    """Content-address for one corpus configuration.

    The worker count is deliberately absent: the sharded
    engine produces identical corpora for any parallelism, so they must
    share one cache entry.
    """

    payload = json.dumps(
        {
            "format_version": int(format_version),
            "seed": int(seed),
            "scale": float(scale),
            "include_real_users": bool(include_real_users),
            "include_privacy": bool(include_privacy),
            "real_user_requests": int(real_user_requests),
            "privacy_requests_each": int(privacy_requests_each),
            "campaign_days": int(campaign_days),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


#: Filename of the unified columnar archive (record columns + tables).
COLUMNAR_STORE_FILENAME = "store_columnar.npz"


def _columnar_store_path(directory: Path) -> Path:
    return directory / COLUMNAR_STORE_FILENAME


def _archive_payload(
    store: RequestStore, tables: Dict[str, ColumnarTable]
) -> Tuple[Dict[str, np.ndarray], Dict]:
    """The archive's ``(arrays, meta)``: record columns plus every table."""

    arrays, store_meta = store.columns.to_payload()
    tables_meta = []
    for position, (subset, table) in enumerate(sorted(tables.items())):
        prefix = f"t{position}_"
        table_arrays, table_meta = table.to_arrays(prefix)
        arrays.update(table_arrays)
        tables_meta.append({"subset": subset, "prefix": prefix, "meta": table_meta})
    meta = {"version": CORPUS_FORMAT_VERSION, "store": store_meta, "tables": tables_meta}
    return arrays, meta


def corpus_digest(corpus: Corpus) -> str:
    """SHA-256 over exactly what the corpus archive stores.

    Hashes the canonical JSON meta, then every array by name, dtype, shape
    and bytes, so two corpora share a digest iff their archives would hold
    the same content.  Reads only the columns, and a cache hit digests
    like the build it came from.
    """

    arrays, meta = _archive_payload(corpus.store, corpus.columnar_tables)
    digest = hashlib.sha256(
        json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def _save_columnar_store(store: RequestStore, tables: Dict[str, ColumnarTable], path: Path) -> None:
    """Persist record columns and every fingerprint table as one archive.

    Saved uncompressed: a stored (non-deflated) ``.npz`` keeps every
    array in one contiguous byte range of the file, which is what lets
    :func:`repro.analysis.npzmap.load_npz_mapped` map the columns on a
    warm hit.  The ``meta`` member is the JSON text as a 1-D
    ``uint8`` UTF-8 vector: a quarter of the size of a 0-d unicode scalar
    (UTF-32), and decoded with one ``bytes.decode``.

    The write is crash-safe: bytes land in a same-directory temporary
    file, are fsynced, and only then replace *path* atomically — a process
    killed mid-write leaves either the previous archive or no archive,
    never a truncated one.  The ``cache_write`` fault point fires between
    fsync and rename so the tamper test can model exactly that crash.
    """

    arrays, meta = _archive_payload(store, tables)
    text = json.dumps(meta).encode("utf-8")
    arrays = {"meta": np.frombuffer(text, dtype=np.uint8), **arrays}
    fd, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        faults.check("cache_write", path.name, path=tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_corpus(corpus: Corpus, directory) -> Path:
    """Write *corpus* (columnar archive + metadata) into *directory*."""

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _save_columnar_store(corpus.store, corpus.columnar_tables, _columnar_store_path(directory))
    meta = {
        "format_version": CORPUS_FORMAT_VERSION,
        "seed": corpus.seed,
        "scale": corpus.scale,
        "service_volumes": dict(corpus.service_volumes),
        "real_user_requests": corpus.real_user_requests,
        "privacy_requests": {
            technology.value: count for technology, count in corpus.privacy_requests.items()
        },
        "sources": {
            source: corpus.site.urls.path_of(source) for source in corpus.site.urls.sources()
        },
        "assignments": [
            {
                "first_octet": assignment.first_octet,
                "second_octet": assignment.second_octet,
                "asn": assignment.asn,
                "country": assignment.region.country,
                "region": assignment.region.region,
                "timezone": assignment.region.timezone,
            }
            for assignment in corpus.site.geo.space.assignments
        ],
    }
    (directory / "meta.json").write_text(
        json.dumps(meta, sort_keys=True, separators=(",", ":")), encoding="utf-8"
    )
    return directory


def _decode_columnar(data, path: Path):
    """Decode a loaded archive mapping into ``(store, tables)``."""

    encoded = data["meta"]
    if encoded.dtype != np.uint8 or encoded.ndim != 1:
        raise StoreFormatError(
            f"columnar store {path} has a meta member of dtype {encoded.dtype}, not uint8"
        )
    meta = json.loads(encoded.tobytes().decode("utf-8"))
    version = int(meta.get("version", 0))
    if version != CORPUS_FORMAT_VERSION:
        raise StoreFormatError(
            f"columnar store {path} has format version {version}; "
            f"this build reads only {CORPUS_FORMAT_VERSION}"
        )
    columns = RecordColumns.from_payload(data, meta["store"])
    tables: Dict[str, ColumnarTable] = {}
    for entry in meta.get("tables", ()):
        tables[str(entry["subset"])] = ColumnarTable.from_arrays(
            data,
            entry["meta"],
            prefix=str(entry["prefix"]),
            label=f"columnar store {path}",
        )
    return RequestStore(columns), tables


def _load_columnar_store(path: Path):
    """Load a :func:`_save_columnar_store` archive.

    Returns ``(RequestStore, {subset: ColumnarTable})``.  The archive is
    mapped once and its member arrays are read-only views into that
    mapping (the ``meta`` member alone is read into the heap) —
    ``from_payload``/``from_arrays`` adopt them zero-copy, so code columns
    stream from disk as they are touched and a corpus larger than RAM
    replays shard-by-shard.

    Any failure — truncated file, a deflated member, ragged or
    out-of-range columns, a newer format, a ``meta`` member in the
    pre-``uint8`` encoding — maps to :class:`StoreFormatError`, so the
    cache treats the entry as a miss and rebuilds instead of serving a
    silently wrong corpus.
    """

    try:
        return _decode_columnar(load_npz_mapped(path), path)
    except StoreFormatError:
        raise
    except Exception as exc:
        raise StoreFormatError(f"columnar store {path} is unreadable: {exc}") from exc


def _subset_store(corpus: Corpus, subset: str) -> Optional[RequestStore]:
    """The store subset a persisted table claims to describe."""

    if subset == "bots":
        return corpus.bot_store
    if subset == "real_users":
        return corpus.real_user_store
    if subset.startswith("privacy:"):
        try:
            return corpus.privacy_store(PrivacyTechnology(subset.split(":", 1)[1]))
        except ValueError:
            return None
    return None


def _attach_tables(corpus: Corpus, tables: Dict[str, ColumnarTable]) -> None:
    """Attach archive-embedded tables, verifying each against its subset.

    Store and tables come from one archive, so a mismatch (row count or
    request ids) means the archive is internally corrupt — raise, so the
    cache evicts and rebuilds.  Unknown subset labels are skipped: they
    cannot harm, and the version gate already rejects newer formats.
    """

    for subset, table in tables.items():
        store = _subset_store(corpus, subset)
        if store is None:
            continue
        if not table.matches_store(store):
            raise StoreFormatError(
                f"embedded columnar table {subset!r} does not match its store subset"
            )
        corpus.columnar_tables[subset] = table


def load_corpus(directory) -> Corpus:
    """Reconstruct a corpus saved by :func:`save_corpus`.

    Rebuilds the honey site around the persisted store: the URL registry
    carries the original source → path map and the geo database re-adopts
    every /16 assignment, so downstream analyses (IP intelligence, Table 6
    locations, DataDome re-evaluation) behave exactly as on the freshly
    built corpus.  The archive restores the store with its embedded
    tables.  Any format version other than :data:`CORPUS_FORMAT_VERSION`
    raises :class:`StoreFormatError` — older layouts are not read.
    """

    directory = Path(directory)
    with (directory / "meta.json").open("r", encoding="utf-8") as handle:
        meta = json.load(handle)
    version = int(meta.get("format_version", 0))
    if version != CORPUS_FORMAT_VERSION:
        raise StoreFormatError(
            f"corpus archive {directory} has format version {version}; "
            f"this build reads only {CORPUS_FORMAT_VERSION}"
        )

    space = IpAddressSpace()
    for entry in meta.get("assignments", ()):
        space.adopt(
            PrefixAssignment(
                first_octet=int(entry["first_octet"]),
                second_octet=int(entry["second_octet"]),
                asn=int(entry["asn"]),
                region=GeoRegion(
                    country=str(entry["country"]),
                    region=str(entry["region"]),
                    timezone=str(entry["timezone"]),
                ),
            )
        )
    site = HoneySite(geo=GeoDatabase(space))
    for source, path in meta.get("sources", {}).items():
        site.urls.adopt(source, path)
    site.store, tables = _load_columnar_store(_columnar_store_path(directory))

    corpus = Corpus(
        site=site,
        scale=float(meta["scale"]),
        seed=int(meta["seed"]),
        bot_profiles=build_marketplace(),
        service_volumes={
            str(name): int(count) for name, count in meta.get("service_volumes", {}).items()
        },
        real_user_requests=int(meta.get("real_user_requests", 0)),
        privacy_requests={
            PrivacyTechnology(name): int(count)
            for name, count in meta.get("privacy_requests", {}).items()
        },
    )
    _attach_tables(corpus, tables)
    return corpus


class CorpusCache:
    """Directory of content-addressed corpus archives."""

    def __init__(self, root):
        self.root = Path(root).expanduser()

    def path_for(self, key: str) -> Path:
        return self.root / key

    def has(self, key: str) -> bool:
        return (self.path_for(key) / "meta.json").is_file()

    def archive_bytes(self, key: str) -> int:
        """Size of the columnar archive stored under *key* (0 when absent)."""

        try:
            return _columnar_store_path(self.path_for(key)).stat().st_size
        except OSError:
            return 0

    def load(self, key: str) -> Optional[Corpus]:
        """Load the corpus stored under *key*, or ``None`` on miss.

        A corrupt entry, or one written in any other format version, counts
        as a miss and is evicted so the caller rebuilds it.
        """

        if not self.has(key):
            return None
        try:
            return load_corpus(self.path_for(key))
        except (KeyError, ValueError, OSError):
            shutil.rmtree(self.path_for(key))
            return None

    def store(self, key: str, corpus: Corpus) -> Path:
        """Persist *corpus* under *key* (atomically) and return its path."""

        self.root.mkdir(parents=True, exist_ok=True)
        final = self.path_for(key)
        staging = Path(tempfile.mkdtemp(prefix=f".{key}.", dir=self.root))
        try:
            save_corpus(corpus, staging)
            if final.exists():
                shutil.rmtree(final)
            staging.rename(final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return final
