"""Versioned honey-site URLs.

The honey site deploys multiple versions of the same page under one domain,
differing only by an arbitrary string in the URL (Figure 1).  Each traffic
source (bot service, real-user share, privacy-browser experiment) receives
its own string, which is what gives the study its ground truth: a request
is attributed to the source whose string its URL carries, and requests
without a known string are dropped.
"""

from __future__ import annotations

import string
from typing import Dict, Optional

import numpy as np

_TOKEN_ALPHABET = string.ascii_letters + string.digits
_TOKEN_LENGTH = 10


def generate_url_token(rng: np.random.Generator, length: int = _TOKEN_LENGTH) -> str:
    """Generate one arbitrary URL string such as ``"Byxxodkxn3"``."""

    if length < 4:
        raise ValueError("URL tokens shorter than 4 characters risk collisions")
    indices = rng.integers(0, len(_TOKEN_ALPHABET), size=length)
    return "".join(_TOKEN_ALPHABET[int(index)] for index in indices)


class UrlRegistry:
    """Mapping between traffic sources and their versioned URL paths."""

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self._rng = rng  # None: ``default_rng(0)``, built on the first draw
        self._path_by_source: Dict[str, str] = {}
        self._source_by_path: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._path_by_source)

    def register(self, source: str) -> str:
        """Register *source* and return its unique URL path.

        Registering the same source twice returns the same path.
        """

        if source in self._path_by_source:
            return self._path_by_source[source]
        if self._rng is None:
            self._rng = np.random.default_rng(0)
        while True:
            path = "/" + generate_url_token(self._rng)
            if path not in self._source_by_path:
                break
        self._path_by_source[source] = path
        self._source_by_path[path] = source
        return path

    def adopt(self, source: str, path: str) -> str:
        """Register *source* under a pre-generated *path*.

        The sharded corpus engine mints every source's URL token up front in
        the coordinating process, then hands each shard its ``(source,
        path)`` pair so that shard-local records and the merged registry
        agree.  Adopting an existing identical mapping is a no-op; trying to
        remap either side raises ``ValueError``.
        """

        if not path.startswith("/"):
            raise ValueError(f"URL path must start with '/', got {path!r}")
        existing_path = self._path_by_source.get(source)
        if existing_path is not None:
            if existing_path != path:
                raise ValueError(f"source {source!r} already registered at {existing_path!r}")
            return existing_path
        existing_source = self._source_by_path.get(path)
        if existing_source is not None and existing_source != source:
            raise ValueError(f"path {path!r} already owned by {existing_source!r}")
        self._path_by_source[source] = path
        self._source_by_path[path] = source
        return path

    def path_of(self, source: str) -> Optional[str]:
        """The URL path registered for *source*, or ``None``."""

        return self._path_by_source.get(source)

    def source_of(self, path: str) -> Optional[str]:
        """The traffic source owning *path*, or ``None`` for unknown paths."""

        return self._source_by_path.get(path)

    def sources(self):
        """Iterate over registered source names."""

        return iter(self._path_by_source)
