"""Reference reader of the corpus archive: ``np.load`` into RAM.

``repro`` reads a cached ``store_columnar.npz`` one way, memory-mapped by
:func:`repro.analysis.npzmap.load_npz_mapped`, which parses the ZIP
layout itself.  ``np.load`` is an independent reader of the same bytes:
NumPy's own ZIP and ``.npy`` decoding into writeable heap arrays.  Tests
pin the mapped load against it.
"""

from __future__ import annotations

from typing import Dict
from unittest import mock

import numpy as np

from repro.analysis import cache
from repro.analysis.corpus import Corpus


def read_archive(path) -> Dict[str, np.ndarray]:
    """Every member of the ``.npz`` at *path*, read into RAM by ``np.load``."""

    with np.load(path, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def load_corpus_in_ram(directory) -> Corpus:
    """:func:`repro.analysis.cache.load_corpus` with the archive read by
    :func:`read_archive` instead of mapped."""

    with mock.patch.object(cache, "load_npz_mapped", read_archive):
        return cache.load_corpus(directory)
