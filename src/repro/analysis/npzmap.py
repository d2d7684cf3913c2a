"""Memory-mapped loading of uncompressed ``.npz`` archives.

``np.load(path, mmap_mode="r")`` silently ignores the mmap request for
``.npz`` files — every member array is read into RAM — which defeats the
point of persisting a corpus larger than memory.  An ``.npz`` written by
:func:`numpy.savez` is just a ZIP archive of *stored* (uncompressed)
``.npy`` members, so each member's array data occupies one contiguous
byte range of the archive file.  :func:`load_npz_mapped` maps the file
once and hands out a read-only :func:`numpy.frombuffer` view at each
member's range, so the archive's code columns stream from disk on demand
and the OS page cache — not the Python heap — decides what stays resident.

Compressed members (``np.savez_compressed``, or archives re-written by a
tool that deflates) cannot be mapped and raise ``ValueError``, like a
member whose data overruns its entry; a broken ZIP raises
``zipfile.BadZipFile``.  The cache reads either as a corrupt entry, which
it evicts and rebuilds rather than serving.
"""

from __future__ import annotations

import math
import mmap
import zipfile
from typing import Dict

import numpy as np
from numpy.lib import format as npy_format

#: Fixed size of a ZIP local file header (before the variable-length
#: file name and extra field), per APPNOTE.TXT section 4.3.7.
_LOCAL_HEADER_SIZE = 30
_LOCAL_HEADER_SIGNATURE = b"PK\x03\x04"


#: Members read into the heap instead of mapped: the JSON ``meta`` header
#: is read once at load, and mapped pages stay resident while any column
#: of the same mapping is alive.
HEAP_MEMBERS = frozenset({"meta"})


def _member_data_offset(handle, info: zipfile.ZipInfo) -> int:
    """File offset of *info*'s raw data, past its local header.

    The central directory's ``header_offset`` points at the member's
    *local* header, whose name/extra fields may differ in length from the
    central copies — so the local lengths must be read from the file.
    """

    handle.seek(info.header_offset)
    header = handle.read(_LOCAL_HEADER_SIZE)
    if len(header) != _LOCAL_HEADER_SIZE or header[:4] != _LOCAL_HEADER_SIGNATURE:
        raise zipfile.BadZipFile(f"bad local file header for {info.filename!r}")
    name_length = int.from_bytes(header[26:28], "little")
    extra_length = int.from_bytes(header[28:30], "little")
    return info.header_offset + _LOCAL_HEADER_SIZE + name_length + extra_length


def load_npz_mapped(path) -> Dict[str, np.ndarray]:
    """Load every array of an uncompressed ``.npz`` as a read-only view.

    Returns ``{name: array}`` with the ``.npy`` suffixes stripped, like
    indexing an :class:`numpy.lib.npyio.NpzFile`.  The file is opened and
    mapped once; every member is a view into that one mapping, except
    :data:`HEAP_MEMBERS` and zero-dimensional members, which are read into
    memory, and empty members, which are allocated.  Raises ``ValueError``
    when any member is compressed or a member's data overruns its ZIP
    entry, and never accepts pickled (object-dtype) members.
    """

    arrays: Dict[str, np.ndarray] = {}
    with open(path, "rb") as handle, zipfile.ZipFile(handle) as archive:
        members = [info for info in archive.infolist() if info.filename.endswith(".npy")]
        for info in members:
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(
                    f"npz member {info.filename!r} in {path} is compressed; "
                    "memory-mapping needs an uncompressed archive"
                )
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        for info in members:
            name = info.filename
            start = _member_data_offset(handle, info)
            handle.seek(start)
            version = npy_format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = npy_format.read_array_header_1_0(handle)
            elif version == (2, 0):
                shape, fortran, dtype = npy_format.read_array_header_2_0(handle)
            else:
                raise ValueError(f"unsupported .npy version {version} in {name!r}")
            if dtype.hasobject:
                raise ValueError(f"npz member {name!r} requires pickled objects")
            offset = handle.tell()
            count = math.prod(shape)
            if offset + count * dtype.itemsize > start + info.file_size:
                raise ValueError(f"npz member {name!r} overruns its archive entry")
            key = name[: -len(".npy")]
            order = "F" if fortran else "C"
            if count == 0:
                arrays[key] = np.empty(shape, dtype=dtype, order=order)
                continue
            buffer = mapping
            if key in HEAP_MEMBERS or shape == ():
                handle.seek(offset)
                buffer, offset = handle.read(count * dtype.itemsize), 0
            view = np.frombuffer(buffer, dtype=dtype, count=count, offset=offset)
            arrays[key] = view.reshape(shape, order=order)
    return arrays
