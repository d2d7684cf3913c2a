"""Columnar fingerprint table: the detection stack's vectorized substrate.

Detection over Python objects walks them once per (attribute pair,
request): a miner re-extracts every grouping value for every pair it
examines and a filter list re-reads attributes per rule.  This module
extracts the record columns of each
:class:`~repro.honeysite.storage.RequestStore` exactly once
(:class:`TableEncoder`) into per-attribute **code columns** (a factorize
representation: an ``int32`` array of value codes per attribute, ``-1``
for missing, plus the code → value decode list), after which

* the miner counts each attribute pair's co-occurrences with one
  ``numpy.bincount`` over a dense code grid, read in both orientations
  (:meth:`SpatialInconsistencyMiner.mine_table`),
* the filter list, compiled once (:meth:`FilterList.matcher`), classifies
  the whole table with one vectorized key lookup, and
* a row subset (the generalisation split) is a slice of these arrays,
  never a re-extraction.

Equivalence with the object-at-a-time reference in
``tests/reference/detection.py`` is exact, not approximate: codes are
assigned in first-occurrence order so ties broken by dict insertion order
in the reference break identically here (``tests/test_columnar.py`` pins
this).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.fingerprint.attributes import Attribute
from repro.fingerprint.categories import CATEGORY_ATTRIBUTES
from repro.fingerprint.fingerprint import Fingerprint, grouping_value


def default_table_attributes() -> Tuple[Attribute, ...]:
    """Attributes extracted by default: every Table 7 category member plus
    the temporally tracked attributes, deduplicated in category order."""

    from repro.core.temporal import DEFAULT_COOKIE_ATTRIBUTES, DEFAULT_IP_ATTRIBUTES

    ordered: Dict[Attribute, None] = {}
    for members in CATEGORY_ATTRIBUTES.values():
        for attribute in members:
            ordered.setdefault(attribute, None)
    for attribute in DEFAULT_COOKIE_ATTRIBUTES + DEFAULT_IP_ATTRIBUTES:
        ordered.setdefault(attribute, None)
    return tuple(ordered)


def _extract_column(
    fingerprints: Sequence[Fingerprint], attribute: Attribute
) -> Tuple[np.ndarray, List[object]]:
    """Factorized grouping-value column of one attribute.

    Raw attribute values repeat massively across a corpus, so the grouping
    transformation (resolution formatting, tuple joining) runs once per
    *distinct raw value*, not once per request: rows are first keyed by the
    raw value, and only a cache miss formats.  Because a raw value's first
    occurrence can never follow its grouping value's first occurrence,
    codes still come out in grouping-value first-occurrence order — the
    order the per-fingerprint extraction would produce.
    """

    codes = np.empty(len(fingerprints), dtype=np.int32)
    values: List[object] = []
    index: Dict[object, int] = {}
    raw_codes: Dict[object, int] = {}
    for position, fingerprint in enumerate(fingerprints):
        # Direct slot access: one dict.get per (row, attribute) is the
        # extraction floor, and the bound-method indirection of
        # ``Fingerprint.get`` measurably widens it at corpus scale.
        raw = fingerprint._values.get(attribute)
        if raw is None:
            codes[position] = -1
            continue
        code = raw_codes.get(raw)
        if code is None:
            grouped = grouping_value(attribute, raw)
            code = index.get(grouped)
            if code is None:
                code = len(values)
                index[grouped] = code
                values.append(grouped)
            raw_codes[raw] = code
        codes[position] = code
    return codes, values


class ColumnarTable:
    """Per-attribute grouping-value columns of one request store.

    Every attribute column is a pair of (``int32`` code array, decode list);
    request metadata needed by classification (ids, timestamps, cookies,
    source addresses) rides along as parallel arrays so the temporal
    detector can stream a table without touching the originating store.
    """

    def __init__(
        self,
        *,
        codes: Dict[Attribute, np.ndarray],
        values: Dict[Attribute, List[object]],
        n_rows: int,
        request_ids: Optional[np.ndarray] = None,
        timestamps: Optional[np.ndarray] = None,
        cookie_codes: Optional[np.ndarray] = None,
        cookie_values: Optional[List[str]] = None,
        ip_codes: Optional[np.ndarray] = None,
        ip_values: Optional[List[str]] = None,
    ):
        self._codes = codes
        self._values = values
        self._n_rows = n_rows
        self.request_ids = request_ids
        self.timestamps = timestamps
        self.cookie_codes = cookie_codes
        self.cookie_values = cookie_values
        self.ip_codes = ip_codes
        self.ip_values = ip_values

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_fingerprints(
        cls,
        fingerprints: Sequence[Fingerprint],
        attributes: Optional[Iterable[Attribute]] = None,
    ) -> "ColumnarTable":
        """Extract grouping-value columns from a fingerprint sequence."""

        attributes = tuple(attributes) if attributes is not None else default_table_attributes()
        codes: Dict[Attribute, np.ndarray] = {}
        values: Dict[Attribute, List[object]] = {}
        for attribute in attributes:
            codes[attribute], values[attribute] = _extract_column(fingerprints, attribute)
        return cls(codes=codes, values=values, n_rows=len(fingerprints))

    # -- introspection ---------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        return tuple(self._codes)

    def has_attribute(self, attribute: Attribute) -> bool:
        return attribute in self._codes

    def require_attribute(self, attribute: Attribute, purpose: str) -> None:
        """Raise loudly when *attribute* has no column.

        A missing column means the table was not extracted for its
        consumer; silently skipping would quietly weaken detection and
        diverge from the object-at-a-time reference paths.
        """

        if attribute not in self._codes:
            raise ValueError(
                f"table lacks a column for {purpose} {attribute.value!r}; "
                f"extract the store with FPInconsistent.extract_table (or "
                f"include the attribute in the table's attribute set)"
            )

    def codes_of(self, attribute: Attribute) -> np.ndarray:
        """The ``int32`` code column of *attribute* (``-1`` = missing)."""

        return self._codes[attribute]

    def values_of(self, attribute: Attribute) -> List[object]:
        """Decode list of *attribute* (code → grouping value)."""

        return self._values[attribute]

    def matches_store(self, store) -> bool:
        """Whether this table's rows verifiably correspond to *store*.

        The one binding rule shared by every consumer of pre-extracted
        tables (detector, cache, archive loader): row count plus
        request-id equality.  Request ids are renumbered 1..N in store
        order, so an id match binds the table to the exact row sequence.
        """

        if self.request_ids is None:
            return False
        if self.n_rows != len(store):
            return False
        return bool(np.array_equal(self.request_ids, store.request_id_array()))

    # -- slicing ---------------------------------------------------------------

    # -- persistence -----------------------------------------------------------

    def to_arrays(self, prefix: str = "") -> Tuple[Dict[str, np.ndarray], Dict]:
        """Split the table into (numeric arrays, JSON-able meta) for ``.npz``
        persistence, with every array key *prefix*-ed.

        Only tables with request metadata (ids, timestamps, cookies,
        addresses) can be persisted — that is what the corpus cache stores.
        Decode lists ride along in the meta document; grouping values are
        JSON scalars (strings, ints, floats, bools) by construction, and
        JSON round-trips them exactly.  Inverse of :meth:`from_arrays`.
        """

        if self.request_ids is None or self.cookie_codes is None or self.ip_codes is None:
            raise ValueError("only tables with request metadata can be persisted")
        attributes = list(self._codes)
        meta = {
            "attributes": [attribute.value for attribute in attributes],
            "values": [self._values[attribute] for attribute in attributes],
            "cookie_values": self.cookie_values,
            "ip_values": self.ip_values,
        }
        arrays: Dict[str, np.ndarray] = {
            f"{prefix}request_ids": self.request_ids,
            f"{prefix}timestamps": self.timestamps,
            f"{prefix}cookie_codes": self.cookie_codes,
            f"{prefix}ip_codes": self.ip_codes,
        }
        for position, attribute in enumerate(attributes):
            arrays[f"{prefix}codes_{position}"] = self._codes[attribute]
        return arrays, meta

    @classmethod
    def from_arrays(
        cls, data, meta: Dict, prefix: str = "", label: str = "columnar archive"
    ) -> "ColumnarTable":
        """Rebuild a table from :meth:`to_arrays` output (*data* is any
        mapping of array names — an open ``.npz`` works directly).

        Raises :class:`ValueError` on out-of-range codes or ragged
        columns; *label* names the source in error messages.
        """

        attributes = [Attribute(name) for name in meta["attributes"]]
        value_lists = meta["values"]
        if len(value_lists) != len(attributes):
            raise ValueError(f"{label} is inconsistent")
        codes: Dict[Attribute, np.ndarray] = {}
        values: Dict[Attribute, List[object]] = {}
        n_rows: Optional[int] = None
        for position, attribute in enumerate(attributes):
            column = np.asarray(data[f"{prefix}codes_{position}"], dtype=np.int32)
            decoded = list(value_lists[position])
            if column.size and (
                int(column.max()) >= len(decoded) or int(column.min()) < -1
            ):
                raise ValueError(f"{label} has out-of-range codes")
            if n_rows is None:
                n_rows = int(column.size)
            elif n_rows != int(column.size):
                raise ValueError(f"{label} has ragged columns")
            codes[attribute] = column
            values[attribute] = decoded
        request_ids = np.asarray(data[f"{prefix}request_ids"], dtype=np.int64)
        if n_rows is None:
            n_rows = int(request_ids.size)
        if request_ids.size != n_rows:
            raise ValueError(f"{label} has ragged metadata")
        table = cls(codes=codes, values=values, n_rows=n_rows)
        table.request_ids = request_ids
        table.timestamps = np.asarray(data[f"{prefix}timestamps"], dtype=np.float64)
        table.cookie_codes = np.asarray(data[f"{prefix}cookie_codes"], dtype=np.int32)
        table.cookie_values = [str(value) for value in meta["cookie_values"]]
        table.ip_codes = np.asarray(data[f"{prefix}ip_codes"], dtype=np.int32)
        table.ip_values = [str(value) for value in meta["ip_values"]]
        if (
            table.timestamps.size != n_rows
            or table.cookie_codes.size != n_rows
            or table.ip_codes.size != n_rows
        ):
            raise ValueError(f"{label} has ragged metadata")
        return table

    def with_columns(self, codes: Dict[Attribute, np.ndarray]) -> "ColumnarTable":
        """A new table over *codes* decoding through this table's dictionaries.

        Every attribute in *codes* must have a column here — the code
        arrays are expected to have been produced against this table's
        vocabulary (e.g. the stream refresher's retained batch columns,
        which all share one growing-vocabulary ingestor).  Metadata-free:
        the result is mineable, not classifiable.
        """

        codes = dict(codes)
        n_rows: Optional[int] = None
        for attribute, column in codes.items():
            if attribute not in self._codes:
                raise ValueError(
                    f"this table has no dictionary for attribute {attribute.value!r}"
                )
            if n_rows is None:
                n_rows = int(column.size)
            elif n_rows != int(column.size):
                raise ValueError("with_columns requires equally sized code columns")
        return ColumnarTable(
            codes=codes,
            values={attribute: self._values[attribute] for attribute in codes},
            n_rows=0 if n_rows is None else n_rows,
        )

    def take(self, rows: np.ndarray) -> "ColumnarTable":
        """Row-sliced view sharing decode lists."""

        rows = np.asarray(rows, dtype=np.int64)
        return ColumnarTable(
            codes={attribute: column[rows] for attribute, column in self._codes.items()},
            values=self._values,
            n_rows=int(rows.size),
            request_ids=None if self.request_ids is None else self.request_ids[rows],
            timestamps=None if self.timestamps is None else self.timestamps[rows],
            cookie_codes=None if self.cookie_codes is None else self.cookie_codes[rows],
            cookie_values=self.cookie_values,
            ip_codes=None if self.ip_codes is None else self.ip_codes[rows],
            ip_values=self.ip_values,
        )


class TableEncoder:
    """The one table extractor: record columns in, :class:`ColumnarTable` out.

    Owns a per-attribute code vocabulary (grouping value → code, assigned
    in row first-occurrence order, append-only) plus the cookie and
    address vocabularies, and encodes row slices of a
    :class:`~repro.honeysite.storage.RecordColumns` against it.  A batch
    is three gathers through remap tables from archive codes to
    vocabulary codes: every attribute at once from the session block's
    stacked matrix
    (:meth:`~repro.honeysite.storage.SessionArrays.stacked_value_codes`),
    the source address from the session's canonical address code, and
    the served cookie from its canonical cookie code.  The remap tables
    live as long as one ``RecordColumns`` instance, so the grouping
    transformation runs once per distinct raw value.

    Canonical codes of distinct strings are distinct, so a cookie or
    address code the remap has not seen is a string the vocabulary lacks:
    it is appended unhashed.  Adopting a ``RecordColumns`` first maps the
    archive strings the vocabulary already holds (from a restore or an
    earlier ``RecordColumns``), and the cookie and address indexes catch
    up with their decode lists only when read (:meth:`sync_indexes`), so
    a stream never hashes a cookie or address string it only appends.

    Emitted tables share the decode lists *by reference*.  A batch
    extraction (:meth:`repro.core.detector.FPInconsistent.extract_table`)
    uses a fresh encoder per store; the stream ingestor keeps one for the
    whole stream, so later batches extend the lists earlier batches
    decode through, and existing codes never change meaning.
    """

    def __init__(self, attributes: Optional[Iterable[Attribute]] = None):
        self.attributes: Tuple[Attribute, ...] = (
            tuple(attributes) if attributes is not None else default_table_attributes()
        )
        #: grouping value → code, and the matching decode lists
        self.indexes: Dict[Attribute, Dict[object, int]] = {
            attribute: {} for attribute in self.attributes
        }
        self.values: Dict[Attribute, List[object]] = {
            attribute: [] for attribute in self.attributes
        }
        #: string → code, behind their decode lists until synced
        self.cookie_index: Dict[str, int] = {}
        self.cookie_values: List[str] = []
        self.ip_index: Dict[str, int] = {}
        self.ip_values: List[str] = []
        #: raw value → code per attribute (a cache over ``indexes``)
        self._raw_codes: Dict[Attribute, Dict[object, int]] = {
            attribute: {} for attribute in self.attributes
        }
        # Remap tables, scoped to one RecordColumns instance (archive codes
        # are meaningless across instances).
        self._columns = None
        #: per attribute, its row of the stacked matrix (-1: no session has it)
        self._rows: List[int] = []
        self._value_remap = np.empty(0, dtype=np.int32)
        self._ip_remap = np.empty(0, dtype=np.int32)
        self._cookie_remap = np.empty(0, dtype=np.int32)

    def sync_indexes(self) -> None:
        """Bring the cookie and address indexes up to their decode lists."""

        for index, values in (
            (self.cookie_index, self.cookie_values), (self.ip_index, self.ip_values)
        ):
            if len(index) < len(values):
                index.update(zip(values[len(index) :], range(len(index), len(values))))

    def restore(self, state: Dict) -> None:
        """Adopt a vocabulary: *state*'s decode lists, in code order
        (``values`` per attribute, ``cookie_values``, ``ip_values``).

        The lists become the encoder's own, uncopied, so whatever else
        holds them (a restored temporal state, folded flags) decodes
        through the very lists later batches extend; nothing else may
        extend them.  Indexes are rebuilt; every cache starts empty.
        """

        self.values = {attribute: state["values"][attribute] for attribute in self.attributes}
        self.indexes = {
            attribute: dict(zip(values, range(len(values))))
            for attribute, values in self.values.items()
        }
        self.cookie_values, self.cookie_index = state["cookie_values"], {}
        self.ip_values, self.ip_index = state["ip_values"], {}
        self._raw_codes = {attribute: {} for attribute in self.attributes}
        self._columns = None

    def encode(self, columns, rows) -> ColumnarTable:
        """The table of *columns*' rows at positions *rows*, in that order.

        The columns must be renumbered (request ids present); a store's
        columns always are.  The archive arrays are only indexed, never
        written, so a read-only memory-mapped corpus encodes unchanged and
        pages in exactly the rows asked for.
        """

        if columns.request_ids is None:
            raise ValueError(
                "table extraction needs renumbered record columns "
                "(RecordColumns.renumbered assigns request ids)"
            )
        if columns is not self._columns:
            self._adopt(columns)
        rows = np.asarray(rows, dtype=np.int64)
        sessions = columns.session_codes[rows]
        matrix, offsets = columns.sessions.stacked_value_codes()
        stacked = _gather(
            self._value_remap,
            np.take(matrix, sessions, axis=1),
            lambda new: self._encode_values(columns.sessions.fp_values, offsets, new),
        )
        missing = np.full(rows.size, -1, dtype=np.int32)
        return ColumnarTable(
            codes={
                attribute: missing if row < 0 else stacked[row]
                for attribute, row in zip(self.attributes, self._rows)
            },
            values=self.values,
            n_rows=int(rows.size),
            request_ids=columns.request_ids[rows],
            timestamps=columns.timestamps[rows],
            cookie_codes=_gather(
                self._cookie_remap,
                columns.canonical_cookies()[columns.served_codes[rows]],
                lambda new: _appended(self.cookie_values, columns.cookie_values, new),
            ),
            cookie_values=self.cookie_values,
            ip_codes=_gather(
                self._ip_remap,
                columns.sessions.canonical_ips()[sessions],
                lambda new: _appended(self.ip_values, columns.session_ips, new),
            ),
            ip_values=self.ip_values,
        )

    def _encode_values(self, fp_values, offsets: np.ndarray, new: List[int]) -> List[int]:
        """Vocabulary codes of never-seen stacked codes (each one raw value
        of one attribute), interned in the order given."""

        owners = (np.searchsorted(offsets, new, side="right") - 1).tolist()
        attributes = dict(zip(self._rows, self.attributes))
        return [
            self._encode_value(attributes[row], fp_values[row][code - offsets[row]])
            for row, code in zip(owners, new)
        ]

    def _encode_value(self, attribute: Attribute, raw: object) -> int:
        raw_codes = self._raw_codes[attribute]
        code = raw_codes.get(raw)
        if code is None:
            grouped = grouping_value(attribute, raw)
            index = self.indexes[attribute]
            code = index.get(grouped)
            if code is None:
                values = self.values[attribute]
                code = len(values)
                index[grouped] = code
                values.append(grouped)
            raw_codes[raw] = code
        return code

    def _adopt(self, columns) -> None:
        """Start remap tables for a new ``RecordColumns``."""

        self._columns = columns
        names = columns.sessions.fp_attribute_names
        self._rows = [
            names.index(attribute.value) if attribute.value in names else -1
            for attribute in self.attributes
        ]
        _matrix, offsets = columns.sessions.stacked_value_codes()
        # Every "lacks the attribute" code gathers -1, and so does every
        # code of an attribute this encoder does not extract.
        self._value_remap = np.full(int(offsets[-1]), -1, dtype=np.int32)
        for row in self._rows:
            if row >= 0:
                self._value_remap[offsets[row] : offsets[row + 1] - 1] = _UNMAPPED
        self.sync_indexes()
        self._cookie_remap = _known(columns.cookie_values, self.cookie_index)
        self._ip_remap = _known(columns.session_ips, self.ip_index)


#: Remap-table slot of an archive code not encoded yet.
_UNMAPPED = -2


def _known(archive: List[str], index: Dict[str, int]) -> np.ndarray:
    """A remap table over *archive* strings holding the codes *index* has."""

    if not index:
        return np.full(len(archive), _UNMAPPED, dtype=np.int32)
    return np.fromiter(map(index.get, archive, repeat(_UNMAPPED)), np.int32, len(archive))


def _appended(values: List[str], archive: List[str], new: List[int]) -> range:
    """Codes of ``archive[code]`` for each of *new*, strings *values*
    lacks, once appended to *values*."""

    start = len(values)
    values.extend(map(archive.__getitem__, new))
    return range(start, len(values))


def _gather(remap: np.ndarray, raw: np.ndarray, encode) -> np.ndarray:
    """``remap[raw]``, first filling the never-seen codes.

    *encode* maps the never-seen archive codes, in first-occurrence order
    over *raw* read in C order (row after row of a matrix), to their
    vocabulary codes.
    """

    codes = remap[raw]
    pending = np.flatnonzero(codes == _UNMAPPED)
    if pending.size:
        flat = raw.reshape(-1)[pending]
        new, first = np.unique(flat, return_index=True)
        new = new[np.argsort(first)]
        remap[new] = encode(new.tolist())
        codes.reshape(-1)[pending] = remap[flat]
    return codes
