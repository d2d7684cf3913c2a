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


def intern_values(
    items: Sequence[object], index: Dict[object, int], values: List[object]
) -> np.ndarray:
    """Codes of *items* in a growing vocabulary: *index* and its decode list *values*.

    Unseen items are appended in first-occurrence order, exactly as
    interning them one at a time would; the dedup, the index update and
    the lookups all run as C-level dict operations.  An item the index
    maps to ``-1`` (a pre-seeded sentinel) codes as ``-1`` and is never
    appended.
    """

    unseen = [item for item in dict.fromkeys(items) if item not in index]
    index.update(zip(unseen, range(len(values), len(values) + len(unseen))))
    values.extend(unseen)
    return np.fromiter(map(index.__getitem__, items), dtype=np.int64, count=len(items))


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

    def __len__(self) -> int:
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

    def value_at(self, attribute: Attribute, row: int):
        """The grouping value of *attribute* at *row* (``None`` if missing)."""

        code = self._codes[attribute][row]
        return self._values[attribute][code] if code >= 0 else None

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

    def cookie_at(self, row: int) -> Optional[str]:
        code = self.cookie_codes[row]
        return self.cookie_values[code] if code >= 0 else None

    def ip_at(self, row: int) -> Optional[str]:
        code = self.ip_codes[row]
        return self.ip_values[code] if code >= 0 else None

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
    :class:`~repro.honeysite.storage.RecordColumns` against it.  Each
    column is one gather through a remap table from the archive's codes
    to vocabulary codes: per attribute from the raw-value codes of
    ``sessions.attribute_value_codes``, plus session → source address and
    archive cookie → served cookie.  The remap tables live as long as one
    ``RecordColumns`` instance, so the grouping transformation runs once
    per distinct raw value, and only for raw values the vocabulary has
    never seen.

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
        self._raw_columns: List[Tuple[np.ndarray, List[object]]] = []
        self._value_remaps: List[np.ndarray] = []
        self._ip_remap = np.empty(0, dtype=np.int32)
        self._cookie_remap = np.empty(0, dtype=np.int32)

    def restore(self, values: Dict[Attribute, List[object]], cookie_values, ip_values) -> None:
        """Adopt decode lists (in code order); every cache starts empty.

        The lists are replaced in place, because emitted tables hold them
        by reference, and the value → code indexes are rebuilt from them.
        """

        for attribute in self.attributes:
            restored = list(values[attribute])
            self.values[attribute][:] = restored
            self.indexes[attribute].clear()
            self.indexes[attribute].update(
                {value: code for code, value in enumerate(restored)}
            )
            self._raw_codes[attribute].clear()
        self.cookie_values[:] = list(cookie_values)
        self.cookie_index.clear()
        self.cookie_index.update({value: code for code, value in enumerate(self.cookie_values)})
        self.ip_values[:] = list(ip_values)
        self.ip_index.clear()
        self.ip_index.update({value: code for code, value in enumerate(self.ip_values)})
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
        codes = {}
        for attribute, (session_raw, raw_values), remap in zip(
            self.attributes, self._raw_columns, self._value_remaps
        ):
            codes[attribute] = _gather(
                remap,
                session_raw[sessions],
                lambda new, attribute=attribute, raw_values=raw_values: [
                    self._encode_value(attribute, raw_values[raw]) for raw in new
                ],
            )
        session_ips, cookie_values = columns.session_ips, columns.cookie_values
        return ColumnarTable(
            codes=codes,
            values=self.values,
            n_rows=int(rows.size),
            request_ids=columns.request_ids[rows],
            timestamps=columns.timestamps[rows],
            cookie_codes=_gather(
                self._cookie_remap,
                columns.served_codes[rows],
                lambda new: intern_values(
                    [cookie_values[raw] for raw in new], self.cookie_index, self.cookie_values
                ),
            ),
            cookie_values=self.cookie_values,
            ip_codes=_gather(
                self._ip_remap,
                sessions,
                lambda new: intern_values(
                    [session_ips[raw] for raw in new], self.ip_index, self.ip_values
                ),
            ),
            ip_values=self.ip_values,
        )

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
        """Start empty remap tables for a new ``RecordColumns``."""

        self._columns = columns
        self._raw_columns = [
            columns.sessions.attribute_value_codes(attribute.value)
            for attribute in self.attributes
        ]
        # One extra slot, left at -1, so a missing attribute (raw code -1)
        # gathers -1.
        self._value_remaps = []
        for _session_raw, raw_values in self._raw_columns:
            remap = np.full(len(raw_values) + 1, _UNMAPPED, dtype=np.int32)
            remap[-1] = -1
            self._value_remaps.append(remap)
        self._ip_remap = np.full(columns.n_sessions, _UNMAPPED, dtype=np.int32)
        self._cookie_remap = np.full(len(columns.cookie_values), _UNMAPPED, dtype=np.int32)


#: Remap-table slot of an archive code not encoded yet.
_UNMAPPED = -2


def _gather(remap: np.ndarray, raw: np.ndarray, encode) -> np.ndarray:
    """``remap[raw]``, first filling the never-seen codes.

    *encode* maps the never-seen archive codes, in row first-occurrence
    order, to their vocabulary codes.
    """

    codes = remap[raw]
    pending = np.flatnonzero(codes == _UNMAPPED)
    if pending.size:
        new, first = np.unique(raw[pending], return_index=True)
        new = new[np.argsort(first)]
        remap[new] = encode(new.tolist())
        codes = remap[raw]
    return codes
