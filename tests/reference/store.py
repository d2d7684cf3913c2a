"""Object-at-a-time reference store: record objects and their extraction.

``repro`` keeps one store type, the columnar
:class:`repro.honeysite.storage.RequestStore`, and builds every detection
table from its record columns
(:meth:`~repro.core.detector.FPInconsistent.extract_table`).  The object
forms here are what that design replaced, kept as oracles:

* :class:`RecordedRequest` and the object :class:`RequestStore` — one
  record object per request, with the same query helpers;
* :func:`materialize` — record objects rebuilt from record columns,
  byte-identical to what the request-by-request generators produce
  (:func:`records` / :func:`object_store` apply it to a columnar store);
* :func:`columnar_store` — the inverse: a columnar store encoded from
  record objects, one session per record, ids kept;
* :func:`from_store` — the record-iterating table extraction, which
  :class:`~repro.core.columnar.TableEncoder` must reproduce exactly;
* :class:`RecordIngestor` — the stream ingestor's record-at-a-time twin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.antibot.base import Decision
from repro.core.columnar import ColumnarTable, default_table_attributes
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import Fingerprint, grouping_value
from repro.honeysite import storage
from repro.honeysite.storage import SECONDS_PER_DAY, RecordColumns, split_rows
from repro.network.request import WebRequest


@dataclass(frozen=True)
class RecordedRequest:
    """One attributed request with both detector decisions."""

    request: WebRequest
    source: str
    cookie: str
    datadome: Decision
    botd: Decision

    @property
    def timestamp(self) -> float:
        return self.request.timestamp

    @property
    def day(self) -> int:
        """Day index (0-based) within the measurement campaign."""

        return int(self.request.timestamp // SECONDS_PER_DAY)

    def decision_for(self, detector: str) -> Decision:
        """Decision of *detector* ("DataDome" or "BotD")."""

        if detector == "DataDome":
            return self.datadome
        if detector == "BotD":
            return self.botd
        raise KeyError(f"unknown detector {detector!r}")

    def evaded(self, detector: str) -> bool:
        """Whether the request evaded *detector*."""

        return self.decision_for(detector).evaded

    def attribute(self, attribute: Attribute, default=None):
        """Convenience accessor for a fingerprint attribute."""

        return self.request.fingerprint.get(attribute, default)

    def to_dict(self) -> Dict:
        """Plain JSON-able form of the record, keys in a fixed order."""

        return {
            "request": self.request.to_dict(),
            "source": self.source,
            "cookie": self.cookie,
            "datadome": {
                "is_bot": self.datadome.is_bot,
                "score": self.datadome.score,
                "signals": list(self.datadome.signals),
            },
            "botd": {
                "is_bot": self.botd.is_bot,
                "score": self.botd.score,
                "signals": list(self.botd.signals),
            },
        }


class RequestStore:
    """In-memory store of record objects with the product store's queries."""

    def __init__(self, records: Optional[Iterable[RecordedRequest]] = None):
        self._records: List[RecordedRequest] = list(records) if records is not None else []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RecordedRequest]:
        return iter(self._records)

    def __getitem__(self, index: int) -> RecordedRequest:
        return self._records[index]

    def add(self, record: RecordedRequest) -> None:
        self._records.append(record)

    def filter(self, predicate: Callable[[RecordedRequest], bool]) -> "RequestStore":
        return RequestStore(record for record in self._records if predicate(record))

    def by_source(self, source: str) -> "RequestStore":
        return self.filter(lambda record: record.source == source)

    def by_sources(self, sources: Iterable[str]) -> "RequestStore":
        names = frozenset(sources)
        return self.filter(lambda record: record.source in names)

    def evading(self, detector: str) -> "RequestStore":
        return self.filter(lambda record: record.evaded(detector))

    def take(self, rows) -> "RequestStore":
        return RequestStore(self._records[int(row)] for row in rows)

    def split(self, fraction: float, rng) -> Tuple["RequestStore", "RequestStore"]:
        first, second = split_rows(len(self), fraction, rng)
        return self.take(first), self.take(second)

    def request_id_array(self) -> np.ndarray:
        return np.array(
            [record.request.request_id for record in self._records], dtype=np.int64
        )

    def evaded_rows(self, detector: str) -> np.ndarray:
        return np.array([record.evaded(detector) for record in self._records], dtype=bool)

    def source_rows(self) -> Tuple[np.ndarray, List[str], Dict[str, int]]:
        index: Dict[str, int] = {}
        codes = [index.setdefault(record.source, len(index)) for record in self._records]
        return np.array(codes, dtype=np.int32), list(index), index

    def sources(self) -> Tuple[str, ...]:
        """Source labels present, ordered by descending request count."""

        counts: Dict[str, int] = {}
        for record in self._records:
            counts[record.source] = counts.get(record.source, 0) + 1
        return tuple(sorted(counts, key=lambda source: counts[source], reverse=True))

    def evasion_rate(self, detector: str) -> float:
        if not self._records:
            return 0.0
        return sum(1 for record in self._records if record.evaded(detector)) / len(self._records)

    def detection_rate(self, detector: str) -> float:
        if not self._records:
            return 0.0
        return 1.0 - self.evasion_rate(detector)

    def unique_ips(self) -> int:
        return len({record.request.ip_address for record in self._records})

    def unique_cookies(self) -> int:
        return len({record.cookie for record in self._records})

    def unique_fingerprints(self) -> int:
        return len({record.request.fingerprint.stable_hash() for record in self._records})


# -- columns → records ----------------------------------------------------------------


def header_maps(columns: RecordColumns) -> List[Dict[str, str]]:
    """Every deduplicated header dictionary, decoded."""

    sessions = columns.sessions
    keys, pool = sessions.header_keys, sessions.header_values
    key_codes = sessions.header_key_codes.tolist()
    value_codes = sessions.header_value_codes.tolist()
    offsets = sessions.header_offsets.tolist()
    return [
        {keys[key_codes[p]]: pool[value_codes[p]] for p in range(offsets[i], offsets[i + 1])}
        for i in range(sessions.n_headers)
    ]


def decision_objects(columns: RecordColumns) -> List[Decision]:
    """Every deduplicated detector decision, decoded."""

    sessions = columns.sessions
    names, signals = sessions.decision_detector_names, sessions.decision_signal_values
    signal_codes = sessions.decision_signal_codes.tolist()
    offsets = sessions.decision_signal_offsets.tolist()
    return [
        Decision(
            detector=names[int(sessions.decision_detectors[i])],
            is_bot=bool(sessions.decision_is_bot[i]),
            score=float(sessions.decision_scores[i]),
            signals=tuple(signals[signal_codes[p]] for p in range(offsets[i], offsets[i + 1])),
        )
        for i in range(sessions.n_decisions)
    ]


def session_fingerprints(columns: RecordColumns) -> List[Fingerprint]:
    """Every session's fingerprint, decoded."""

    return [columns.sessions.fingerprint(index) for index in range(columns.n_sessions)]


def materialize(columns: RecordColumns) -> List[RecordedRequest]:
    """The record objects *columns* encode, in row order.

    Objects a session shares (fingerprint, headers, decisions) are decoded
    once and shared by its records, as the generators shared them.
    """

    sessions = columns.sessions
    fingerprints = session_fingerprints(columns)
    headers = header_maps(columns)
    decisions = decision_objects(columns)
    session_headers = sessions.session_headers.tolist()
    session_datadome = sessions.session_datadome.tolist()
    session_botd = sessions.session_botd.tolist()
    cookie_values = columns.cookie_values
    records = []
    for timestamp, session, presented, served, source_code, request_id in zip(
        columns.timestamps.tolist(),
        columns.session_codes.tolist(),
        columns.presented_codes.tolist(),
        columns.served_codes.tolist(),
        columns.source_codes.tolist(),
        columns.request_ids.tolist(),
    ):
        request = WebRequest(
            url_path=columns.url_paths[source_code],
            timestamp=timestamp,
            ip_address=sessions.session_ips[session],
            fingerprint=fingerprints[session],
            cookie=cookie_values[presented] if presented >= 0 else None,
            headers=headers[session_headers[session]],
            request_id=request_id,
        )
        records.append(
            RecordedRequest(
                request=request,
                source=columns.sources[source_code],
                cookie=cookie_values[served],
                datadome=decisions[session_datadome[session]],
                botd=decisions[session_botd[session]],
            )
        )
    return records


def records(store) -> List[RecordedRequest]:
    """The record objects of a columnar store, an object store or a record list."""

    if isinstance(store, storage.RequestStore):
        return materialize(store.columns)
    return list(store)


def object_store(store) -> RequestStore:
    """An object store with the records of *store*."""

    return RequestStore(records(store))


# -- records → columns ----------------------------------------------------------------


def columnar_store(recorded: Iterable[RecordedRequest]) -> storage.RequestStore:
    """A columnar store encoding *recorded*, one session per record.

    Request ids are kept, and cookies are interned by value (``None``
    presents no cookie), so :func:`materialize` gives the records back.
    """

    recorded = list(recorded)
    cookie_index: Dict[str, int] = {}
    source_index: Dict[str, int] = {}
    url_paths: List[str] = []

    def cookie_code(value: Optional[str]) -> int:
        if value is None:
            return -1
        return cookie_index.setdefault(value, len(cookie_index))

    def source_code(record: RecordedRequest) -> int:
        if record.source not in source_index:
            source_index[record.source] = len(source_index)
            url_paths.append(record.request.url_path)
        return source_index[record.source]

    n = len(recorded)
    columns = RecordColumns(
        timestamps=np.array([record.timestamp for record in recorded], dtype=np.float64),
        session_codes=np.arange(n, dtype=np.int64),
        presented_codes=np.array(
            [cookie_code(record.request.cookie) for record in recorded], dtype=np.int32
        ),
        served_codes=np.array([cookie_code(record.cookie) for record in recorded], dtype=np.int32),
        source_codes=np.array([source_code(record) for record in recorded], dtype=np.int32),
        cookie_values=list(cookie_index),
        sources=list(source_index),
        url_paths=url_paths,
        session_fingerprints=[record.request.fingerprint for record in recorded],
        session_headers=np.arange(n, dtype=np.int32),
        session_datadome=np.arange(0, 2 * n, 2, dtype=np.int32),
        session_botd=np.arange(1, 2 * n, 2, dtype=np.int32),
        session_ips=[record.request.ip_address for record in recorded],
        headers=[record.request.headers for record in recorded],
        decisions=[
            decision for record in recorded for decision in (record.datadome, record.botd)
        ],
        request_ids=np.array(
            [record.request.request_id for record in recorded], dtype=np.int64
        ),
    )
    columns.validate()
    return storage.RequestStore(columns)


# -- record-iterating extraction --------------------------------------------------------


def factorize(items: Sequence[object]) -> Tuple[np.ndarray, List[object]]:
    """Encode *items* as codes in first-occurrence order (``None`` → ``-1``)."""

    codes = np.empty(len(items), dtype=np.int32)
    values: List[object] = []
    index: Dict[object, int] = {}
    for position, item in enumerate(items):
        if item is None:
            codes[position] = -1
            continue
        code = index.get(item)
        if code is None:
            code = len(values)
            index[item] = code
            values.append(item)
        codes[position] = code
    return codes, values


def from_store(
    store,
    attributes: Optional[Iterable[Attribute]] = None,
    extra_attributes: Iterable[Attribute] = (),
) -> ColumnarTable:
    """Extract a store's records into a table, one record at a time.

    *store* is anything :func:`records` reads; *extra_attributes* extends
    the default attribute set.
    """

    if attributes is None:
        attributes = default_table_attributes()
    ordered: Dict[Attribute, None] = {attribute: None for attribute in attributes}
    for attribute in extra_attributes:
        ordered.setdefault(attribute, None)

    rows = records(store)
    table = ColumnarTable.from_fingerprints(
        [record.request.fingerprint for record in rows], tuple(ordered)
    )
    table.request_ids = np.array([record.request.request_id for record in rows], dtype=np.int64)
    table.timestamps = np.array([record.timestamp for record in rows], dtype=np.float64)
    table.cookie_codes, table.cookie_values = factorize([record.cookie for record in rows])
    table.ip_codes, table.ip_values = factorize([record.request.ip_address for record in rows])
    return table


class RecordIngestor:
    """The stream ingestor's record-at-a-time twin.

    Encodes micro-batches of record objects against a growing vocabulary,
    assigning new codes in row first-occurrence order; the same rows in
    the same order must yield what ``StreamIngestor.ingest_rows`` yields.
    """

    def __init__(self, attributes: Optional[Iterable[Attribute]] = None):
        self.attributes = (
            tuple(attributes) if attributes is not None else default_table_attributes()
        )
        self._indexes: Dict[Attribute, Dict[object, int]] = {a: {} for a in self.attributes}
        self._values: Dict[Attribute, List[object]] = {a: [] for a in self.attributes}
        self._cookie_index: Dict[str, int] = {}
        self.cookie_values: List[str] = []
        self._ip_index: Dict[str, int] = {}
        self.ip_values: List[str] = []

    @staticmethod
    def _intern(value, index: Dict, values: List) -> int:
        if value is None:
            return -1
        code = index.get(value)
        if code is None:
            code = index[value] = len(values)
            values.append(value)
        return code

    def ingest_records(self, batch: Sequence[RecordedRequest]) -> ColumnarTable:
        batch = list(batch)
        codes = {}
        for attribute in self.attributes:
            column = []
            for record in batch:
                raw = record.request.fingerprint.get(attribute)
                grouped = None if raw is None else grouping_value(attribute, raw)
                column.append(
                    self._intern(grouped, self._indexes[attribute], self._values[attribute])
                )
            codes[attribute] = np.array(column, dtype=np.int32)
        return ColumnarTable(
            codes=codes,
            values=self._values,
            n_rows=len(batch),
            request_ids=np.array([r.request.request_id for r in batch], dtype=np.int64),
            timestamps=np.array([r.timestamp for r in batch], dtype=np.float64),
            cookie_codes=np.array(
                [self._intern(r.cookie, self._cookie_index, self.cookie_values) for r in batch],
                dtype=np.int32,
            ),
            cookie_values=self.cookie_values,
            ip_codes=np.array(
                [self._intern(r.request.ip_address, self._ip_index, self.ip_values) for r in batch],
                dtype=np.int32,
            ),
            ip_values=self.ip_values,
        )
