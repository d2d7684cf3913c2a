"""The request store.

Every request the honey site attributes to a known source is stored with
its source label, the cookie value after issuance and the decisions of
both anti-bot services (mirroring Figure 3 — "decisions from DataDome and
BotD are stored in the database alongside other request data").  The
:class:`RequestStore` is the query surface every analysis in Sections 5–7
runs against.

Records have one representation, :class:`RecordColumns`: per-row arrays
(timestamps, cookie codes, source codes, session codes) over
session-deduplicated code blocks (:class:`SessionArrays`: fingerprints,
headers, detector decisions).  It is the layout shard workers ship back
to the corpus coordinator, the one the corpus cache persists, and the one
every consumer reads — lengths, splits, source subsets, evasion columns
and detection tables (:class:`~repro.core.columnar.TableEncoder`) all come
straight from the arrays.  No record object is ever built.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.antibot.base import Decision
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import Fingerprint

SECONDS_PER_DAY = 86_400.0

#: Version of the on-disk request-store / corpus archive format.  Bump on
#: any change to the serialised record layout — or to the generated corpus
#: content itself — so the content-addressed cache rebuilds stale entries
#: rather than mis-parsing (or silently serving outdated) archives.
#: Version 4: session fingerprints, headers and detector decisions are
#: encoded as attribute-code arrays over per-attribute decode lists
#: (:class:`SessionArrays`), making shard payloads and the persisted
#: ``store_columnar.npz`` archive pure numpy arrays + scalar metadata — no
#: pickled objects and, saved uncompressed, memory-mappable.  The shard
#: ceiling raise (``analysis.engine.MAX_TOTAL_SHARDS``) rides the same
#: bump.  Archives of any other version are rejected (the cache evicts
#: and rebuilds them).
CORPUS_FORMAT_VERSION = 4

class StoreFormatError(ValueError):
    """Raised when a persisted store cannot be read back."""


def split_rows(n: int, fraction: float, rng) -> Tuple:
    """Permutation split of ``range(n)`` into (``fraction``, rest) index arrays.

    The single source of randomness behind :meth:`RequestStore.split`; the
    generalisation evaluation uses the same helper to slice an extracted
    :class:`~repro.core.columnar.ColumnarTable` with ``take`` instead of
    re-extracting the split stores, so both views of one split always
    agree row for row.
    """

    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    indices = rng.permutation(n)
    cut = int(round(n * fraction))
    return indices[:cut], indices[cut:]


def _code_dtype(pool_size: int) -> np.dtype:
    """Smallest unsigned dtype that can index a decode list of *pool_size*."""

    return np.min_scalar_type(max(pool_size - 1, 0))


def _packed(codes, pool_size: int) -> np.ndarray:
    """Code array packed to the smallest dtype its decode list needs.

    The transfer win of the code encoding lives here: shard decode lists
    are small (tens of attributes, hundreds of distinct values), so most
    code streams pack to one byte per entry instead of pickling an object
    reference per entry.
    """

    return np.asarray(codes, dtype=_code_dtype(pool_size))


class SessionArrays:
    """Pure-array encoding of the per-session object dictionaries.

    Everything a traffic-generator session keeps constant — the
    fingerprint, the synthesised headers, both detector decisions, the
    source address — used to live here as Python objects, which made each
    shard payload pickle one ``Fingerprint`` (a ~40-entry dict) per
    session.  This class re-encodes all three dictionaries as code rows
    against decode lists:

    * **fingerprints** — a flat ``(attribute code, value code)`` pair
      stream (``fp_attr_codes`` / ``fp_value_codes``) sliced per session by
      ``fp_offsets``; attribute codes index ``fp_attribute_names`` and
      value codes index that attribute's raw-value side table in
      ``fp_values``.  The pair stream preserves each session's attribute
      *order*, which the serialised form exposes (bot strategies insert
      attributes in varying order via ``replace``).
    * **headers** — the same flat layout over global key/value string
      pools (``header_keys`` / ``header_values``).
    * **decisions** — parallel scalar arrays (detector code, ``is_bot``,
      score) plus a flat signal-code stream over ``decision_signal_values``.

    The per-session indirection arrays (``session_headers``,
    ``session_datadome``, ``session_botd``) and the per-session address
    list live here too.  The result: pickling a shard payload serialises
    numpy arrays and lists of primitive scalars — zero reconstructed
    objects — and the persisted archive can be memory-mapped.
    """

    _ARRAY_FIELDS = (
        "fp_attr_codes",
        "fp_value_codes",
        "fp_offsets",
        "header_key_codes",
        "header_value_codes",
        "header_offsets",
        "session_headers",
        "session_datadome",
        "session_botd",
        "decision_detectors",
        "decision_is_bot",
        "decision_scores",
        "decision_signal_codes",
        "decision_signal_offsets",
    )
    _LIST_FIELDS = (
        "fp_attribute_names",
        "fp_values",
        "header_keys",
        "header_values",
        "session_ips",
        "decision_detector_names",
        "decision_signal_values",
    )
    _CACHE_FIELDS = ("_attribute_columns",)

    __slots__ = _ARRAY_FIELDS + _LIST_FIELDS + _CACHE_FIELDS

    def __init__(self, **fields: Any):
        for name in self._ARRAY_FIELDS + self._LIST_FIELDS:
            setattr(self, name, fields.pop(name))
        if fields:
            raise TypeError(f"unexpected session array fields: {sorted(fields)}")
        self._reset_caches()

    def _reset_caches(self) -> None:
        self._attribute_columns = None

    # -- pickling (transport purity) ---------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        return {
            name: getattr(self, name)
            for name in self._ARRAY_FIELDS + self._LIST_FIELDS
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name in self._ARRAY_FIELDS + self._LIST_FIELDS:
            setattr(self, name, state[name])
        self._reset_caches()

    # -- shape -------------------------------------------------------------

    @property
    def n_sessions(self) -> int:
        return int(self.fp_offsets.size) - 1

    @property
    def n_headers(self) -> int:
        return int(self.header_offsets.size) - 1

    @property
    def n_decisions(self) -> int:
        return int(self.decision_is_bot.size)

    # -- columnar attribute access -----------------------------------------

    def attribute_value_codes(self, name: str) -> Tuple[np.ndarray, List[Any]]:
        """Per-session value codes of fingerprint attribute *name*.

        Returns ``(codes, values)``: ``codes[session]`` indexes *values*
        (the attribute's raw-value side table) or is ``-1`` when the
        session's fingerprint does not carry the attribute.  One
        vectorized scan of the pair stream per attribute, memoized — the
        columnar figure/table paths gather these through
        ``RecordColumns.session_codes`` instead of decoding fingerprints.
        """

        if self._attribute_columns is None:
            self._attribute_columns = {}
        cached = self._attribute_columns.get(name)
        if cached is not None:
            return cached
        codes = np.full(self.n_sessions, -1, dtype=np.int64)
        values: List[Any] = []
        try:
            acode = self.fp_attribute_names.index(name)
        except ValueError:
            pass
        else:
            values = self.fp_values[acode]
            pairs = np.nonzero(np.asarray(self.fp_attr_codes) == acode)[0]
            # A fingerprint is a dict, so each session holds at most one
            # pair per attribute; the owning session of pair p is the
            # offset interval it falls into.
            owners = (
                np.searchsorted(np.asarray(self.fp_offsets), pairs, side="right") - 1
            )
            codes[owners] = np.asarray(self.fp_value_codes)[pairs]
        self._attribute_columns[name] = (codes, values)
        return codes, values

    # -- encoding ----------------------------------------------------------

    @classmethod
    def from_objects(
        cls,
        *,
        fingerprints: Sequence[Fingerprint],
        headers: Sequence[Mapping[str, str]],
        decisions: Sequence[Decision],
        session_ips: Sequence[str],
        session_headers: np.ndarray,
        session_datadome: np.ndarray,
        session_botd: np.ndarray,
    ) -> "SessionArrays":
        """Encode per-session object dictionaries into code arrays.

        Value side tables deduplicate by ``(type, value)`` — never by bare
        value — because ``1``, ``1.0`` and ``True`` hash and compare equal
        in Python yet must decode back to their exact original type.
        """

        # Keyed by the ``Attribute`` member and walking the fingerprint's
        # own dict: the ``Mapping.items()`` view and the ``.value``
        # descriptor cost a Python call per (attribute, value) pair.
        fp_attr_index: Dict[Any, int] = {}
        fp_attribute_names: List[str] = []
        fp_value_indexes: List[Dict[Any, int]] = []
        fp_values: List[List[Any]] = []
        attr_codes: List[int] = []
        value_codes: List[int] = []
        fp_offsets: List[int] = [0]
        for fingerprint in fingerprints:
            for attribute, value in fingerprint._values.items():
                acode = fp_attr_index.get(attribute)
                if acode is None:
                    acode = len(fp_attribute_names)
                    fp_attr_index[attribute] = acode
                    fp_attribute_names.append(attribute.value)
                    fp_value_indexes.append({})
                    fp_values.append([])
                value_index = fp_value_indexes[acode]
                key = (value.__class__, value)
                vcode = value_index.get(key)
                if vcode is None:
                    vcode = len(fp_values[acode])
                    value_index[key] = vcode
                    fp_values[acode].append(value)
                attr_codes.append(acode)
                value_codes.append(vcode)
            fp_offsets.append(len(attr_codes))

        key_index: Dict[str, int] = {}
        header_keys: List[str] = []
        value_pool_index: Dict[str, int] = {}
        header_values: List[str] = []
        header_key_codes: List[int] = []
        header_value_codes: List[int] = []
        header_offsets: List[int] = [0]
        for entry in headers:
            for key, value in entry.items():
                kcode = key_index.get(key)
                if kcode is None:
                    kcode = len(header_keys)
                    key_index[key] = kcode
                    header_keys.append(key)
                vcode = value_pool_index.get(value)
                if vcode is None:
                    vcode = len(header_values)
                    value_pool_index[value] = vcode
                    header_values.append(value)
                header_key_codes.append(kcode)
                header_value_codes.append(vcode)
            header_offsets.append(len(header_key_codes))

        detector_index: Dict[str, int] = {}
        decision_detector_names: List[str] = []
        signal_index: Dict[str, int] = {}
        decision_signal_values: List[str] = []
        decision_detectors: List[int] = []
        decision_is_bot: List[bool] = []
        decision_scores: List[float] = []
        decision_signal_codes: List[int] = []
        decision_signal_offsets: List[int] = [0]
        for decision in decisions:
            dcode = detector_index.get(decision.detector)
            if dcode is None:
                dcode = len(decision_detector_names)
                detector_index[decision.detector] = dcode
                decision_detector_names.append(decision.detector)
            decision_detectors.append(dcode)
            decision_is_bot.append(decision.is_bot)
            decision_scores.append(decision.score)
            for signal in decision.signals:
                scode = signal_index.get(signal)
                if scode is None:
                    scode = len(decision_signal_values)
                    signal_index[signal] = scode
                    decision_signal_values.append(signal)
                decision_signal_codes.append(scode)
            decision_signal_offsets.append(len(decision_signal_codes))

        return cls(
            fp_attr_codes=_packed(attr_codes, len(fp_attribute_names)),
            fp_value_codes=_packed(
                value_codes, max((len(values) for values in fp_values), default=0)
            ),
            fp_offsets=np.array(fp_offsets, dtype=np.int32),
            fp_attribute_names=fp_attribute_names,
            fp_values=fp_values,
            header_key_codes=_packed(header_key_codes, len(header_keys)),
            header_value_codes=_packed(header_value_codes, len(header_values)),
            header_offsets=np.array(header_offsets, dtype=np.int32),
            header_keys=header_keys,
            header_values=header_values,
            session_headers=_packed(session_headers, len(header_offsets) - 1),
            session_datadome=_packed(session_datadome, len(decision_is_bot)),
            session_botd=_packed(session_botd, len(decision_is_bot)),
            session_ips=list(session_ips),
            decision_detectors=_packed(decision_detectors, len(decision_detector_names)),
            decision_is_bot=np.array(decision_is_bot, dtype=bool),
            decision_scores=np.array(decision_scores, dtype=np.float64),
            decision_signal_codes=_packed(
                decision_signal_codes, len(decision_signal_values)
            ),
            decision_signal_offsets=np.array(decision_signal_offsets, dtype=np.int32),
            decision_detector_names=decision_detector_names,
            decision_signal_values=decision_signal_values,
        )

    # -- merging -----------------------------------------------------------

    @classmethod
    def concat(cls, parts: Sequence["SessionArrays"]) -> "SessionArrays":
        """Merge shard session blocks: union the decode lists, remap codes.

        Attribute names (and header keys/values, detectors, signals) merge
        in first-appearance order across parts; each part's flat code
        streams are remapped through lookup arrays, so the merge never
        decodes an object.
        """

        attr_index: Dict[str, int] = {}
        attribute_names: List[str] = []
        value_indexes: List[Dict[Any, int]] = []
        merged_values: List[List[Any]] = []
        key_index: Dict[str, int] = {}
        header_keys: List[str] = []
        value_pool_index: Dict[str, int] = {}
        header_values: List[str] = []
        detector_index: Dict[str, int] = {}
        detector_names: List[str] = []
        signal_index: Dict[str, int] = {}
        signal_values: List[str] = []

        fp_attr_chunks, fp_value_chunks, fp_offset_chunks = [], [], []
        hk_chunks, hv_chunks, header_offset_chunks = [], [], []
        sh_chunks, sd_chunks, sb_chunks = [], [], []
        det_chunks, bot_chunks, score_chunks = [], [], []
        sig_chunks, sig_offset_chunks = [], []
        session_ips: List[str] = []
        fp_pairs = header_pairs = signal_count = 0
        headers_offset = decisions_offset = 0

        def _pool_remap(local: Sequence[str], index: Dict[str, int], pool: List[str]) -> np.ndarray:
            remap = np.empty(len(local), dtype=np.int64)
            for position, item in enumerate(local):
                code = index.get(item)
                if code is None:
                    code = len(pool)
                    index[item] = code
                    pool.append(item)
                remap[position] = code
            return remap

        for part in parts:
            attr_remap = np.empty(len(part.fp_attribute_names), dtype=np.int64)
            value_remaps: List[np.ndarray] = []
            for local, name in enumerate(part.fp_attribute_names):
                code = attr_index.get(name)
                if code is None:
                    code = len(attribute_names)
                    attr_index[name] = code
                    attribute_names.append(name)
                    value_indexes.append({})
                    merged_values.append([])
                attr_remap[local] = code
                value_index = value_indexes[code]
                value_list = merged_values[code]
                local_values = part.fp_values[local]
                vremap = np.empty(len(local_values), dtype=np.int64)
                for vlocal, value in enumerate(local_values):
                    key = (value.__class__, value)
                    vcode = value_index.get(key)
                    if vcode is None:
                        vcode = len(value_list)
                        value_index[key] = vcode
                        value_list.append(value)
                    vremap[vlocal] = vcode
                value_remaps.append(vremap)
            if part.fp_attr_codes.size:
                # One flat remap over (attribute, local value) pairs keeps the
                # per-pair recode fully vectorized.
                starts = np.zeros(len(value_remaps) + 1, dtype=np.int64)
                np.cumsum([remap.size for remap in value_remaps], out=starts[1:])
                flat_remap = np.concatenate(value_remaps)
                local_attr = np.asarray(part.fp_attr_codes, dtype=np.int64)
                fp_attr_chunks.append(attr_remap[local_attr])
                fp_value_chunks.append(flat_remap[starts[local_attr] + part.fp_value_codes])
            fp_offset_chunks.append(np.asarray(part.fp_offsets[1:], dtype=np.int64) + fp_pairs)
            fp_pairs += int(part.fp_attr_codes.size)

            key_remap = _pool_remap(part.header_keys, key_index, header_keys)
            value_remap = _pool_remap(part.header_values, value_pool_index, header_values)
            if part.header_key_codes.size:
                hk_chunks.append(key_remap[part.header_key_codes])
                hv_chunks.append(value_remap[part.header_value_codes])
            header_offset_chunks.append(
                np.asarray(part.header_offsets[1:], dtype=np.int64) + header_pairs
            )
            header_pairs += int(part.header_key_codes.size)

            sh_chunks.append(np.asarray(part.session_headers, dtype=np.int64) + headers_offset)
            sd_chunks.append(np.asarray(part.session_datadome, dtype=np.int64) + decisions_offset)
            sb_chunks.append(np.asarray(part.session_botd, dtype=np.int64) + decisions_offset)
            headers_offset += part.n_headers
            decisions_offset += part.n_decisions
            session_ips.extend(part.session_ips)

            det_remap = _pool_remap(part.decision_detector_names, detector_index, detector_names)
            sig_remap = _pool_remap(part.decision_signal_values, signal_index, signal_values)
            if part.decision_detectors.size:
                det_chunks.append(det_remap[part.decision_detectors])
            bot_chunks.append(part.decision_is_bot)
            score_chunks.append(part.decision_scores)
            if part.decision_signal_codes.size:
                sig_chunks.append(sig_remap[part.decision_signal_codes])
            sig_offset_chunks.append(
                np.asarray(part.decision_signal_offsets[1:], dtype=np.int64) + signal_count
            )
            signal_count += int(part.decision_signal_codes.size)

        def _flat(chunks: List[np.ndarray], pool_size: int) -> np.ndarray:
            if not chunks:
                return np.empty(0, dtype=_code_dtype(pool_size))
            return _packed(np.concatenate(chunks), pool_size)

        def _offsets(chunks: List[np.ndarray]) -> np.ndarray:
            return np.concatenate([np.zeros(1, dtype=np.int64)] + chunks).astype(np.int32)

        return cls(
            fp_attr_codes=_flat(fp_attr_chunks, len(attribute_names)),
            fp_value_codes=_flat(
                fp_value_chunks, max((len(values) for values in merged_values), default=0)
            ),
            fp_offsets=_offsets(fp_offset_chunks),
            fp_attribute_names=attribute_names,
            fp_values=merged_values,
            header_key_codes=_flat(hk_chunks, len(header_keys)),
            header_value_codes=_flat(hv_chunks, len(header_values)),
            header_offsets=_offsets(header_offset_chunks),
            header_keys=header_keys,
            header_values=header_values,
            session_headers=_flat(sh_chunks, headers_offset),
            session_datadome=_flat(sd_chunks, decisions_offset),
            session_botd=_flat(sb_chunks, decisions_offset),
            session_ips=session_ips,
            decision_detectors=_flat(det_chunks, len(detector_names)),
            decision_is_bot=(
                np.concatenate(bot_chunks) if bot_chunks else np.empty(0, dtype=bool)
            ),
            decision_scores=(
                np.concatenate(score_chunks)
                if score_chunks
                else np.empty(0, dtype=np.float64)
            ),
            decision_signal_codes=_flat(sig_chunks, len(signal_values)),
            decision_signal_offsets=_offsets(sig_offset_chunks),
            decision_detector_names=detector_names,
            decision_signal_values=signal_values,
        )

    # -- integrity ---------------------------------------------------------

    def validate(self) -> None:
        """Check internal consistency; raises :class:`StoreFormatError`.

        On a memory-mapped archive this streams every code column once
        (sequential reads), bounding the cost of trusting an archive
        without loading it into RAM.
        """

        def _offsets_ok(offsets: np.ndarray, flat_size: int) -> bool:
            return (
                offsets.size >= 1
                and int(offsets[0]) == 0
                and int(offsets[-1]) == flat_size
                and (offsets.size < 2 or bool(np.all(np.diff(offsets) >= 0)))
            )

        def _codes_ok(codes: np.ndarray, size: int) -> bool:
            if not codes.size:
                return True
            return int(codes.min()) >= 0 and int(codes.max()) < size

        integer_arrays = tuple(
            getattr(self, name)
            for name in self._ARRAY_FIELDS
            if name not in ("decision_is_bot", "decision_scores")
        )
        if any(array.dtype.kind not in "iu" for array in integer_arrays):
            raise StoreFormatError("session code arrays must have integer dtypes")
        if (
            self.decision_is_bot.dtype.kind != "b"
            or self.decision_scores.dtype.kind != "f"
        ):
            raise StoreFormatError("decision verdict arrays have wrong dtypes")
        if self.fp_attr_codes.size != self.fp_value_codes.size:
            raise StoreFormatError("fingerprint code streams are ragged")
        if not _offsets_ok(self.fp_offsets, self.fp_attr_codes.size):
            raise StoreFormatError("fingerprint offsets are inconsistent")
        if len(self.fp_values) != len(self.fp_attribute_names):
            raise StoreFormatError("fingerprint decode lists disagree")
        if not _codes_ok(self.fp_attr_codes, len(self.fp_attribute_names)):
            raise StoreFormatError("fingerprint attribute codes out of range")
        if self.fp_attr_codes.size:
            lengths = np.fromiter(
                (len(values) for values in self.fp_values),
                dtype=np.int64,
                count=len(self.fp_values),
            )
            value_codes = np.asarray(self.fp_value_codes, dtype=np.int64)
            if int(value_codes.min()) < 0 or bool(
                np.any(value_codes >= lengths[np.asarray(self.fp_attr_codes, dtype=np.int64)])
            ):
                raise StoreFormatError("fingerprint value codes out of range")

        if self.header_key_codes.size != self.header_value_codes.size:
            raise StoreFormatError("header code streams are ragged")
        if not _offsets_ok(self.header_offsets, self.header_key_codes.size):
            raise StoreFormatError("header offsets are inconsistent")
        if not (
            _codes_ok(self.header_key_codes, len(self.header_keys))
            and _codes_ok(self.header_value_codes, len(self.header_values))
        ):
            raise StoreFormatError("header codes out of range")

        n_decisions = self.n_decisions
        if (
            self.decision_detectors.size != n_decisions
            or self.decision_scores.size != n_decisions
            or self.decision_signal_offsets.size != n_decisions + 1
        ):
            raise StoreFormatError("decision arrays are ragged")
        if not _offsets_ok(self.decision_signal_offsets, self.decision_signal_codes.size):
            raise StoreFormatError("decision signal offsets are inconsistent")
        if not (
            _codes_ok(self.decision_detectors, len(self.decision_detector_names))
            and _codes_ok(self.decision_signal_codes, len(self.decision_signal_values))
        ):
            raise StoreFormatError("decision codes out of range")

        n_sessions = self.n_sessions
        per_session = (self.session_headers, self.session_datadome, self.session_botd)
        if any(column.size != n_sessions for column in per_session) or len(
            self.session_ips
        ) != n_sessions:
            raise StoreFormatError("session dictionaries are ragged")
        if not (
            _codes_ok(self.session_headers, self.n_headers)
            and _codes_ok(self.session_datadome, n_decisions)
            and _codes_ok(self.session_botd, n_decisions)
        ):
            raise StoreFormatError("session dictionary codes out of range")


class RecordColumns:
    """Columnar representation of a record sequence.

    Per-row quantities are plain arrays; everything a traffic-generator
    session keeps constant is encoded once per session in a
    :class:`SessionArrays` block and referenced through ``session_codes``.
    The layout is what shard workers return to the corpus coordinator —
    pickling it serialises pure numpy arrays plus scalar decode lists,
    zero reconstructed objects — and what the corpus cache persists
    (format v4; saved uncompressed it memory-maps).

    ``request_ids`` may be ``None`` on a freshly built shard payload; the
    coordinator assigns merged-order ids 1..N after the merge.
    """

    __slots__ = (
        "timestamps",
        "session_codes",
        "presented_codes",
        "served_codes",
        "source_codes",
        "request_ids",
        "cookie_values",
        "sources",
        "url_paths",
        "sessions",
    )

    def __init__(
        self,
        *,
        timestamps: np.ndarray,
        session_codes: np.ndarray,
        presented_codes: np.ndarray,
        served_codes: np.ndarray,
        source_codes: np.ndarray,
        cookie_values: List[str],
        sources: List[str],
        url_paths: List[str],
        sessions: Optional[SessionArrays] = None,
        session_fingerprints: Optional[List[Fingerprint]] = None,
        session_headers: Optional[np.ndarray] = None,
        session_datadome: Optional[np.ndarray] = None,
        session_botd: Optional[np.ndarray] = None,
        session_ips: Optional[List[str]] = None,
        headers: Optional[List[Mapping[str, str]]] = None,
        decisions: Optional[List[Decision]] = None,
        request_ids: Optional[np.ndarray] = None,
    ):
        self.timestamps = timestamps
        self.session_codes = session_codes
        self.presented_codes = presented_codes
        self.served_codes = served_codes
        self.source_codes = source_codes
        self.request_ids = request_ids
        self.cookie_values = cookie_values
        self.sources = sources
        self.url_paths = url_paths
        if sessions is None:
            # Object-dictionary construction path (the payload builder):
            # encode into the array block up front.
            sessions = SessionArrays.from_objects(
                fingerprints=session_fingerprints if session_fingerprints is not None else [],
                headers=headers if headers is not None else [],
                decisions=decisions if decisions is not None else [],
                session_ips=session_ips if session_ips is not None else [],
                session_headers=(
                    session_headers
                    if session_headers is not None
                    else np.empty(0, dtype=np.int32)
                ),
                session_datadome=(
                    session_datadome
                    if session_datadome is not None
                    else np.empty(0, dtype=np.int32)
                ),
                session_botd=(
                    session_botd if session_botd is not None else np.empty(0, dtype=np.int32)
                ),
            )
        self.sessions = sessions

    @property
    def n_rows(self) -> int:
        return int(self.timestamps.size)

    @property
    def n_sessions(self) -> int:
        return self.sessions.n_sessions

    @property
    def session_ips(self) -> List[str]:
        return self.sessions.session_ips

    def take(self, rows: np.ndarray) -> "RecordColumns":
        """Row-sliced copy sharing the session/value dictionaries."""

        rows = np.asarray(rows, dtype=np.int64)
        return RecordColumns(
            timestamps=self.timestamps[rows],
            session_codes=self.session_codes[rows],
            presented_codes=self.presented_codes[rows],
            served_codes=self.served_codes[rows],
            source_codes=self.source_codes[rows],
            request_ids=None if self.request_ids is None else self.request_ids[rows],
            cookie_values=self.cookie_values,
            sources=self.sources,
            url_paths=self.url_paths,
            sessions=self.sessions,
        )

    @classmethod
    def concat(cls, parts: Iterable["RecordColumns"]) -> "RecordColumns":
        """Merge shard columns in order into one columnar record sequence.

        Shard-local codes are offset into the merged dictionaries.  Cookie
        values never repeat across shards (each shard issues from its own
        stream) so cookie offsets are pure concatenation; sources *do*
        repeat across sub-shards of one split service and are deduplicated
        by name (their URL paths must agree).
        """

        parts = list(parts)
        if not parts:
            raise ValueError("cannot concatenate zero record column sets")
        timestamps, session_codes = [], []
        presented_codes, served_codes, source_codes = [], [], []
        cookie_values: List[str] = []
        sources: List[str] = []
        url_paths: List[str] = []
        source_index: Dict[str, int] = {}
        session_offset = 0
        for part in parts:
            cookie_offset = len(cookie_values)
            source_map = np.empty(len(part.sources), dtype=np.int32)
            for local, (name, url_path) in enumerate(zip(part.sources, part.url_paths)):
                code = source_index.get(name)
                if code is None:
                    code = len(sources)
                    source_index[name] = code
                    sources.append(name)
                    url_paths.append(url_path)
                elif url_paths[code] != url_path:
                    raise ValueError(
                        f"source {name!r} maps to conflicting URL paths "
                        f"{url_paths[code]!r} and {url_path!r}"
                    )
                source_map[local] = code
            timestamps.append(part.timestamps)
            session_codes.append(part.session_codes + session_offset)
            presented = part.presented_codes.copy()
            presented[presented >= 0] += cookie_offset
            presented_codes.append(presented)
            served_codes.append(part.served_codes + cookie_offset)
            source_codes.append(
                source_map[part.source_codes] if len(part.sources) else part.source_codes
            )
            cookie_values.extend(part.cookie_values)
            session_offset += part.n_sessions
        return cls(
            timestamps=np.concatenate(timestamps),
            session_codes=np.concatenate(session_codes),
            presented_codes=np.concatenate(presented_codes),
            served_codes=np.concatenate(served_codes),
            source_codes=np.concatenate(source_codes),
            cookie_values=cookie_values,
            sources=sources,
            url_paths=url_paths,
            sessions=SessionArrays.concat([part.sessions for part in parts]),
        )

    # -- decoded row views ------------------------------------------------------

    def attribute_rows(self, attribute) -> Tuple[np.ndarray, List[Any]]:
        """Per-row raw-value codes of fingerprint *attribute*.

        ``codes[row]`` indexes the returned decode list, or is ``-1`` when
        the row's session does not carry the attribute — the columnar
        counterpart of reading ``record.attribute(attribute)`` per row.
        The per-session column is computed once per attribute and shared
        by every row subset (:meth:`take` shares the session block).
        """

        name = attribute.value if isinstance(attribute, Attribute) else str(attribute)
        codes, values = self.sessions.attribute_value_codes(name)
        return codes[self.session_codes], values

    def evaded_rows(self, detector: str) -> np.ndarray:
        """Boolean per-row evasion column of *detector*, straight from the
        session-deduplicated decision arrays (``evaded == not is_bot``) —
        no decision object is ever decoded."""

        if detector == "DataDome":
            per_session_decision = self.sessions.session_datadome
        elif detector == "BotD":
            per_session_decision = self.sessions.session_botd
        else:
            raise KeyError(f"unknown detector {detector!r}")
        if not self.n_sessions:
            return np.zeros(self.n_rows, dtype=bool)
        evaded = ~np.asarray(self.sessions.decision_is_bot, dtype=bool)
        return evaded[per_session_decision][self.session_codes]

    # -- persistence ------------------------------------------------------------

    def to_payload(self) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """Split into a (numeric arrays, JSON-able meta) pair for ``.npz``
        persistence; inverse of :meth:`from_payload`.

        Format v4: every session dictionary travels as code arrays; the
        JSON meta holds only the decode lists (strings and raw scalar
        values), never a serialised object.  Fingerprint value tables are
        JSON-safe because every canonical value is a scalar or a tuple
        (tuples round-trip as lists, restored on read).
        """

        if self.request_ids is None:
            raise ValueError("only renumbered record columns can be persisted")
        sessions = self.sessions
        arrays = {
            "timestamps": self.timestamps,
            "session_codes": self.session_codes,
            "presented_codes": self.presented_codes,
            "served_codes": self.served_codes,
            "source_codes": self.source_codes,
            "request_ids": self.request_ids,
            "session_headers": sessions.session_headers,
            "session_datadome": sessions.session_datadome,
            "session_botd": sessions.session_botd,
            "fp_attr_codes": sessions.fp_attr_codes,
            "fp_value_codes": sessions.fp_value_codes,
            "fp_offsets": sessions.fp_offsets,
            "header_key_codes": sessions.header_key_codes,
            "header_value_codes": sessions.header_value_codes,
            "header_offsets": sessions.header_offsets,
            "decision_detectors": sessions.decision_detectors,
            "decision_is_bot": sessions.decision_is_bot,
            "decision_scores": sessions.decision_scores,
            "decision_signal_codes": sessions.decision_signal_codes,
            "decision_signal_offsets": sessions.decision_signal_offsets,
        }
        meta = {
            "cookie_values": list(self.cookie_values),
            "sources": list(self.sources),
            "url_paths": list(self.url_paths),
            "session_ips": list(sessions.session_ips),
            "fp_attribute_names": list(sessions.fp_attribute_names),
            "fp_values": [
                [list(value) if isinstance(value, tuple) else value for value in values]
                for values in sessions.fp_values
            ],
            "header_keys": list(sessions.header_keys),
            "header_values": list(sessions.header_values),
            "decision_detector_names": list(sessions.decision_detector_names),
            "decision_signal_values": list(sessions.decision_signal_values),
        }
        return arrays, meta

    @classmethod
    def from_payload(cls, arrays: Mapping[str, Any], meta: Mapping[str, Any]) -> "RecordColumns":
        """Rebuild record columns persisted by :meth:`to_payload`.

        The arrays are adopted directly — matching dtypes make every
        ``asarray`` a zero-copy view, so a memory-mapped archive stays on
        disk.  Raises :class:`StoreFormatError` on any internal
        inconsistency (ragged arrays, out-of-range codes) so a truncated or
        corrupt archive reads as a cache miss, never as a silently wrong
        corpus.
        """

        def _typed(name: str, dtype) -> np.ndarray:
            return np.asarray(arrays[name], dtype=dtype)

        shared = dict(
            timestamps=_typed("timestamps", np.float64),
            session_codes=_typed("session_codes", np.int64),
            presented_codes=_typed("presented_codes", np.int32),
            served_codes=_typed("served_codes", np.int32),
            source_codes=_typed("source_codes", np.int32),
            request_ids=_typed("request_ids", np.int64),
            cookie_values=[str(value) for value in meta["cookie_values"]],
            sources=[str(value) for value in meta["sources"]],
            url_paths=[str(value) for value in meta["url_paths"]],
        )
        # Code and offset arrays adopt whatever (minimal) dtype the
        # encoder packed them to — an as-is ``asarray`` is a zero-copy
        # view, which keeps a memory-mapped archive on disk.
        sessions = SessionArrays(
            fp_attr_codes=np.asarray(arrays["fp_attr_codes"]),
            fp_value_codes=np.asarray(arrays["fp_value_codes"]),
            fp_offsets=np.asarray(arrays["fp_offsets"]),
            fp_attribute_names=[str(name) for name in meta["fp_attribute_names"]],
            fp_values=[
                [tuple(value) if isinstance(value, list) else value for value in values]
                for values in meta["fp_values"]
            ],
            header_key_codes=np.asarray(arrays["header_key_codes"]),
            header_value_codes=np.asarray(arrays["header_value_codes"]),
            header_offsets=np.asarray(arrays["header_offsets"]),
            header_keys=[str(key) for key in meta["header_keys"]],
            header_values=[str(value) for value in meta["header_values"]],
            session_headers=np.asarray(arrays["session_headers"]),
            session_datadome=np.asarray(arrays["session_datadome"]),
            session_botd=np.asarray(arrays["session_botd"]),
            session_ips=[str(value) for value in meta["session_ips"]],
            decision_detectors=np.asarray(arrays["decision_detectors"]),
            decision_is_bot=_typed("decision_is_bot", bool),
            decision_scores=_typed("decision_scores", np.float64),
            decision_signal_codes=np.asarray(arrays["decision_signal_codes"]),
            decision_signal_offsets=np.asarray(arrays["decision_signal_offsets"]),
            decision_detector_names=[
                str(name) for name in meta["decision_detector_names"]
            ],
            decision_signal_values=[
                str(value) for value in meta["decision_signal_values"]
            ],
        )
        columns = cls(**shared, sessions=sessions)
        columns.validate()
        return columns

    def validate(self) -> None:
        """Check internal consistency; raises :class:`StoreFormatError`."""

        n = self.n_rows
        per_row = (
            self.session_codes,
            self.presented_codes,
            self.served_codes,
            self.source_codes,
        ) + (() if self.request_ids is None else (self.request_ids,))
        if any(column.size != n for column in per_row):
            raise StoreFormatError("record columns are ragged")
        if len(self.sources) != len(self.url_paths):
            raise StoreFormatError("source and URL dictionaries disagree")
        self.sessions.validate()

        def _in_range(codes: np.ndarray, size: int, allow_missing: bool = False) -> bool:
            if not codes.size:
                return True
            low = -1 if allow_missing else 0
            return int(codes.min()) >= low and int(codes.max()) < size

        if not (
            _in_range(self.session_codes, self.n_sessions)
            and _in_range(self.presented_codes, len(self.cookie_values), allow_missing=True)
            and _in_range(self.served_codes, len(self.cookie_values))
            and _in_range(self.source_codes, len(self.sources))
        ):
            raise StoreFormatError("record columns contain out-of-range codes")


def canonical_codes(keys: Sequence) -> np.ndarray:
    """Per entry of *keys*, the index of the first entry equal to it
    (``-1`` for ``None``).

    Equal keys under different indexes share one code, so a row column
    re-coded through these codes has as many distinct codes as distinct
    keys, without decoding a key per row.
    """

    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    first[None] = -1
    return np.fromiter(map(first.__getitem__, keys), dtype=np.int64, count=len(keys))


def first_occurrence_recode(row_codes: np.ndarray, keys: Sequence) -> Tuple[np.ndarray, List]:
    """Re-code a row column by ``keys[code]`` in row first-occurrence order.

    ``row_codes`` may contain ``-1`` (value missing) and several input
    codes may share one key; both the missing rows and the rows whose key
    is ``None`` map to ``-1``.  Output codes count up in the order their
    key first appears in row order — exactly factorizing the decoded
    per-row keys (the insertion order of a dict accumulated row by row,
    which the figures' stable sorts tie-break on), without decoding a key
    per row.
    """

    n_keys = len(keys)
    row_codes = np.asarray(row_codes, dtype=np.int64)
    canon_rows = np.append(canonical_codes(keys), -1)[row_codes]
    valid = canon_rows >= 0
    out = np.full(row_codes.size, -1, dtype=np.int64)
    if not valid.any():
        return out, []
    positions = np.nonzero(valid)[0]
    first_row = np.full(n_keys, row_codes.size, dtype=np.int64)
    np.minimum.at(first_row, canon_rows[valid], positions)
    used = np.nonzero(first_row < row_codes.size)[0]
    used = used[np.argsort(first_row[used], kind="stable")]
    remap = np.full(n_keys, -1, dtype=np.int64)
    remap[used] = np.arange(used.size, dtype=np.int64)
    out[valid] = remap[canon_rows[valid]]
    return out, [keys[int(code)] for code in used]


class RecordColumnsBuilder:
    """Shard-side accumulator filling a :class:`RecordColumns`.

    A :class:`~repro.honeysite.site.SessionRecorder` appends one row per
    emitted request here; session-constant objects register once
    (the builder's dictionaries pin every registered object, so identity
    keys can never alias a collected object).
    """

    def __init__(self):
        self._timestamps: List[float] = []
        self._session_rows: List[int] = []
        self._presented: List[int] = []
        self._served: List[int] = []
        self._source_rows: List[int] = []
        self._cookie_index: Dict[str, int] = {}
        self.cookie_values: List[str] = []
        self._source_index: Dict[str, int] = {}
        self.sources: List[str] = []
        self.url_paths: List[str] = []
        self.session_fingerprints: List[Fingerprint] = []
        self._session_headers: List[int] = []
        self._session_datadome: List[int] = []
        self._session_botd: List[int] = []
        self.session_ips: List[str] = []
        self._headers_index: Dict[int, int] = {}
        self.headers: List[Mapping[str, str]] = []
        self._decisions_index: Dict[int, int] = {}
        self.decisions: List[Decision] = []

    def _cookie_code(self, value: Optional[str]) -> int:
        if not value:
            return -1
        code = self._cookie_index.get(value)
        if code is None:
            code = len(self.cookie_values)
            self._cookie_index[value] = code
            self.cookie_values.append(value)
        return code

    def _decision_code(self, decision: Decision) -> int:
        code = self._decisions_index.get(id(decision))
        if code is None:
            code = len(self.decisions)
            self._decisions_index[id(decision)] = code
            self.decisions.append(decision)
        return code

    def _session_code(self, material) -> int:
        code = material.payload_code
        if code is None:
            code = len(self.session_fingerprints)
            material.payload_code = code
            self.session_fingerprints.append(material.fingerprint)
            headers_code = self._headers_index.get(id(material.headers))
            if headers_code is None:
                headers_code = len(self.headers)
                self._headers_index[id(material.headers)] = headers_code
                self.headers.append(material.headers)
            self._session_headers.append(headers_code)
            self._session_datadome.append(self._decision_code(material.datadome))
            self._session_botd.append(self._decision_code(material.botd))
            self.session_ips.append(material.ip_address)
        return code

    def append(
        self,
        material,
        *,
        url_path: str,
        source: str,
        timestamp: float,
        presented: Optional[str],
        served: str,
    ) -> None:
        """Record one request of *material*'s session."""

        source_code = self._source_index.get(source)
        if source_code is None:
            source_code = len(self.sources)
            self._source_index[source] = source_code
            self.sources.append(source)
            self.url_paths.append(url_path)
        self._session_rows.append(self._session_code(material))
        self._timestamps.append(timestamp)
        self._presented.append(self._cookie_code(presented))
        self._served.append(self._cookie_code(served))
        self._source_rows.append(source_code)

    def columns(self) -> RecordColumns:
        """Freeze the accumulated rows into a :class:`RecordColumns`."""

        return RecordColumns(
            timestamps=np.array(self._timestamps, dtype=np.float64),
            session_codes=np.array(self._session_rows, dtype=np.int64),
            presented_codes=np.array(self._presented, dtype=np.int32),
            served_codes=np.array(self._served, dtype=np.int32),
            source_codes=np.array(self._source_rows, dtype=np.int32),
            cookie_values=self.cookie_values,
            sources=self.sources,
            url_paths=self.url_paths,
            session_fingerprints=self.session_fingerprints,
            session_headers=np.array(self._session_headers, dtype=np.int32),
            session_datadome=np.array(self._session_datadome, dtype=np.int32),
            session_botd=np.array(self._session_botd, dtype=np.int32),
            session_ips=self.session_ips,
            headers=self.headers,
            decisions=self.decisions,
        )


#: Process-wide total of record objects built out of request stores.  The
#: store has no record objects, so nothing increments it and it reads 0 by
#: construction; ``repro report --check-materialization`` and its JSON key
#: still read it through :func:`materialized_record_count`.
_MATERIALIZED_RECORDS = obs.counter(
    "repro_records_materialized_total",
    "Record objects materialised out of request stores.",
    always=True,
)


def materialized_record_count() -> int:
    """Total record objects materialised out of stores since process start.

    Reads the ``repro_records_materialized_total`` counter of the
    :mod:`repro.obs` registry; ``repro report`` reports the delta over a
    run, which is 0 because a :class:`RequestStore` cannot build records.
    """

    return int(_MATERIALIZED_RECORDS.value())


class RequestStore:
    """The request store: an immutable view over :class:`RecordColumns`.

    Every query — lengths, source subsets, splits, evasion columns,
    distinct counts — is answered from the arrays, and subsets are row
    slices sharing the session block.  The corpus coordinator builds the
    store after the shard merge; detection tables come from its columns
    through :meth:`~repro.core.detector.FPInconsistent.extract_table`.
    """

    def __init__(self, columns: RecordColumns):
        if columns.request_ids is None:
            raise ValueError(
                "a store needs renumbered columns (request ids 1..N)"
            )
        self._columns = columns

    @property
    def columns(self) -> RecordColumns:
        return self._columns

    def __len__(self) -> int:
        return self._columns.n_rows

    # -- row columns -------------------------------------------------------------

    def request_id_array(self) -> np.ndarray:
        """Request ids in store order as an ``int64`` array."""

        return self._columns.request_ids

    def evaded_rows(self, detector: str) -> np.ndarray:
        """Boolean per-row evasion column of *detector* in store order."""

        return self._columns.evaded_rows(detector)

    def source_rows(self) -> Tuple[np.ndarray, List[str], Dict[str, int]]:
        """``(codes, names, name → code)`` of the per-row source column."""

        columns = self._columns
        index = {name: code for code, name in enumerate(columns.sources)}
        return columns.source_codes, list(columns.sources), index

    # -- subsets -----------------------------------------------------------------

    def take(self, rows) -> "RequestStore":
        """New store of the rows at positions *rows*, in that order."""

        return RequestStore(self._columns.take(np.asarray(rows, dtype=np.int64)))

    def by_sources(self, sources: Iterable[str]) -> "RequestStore":
        """Rows attributed to any source in *sources*."""

        names = frozenset(sources)
        columns = self._columns
        wanted = np.fromiter(
            (name in names for name in columns.sources),
            dtype=bool,
            count=len(columns.sources),
        )
        if not wanted.size:
            rows = np.empty(0, dtype=np.int64)
        else:
            rows = np.nonzero(wanted[columns.source_codes])[0]
        return self.take(rows)

    def by_source(self, source: str) -> "RequestStore":
        """Rows attributed to *source*."""

        return self.by_sources((source,))

    # -- aggregate statistics ----------------------------------------------------

    def sources(self) -> Tuple[str, ...]:
        """Source labels present, by descending request count (ties: first
        occurrence)."""

        columns = self._columns
        codes = columns.source_codes
        counts = np.bincount(codes, minlength=len(columns.sources))
        first_row = np.full(counts.size, codes.size, dtype=np.int64)
        np.minimum.at(first_row, codes, np.arange(codes.size, dtype=np.int64))
        present = np.nonzero(counts)[0].tolist()
        present.sort(key=lambda code: int(first_row[code]))
        present.sort(key=lambda code: int(counts[code]), reverse=True)
        return tuple(columns.sources[code] for code in present)

    def evasion_rate(self, detector: str) -> float:
        """Fraction of rows that evaded *detector* (0 when empty)."""

        if not len(self):
            return 0.0
        return int(np.count_nonzero(self._columns.evaded_rows(detector))) / len(self)

    def detection_rate(self, detector: str) -> float:
        """Fraction of rows flagged by *detector* (0 when empty)."""

        if not len(self):
            return 0.0
        return 1.0 - self.evasion_rate(detector)

    def unique_ips(self) -> int:
        """Number of distinct source IP addresses."""

        columns = self._columns
        used = np.unique(columns.session_codes).tolist()
        return len({columns.session_ips[code] for code in used})

    def unique_cookies(self) -> int:
        """Number of distinct first-party cookie values."""

        return int(np.unique(self._columns.served_codes).size)
