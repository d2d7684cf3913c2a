"""Temporal inconsistency detection (Section 7.2).

A temporal inconsistency is a change, across requests from the same device,
of an attribute that cannot change for a real device.  Devices are
identified two ways, exactly as in the paper:

* the honey site's first-party **cookie** — immutable hardware/software
  attributes (platform, CPU core count, device memory, …) must not vary
  across requests carrying the same cookie;
* the **IP address** — the set of browser timezones reported from one
  address must not keep growing (a household has one, maybe two zones).

The detector is streaming: requests are processed in timestamp order and a
request is flagged when it *increases* the number of distinct values of a
tracked attribute for its device key, mirroring the paper's "if an incoming
request increases the number of unique attribute values associated with
previous identifiers, we consider that request to be temporally
inconsistent".
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import intern_values
from repro.fingerprint.attributes import Attribute

#: Immutable attributes tracked per cookie by default (Section 7.2 names
#: hardware concurrency, device memory and the platform example of §6.3).
DEFAULT_COOKIE_ATTRIBUTES: Tuple[Attribute, ...] = (
    Attribute.PLATFORM,
    Attribute.HARDWARE_CONCURRENCY,
    Attribute.DEVICE_MEMORY,
    Attribute.MAX_TOUCH_POINTS,
    Attribute.COLOR_DEPTH,
)

#: Attributes tracked per IP address by default.
DEFAULT_IP_ATTRIBUTES: Tuple[Attribute, ...] = (Attribute.TIMEZONE,)

#: How many distinct values are tolerated per (device, attribute) before a
#: further new value is considered inconsistent.  1 means "any change is
#: inconsistent" (the paper's rule for cookie-keyed attributes); the IP key
#: tolerates 2 zones (e.g. a laptop commuting between home and office).
DEFAULT_COOKIE_TOLERANCE = 1
DEFAULT_IP_TOLERANCE = 2


#: Resting value of :attr:`_SeenColumn.sighting`: after every row position.
_UNSEEN = np.iinfo(np.int64).max


class _SeenColumn:
    """Seen-state of one (key kind, attribute) pair, indexed by state key id.

    ``first[key]`` is the first value id observed for *key* (``-1`` while
    the key is untracked).  Almost every key keeps one value forever, so
    only keys that grew past it get an ``overflow`` entry: every value id
    they hold, first one included, in observation order.  ``stamp[key]``
    is the state epoch of the key's last change.  ``sighting`` is scratch
    for :meth:`observe`: every entry rests at :data:`_UNSEEN` between
    calls.
    """

    __slots__ = ("first", "stamp", "sighting", "overflow")

    def __init__(self):
        self.first = np.full(0, -1, dtype=np.int32)
        self.stamp = np.zeros(0, dtype=np.int32)
        self.sighting = np.full(0, _UNSEEN, dtype=np.int64)
        self.overflow: Dict[int, List[int]] = {}

    def reserve(self, n_keys: int) -> None:
        size = self.first.size
        if n_keys > size:
            grown = max(n_keys, 2 * size) - size
            self.first = np.concatenate([self.first, np.full(grown, -1, dtype=np.int32)])
            self.stamp = np.concatenate([self.stamp, np.zeros(grown, dtype=np.int32)])
            self.sighting = np.concatenate([self.sighting, np.full(grown, _UNSEEN, dtype=np.int64)])

    def observe(self, keys: np.ndarray, values: np.ndarray, tolerance: int, epoch: int):
        """Stream time-ordered ``(key, value)`` ids; returns the flagged ones.

        Every row whose value is its key's first value, and every first
        sighting of a key, is settled in one vectorized pass: the earliest
        position of each untracked key is an ``np.minimum.at`` into
        ``sighting``, touching only those rows.  Only the rows left — a
        known key showing another value — walk Python, in order.  Returns
        ``(position, previous value ids, new value id)`` per flagged
        position.
        """

        first = self.first
        current = first[keys]
        fresh = np.flatnonzero(current < 0)
        if fresh.size:
            fresh_keys = keys[fresh]
            sighting = self.sighting
            np.minimum.at(sighting, fresh_keys, fresh)
            earliest = sighting[fresh_keys] == fresh
            new_keys = fresh_keys[earliest]
            first[new_keys] = values[fresh[earliest]]
            self.stamp[new_keys] = epoch
            sighting[new_keys] = _UNSEEN
            current = first[keys]
        rare = np.flatnonzero(values != current)
        hits = []
        changed = []
        overflow = self.overflow
        for position, key, value, held_first in zip(
            rare.tolist(), keys[rare].tolist(), values[rare].tolist(), current[rare].tolist()
        ):
            held = overflow.get(key)
            if held is None:
                held = overflow[key] = [held_first]
            elif value in held:
                continue
            if len(held) >= tolerance:
                hits.append((position, tuple(held), value))
            held.append(value)
            changed.append(key)
        self.stamp[changed] = epoch
        return hits


class _Vocabulary:
    """Items by state id, for one key kind or attribute.

    The first decode list a slot meets is adopted as is: ids are its
    codes, so nothing is interned, and it may keep growing.  A second
    decode list turns the vocabulary into an owned copy with an index,
    into which every later list interns its items.  Either way equal items
    share one id, because a decode list holds each item once.
    """

    __slots__ = ("items", "index", "drop_falsy")

    def __init__(self, decode: List, drop_falsy: bool):
        self.items = decode
        self.index: Optional[Dict] = None
        #: keys only: a falsy key ("" cookie) maps to -1 and tracks nothing
        self.drop_falsy = drop_falsy

    def ids(self, decode: List, start: int) -> np.ndarray:
        """State ids of ``decode[start:]``."""

        tail = decode[start:]
        if decode is self.items:
            ids = np.arange(start, len(decode), dtype=np.int64)
            if self.drop_falsy and "" in tail:
                ids[tail.index("")] = -1
            return ids
        if self.index is None:
            self.items = list(self.items)
            self.index = dict(zip(self.items, range(len(self.items))))
            if self.drop_falsy:
                self.index[""] = -1
        return intern_values(tail, self.index, self.items)


class TemporalStreamState:
    """Per-device seen-state carried across micro-batches.

    The streaming subsystem (:mod:`repro.stream`) scores traffic batch by
    batch; temporal detection is the one stateful part, so its state lives
    in an explicit object handed back to
    :meth:`TemporalInconsistencyDetector.observe_table` on every batch
    instead of being rebuilt from the whole history.  Keys are the decoded
    device identifiers (cookie / address *strings*), never table-local
    value codes, so state survives vocabulary growth and is meaningful
    across any sequence of tables.

    The state maps keys and values to its own ids (see
    :class:`_Vocabulary`) and holds, per (key kind, attribute), a
    first-value array indexed by key id plus a small overflow map for the
    keys that grew past one value (see :class:`_SeenColumn`).  Table codes
    reach those ids through remap arrays cached per decode list, which
    only ever grow, so scoring a batch is a gather plus Python work for
    the rare rows that can flag.

    Every change is stamped with the current ``epoch``, so a checkpointer
    finds what changed since its last save with one comparison per column
    (:meth:`close_epoch`, :meth:`changes_since`).
    """

    __slots__ = ("_vocabularies", "_remaps", "_columns", "epoch")

    def __init__(self):
        #: ("key", kind) / ("value", attribute) -> its vocabulary
        self._vocabularies: Dict[Tuple, _Vocabulary] = {}
        #: same slots -> (decode list, its codes remapped to ids)
        self._remaps: Dict[Tuple, Tuple[List, np.ndarray]] = {}
        self._columns: Dict[Tuple[str, Attribute], _SeenColumn] = {}
        #: the stamp the next change receives (see :meth:`close_epoch`)
        self.epoch = 1

    # -- vocabularies ------------------------------------------------------------

    def _remap(self, slot: Tuple, decode: List) -> np.ndarray:
        """Decode-list codes -> state ids, extended as *decode* grows.

        Decode lists only ever grow (codes never change meaning), so the
        cached remap of a list stays valid for the prefix it covers.
        """

        cached = self._remaps.get(slot)
        if cached is not None and cached[0] is decode:
            remap = cached[1]
            if remap.size == len(decode):
                return remap
        else:
            remap = np.empty(0, dtype=np.int64)
        vocabulary = self._vocabularies.get(slot)
        if vocabulary is None:
            vocabulary = self._vocabularies[slot] = _Vocabulary(decode, slot[0] == "key")
        remap = np.concatenate([remap, vocabulary.ids(decode, remap.size)])
        self._remaps[slot] = (decode, remap)
        return remap

    def key_remap(self, kind: str, decode: List[str]) -> np.ndarray:
        """State key ids of a key decode list; falsy keys map to ``-1``."""

        return self._remap(("key", kind), decode)

    def value_remap(self, attribute: Attribute, decode: List) -> np.ndarray:
        """State value ids of an attribute decode list."""

        return self._remap(("value", attribute), decode)

    def keys_of(self, kind: str) -> List[str]:
        """Key strings by state key id."""

        vocabulary = self._vocabularies.get(("key", kind))
        return [] if vocabulary is None else vocabulary.items

    def values_of(self, attribute: Attribute) -> List[object]:
        """Attribute values by state value id."""

        vocabulary = self._vocabularies.get(("value", attribute))
        return [] if vocabulary is None else vocabulary.items

    def column(self, kind: str, attribute: Attribute) -> _SeenColumn:
        """The (kind, attribute) column, sized for every interned key."""

        column = self._columns.get((kind, attribute))
        if column is None:
            column = self._columns[(kind, attribute)] = _SeenColumn()
        column.reserve(len(self.keys_of(kind)))
        return column

    # -- change tracking ---------------------------------------------------------

    def close_epoch(self) -> int:
        """End the current epoch and return it; later changes stamp higher."""

        closed = self.epoch
        self.epoch += 1
        return closed

    def changes_since(self, epoch: int):
        """Entries changed after *epoch*, one group per (kind, attribute).

        Yields ``(kind, attribute, keys, counts, values)``: ascending key
        ids, each key's value count, and every value id of each key
        concatenated in observation order.  A key without overflow holds
        its first value alone, so the group is gathered from ``first``;
        only the changed overflow keys walk Python, and their value runs
        are scattered into place.
        """

        for (kind, attribute), column in self._columns.items():
            keys = np.flatnonzero(column.stamp > epoch)
            if not keys.size:
                continue
            counts = np.ones(keys.size, dtype=np.int64)
            values = column.first[keys].astype(np.int64)
            overflow = column.overflow
            if overflow:
                is_grown = np.zeros(column.first.size, dtype=bool)
                is_grown[np.fromiter(overflow, dtype=np.int64, count=len(overflow))] = True
                grown = np.flatnonzero(is_grown[keys])
            else:
                grown = keys[:0]
            if grown.size:
                held = [overflow[key] for key in keys[grown].tolist()]
                grown_counts = np.fromiter(map(len, held), dtype=np.int64, count=grown.size)
                counts[grown] = grown_counts
                starts = np.cumsum(counts) - counts
                firsts, values = values, np.empty(int(counts.sum()), dtype=np.int64)
                values[starts] = firsts
                # Each grown key's run (its first value included): the run
                # start repeated over its count, plus the position within it.
                runs = np.repeat(
                    starts[grown] - (np.cumsum(grown_counts) - grown_counts), grown_counts
                ) + np.arange(int(grown_counts.sum()))
                values[runs] = np.fromiter(
                    chain.from_iterable(held), dtype=np.int64, count=runs.size
                )
            yield kind, attribute, keys, counts, values

    def merge(
        self,
        kind: str,
        attribute: Attribute,
        key_decode: List[str],
        key_codes: np.ndarray,
        value_decode: List,
        counts: np.ndarray,
        value_codes: np.ndarray,
    ) -> None:
        """Union entries given as codes against decode lists (a checkpoint fold).

        Entry *i* holds ``counts[i]`` consecutive values in observation
        order.  Streaming them with no tolerance is an order-preserving
        union, so re-merging a known prefix is harmless.
        """

        keys = np.repeat(self.key_remap(kind, key_decode)[key_codes], counts)
        values = self.value_remap(attribute, value_decode)[value_codes]
        self.column(kind, attribute).observe(keys, values, sys.maxsize, self.epoch)


@dataclass(frozen=True)
class TemporalFlag:
    """Why one request was considered temporally inconsistent."""

    key_kind: str          # "cookie" or "ip"
    key: str
    attribute: Attribute
    previous_values: Tuple[object, ...]
    new_value: object


class TemporalInconsistencyDetector:
    """Streaming detector of temporal inconsistencies.

    The detector is configuration only (tracked attributes and
    tolerances): seen-state lives in a :class:`TemporalStreamState`, fresh
    per :meth:`evaluate_table` call or carried by the caller across
    :meth:`observe_table` calls, so one detector is safe to share.
    """

    def __init__(
        self,
        *,
        cookie_attributes: Sequence[Attribute] = DEFAULT_COOKIE_ATTRIBUTES,
        ip_attributes: Sequence[Attribute] = DEFAULT_IP_ATTRIBUTES,
        cookie_tolerance: int = DEFAULT_COOKIE_TOLERANCE,
        ip_tolerance: int = DEFAULT_IP_TOLERANCE,
    ):
        if cookie_tolerance < 1 or ip_tolerance < 1:
            raise ValueError("tolerances must be at least 1")
        self._cookie_attributes = tuple(cookie_attributes)
        self._ip_attributes = tuple(ip_attributes)
        self._cookie_tolerance = cookie_tolerance
        self._ip_tolerance = ip_tolerance

    @property
    def tracked_attributes(self) -> Tuple[Attribute, ...]:
        """Every attribute this detector tracks (cookie- then IP-keyed)."""

        return self._cookie_attributes + self._ip_attributes

    # -- batch API ------------------------------------------------------------------

    def evaluate_table(self, table) -> Dict[int, List[TemporalFlag]]:
        """Evaluate a columnar table in timestamp order.

        Requests stream in stable timestamp order; a request is flagged
        when it grows its device key's distinct values of a tracked
        attribute past the tolerance.  The stream runs over the table's
        integer code columns through a fresh :class:`TemporalStreamState`,
        decoding to the underlying values only when a flag actually fires,
        so no fingerprint object is touched (and none needs to cross a
        process boundary when shards classify in parallel).  The
        evaluation is self-contained: nothing carries over between calls.
        Returns ``request_id`` → flags for the flagged requests.
        """

        if table.timestamps is None or table.cookie_codes is None or table.ip_codes is None:
            raise ValueError("temporal evaluation requires a table with request metadata")
        return self._stream_table(table, TemporalStreamState())

    # -- incremental (streaming) API ---------------------------------------------

    def new_stream_state(self) -> TemporalStreamState:
        """Fresh cross-batch seen-state for :meth:`observe_table`."""

        return TemporalStreamState()

    def observe_table(
        self, table, state: TemporalStreamState
    ) -> Dict[int, List[TemporalFlag]]:
        """Stream one columnar table (a micro-batch) through *state*.

        The incremental counterpart of :meth:`evaluate_table`: per-device
        seen-state lives in the caller-held *state* and carries across
        calls instead of being reset, so feeding a table's row slices
        through consecutive calls in timestamp order raises exactly the
        flags a single :meth:`evaluate_table` over the whole table would.
        State keys on the *decoded* device identifiers and attribute
        values, never on table-local codes, so any sequence of tables —
        including the growing-vocabulary batches the stream ingestor
        emits — shares one coherent state.

        Rows are processed in timestamp order within the batch; ordering
        across batches is the caller's contract (the replay driver feeds
        batches in global timestamp order).  Returns ``request_id`` →
        flags for the rows this batch flagged.
        """

        if table.timestamps is None or table.cookie_codes is None or table.ip_codes is None:
            raise ValueError("temporal observation requires a table with request metadata")
        return self._stream_table(table, state)

    def _stream_table(
        self, table, state: TemporalStreamState
    ) -> Dict[int, List[TemporalFlag]]:
        """Stream *table* through *state* in timestamp order."""

        time_order = np.argsort(table.timestamps, kind="stable")
        time_rank = np.empty(table.n_rows, dtype=np.int64)
        time_rank[time_order] = np.arange(table.n_rows)

        # Columns stream in the order a per-request check raises flags
        # (cookie attributes, then IP ones), so appending per row keeps that
        # order; state is independent per (key, attribute), so streaming
        # column-wise is equivalent to row-wise observation.
        per_row: Dict[int, List[TemporalFlag]] = {}
        epoch = state.epoch
        for kind, key_codes, key_values, attributes, tolerance in (
            ("cookie", table.cookie_codes, table.cookie_values,
             self._cookie_attributes, self._cookie_tolerance),
            ("ip", table.ip_codes, table.ip_values,
             self._ip_attributes, self._ip_tolerance),
        ):
            # Falsy keys ("" cookie) map to -1 and track nothing.
            row_keys = np.full(table.n_rows, -1, dtype=np.int64)
            present = key_codes >= 0
            if present.any():
                row_keys[present] = state.key_remap(kind, key_values)[key_codes[present]]
            keyed = time_order[row_keys[time_order] >= 0]
            key_strings = state.keys_of(kind)
            for attribute in attributes:
                table.require_attribute(attribute, "tracked attribute")
                codes = table.codes_of(attribute)
                rows = keyed[codes[keyed] >= 0]
                if not rows.size:
                    continue
                keys = row_keys[rows]
                value_ids = state.value_remap(attribute, table.values_of(attribute))[codes[rows]]
                hits = state.column(kind, attribute).observe(keys, value_ids, tolerance, epoch)
                if not hits:
                    continue
                positions = [hit[0] for hit in hits]
                values = state.values_of(attribute)
                for row, key, (_position, previous, new) in zip(
                    rows[positions].tolist(), keys[positions].tolist(), hits
                ):
                    per_row.setdefault(row, []).append(
                        TemporalFlag(
                            kind, key_strings[key], attribute,
                            tuple([values[code] for code in previous]), values[new],
                        )
                    )

        flagged = np.fromiter(per_row, dtype=np.int64, count=len(per_row))
        flagged = flagged[np.argsort(time_rank[flagged])]
        return dict(
            zip(table.request_ids[flagged].tolist(), [per_row[row] for row in flagged.tolist()])
        )
