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
from itertools import chain
from typing import Dict, List, Sequence, Tuple

import numpy as np

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


#: Resting value of :attr:`_SeenKind.sighting`: after every row position.
_UNSEEN = np.iinfo(np.int64).max


def run_positions(counts: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """Positions of the entries of *runs*, in order, in a flat array of
    consecutive runs of ``counts[i]`` entries each."""

    taken = counts[runs]
    starts = (np.cumsum(counts) - counts)[runs]
    return np.repeat(starts - (np.cumsum(taken) - taken), taken) + np.arange(int(taken.sum()))


def _grown(array: np.ndarray, shape: Tuple[int, int], fill) -> np.ndarray:
    grown = np.full(shape, fill, dtype=array.dtype)
    grown[: array.shape[0], : array.shape[1]] = array
    return grown


class _SeenKind:
    """Seen-state of one key kind: a row per attribute, a column per key id.

    ``first[row, key]`` is the first value id observed for *key* (``-1``
    while the key is untracked).  Almost every key keeps one value
    forever, so only keys that grew past it get an entry in their row's
    ``overflow``: every value id they hold, the first one included, in
    observation order.  ``stamp[row, key]`` is the state epoch of the
    entry's last change.  ``sighting`` is scratch for :meth:`observe`:
    every entry rests at :data:`_UNSEEN` between calls.
    """

    __slots__ = ("rows", "first", "stamp", "sighting", "overflow")

    def __init__(self):
        #: attribute -> its row, in the order attributes were first tracked
        self.rows: Dict[Attribute, int] = {}
        self.first = np.full((0, 0), -1, dtype=np.int32)
        self.stamp = np.zeros((0, 0), dtype=np.int32)
        self.sighting = np.full((0, 0), _UNSEEN, dtype=np.int64)
        self.overflow: List[Dict[int, List[int]]] = []

    def reserve(self, attributes: Sequence[Attribute], n_keys: int) -> np.ndarray:
        """The rows of *attributes*, added as needed, with room for *n_keys* keys."""

        for attribute in attributes:
            if attribute not in self.rows:
                self.rows[attribute] = len(self.rows)
                self.overflow.append({})
        size = self.first.shape[1]
        shape = (len(self.rows), max(n_keys, 2 * size) if n_keys > size else size)
        if shape != self.first.shape:
            self.first = _grown(self.first, shape, -1)
            self.stamp = _grown(self.stamp, shape, 0)
            self.sighting = _grown(self.sighting, shape, _UNSEEN)
        return np.array([self.rows[attribute] for attribute in attributes], dtype=np.int64)

    def observe(self, rows: np.ndarray, keys: np.ndarray, values: np.ndarray,
                tolerance: int, epoch: int):
        """Stream time-ordered key ids and their value ids; returns the flags.

        ``values[i, j]`` is the value id of attribute row ``rows[i]`` that
        position *j* (key ``keys[j]``) shows, ``-1`` for none.  Every first
        sighting of an entry is settled for all the rows at once: its
        earliest position is one ``np.minimum.at`` into ``sighting``, which
        touches only those entries.  Every position showing its entry's
        first value is settled by comparison.  Only the positions left — a
        known entry showing another value — walk Python, in order.

        Returns the flags as columns: flat positions ``i * len(keys) + j``
        (ascending), each flag's count of previous value ids, those ids
        concatenated, and each new value id.
        """

        width = self.first.shape[1]
        slots = (rows[:, None] * width + keys).reshape(-1)
        values = values.reshape(-1)
        carried = values >= 0
        first, stamp = self.first.reshape(-1), self.stamp.reshape(-1)
        current = first[slots]
        fresh = np.flatnonzero(carried & (current < 0))
        if fresh.size:
            fresh_slots = slots[fresh]
            sighting = self.sighting.reshape(-1)
            np.minimum.at(sighting, fresh_slots, fresh)
            sighted = fresh_slots[sighting[fresh_slots] == fresh]
            first[sighted] = values[sighting[sighted]]
            stamp[sighted] = epoch
            sighting[sighted] = _UNSEEN
            current[fresh] = first[fresh_slots]
        rare = np.flatnonzero(carried & (values != current))
        positions, counts, previous, new, grew = [], [], [], [], []
        overflows = self.overflow
        rare_rows, rare_keys = np.divmod(slots[rare], width)
        for position, row, key, value, held_first in zip(
            rare.tolist(), rare_rows.tolist(), rare_keys.tolist(), values[rare].tolist(),
            current[rare].tolist(),
        ):
            overflow = overflows[row]
            held = overflow.get(key)
            if held is None:
                held = overflow[key] = [held_first]
            elif value in held:
                continue
            if len(held) >= tolerance:
                positions.append(position)
                counts.append(len(held))
                previous += held
                new.append(value)
            held.append(value)
            grew.append(row * width + key)
        stamp[grew] = epoch
        return tuple(
            np.array(column, dtype=np.int64) for column in (positions, counts, previous, new)
        )


class TemporalStreamState:
    """Per-device seen-state carried across micro-batches.

    Temporal detection is the one stateful part of scoring, so its state
    is an explicit object handed to
    :meth:`TemporalInconsistencyDetector.observe_table` on every batch.
    Each slot (``("key", kind)`` / ``("value", attribute)``) is bound to
    the first decode list it meets, and its ids are that list's codes: the
    list may keep growing (codes never change meaning), but a second list
    for a bound slot is refused.  Per key kind a :class:`_SeenKind` holds
    each key's values, one row per attribute.  Every change is stamped
    with the current ``epoch``, so a checkpointer finds what changed since
    its last save with one comparison per row (:meth:`close_epoch`,
    :meth:`changes_since`).
    """

    __slots__ = ("_bound", "_kinds", "epoch")

    def __init__(self):
        #: slot -> [its decode list, how much of it was scanned for "", the code of ""]
        self._bound: Dict[Tuple, List] = {}
        self._kinds: Dict[str, _SeenKind] = {}
        #: the stamp the next change receives (see :meth:`close_epoch`)
        self.epoch = 1

    # -- decode lists ------------------------------------------------------------

    def bind(self, slot: Tuple, decode: List) -> int:
        """Bind *slot* to *decode* (a no-op once bound to it) and return the
        code of the falsy key ``""``, which tracks nothing (``-1``: none).

        Only the tail added since the last call is scanned for ``""``; a
        decode list holds each item once, so a found code stays.
        """

        bound = self._bound.setdefault(slot, [decode, 0, -1])
        if bound[0] is not decode:
            raise ValueError(f"temporal state slot {slot} is bound to another decode list")
        if slot[0] == "key" and bound[2] < 0 and bound[1] < len(decode):
            try:
                bound[2] = decode.index("", bound[1])
            except ValueError:
                bound[1] = len(decode)
        return bound[2]

    def items(self, slot: Tuple) -> List:
        """The decode list bound to *slot* (its keys or values by id)."""

        bound = self._bound.get(slot)
        return [] if bound is None else bound[0]

    def seen(self, kind: str, attributes: Sequence[Attribute]) -> Tuple[_SeenKind, np.ndarray]:
        """The *kind* seen-state, sized for every key of its decode list,
        and the rows of *attributes* in it."""

        seen = self._kinds.get(kind)
        if seen is None:
            seen = self._kinds[kind] = _SeenKind()
        return seen, seen.reserve(attributes, len(self.items(("key", kind))))

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

        for kind, seen in self._kinds.items():
            for attribute, row in seen.rows.items():
                keys = np.flatnonzero(seen.stamp[row] > epoch)
                if not keys.size:
                    continue
                counts = np.ones(keys.size, dtype=np.int64)
                values = seen.first[row, keys].astype(np.int64)
                overflow = seen.overflow[row]
                if overflow:
                    is_grown = np.zeros(seen.first.shape[1], dtype=bool)
                    is_grown[np.fromiter(overflow, dtype=np.int64, count=len(overflow))] = True
                    grown = np.flatnonzero(is_grown[keys])
                    held = [overflow[key] for key in keys[grown].tolist()]
                    counts[grown] = np.fromiter(map(len, held), dtype=np.int64, count=grown.size)
                    starts = np.cumsum(counts) - counts
                    firsts, values = values, np.empty(int(counts.sum()), dtype=np.int64)
                    values[starts] = firsts
                    # Each grown key's run, its first value included.
                    runs = run_positions(counts, grown)
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
        """Union entries given as codes against decode lists (a checkpoint fold),
        binding the kind's key slot and the attribute's value slot to them.

        Entry *i* holds ``counts[i]`` consecutive values in observation
        order.  Streaming them with no tolerance is an order-preserving
        union, so re-merging a known prefix is harmless.
        """

        self.bind(("key", kind), key_decode)
        self.bind(("value", attribute), value_decode)
        seen, rows = self.seen(kind, (attribute,))
        seen.observe(rows, np.repeat(key_codes, counts), value_codes[None, :], sys.maxsize,
                     self.epoch)


#: Positions per seen-state pass: a whole table's kind is observed in
#: pieces of this many rows, whose working arrays (every attribute of the
#: kind at once) stay in cache; a stream batch is one piece.
_PASS_ROWS = 4096

#: Every attribute and every device key kind, in one fixed order: flag
#: columns name attributes and kinds by position.
ATTRIBUTES: Tuple[Attribute, ...] = tuple(Attribute)
KEY_KINDS = ("cookie", "ip")

_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.flags.writeable = False


class TemporalFlags:
    """Temporal flags as columns, one entry per flag.

    Entry *i* is raised by row ``row[i]``: device key ``key[i]`` of kind
    ``KEY_KINDS[kind[i]]`` showed value ``new[i]`` of attribute
    ``ATTRIBUTES[attribute[i]]`` after the ``n_prev[i]`` values of its run
    in ``prev``.  Keys and values are ids into ``keys[kind]`` and
    ``values[attribute]``: the decode lists of the state that raised the
    flags, which only ever grow.  A row's flags keep the order its checks
    raised them in (cookie attributes, then IP ones).
    """

    __slots__ = ("row", "kind", "key", "attribute", "new", "n_prev", "prev", "keys", "values")

    def __init__(self, row=_NO_IDS, kind=_NO_IDS, key=_NO_IDS, attribute=_NO_IDS, new=_NO_IDS,
                 n_prev=_NO_IDS, prev=_NO_IDS, keys=None, values=None):
        self.row, self.kind, self.key, self.attribute = row, kind, key, attribute
        self.new, self.n_prev, self.prev = new, n_prev, prev
        self.keys: Dict[int, List[str]] = {} if keys is None else keys
        self.values: Dict[int, List] = {} if values is None else values

    @classmethod
    def concat(cls, parts: Sequence["TemporalFlags"], offsets: Sequence[int]) -> "TemporalFlags":
        """*parts* in order, each one's rows shifted by its offset.

        Ids are kept as they are, so every part must decode a kind or an
        attribute through the same list (one state raised them all);
        parts decoding a slot through different lists raise ``ValueError``.
        """

        kept = [(part, offset) for part, offset in zip(parts, offsets) if part.row.size]
        if not kept:
            return cls()
        merged = {"keys": {}, "values": {}}
        for part, _offset in kept:
            for field, lists in merged.items():
                for slot, items in getattr(part, field).items():
                    if lists.setdefault(slot, items) is not items:
                        raise ValueError(
                            f"flag parts decode {field} slot {slot} through different lists"
                        )
        columns = [
            (part.row + offset, part.kind, part.key, part.attribute, part.new, part.n_prev,
             part.prev)
            for part, offset in kept
        ]
        return cls(*map(np.concatenate, zip(*columns)), **merged)


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

    def evaluate_table(self, table) -> TemporalFlags:
        """Flags of a columnar table streamed in stable timestamp order
        through a fresh :class:`TemporalStreamState`: a request is flagged
        when it grows its device key's distinct values of a tracked
        attribute past the tolerance.  Rows of the result index *table*."""

        return self._stream_table(table, TemporalStreamState())

    # -- incremental (streaming) API ---------------------------------------------

    def new_stream_state(self) -> TemporalStreamState:
        """Fresh cross-batch seen-state for :meth:`observe_table`."""

        return TemporalStreamState()

    def observe_table(self, table, state: TemporalStreamState) -> TemporalFlags:
        """Stream one columnar table (a micro-batch) through *state*.

        The incremental :meth:`evaluate_table`: seen-state lives in the
        caller-held *state*, whose ids are the codes of the decode lists
        the first table carried, so consecutive calls over a table's row
        slices in timestamp order raise exactly the flags one call over the
        whole table would.  Every table must decode through those lists
        (they may have grown), else ``ValueError``; ordering across batches
        is the caller's contract.
        """

        return self._stream_table(table, state)

    def _stream_table(self, table, state: TemporalStreamState) -> TemporalFlags:
        """Stream *table* through *state* in timestamp order."""

        if table.timestamps is None or table.cookie_codes is None or table.ip_codes is None:
            raise ValueError("temporal detection requires a table with request metadata")
        time_order = np.argsort(table.timestamps, kind="stable")
        time_rank = np.empty(table.n_rows, dtype=np.int64)
        time_rank[time_order] = np.arange(table.n_rows)

        kinds = (
            ("cookie", table.cookie_codes, table.cookie_values,
             self._cookie_attributes, self._cookie_tolerance),
            ("ip", table.ip_codes, table.ip_values, self._ip_attributes, self._ip_tolerance),
        )
        # Ids are the table's codes: bind every slot before observing, so
        # a refused table observes nothing.  A missing key (-1) and the
        # falsy key ("" cookie) track nothing.
        blanks = []
        for kind, _codes, key_values, attributes, _tolerance in kinds:
            for attribute in attributes:
                table.require_attribute(attribute, "tracked attribute")
                state.bind(("value", attribute), table.values_of(attribute))
            blanks.append(state.bind(("key", kind), key_values))
        # State is independent per (key, attribute), so one pass per key
        # kind over all its attributes equals row-wise observation; a pass
        # yields its flags attribute by attribute in a per-request check's
        # order, and a stable sort by arrival restores that order per row.
        found, keys_decode, values_decode = [], {}, {}
        epoch = state.epoch
        for kind_id, (kind, key_codes, key_values, attributes, tolerance) in enumerate(kinds):
            blank = blanks[kind_id]
            tracked = key_codes[time_order]
            keyed = time_order[(tracked >= 0) & (tracked != blank)]
            if not keyed.size or not attributes:
                continue
            keys = key_codes[keyed].astype(np.int64)
            # Value codes per attribute, -1 for a missing value.
            values = np.empty((len(attributes), keyed.size), dtype=np.int64)
            for row, attribute in enumerate(attributes):
                values[row] = table.codes_of(attribute)[keyed]
            seen, rows = state.seen(kind, attributes)
            attribute_ids = np.array([ATTRIBUTES.index(attribute) for attribute in attributes])
            for start in range(0, keyed.size, _PASS_ROWS):
                stop = min(start + _PASS_ROWS, keyed.size)
                flat, counts, previous, new = seen.observe(
                    rows, keys[start:stop], values[:, start:stop], tolerance, epoch
                )
                if not flat.size:
                    continue
                which, positions = np.divmod(flat, stop - start)
                positions += start
                found.append((keyed[positions], np.full(flat.size, kind_id), keys[positions],
                              attribute_ids[which], new, counts, previous))
                keys_decode[kind_id] = key_values
                for index in set(which.tolist()):
                    values_decode[int(attribute_ids[index])] = table.values_of(attributes[index])
        if not found:
            return TemporalFlags()

        row, kind, key, attribute, new, n_prev, prev = (
            np.concatenate([entry[field] for entry in found]) for field in range(7)
        )
        order = np.argsort(time_rank[row], kind="stable")
        return TemporalFlags(
            *(column[order] for column in (row, kind, key, attribute, new, n_prev)),
            prev[run_positions(n_prev, order)],
            keys_decode,
            values_decode,
        )
