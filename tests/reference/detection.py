"""Object-at-a-time reference detection: Algorithm 1 and the temporal checks.

``repro.core`` mines and classifies over columnar code tables.  The code
here is the paper-faithful, request-by-request form of the same
algorithms, kept as the oracle the columnar engine is pinned against
(``tests/test_columnar.py``, ``tests/test_stream.py``, ``tests/test_core.py``):

* :func:`pair_statistics` / :func:`mine` — Algorithm 1 over fingerprint
  objects, one pass per attribute-pair orientation; rule selection is the
  shared :meth:`~repro.core.spatial.SpatialInconsistencyMiner.select_rules`;
* :class:`ObjectTemporalDetector` — the per-request temporal checker with
  its dict-of-ordered-sets state; :func:`changes_since` and
  :func:`encode_seen`, the per-key seen-state delta and its checkpoint
  columns (``tests/test_properties.py``);
* :func:`first_match` — the filter list's index walk per fingerprint,
  and :func:`compile_per_table` / :class:`CompiledFilterList`, the per-table compile
  the incremental matcher replaced, kept to pin it row for row;
  :class:`SearchsortedMatcher`, the sorted-key form of the compiled
  matcher that its dense rank table replaced;
* :class:`SeenColumn` — the seen-state of one (key kind, attribute)
  pair observed one column at a time, which the per-kind pass replaced,
  and :class:`UniqueSeenColumn`, the same column finding first sightings
  with ``np.unique`` instead of a scatter-min;
* :class:`PerAttributeTableEncoder` — the table encoder with one gather
  per attribute (over :func:`attribute_value_codes_scan` columns) and
  cookies and addresses interned by value, which the stacked gather over
  canonical codes replaced;
* :func:`expected_value_count_scan` — the knowledge base's catalogue scan
  per query, which its per-pair index replaced;
* :class:`TemporalFlag` — one flag object, with :func:`flag_objects` /
  :func:`flags_by_request` / :func:`flags_from_objects` converting to and
  from the engine's :class:`~repro.core.temporal.TemporalFlags` columns;
* :class:`InconsistencyVerdict` — one verdict object per request, with
  :func:`verdict_objects` / :func:`verdicts_from_objects` converting to
  and from the engine's :class:`~repro.core.detector.Verdicts` columns,
  and :func:`verdicts_to_jsonable` / :func:`reference_digest`, the
  canonical serialisation (flags included, serialised here) that
  :func:`repro.stream.verdicts_digest` and :func:`repro.stream.same_verdicts`
  are pinned to;
* :func:`fit`, :func:`classify_store` and :func:`evaluate_generalization`
  — the detector and the Section 7.3 check built from those;
* readers of product state only tests need: :func:`rule_matches` /
  :func:`all_matches`, :func:`verdicts_equal`, :func:`value_at` /
  :func:`cookie_at` / :func:`ip_at` on a table, and
  :func:`state_entries` (with :func:`tracked_devices` /
  :func:`observed_values`) on a temporal seen-state.

Every function takes stores (object or columnar; see
:func:`reference.store.records`) or fingerprints and must reproduce the
columnar engine's filter lists, verdicts and rates exactly.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.detector import FPInconsistent, Verdicts
from repro.core.evaluation import DETECTOR_NAMES, GeneralizationResult
from repro.core.knowledge import DeviceKnowledgeBase
from repro.core.rules import FilterList, InconsistencyRule, RuleTable, rule_key
from repro.core.spatial import PairStatistics, SpatialInconsistencyMiner
from repro.core.temporal import (
    ATTRIBUTES,
    KEY_KINDS,
    TemporalFlags,
    TemporalInconsistencyDetector,
    TemporalStreamState,
)
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.categories import AttributeCategory, all_candidate_pairs
from repro.fingerprint.fingerprint import Fingerprint, grouping_value
from repro.stream.checkpoint import _pack_ints

from reference.store import RequestStore, records

# -- Algorithm 1 ------------------------------------------------------------------


def pair_statistics(
    fingerprints: Sequence[Fingerprint],
    category: AttributeCategory,
    attribute_a: Attribute,
    attribute_b: Attribute,
) -> PairStatistics:
    """Co-occurrence counts of one attribute pair over *fingerprints*."""

    combinations: Dict[object, Dict[object, int]] = {}
    for fingerprint in fingerprints:
        value_a = fingerprint.value_for_grouping(attribute_a)
        value_b = fingerprint.value_for_grouping(attribute_b)
        if value_a is None or value_b is None:
            continue
        bucket = combinations.setdefault(value_a, {})
        bucket[value_b] = bucket.get(value_b, 0) + 1
    return PairStatistics(
        category=category,
        attribute_a=attribute_a,
        attribute_b=attribute_b,
        combinations=combinations,
    )


def mine_pair(
    miner: SpatialInconsistencyMiner,
    fingerprints: Sequence[Fingerprint],
    category: AttributeCategory,
    attribute_a: Attribute,
    attribute_b: Attribute,
) -> List[InconsistencyRule]:
    """Rules of a single attribute pair."""

    return miner.select_rules(pair_statistics(fingerprints, category, attribute_a, attribute_b))


def mine(miner: SpatialInconsistencyMiner, fingerprints: Sequence[Fingerprint]) -> FilterList:
    """A full filter list: every category's pairs, one pass per orientation
    (the given one, then the swapped one)."""

    filter_list = FilterList()
    for category, left, right in all_candidate_pairs():
        for attribute_a, attribute_b in ((left, right), (right, left)):
            for rule in mine_pair(miner, fingerprints, category, attribute_a, attribute_b):
                filter_list.add(rule)
    return filter_list


def mine_store(miner: SpatialInconsistencyMiner, store: RequestStore) -> FilterList:
    """Mine from a store of bot traffic."""

    return mine(miner, [record.request.fingerprint for record in records(store)])


# -- filter-list matching ------------------------------------------------------------


def first_match(filter_list: FilterList, fingerprint: Fingerprint) -> Optional[InconsistencyRule]:
    """The first rule *fingerprint* violates, walking the list's index:
    attributes in index order, then the rules of the observed value's
    bucket in insertion order."""

    for attribute, by_value in filter_list._index.items():
        observed = fingerprint.value_for_grouping(attribute)
        if observed is None:
            continue
        for rule in by_value.get(observed, ()):
            if fingerprint.value_for_grouping(rule.attribute_b) == rule.value_b:
                return rule
    return None


def compile_per_table(filter_list: FilterList, table) -> "CompiledFilterList":
    """The list compiled against one table's value codes (per table).

    Every rule's value pair is translated to the table's codes and
    grouped per attribute pair; rules whose values never occur in the
    table compile away.  Priorities mirror :func:`first_match`'s order.
    """

    for rule in filter_list:
        for attribute in (rule.attribute_a, rule.attribute_b):
            table.require_attribute(attribute, "rule attribute")
    table_codes: Dict[Attribute, Dict[object, int]] = {}

    def code_of(attribute: Attribute, value: object) -> Optional[int]:
        if attribute not in table_codes:
            decode = table.values_of(attribute)
            table_codes[attribute] = dict(zip(decode, range(len(decode))))
        return table_codes[attribute].get(value)

    max_bucket = 1
    for by_value in filter_list._index.values():
        for rules in by_value.values():
            max_bucket = max(max_bucket, len(rules))
    entries = []
    for attribute_position, (attribute, by_value) in enumerate(filter_list._index.items()):
        for value_a, rules in by_value.items():
            code_a = code_of(attribute, value_a)
            if code_a is None:
                continue
            for bucket_position, rule in enumerate(rules):
                code_b = code_of(rule.attribute_b, rule.value_b)
                if code_b is None:
                    continue
                priority = attribute_position * max_bucket + bucket_position
                entries.append((attribute, rule.attribute_b, code_a, code_b, priority, rule))
    return CompiledFilterList(entries, table)


class CompiledFilterList:
    """A filter list compiled against one table: per attribute pair, a
    sorted array of impossible ``code_a * n_b + code_b`` keys; the
    lowest-priority hit per row is the :func:`first_match` winner."""

    _NO_MATCH = np.iinfo(np.int64).max

    def __init__(self, entries, table):
        self._table = table
        self._rules = [entry[5] for entry in entries]
        grouped: Dict[Tuple[Attribute, Attribute], List[Tuple[int, int, int]]] = {}
        for rule_index, (attribute_a, attribute_b, code_a, code_b, priority, _rule) in enumerate(
            entries
        ):
            n_b = len(table.values_of(attribute_b))
            grouped.setdefault((attribute_a, attribute_b), []).append(
                (code_a * n_b + code_b, priority, rule_index)
            )
        self._groups = {}
        for pair, items in grouped.items():
            items.sort()
            self._groups[pair] = tuple(
                np.array([item[field] for item in items], dtype=np.int64) for field in range(3)
            )

    def first_match_rows(self) -> List[Optional[InconsistencyRule]]:
        """The winning rule per table row (``None`` where no rule matches)."""

        table = self._table
        best_priority = np.full(table.n_rows, self._NO_MATCH, dtype=np.int64)
        best_rule = np.full(table.n_rows, -1, dtype=np.int64)
        for (attribute_a, attribute_b), (keys, priorities, rule_indices) in self._groups.items():
            codes_a = table.codes_of(attribute_a)
            codes_b = table.codes_of(attribute_b)
            row_keys = codes_a.astype(np.int64) * len(table.values_of(attribute_b)) + codes_b
            positions = np.clip(np.searchsorted(keys, row_keys), 0, keys.size - 1)
            hits = (codes_a >= 0) & (codes_b >= 0) & (keys[positions] == row_keys)
            row_priorities = np.where(hits, priorities[positions], self._NO_MATCH)
            better = row_priorities < best_priority
            best_priority = np.where(better, row_priorities, best_priority)
            best_rule = np.where(better, rule_indices[positions], best_rule)
        return [self._rules[index] if index >= 0 else None for index in best_rule]


class SearchsortedMatcher:
    """The compiled matcher as sorted rule keys.

    Rule values get ids per attribute, a rule the key ``base + id_a * n_b
    + id_b`` of its attribute pair's group, and a table row's keys are
    looked up with one ``searchsorted`` into the sorted, deduplicated rule
    keys; the lowest rank among the hits wins.  Returns positions in
    :attr:`rules`, the same list order as
    :class:`~repro.core.rules.FilterListMatcher`.
    """

    def __init__(self, filter_list: FilterList):
        self.rules = filter_list.matcher().rules
        value_ids: Dict[Attribute, Dict[object, int]] = {}
        for rule in self.rules:
            for attribute, value in (
                (rule.attribute_a, rule.value_a),
                (rule.attribute_b, rule.value_b),
            ):
                ids = value_ids.setdefault(attribute, {})
                ids.setdefault(value, len(ids))
        self._value_ids = value_ids
        self.attributes = tuple(value_ids)
        slot = {attribute: position for position, attribute in enumerate(self.attributes)}
        groups: Dict[Tuple[Attribute, Attribute], int] = {}
        for rule in self.rules:
            groups.setdefault((rule.attribute_a, rule.attribute_b), len(groups))
        pairs = list(groups)
        n_b = np.array([len(value_ids[b]) for _a, b in pairs], dtype=np.int64)
        sizes = np.array([len(value_ids[a]) for a, _b in pairs], dtype=np.int64) * n_b
        base = np.cumsum(sizes) - sizes
        self._group_a = np.array([slot[a] for a, _b in pairs], dtype=np.int64)
        self._group_b = np.array([slot[b] for _a, b in pairs], dtype=np.int64)
        self._base = base[:, None]
        self._n_b = n_b[:, None]
        group = np.array([groups[(rule.attribute_a, rule.attribute_b)] for rule in self.rules],
                         dtype=np.int64)
        keys = (
            base[group]
            + np.array([value_ids[rule.attribute_a][rule.value_a] for rule in self.rules],
                       dtype=np.int64) * n_b[group]
            + np.array([value_ids[rule.attribute_b][rule.value_b] for rule in self.rules],
                       dtype=np.int64)
        )
        order = np.argsort(keys, kind="stable")
        keep = np.ones(order.size, dtype=bool)
        keep[1:] = keys[order][1:] != keys[order][:-1]
        self._keys = keys[order][keep]
        self._ranks = order[keep]

    def first_match_rows(self, table) -> np.ndarray:
        if not self.rules:
            return np.full(table.n_rows, -1, dtype=np.int64)
        ids = np.empty((len(self.attributes), table.n_rows), dtype=np.int64)
        for position, attribute in enumerate(self.attributes):
            value_ids = self._value_ids[attribute]
            translation = np.array(
                [value_ids.get(value, -1) for value in table.values_of(attribute)] + [-1],
                dtype=np.int64,
            )
            ids[position] = translation[table.codes_of(attribute)]
        ids_a, ids_b = ids[self._group_a], ids[self._group_b]
        row_keys = self._base + ids_a * self._n_b + ids_b
        row_keys[(ids_a < 0) | (ids_b < 0)] = -1
        positions = np.searchsorted(self._keys, row_keys)
        np.minimum(positions, self._keys.size - 1, out=positions)
        no_match = len(self.rules)
        ranks = np.where(self._keys[positions] == row_keys, self._ranks[positions], no_match)
        best = ranks.min(axis=0)
        best[best == no_match] = -1
        return best


# -- verdict objects ----------------------------------------------------------------


@dataclass(frozen=True)
class TemporalFlag:
    """Why one request was considered temporally inconsistent."""

    key_kind: str          # "cookie" or "ip"
    key: str
    attribute: Attribute
    previous_values: Tuple[object, ...]
    new_value: object


def flag_objects(flags: TemporalFlags) -> Dict[int, Tuple[TemporalFlag, ...]]:
    """Flag columns decoded to one :class:`TemporalFlag` tuple per row, rows
    in column order and each row's flags in its order."""

    per_row: Dict[int, List[TemporalFlag]] = {}
    ends = np.cumsum(flags.n_prev).tolist()
    for row, kind, key, attribute, new, count, end in zip(
        flags.row.tolist(), flags.kind.tolist(), flags.key.tolist(),
        flags.attribute.tolist(), flags.new.tolist(), flags.n_prev.tolist(), ends,
    ):
        values = flags.values[attribute]
        per_row.setdefault(row, []).append(
            TemporalFlag(
                key_kind=KEY_KINDS[kind],
                key=flags.keys[kind][key],
                attribute=ATTRIBUTES[attribute],
                previous_values=tuple(
                    values[value] for value in flags.prev[end - count : end].tolist()
                ),
                new_value=values[new],
            )
        )
    return {row: tuple(row_flags) for row, row_flags in per_row.items()}


def flags_by_request(
    request_ids: np.ndarray, flags: TemporalFlags
) -> Dict[int, List[TemporalFlag]]:
    """Flag columns of a table as ``request_id`` -> flags (the shape of
    :meth:`ObjectTemporalDetector.evaluate_store`)."""

    return {
        int(request_ids[row]): list(row_flags) for row, row_flags in flag_objects(flags).items()
    }


def flags_from_objects(
    per_row: Dict[int, Sequence[TemporalFlag]],
    keys: Optional[Dict[int, List]] = None,
    values: Optional[Dict[int, List]] = None,
) -> TemporalFlags:
    """Flag columns of ``row`` -> flags, in that order, each key and value
    given its own decode entry (so equal values of other types stay apart).

    Entries are appended to the decode lists of *keys* (kind -> list) and
    *values* (attribute -> list) when given, so flags built in several
    calls can share one set of lists, as one state's flags do.
    """

    columns = {name: [] for name in ("row", "kind", "key", "attribute", "new", "n_prev", "prev")}
    keys = {} if keys is None else keys
    values = {} if values is None else values

    def decode_id(decode: Dict[int, List], slot: int, item) -> int:
        items = decode.setdefault(slot, [])
        items.append(item)
        return len(items) - 1

    for row, row_flags in per_row.items():
        for flag in row_flags:
            kind = KEY_KINDS.index(flag.key_kind)
            attribute = ATTRIBUTES.index(flag.attribute)
            columns["row"].append(row)
            columns["kind"].append(kind)
            columns["key"].append(decode_id(keys, kind, flag.key))
            columns["attribute"].append(attribute)
            columns["n_prev"].append(len(flag.previous_values))
            columns["prev"].extend(
                decode_id(values, attribute, value) for value in flag.previous_values
            )
            columns["new"].append(decode_id(values, attribute, flag.new_value))
    return TemporalFlags(
        **{name: np.array(column, dtype=np.int64) for name, column in columns.items()},
        keys=keys,
        values=values,
    )


def flags_to_jsonable(flags: Sequence[TemporalFlag]) -> List[Dict]:
    """One row's flags in their canonical JSON-able form."""

    return [
        {
            "key_kind": flag.key_kind,
            "key": flag.key,
            "attribute": flag.attribute.value,
            "previous_values": list(flag.previous_values),
            "new_value": flag.new_value,
        }
        for flag in flags
    ]


@dataclass(frozen=True)
class InconsistencyVerdict:
    """Classification of one request by FP-Inconsistent."""

    request_id: int
    spatial_rule: Optional[InconsistencyRule]
    temporal_flags: Tuple[TemporalFlag, ...] = ()

    @property
    def spatially_inconsistent(self) -> bool:
        return self.spatial_rule is not None

    @property
    def temporally_inconsistent(self) -> bool:
        return bool(self.temporal_flags)

    @property
    def is_inconsistent(self) -> bool:
        return self.spatially_inconsistent or self.temporally_inconsistent


def verdict_objects(verdicts: Verdicts) -> Dict[int, InconsistencyVerdict]:
    """One verdict object per row of *verdicts*, keyed by request id."""

    rules = verdicts.rules.rules
    flags = flag_objects(verdicts.flags)
    return {
        int(request_id): InconsistencyVerdict(
            request_id=int(request_id),
            spatial_rule=None if rule < 0 else rules[rule],
            temporal_flags=flags.get(row, ()),
        )
        for row, (request_id, rule) in enumerate(
            zip(verdicts.request_ids.tolist(), verdicts.rule_index.tolist())
        )
    }


def verdicts_from_objects(objects: Dict[int, InconsistencyVerdict]) -> Verdicts:
    """The column form of a verdict-object mapping, rows in its order."""

    table = RuleTable()
    return Verdicts(
        np.array([verdict.request_id for verdict in objects.values()], dtype=np.int64),
        np.array(
            [
                -1 if verdict.spatial_rule is None else table.add(verdict.spatial_rule)
                for verdict in objects.values()
            ],
            dtype=np.int64,
        ),
        table,
        flags_from_objects(
            {
                row: verdict.temporal_flags
                for row, verdict in enumerate(objects.values())
                if verdict.temporal_flags
            }
        ),
    )


def verdicts_to_jsonable(verdicts: Verdicts) -> List[Dict]:
    """Canonical JSON-able form of *verdicts*, sorted by request id: the
    winning spatial rule and every temporal flag with its full evidence."""

    objects = verdict_objects(verdicts)
    return [
        {
            "request_id": request_id,
            "spatial_rule": (
                None
                if objects[request_id].spatial_rule is None
                else objects[request_id].spatial_rule.to_dict()
            ),
            "temporal_flags": flags_to_jsonable(objects[request_id].temporal_flags),
        }
        for request_id in sorted(objects)
    ]


def reference_digest(verdicts: Verdicts) -> str:
    """SHA-256 of :func:`verdicts_to_jsonable` dumped canonically: the
    digest :func:`repro.stream.verdicts_digest` must reproduce."""

    payload = json.dumps(verdicts_to_jsonable(verdicts), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- temporal checks ----------------------------------------------------------------


class ObjectTemporalDetector(TemporalInconsistencyDetector):
    """The per-request temporal checker.

    Same configuration as its base class; state is a dict from
    ``(key kind, key, attribute)`` to the values seen, kept as an
    insertion-ordered dict so ``TemporalFlag.previous_values`` lists values
    in observation order.
    """

    def __init__(self, **config):
        super().__init__(**config)
        self._seen: Dict[Tuple[str, str, Attribute], Dict[object, None]] = {}

    @classmethod
    def like(cls, detector: TemporalInconsistencyDetector) -> "ObjectTemporalDetector":
        """A checker with *detector*'s configuration and empty state."""

        return cls(
            cookie_attributes=detector._cookie_attributes,
            ip_attributes=detector._ip_attributes,
            cookie_tolerance=detector._cookie_tolerance,
            ip_tolerance=detector._ip_tolerance,
        )

    def reset(self) -> None:
        """Forget all per-device state."""

        self._seen.clear()

    def _observe_one(
        self, key_kind: str, key: str, attribute: Attribute, value: object, tolerance: int
    ) -> Optional[TemporalFlag]:
        if value is None or not key:
            return None
        seen = self._seen.setdefault((key_kind, key, attribute), {})
        if value in seen:
            return None
        flag: Optional[TemporalFlag] = None
        if len(seen) >= tolerance:
            flag = TemporalFlag(
                key_kind=key_kind,
                key=key,
                attribute=attribute,
                previous_values=tuple(seen),
                new_value=value,
            )
        seen[value] = None
        return flag

    def observe(
        self, fingerprint: Fingerprint, *, cookie: Optional[str], ip_address: Optional[str]
    ) -> List[TemporalFlag]:
        """Process one request; returns the flags it raised (possibly empty).

        The observation is recorded whether or not it was flagged, so a
        later request re-using an already-flagged value is *not* flagged
        again (only increases are flagged).
        """

        flags: List[TemporalFlag] = []
        for key_kind, key, attributes, tolerance in (
            ("cookie", cookie, self._cookie_attributes, self._cookie_tolerance),
            ("ip", ip_address, self._ip_attributes, self._ip_tolerance),
        ):
            if not key:
                continue
            for attribute in attributes:
                flag = self._observe_one(
                    key_kind, key, attribute, fingerprint.value_for_grouping(attribute), tolerance
                )
                if flag is not None:
                    flags.append(flag)
        return flags

    def evaluate_store(self, store: RequestStore) -> Dict[int, List[TemporalFlag]]:
        """A whole store in stable timestamp order, from empty state.

        Returns ``request_id`` → flags for the requests that raised any.
        """

        self.reset()
        flagged: Dict[int, List[TemporalFlag]] = {}
        for record in sorted(records(store), key=lambda record: record.timestamp):
            flags = self.observe(
                record.request.fingerprint,
                cookie=record.cookie,
                ip_address=record.request.ip_address,
            )
            if flags:
                flagged[record.request.request_id] = flags
        return flagged

    def flagged_request_ids(self, store: RequestStore) -> Set[int]:
        return set(self.evaluate_store(store))


#: Resting value of :attr:`SeenColumn.sighting`: after every row position.
_UNSEEN = np.iinfo(np.int64).max


class SeenColumn:
    """The seen-state of one (key kind, attribute) pair, indexed by key id,
    observed one column at a time: the per-column pass that the per-kind
    :class:`~repro.core.temporal._SeenKind` replaced, kept to pin it.

    ``first[key]`` is the first value id observed for *key* (``-1`` while
    the key is untracked); only keys that grew past it get an
    ``overflow`` entry, every value id they hold in observation order.
    ``stamp[key]`` is the state epoch of the key's last change.
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
        """Stream time-ordered ``(key, value)`` ids; returns
        ``(position, previous value ids, new value id)`` per flag."""

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


class UniqueSeenColumn(SeenColumn):
    """A seen-state column whose first sightings come from ``np.unique``:
    each fresh key's earliest position is its first index in a sort."""

    __slots__ = ()

    def observe(self, keys: np.ndarray, values: np.ndarray, tolerance: int, epoch: int):
        first = self.first
        current = first[keys]
        fresh = np.flatnonzero(current < 0)
        if fresh.size:
            new_keys, at = np.unique(keys[fresh], return_index=True)
            first[new_keys] = values[fresh[at]]
            self.stamp[new_keys] = epoch
            current = first[keys]
        rare = np.flatnonzero(values != current)
        hits = []
        for position, key, value in zip(rare.tolist(), keys[rare].tolist(), values[rare].tolist()):
            held = self.overflow.get(key)
            if held is None:
                held = self.overflow[key] = [int(first[key])]
            elif value in held:
                continue
            if len(held) >= tolerance:
                hits.append((position, tuple(held), value))
            held.append(value)
            self.stamp[key] = epoch
        return hits


def attribute_value_codes_scan(sessions, name: str) -> Tuple[np.ndarray, List]:
    """:meth:`SessionArrays.attribute_value_codes` as one scan of the pair
    stream per attribute, the form the stacked matrix replaced."""

    codes = np.full(sessions.n_sessions, -1, dtype=np.int64)
    if name not in sessions.fp_attribute_names:
        return codes, []
    acode = sessions.fp_attribute_names.index(name)
    pairs = np.nonzero(np.asarray(sessions.fp_attr_codes) == acode)[0]
    owners = np.searchsorted(np.asarray(sessions.fp_offsets), pairs, side="right") - 1
    codes[owners] = np.asarray(sessions.fp_value_codes)[pairs]
    return codes, sessions.fp_values[acode]


def _intern_by_value(items: Sequence, index: Dict, values: List) -> np.ndarray:
    """Codes of *items* (repeats allowed) in a growing vocabulary, new
    ones appended in first-occurrence order."""

    unseen = [item for item in dict.fromkeys(items) if item not in index]
    index.update(zip(unseen, range(len(values), len(values) + len(unseen))))
    values.extend(unseen)
    return np.fromiter(map(index.__getitem__, items), dtype=np.int64, count=len(items))


def _gather(remap: np.ndarray, raw: np.ndarray, encode) -> np.ndarray:
    """``remap[raw]``, first filling the never-seen codes (``-2``) through
    *encode*, which gets them in first-occurrence order."""

    codes = remap[raw]
    pending = np.flatnonzero(codes == -2)
    if pending.size:
        new, first = np.unique(raw[pending], return_index=True)
        new = new[np.argsort(first)]
        remap[new] = encode(new.tolist())
        codes = remap[raw]
    return codes


class PerAttributeTableEncoder:
    """:class:`~repro.core.columnar.TableEncoder` gathering one attribute at
    a time from per-attribute raw-value columns, and interning cookies and
    addresses by value: the encoder the stacked gather and the canonical
    cookie and address codes replaced, kept to pin them.  Same vocabulary
    attributes; :meth:`restore` copies the decode lists it is given."""

    def __init__(self, attributes: Sequence[Attribute]):
        self.attributes = tuple(attributes)
        self.indexes = {attribute: {} for attribute in self.attributes}
        self.values = {attribute: [] for attribute in self.attributes}
        self.cookie_index, self.cookie_values = {}, []
        self.ip_index, self.ip_values = {}, []
        self._raw_codes = {attribute: {} for attribute in self.attributes}
        self._columns = None

    def restore(self, state: Dict) -> None:
        for attribute in self.attributes:
            self.values[attribute] = list(state["values"][attribute])
            self.indexes[attribute] = {
                value: code for code, value in enumerate(self.values[attribute])
            }
            self._raw_codes[attribute] = {}
        self.cookie_values = list(state["cookie_values"])
        self.cookie_index = {value: code for code, value in enumerate(self.cookie_values)}
        self.ip_values = list(state["ip_values"])
        self.ip_index = {value: code for code, value in enumerate(self.ip_values)}
        self._columns = None

    def encode(self, columns, rows):
        from repro.core.columnar import ColumnarTable

        if columns is not self._columns:
            self._columns = columns
            self._raw_columns = [
                attribute_value_codes_scan(columns.sessions, attribute.value)
                for attribute in self.attributes
            ]
            self._value_remaps = []
            for _session_raw, raw_values in self._raw_columns:
                remap = np.full(len(raw_values) + 1, -2, dtype=np.int32)
                remap[-1] = -1
                self._value_remaps.append(remap)
            self._ip_remap = np.full(columns.n_sessions, -2, dtype=np.int32)
            self._cookie_remap = np.full(len(columns.cookie_values), -2, dtype=np.int32)
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
        return ColumnarTable(
            codes=codes,
            values=self.values,
            n_rows=int(rows.size),
            request_ids=columns.request_ids[rows],
            timestamps=columns.timestamps[rows],
            cookie_codes=_gather(
                self._cookie_remap,
                columns.served_codes[rows],
                lambda new: _intern_by_value(
                    [columns.cookie_values[raw] for raw in new], self.cookie_index,
                    self.cookie_values,
                ),
            ),
            cookie_values=self.cookie_values,
            ip_codes=_gather(
                self._ip_remap,
                sessions,
                lambda new: _intern_by_value(
                    [columns.session_ips[raw] for raw in new], self.ip_index, self.ip_values
                ),
            ),
            ip_values=self.ip_values,
        )

    def _encode_value(self, attribute: Attribute, raw) -> int:
        raw_codes = self._raw_codes[attribute]
        code = raw_codes.get(raw)
        if code is None:
            grouped = grouping_value(attribute, raw)
            index = self.indexes[attribute]
            code = index.get(grouped)
            if code is None:
                code = len(self.values[attribute])
                index[grouped] = code
                self.values[attribute].append(grouped)
            raw_codes[raw] = code
        return code


def held_values(seen, row: int, key: int) -> List[int]:
    """The value ids entry (*row*, *key*) of a per-kind seen-state holds,
    in observation order."""

    held = seen.overflow[row].get(key)
    if held is not None:
        return list(held)
    first = int(seen.first[row, key])
    return [first] if first >= 0 else []


def seen_hits(flat, counts, previous, new) -> List[Tuple[int, Tuple[int, ...], int]]:
    """A per-kind pass's flag columns as ``(position, previous value ids,
    new value id)`` tuples, the per-column oracles' form."""

    ends = np.cumsum(counts).tolist()
    return [
        (position, tuple(previous[end - count : end].tolist()), value)
        for position, end, count, value in zip(flat.tolist(), ends, counts.tolist(), new.tolist())
    ]


def changes_since(state: TemporalStreamState, epoch: int):
    """:meth:`TemporalStreamState.changes_since`, one key at a time.

    The per-key walk the array gather replaced: each changed key's value
    ids are its overflow list, or its first value alone.
    """

    for kind, seen in state._kinds.items():
        for attribute, row in seen.rows.items():
            keys = np.flatnonzero(seen.stamp[row] > epoch)
            if keys.size:
                held = []
                for key in keys.tolist():
                    held.append(held_values(seen, row, key))
                counts = np.fromiter(map(len, held), dtype=np.int64, count=keys.size)
                values = np.fromiter(
                    chain.from_iterable(held), dtype=np.int64, count=int(counts.sum())
                )
                yield kind, attribute, keys, counts, values


def encode_seen(
    state: TemporalStreamState, since: int, attributes: Sequence[Attribute], ingest: Dict
) -> Dict[str, np.ndarray]:
    """The checkpoint's seen-state columns, translated key by key.

    Every changed key and value is decoded to its item and looked up in
    an index built from the ingest's decode list; the checkpointer, which
    writes the state's ids as they are, must write the same packed columns.
    """

    def index_of(decode: List) -> Dict:
        return dict(zip(decode, range(len(decode))))

    kind_codes = {"cookie": 0, "ip": 1}
    position = {attribute: index for index, attribute in enumerate(attributes)}
    groups = sorted(
        changes_since(state, since),
        key=lambda group: (position[group[1]], kind_codes[group[0]]),
    )
    columns: Dict[str, List] = {
        name: [] for name in ("kind", "key", "attribute", "count", "values")
    }
    for kind, attribute, keys, counts, values in groups:
        key_strings = state.items(("key", kind))
        key_index = index_of(ingest[f"{kind}_values"])
        items = state.items(("value", attribute))
        value_index = index_of(ingest["values"][attribute])
        columns["kind"].extend([kind_codes[kind]] * keys.size)
        columns["key"].extend(key_index[key_strings[key]] for key in keys.tolist())
        columns["attribute"].extend([position[attribute]] * keys.size)
        columns["count"].extend(counts.tolist())
        columns["values"].extend(value_index[items[value]] for value in values.tolist())
    return {f"seen_{name}": _pack_ints(column) for name, column in columns.items()}


def expected_value_count_scan(
    knowledge: DeviceKnowledgeBase, attribute_a: Attribute, value_a: object, attribute_b: Attribute
) -> Optional[int]:
    """:meth:`DeviceKnowledgeBase.expected_value_count` as one catalogue
    scan per query: the profiles whose *attribute_a* grouping value equals
    *value_a*, and the distinct *attribute_b* values of their
    screen-resolution variants."""

    matches = [
        variants
        for fingerprint, variants in _catalogue_fingerprints(knowledge._catalog)
        if fingerprint.value_for_grouping(attribute_a) == value_a
    ]
    if not matches:
        return None
    return len(
        {variant.value_for_grouping(attribute_b) for variants in matches for variant in variants}
    )


@functools.lru_cache(maxsize=None)
def _catalogue_fingerprints(catalog) -> Tuple:
    """Per profile: its fingerprint and one per screen resolution."""

    return tuple(
        (
            profile.fingerprint(),
            [
                profile.fingerprint(screen_resolution=resolution)
                for resolution in profile.screen_resolutions
            ],
        )
        for profile in catalog
    )


# -- the detector and the Section 7.3 check --------------------------------------------


def fit(detector: FPInconsistent, store: RequestStore) -> FPInconsistent:
    """Mine *detector*'s filter list from *store* with the reference miner."""

    detector.filter_list = mine_store(detector.miner, store)
    return detector


def classify_store(
    detector: FPInconsistent,
    store: RequestStore,
    *,
    use_spatial: bool = True,
    use_temporal: bool = True,
) -> Dict[int, InconsistencyVerdict]:
    """A verdict per request: :meth:`FPInconsistent.check_fingerprint` per
    fingerprint plus the per-request temporal checker over the store."""

    temporal_flags: Dict[int, List[TemporalFlag]] = {}
    if use_temporal:
        temporal_flags = ObjectTemporalDetector.like(detector.temporal_detector).evaluate_store(
            store
        )
    verdicts: Dict[int, InconsistencyVerdict] = {}
    for record in records(store):
        request_id = record.request.request_id
        verdicts[request_id] = InconsistencyVerdict(
            request_id=request_id,
            spatial_rule=(
                detector.check_fingerprint(record.request.fingerprint) if use_spatial else None
            ),
            temporal_flags=tuple(temporal_flags.get(request_id, ())),
        )
    return verdicts


def improved_detection_rate(
    store: RequestStore, verdicts: Dict[int, InconsistencyVerdict], detector: str
) -> float:
    """Detection rate when the service's decision is OR-ed with the rules."""

    if len(store) == 0:
        return 0.0
    detected = sum(
        1
        for record in records(store)
        if not record.evaded(detector) or verdicts[record.request.request_id].is_inconsistent
    )
    return detected / len(store)


def evaluate_generalization(
    store: RequestStore,
    *,
    train_fraction: float = 0.8,
    seed: int = 0,
    detector_factory=FPInconsistent,
) -> Dict[str, GeneralizationResult]:
    """Mine on a random ``train_fraction`` of *store*, evaluate on the rest."""

    train_store, test_store = store.split(train_fraction, np.random.default_rng(seed))
    detector = fit(detector_factory(), train_store)
    train_verdicts = classify_store(detector, train_store)
    test_verdicts = classify_store(detector, test_store)
    return {
        name: GeneralizationResult(
            detector=name,
            train_detection_rate=improved_detection_rate(train_store, train_verdicts, name),
            test_detection_rate=improved_detection_rate(test_store, test_verdicts, name),
        )
        for name in DETECTOR_NAMES
    }


# -- reading product state -----------------------------------------------------------


def rule_matches(rule: InconsistencyRule, fingerprint: Fingerprint) -> bool:
    """Whether *fingerprint* exhibits *rule*'s impossible value pair."""

    return (
        fingerprint.value_for_grouping(rule.attribute_a) == rule.value_a
        and fingerprint.value_for_grouping(rule.attribute_b) == rule.value_b
    )


def all_matches(filter_list: FilterList, fingerprint: Fingerprint) -> Tuple[InconsistencyRule, ...]:
    """Every rule of *filter_list* that *fingerprint* violates, in list order."""

    return tuple(rule for rule in filter_list if rule_matches(rule, fingerprint))


def verdicts_equal(left: Verdicts, right: Verdicts) -> bool:
    """Whether two verdict sets flag the same requests the same way: the
    same rule (by :func:`~repro.core.rules.rule_key`) and the same temporal
    flags per request id, whatever the row order or rule-table layout."""

    keys: Dict[Tuple, int] = {}

    def canonical(verdicts: Verdicts) -> Tuple[List, List, Dict]:
        order = np.argsort(verdicts.request_ids, kind="stable")
        rules = [keys.setdefault(rule_key(rule), len(keys)) for rule in verdicts.rules.rules]
        return (
            verdicts.request_ids[order].tolist(),
            np.array(rules + [-1])[verdicts.rule_index[order]].tolist(),
            flags_by_request(verdicts.request_ids, verdicts.flags),
        )

    return canonical(left) == canonical(right)


def value_at(table, attribute: Attribute, row: int):
    """The grouping value of *attribute* at *row* of a table (``None`` if missing)."""

    code = table.codes_of(attribute)[row]
    return table.values_of(attribute)[code] if code >= 0 else None


def cookie_at(table, row: int) -> Optional[str]:
    code = table.cookie_codes[row]
    return table.cookie_values[code] if code >= 0 else None


def ip_at(table, row: int) -> Optional[str]:
    code = table.ip_codes[row]
    return table.ip_values[code] if code >= 0 else None


def state_entries(state: TemporalStreamState) -> Dict[Tuple[str, str, Attribute], Tuple[object, ...]]:
    """A temporal seen-state decoded as ``(kind, key, attribute) -> values``,
    values in observation order."""

    entries = {}
    for kind, attribute, keys, counts, values in state.changes_since(0):
        key_strings, items = state.items(("key", kind)), state.items(("value", attribute))
        ends = np.cumsum(counts).tolist()
        for key, end, count in zip(keys.tolist(), ends, counts.tolist()):
            entries[(kind, key_strings[key], attribute)] = tuple(
                items[value] for value in values[end - count : end].tolist()
            )
    return entries


def tracked_devices(state: TemporalStreamState) -> int:
    """Distinct (device key, attribute) entries a seen-state tracks."""

    return len(state_entries(state))


def observed_values(state: TemporalStreamState) -> int:
    """Distinct values recorded across a seen-state's entries."""

    return sum(len(values) for values in state_entries(state).values())
