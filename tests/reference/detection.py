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
* :class:`InconsistencyVerdict` — one verdict object per request, with
  :func:`verdict_objects` / :func:`verdicts_from_objects` converting to
  and from the engine's :class:`~repro.core.detector.Verdicts` columns,
  and :func:`verdicts_to_jsonable`, the canonical serialisation
  :func:`repro.stream.verdicts_digest` is pinned to;
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

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.detector import FPInconsistent, Verdicts
from repro.core.evaluation import DETECTOR_NAMES, GeneralizationResult
from repro.core.rules import FilterList, InconsistencyRule, RuleTable, rule_key
from repro.core.spatial import PairStatistics, SpatialInconsistencyMiner
from repro.core.temporal import (
    TemporalFlag,
    TemporalInconsistencyDetector,
    TemporalStreamState,
)
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.categories import AttributeCategory, all_candidate_pairs
from repro.fingerprint.fingerprint import Fingerprint
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


# -- verdict objects ----------------------------------------------------------------


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
    return {
        int(request_id): InconsistencyVerdict(
            request_id=int(request_id),
            spatial_rule=None if rule < 0 else rules[rule],
            temporal_flags=verdicts.flags.get(row, ()),
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
        {
            row: tuple(verdict.temporal_flags)
            for row, verdict in enumerate(objects.values())
            if verdict.temporal_flags
        },
    )


def verdicts_to_jsonable(verdicts: Verdicts) -> List[Dict]:
    """Canonical JSON-able form of *verdicts*, sorted by request id: the
    winning spatial rule and every temporal flag with its full evidence."""

    from repro.stream.replay import _flags_to_jsonable

    objects = verdict_objects(verdicts)
    return [
        {
            "request_id": request_id,
            "spatial_rule": (
                None
                if objects[request_id].spatial_rule is None
                else objects[request_id].spatial_rule.to_dict()
            ),
            "temporal_flags": _flags_to_jsonable(objects[request_id].temporal_flags),
        }
        for request_id in sorted(objects)
    ]


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


def changes_since(state: TemporalStreamState, epoch: int):
    """:meth:`TemporalStreamState.changes_since`, one key at a time.

    The per-key walk the array gather replaced: each changed key's value
    ids are its overflow list, or its first value alone.
    """

    for (kind, attribute), column in state._columns.items():
        keys = np.flatnonzero(column.stamp > epoch)
        if keys.size:
            held = []
            for key in keys.tolist():
                first = int(column.first[key])
                held.append(column.overflow.get(key, [first] if first >= 0 else []))
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
    the ingest's index; the checkpointer's cached code maps must write
    the same packed columns.
    """

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
        key_strings, key_index = state.keys_of(kind), ingest[f"{kind}_index"]
        items, value_index = state.values_of(attribute), ingest["indexes"][attribute]
        columns["kind"].extend([kind_codes[kind]] * keys.size)
        columns["key"].extend(key_index[key_strings[key]] for key in keys.tolist())
        columns["attribute"].extend([position[attribute]] * keys.size)
        columns["count"].extend(counts.tolist())
        columns["values"].extend(value_index[items[value]] for value in values.tolist())
    return {f"seen_{name}": _pack_ints(column) for name, column in columns.items()}


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
            {int(verdicts.request_ids[row]): flags for row, flags in verdicts.flags.items()},
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
        key_strings, items = state.keys_of(kind), state.values_of(attribute)
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
