"""Inconsistency rules and filter lists.

FP-Inconsistent's output is a *filter list*: a set of rules, each stating
that a particular pair of attribute values cannot co-occur on a real device
(Table 6).  A request whose fingerprint matches any rule is classified as a
bot.  Filter lists serialise to JSON so they can be shipped to anti-bot
services (Section 8.3) and are what the paper open-sources.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.columnar import ColumnarTable
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.categories import AttributeCategory
from repro.fingerprint.fingerprint import Fingerprint


@dataclass(frozen=True)
class InconsistencyRule:
    """One spatial inconsistency: a value pair that cannot exist for real devices.

    Attributes
    ----------
    category:
        The attribute group (Table 7) the pair was mined from.
    attribute_a / value_a, attribute_b / value_b:
        The two attribute values that cannot co-occur.  Values are stored
        in their grouping form (the printable representation used in the
        paper's tables, e.g. ``"1920x1080"`` for resolutions).
    support:
        Number of mining-corpus requests exhibiting the pair.
    """

    category: AttributeCategory
    attribute_a: Attribute
    value_a: object
    attribute_b: Attribute
    value_b: object
    support: int = 0

    @property
    def key(self) -> Tuple[str, str, str, str]:
        """Order-independent identity of the rule (ignores support)."""

        left = (self.attribute_a.value, str(self.value_a))
        right = (self.attribute_b.value, str(self.value_b))
        first, second = sorted((left, right))
        return (first[0], first[1], second[0], second[1])

    def describe(self) -> str:
        """Human-readable one-liner in the Table 6 style."""

        return (
            f"[{self.category.value}] ({self.attribute_a.value}={self.value_a!r}, "
            f"{self.attribute_b.value}={self.value_b!r})"
        )

    def to_dict(self) -> Dict:
        return {
            "category": self.category.value,
            "attribute_a": self.attribute_a.value,
            "value_a": self.value_a,
            "attribute_b": self.attribute_b.value,
            "value_b": self.value_b,
            "support": self.support,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "InconsistencyRule":
        return cls(
            category=AttributeCategory(data["category"]),
            attribute_a=Attribute(data["attribute_a"]),
            value_a=data["value_a"],
            attribute_b=Attribute(data["attribute_b"]),
            value_b=data["value_b"],
            support=int(data.get("support", 0)),
        )


class FilterList:
    """A deployable collection of inconsistency rules."""

    def __init__(self, rules: Optional[Iterable[InconsistencyRule]] = None):
        self._rules: List[InconsistencyRule] = []
        self._by_key: Dict[Tuple[str, str, str, str], InconsistencyRule] = {}
        #: attribute_a -> value_a -> rules; its iteration order is the
        #: matching priority (see :class:`FilterListMatcher`).
        self._index: Dict[Attribute, Dict[object, List[InconsistencyRule]]] = {}
        self._version = 0
        self._matcher: Optional[FilterListMatcher] = None
        if rules:
            for rule in rules:
                self.add(rule)

    # -- collection protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[InconsistencyRule]:
        return iter(self._rules)

    def add(self, rule: InconsistencyRule) -> bool:
        """Add *rule*; returns ``False`` when an equivalent rule exists."""

        if rule.key in self._by_key:
            return False
        self._rules.append(rule)
        self._by_key[rule.key] = rule
        self._index.setdefault(rule.attribute_a, {}).setdefault(rule.value_a, []).append(rule)
        self._version += 1
        return True

    # -- matching --------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Bumped by every :meth:`add`; a compiled matcher records the
        version it was built from, so a grown list is recompiled."""

        return self._version

    def matcher(self) -> "FilterListMatcher":
        """The list compiled for vectorized matching, rebuilt after :meth:`add`."""

        matcher = self._matcher
        if matcher is None or matcher.version != self._version:
            matcher = self._matcher = FilterListMatcher(self)
        return matcher

    def first_match(self, fingerprint: Fingerprint) -> Optional[InconsistencyRule]:
        """The first rule *fingerprint* violates, or ``None``.

        Runs the compiled matcher over a one-row table, so a single
        fingerprint and a whole stream are matched by the same code.
        """

        matcher = self.matcher()
        table = ColumnarTable.from_fingerprints([fingerprint], matcher.attributes)
        rank = int(matcher.first_match_rows(table)[0])
        return None if rank < 0 else matcher.rules[rank]

    def top_rules(self, count: int = 10) -> Tuple[InconsistencyRule, ...]:
        """The *count* highest-support rules."""

        return tuple(sorted(self._rules, key=lambda rule: rule.support, reverse=True)[:count])

    # -- persistence -------------------------------------------------------------------

    def to_json(self) -> str:
        """Serialise the list to a JSON document."""

        return json.dumps([rule.to_dict() for rule in self._rules], indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FilterList":
        """Load a list serialised by :meth:`to_json`."""

        return cls(InconsistencyRule.from_dict(item) for item in json.loads(text))

    def save(self, path) -> None:
        """Write the JSON serialisation to *path*."""

        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "FilterList":
        """Load a filter list from *path*."""

        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def rule_key(rule: InconsistencyRule) -> Tuple:
    """Type-aware identity of *rule*.

    Value types ride along: ``1``, ``1.0`` and ``True`` compare equal but
    serialise differently, and a rule table must keep them apart.
    """

    return (rule, type(rule.value_a), type(rule.value_b))


class RuleTable:
    """An append-only table of distinct rules, deduplicated by :func:`rule_key`.

    Verdict columns hold indices into one of these, so a rule is stored
    (and serialised) once however many requests it decided.
    """

    __slots__ = ("rules", "_ids")

    def __init__(self, rules: Iterable[InconsistencyRule] = ()):
        self.rules: List[InconsistencyRule] = []
        self._ids: Dict[Tuple, int] = {}
        for rule in rules:
            self.add(rule)

    def __len__(self) -> int:
        return len(self.rules)

    def add(self, rule: InconsistencyRule) -> int:
        """Index of *rule*, appending it when new."""

        key = rule_key(rule)
        index = self._ids.get(key)
        if index is None:
            index = self._ids[key] = len(self.rules)
            self.rules.append(rule)
        return index

    def indices(self, rules: Iterable[InconsistencyRule]) -> np.ndarray:
        """Indices of *rules* plus a trailing ``-1``, so indexing the result
        with a rule column maps "no rule" (``-1``) to itself."""

        return np.array([*map(self.add, rules), -1], dtype=np.int64)


class FilterListMatcher:
    """A filter list compiled once, in its own rule-value space.

    Each attribute a rule constrains gets ids ``0 .. n - 1`` for the
    values the list's rules use, plus id ``n`` for every other value and
    for a missing one.  An attribute pair's rules then live in a dense
    ``(n_a + 1) x (n_b + 1)`` block of one rank table (``base + id_a *
    (n_b + 1) + id_b``), whose slots hold the winning rule's position in
    :attr:`rules`, or ``len(rules)`` where no rule applies; nothing
    compiled depends on a table.  A table reaches the ids through one
    translation array per attribute (table code → rule-value id), cached
    per decode list and extended only by the codes added since the last
    call: decode lists only ever grow (the stream vocabulary is
    append-only), so a stream translates each distinct value once.

    Matching a table is one key matrix over every group, one gather from
    the rank table and a column ``min``.  When several rules match a row,
    the winner is the first in the list's index order (first attribute,
    then position in its value bucket) — :attr:`rules` lists the rules in
    that order, and matching returns positions in it.
    """

    def __init__(self, filter_list: FilterList):
        self.version = filter_list.version
        ranked = [
            (attribute_position, bucket_position, rule)
            for attribute_position, by_value in enumerate(filter_list._index.values())
            for bucket in by_value.values()
            for bucket_position, rule in enumerate(bucket)
        ]
        ranked.sort(key=lambda entry: entry[:2])
        self.rules: Tuple[InconsistencyRule, ...] = tuple(entry[2] for entry in ranked)

        value_ids: Dict[Attribute, Dict[object, int]] = {}
        for rule in self.rules:
            for attribute, value in (
                (rule.attribute_a, rule.value_a),
                (rule.attribute_b, rule.value_b),
            ):
                ids = value_ids.setdefault(attribute, {})
                ids.setdefault(value, len(ids))
        self._value_ids = value_ids
        self.attributes: Tuple[Attribute, ...] = tuple(value_ids)
        slot = {attribute: position for position, attribute in enumerate(self.attributes)}
        groups: Dict[Tuple[Attribute, Attribute], int] = {}
        for rule in self.rules:
            groups.setdefault((rule.attribute_a, rule.attribute_b), len(groups))
        pairs = list(groups)
        width = np.array([len(value_ids[b]) + 1 for _a, b in pairs], dtype=np.int32)
        sizes = np.array([len(value_ids[a]) + 1 for a, _b in pairs], dtype=np.int32) * width
        base = np.cumsum(sizes, dtype=np.int32) - sizes
        self._group_a = np.array([slot[a] for a, _b in pairs], dtype=np.intp)
        self._group_b = np.array([slot[b] for _a, b in pairs], dtype=np.intp)
        self._base = base[:, None]
        self._width = width[:, None]

        def column(values) -> np.ndarray:
            return np.fromiter(values, dtype=np.int32, count=len(self.rules))

        group = column(groups[(rule.attribute_a, rule.attribute_b)] for rule in self.rules)
        keys = (
            base[group]
            + column(value_ids[rule.attribute_a][rule.value_a] for rule in self.rules) * width[group]
            + column(value_ids[rule.attribute_b][rule.value_b] for rule in self.rules)
        )
        # Rules sharing a key (values equal across types) keep the
        # first-ranked one, as in the index walk.
        self._rank_table = np.full(int(sizes.sum()), len(self.rules), dtype=np.int32)
        np.minimum.at(self._rank_table, keys, np.arange(len(self.rules), dtype=np.int32))
        #: attribute -> (decode list, translation + trailing slot for code -1)
        self._translations: Dict[Attribute, Tuple[List, np.ndarray]] = {}

    def _translation(self, table, attribute: Attribute) -> np.ndarray:
        """Table code → rule-value id for *attribute*; values no rule uses
        and code ``-1`` map to the attribute's "no value" id."""

        decode = table.values_of(attribute)
        cached = self._translations.get(attribute)
        if cached is not None and cached[0] is decode:
            translation = cached[1]
            if translation.size == len(decode) + 1:
                return translation
            head = translation[:-1]
        else:
            head = np.empty(0, dtype=np.int32)
        ids = self._value_ids[attribute]
        none = len(ids)
        tail = decode[head.size :]
        fresh = np.fromiter((ids.get(value, none) for value in tail), np.int32, len(tail))
        translation = np.concatenate([head, fresh, np.array([none], dtype=np.int32)])
        self._translations[attribute] = (decode, translation)
        return translation

    def first_match_rows(self, table) -> np.ndarray:
        """Position in :attr:`rules` of each row's winning rule (``-1``: none)."""

        for attribute in self.attributes:
            # An absent column would make its rules silently unmatchable.
            table.require_attribute(attribute, "rule attribute")
        if not self.rules:
            return np.full(table.n_rows, -1, dtype=np.int32)
        ids = np.empty((len(self.attributes), table.n_rows), dtype=np.int32)
        for position, attribute in enumerate(self.attributes):
            ids[position] = self._translation(table, attribute)[table.codes_of(attribute)]
        keys = ids[self._group_a] * self._width
        keys += self._base
        keys += ids[self._group_b]
        best = self._rank_table[keys].min(axis=0)
        best[best == len(self.rules)] = -1
        return best
