"""Spatial inconsistency mining (Algorithm 1).

The miner implements Section 7.1: real devices occupy a limited
configuration space, so when bots alter attributes they inflate the number
of distinct configurations observed for popular attribute values.  For
every attribute pair within a category (Table 7) the miner:

1. counts, for each value of the first attribute, how many distinct values
   of the second attribute co-occur with it in the bot-labelled corpus;
2. ranks the first-attribute values by that count and keeps the ones whose
   count exceeds what the device knowledge base expects (the
   configuration-count *inflation* test);
3. walks the observed value pairs (most inflated first) and asks the
   knowledge base whether each pair can exist on a real device; impossible
   pairs with enough support become :class:`InconsistencyRule`s.

The paper performs step 3 manually ("identify cases where the combination
of these two attributes is impossible"); the knowledge base automates that
judgement so the pipeline is reproducible end to end.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import ColumnarTable
from repro.core.knowledge import DeviceKnowledgeBase
from repro.core.rules import FilterList, InconsistencyRule
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.categories import AttributeCategory, all_candidate_pairs


@dataclass(frozen=True)
class SpatialMinerConfig:
    """Tuning knobs of the spatial miner.

    Attributes
    ----------
    min_support:
        Minimum number of corpus requests exhibiting a value pair before it
        can become a rule.  Guards against mislabelling rare but real
        configurations on the strength of one or two observations.
    min_value_support:
        Minimum number of requests carrying the first attribute's value at
        all; values rarer than this are skipped entirely.
    inflation_factor:
        A first-attribute value is examined only when its distinct
        second-value count exceeds ``inflation_factor`` times the count the
        knowledge base expects for real devices (when known).  Set to 0 to
        disable the inflation pre-filter (ablation).
    max_values_per_pair:
        Upper bound on how many first-attribute values are examined per
        attribute pair (most-inflated first), mirroring the paper's
        analyst starting "with the UA Device instance that has the highest
        number of unique combinations".
    """

    min_support: int = 5
    min_value_support: int = 10
    inflation_factor: float = 1.5
    max_values_per_pair: int = 50

    def __post_init__(self) -> None:
        if self.min_support < 1 or self.min_value_support < 1:
            raise ValueError("support thresholds must be positive")
        if self.inflation_factor < 0:
            raise ValueError("inflation_factor cannot be negative")
        if self.max_values_per_pair < 1:
            raise ValueError("max_values_per_pair must be positive")


@dataclass(frozen=True)
class PairStatistics:
    """Observed co-occurrence structure of one attribute pair."""

    category: AttributeCategory
    attribute_a: Attribute
    attribute_b: Attribute
    #: value_a -> {value_b -> count}
    combinations: Dict[object, Dict[object, int]]

    def distinct_counts(self) -> List[Tuple[object, int]]:
        """``(value_a, number of distinct value_b)`` sorted most-inflated first."""

        counts = [(value_a, len(values_b)) for value_a, values_b in self.combinations.items()]
        counts.sort(key=lambda item: item[1], reverse=True)
        return counts

    @functools.cached_property
    def _supports(self) -> Dict[object, int]:
        return {value: sum(bucket.values()) for value, bucket in self.combinations.items()}

    def value_support(self, value_a: object) -> int:
        """Number of requests carrying ``attribute_a == value_a``.

        Supports are summed once and cached: the mining loop queries every
        ranked value, and recomputing the sum per query made mining
        O(values²) per pair.
        """

        return self._supports.get(value_a, 0)


class SpatialInconsistencyMiner:
    """Mines spatial inconsistency rules from bot-labelled fingerprints."""

    def __init__(
        self,
        knowledge: Optional[DeviceKnowledgeBase] = None,
        config: Optional[SpatialMinerConfig] = None,
    ):
        self._knowledge = knowledge if knowledge is not None else DeviceKnowledgeBase()
        self._config = config if config is not None else SpatialMinerConfig()

    @property
    def knowledge(self) -> DeviceKnowledgeBase:
        return self._knowledge

    # -- mining -----------------------------------------------------------------

    def select_rules(self, statistics: PairStatistics) -> List[InconsistencyRule]:
        """Steps 2–3 of Algorithm 1 over pre-computed pair statistics.

        Shared by :meth:`mine_table` and the object-at-a-time reference
        miner the tests pin it against (``tests/reference/detection.py``):
        once the co-occurrence structure is identical, rule selection
        (ranking, inflation pre-filter, knowledge-base judgement) is
        identical too.
        """

        category = statistics.category
        attribute_a = statistics.attribute_a
        attribute_b = statistics.attribute_b
        config = self._config
        rules: List[InconsistencyRule] = []

        examined = 0
        for value_a, distinct_count in statistics.distinct_counts():
            if examined >= config.max_values_per_pair:
                break
            if statistics.value_support(value_a) < config.min_value_support:
                continue

            expected = self._knowledge.expected_value_count(attribute_a, value_a, attribute_b)
            if (
                config.inflation_factor > 0
                and expected is not None
                and distinct_count <= expected * config.inflation_factor
            ):
                # The configuration count is compatible with real devices;
                # nothing to examine for this value.
                continue
            examined += 1

            for value_b, support in sorted(
                statistics.combinations[value_a].items(), key=lambda item: item[1], reverse=True
            ):
                if support < config.min_support:
                    continue
                verdict = self._knowledge.is_pair_consistent(
                    attribute_a, value_a, attribute_b, value_b
                )
                if verdict is False:
                    rules.append(
                        InconsistencyRule(
                            category=category,
                            attribute_a=attribute_a,
                            value_a=value_a,
                            attribute_b=attribute_b,
                            value_b=value_b,
                            support=support,
                        )
                    )
        return rules

    def mine_table(self, table: ColumnarTable) -> FilterList:
        """Mine a filter list from a columnar table.

        Each unordered attribute pair is counted once, on a dense code
        grid (:func:`_grid_pair_statistics`), which yields the statistics
        of both orientations.  Algorithm 1 sorts one side of the pair;
        mining the swapped orientation as well catches pairs where the
        *second* attribute's values are the inflated ones.  Rules are
        selected pair by pair in :func:`all_candidate_pairs` order, the
        given orientation before the swapped one.
        """

        filter_list = FilterList()
        for category, attribute_a, attribute_b in all_candidate_pairs():
            for statistics in _grid_pair_statistics(table, category, attribute_a, attribute_b):
                for rule in self.select_rules(statistics):
                    filter_list.add(rule)
        return filter_list


def _grid_pair_statistics(
    table: ColumnarTable,
    category: AttributeCategory,
    attribute_a: Attribute,
    attribute_b: Attribute,
) -> Tuple[PairStatistics, PairStatistics]:
    """Step 1 of Algorithm 1 for both orientations of one attribute pair.

    Codes shift up by one so that "missing" (``-1``) becomes code 0; one
    ``numpy.bincount`` over the ``(n_a + 1) x (n_b + 1)`` code grid then
    counts every value pair, and ``numpy.minimum.at`` records each cell's
    first row.  No sort of the rows is needed.  Cells with a missing side
    are dropped, and the observed cells are visited in first-row order —
    the insertion order a per-fingerprint counting loop produces — so
    downstream tie-breaking (stable sorts over dict order) matches it
    exactly.  The swapped orientation is the transposed grid: the same
    cells in the same first-row order, with the two values' roles
    exchanged.
    """

    values_a = table.values_of(attribute_a)
    values_b = table.values_of(attribute_b)
    width = len(values_b) + 1
    cells = (len(values_a) + 1) * width
    keys = (table.codes_of(attribute_a).astype(np.int64) + 1) * width
    keys += table.codes_of(attribute_b)
    keys += 1
    counts = np.bincount(keys, minlength=cells)
    first_row = np.full(cells, table.n_rows, dtype=np.int64)
    np.minimum.at(first_row, keys, np.arange(table.n_rows))
    grid = counts.reshape(-1, width)
    grid[0, :] = 0
    grid[:, 0] = 0
    observed = np.flatnonzero(counts)
    observed = observed[np.argsort(first_row[observed])]

    forward: Dict[object, Dict[object, int]] = {}
    swapped: Dict[object, Dict[object, int]] = {}
    for cell, count in zip(observed.tolist(), counts[observed].tolist()):
        row, column = divmod(cell, width)
        value_a = values_a[row - 1]
        value_b = values_b[column - 1]
        forward.setdefault(value_a, {})[value_b] = count
        swapped.setdefault(value_b, {})[value_a] = count
    return (
        PairStatistics(category, attribute_a, attribute_b, forward),
        PairStatistics(category, attribute_b, attribute_a, swapped),
    )
