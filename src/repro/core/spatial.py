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
from repro.fingerprint.categories import AttributeCategory, category_pairs


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
    def config(self) -> SpatialMinerConfig:
        return self._config

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

    def mine_table(
        self,
        table: ColumnarTable,
        *,
        workers: int = 1,
        executor: Optional[str] = None,
    ) -> FilterList:
        """Mine a filter list from a columnar table (vectorized engine).

        Co-occurrence statistics come from a single ``numpy.unique`` pass
        per attribute pair instead of one fingerprint walk per pair.  With
        ``workers > 1`` the pair tasks fan out over the shard worker pool
        in contiguous chunks; results merge in canonical pair order, so the
        filter list is identical for any worker count and either executor.
        """

        tasks = ordered_pair_tasks()
        workers = 1 if workers is None else int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if workers > 1 and len(tasks) > 1:
            from repro.analysis.engine import map_shards

            chunk_size = -(-len(tasks) // workers)  # ceil division
            shards = []
            for start in range(0, len(tasks), chunk_size):
                chunk = tuple(tasks[start : start + chunk_size])
                touched: Dict[Attribute, None] = {}
                for _category, attribute_a, attribute_b in chunk:
                    touched.setdefault(attribute_a, None)
                    touched.setdefault(attribute_b, None)
                shards.append(
                    _MiningShard(
                        pairs=chunk,
                        # Only the columns this chunk mines cross the
                        # process boundary, not the whole table.
                        table=table.select(touched),
                        config=self._config,
                        knowledge=self._knowledge,
                    )
                )
            rule_lists = map_shards(
                _mine_shard, shards, workers=workers, executor=executor, label="mine"
            )
            filter_list = FilterList()
            for rules_per_pair in rule_lists:
                for rules in rules_per_pair:
                    for rule in rules:
                        filter_list.add(rule)
            return filter_list

        filter_list = FilterList()
        for category, attribute_a, attribute_b in tasks:
            statistics = columnar_pair_statistics(table, category, attribute_a, attribute_b)
            for rule in self.select_rules(statistics):
                filter_list.add(rule)
        return filter_list


def ordered_pair_tasks() -> List[Tuple[AttributeCategory, Attribute, Attribute]]:
    """Every attribute-pair orientation in canonical mining order.

    Algorithm 1 sorts one side of the pair; mining the swapped orientation
    as well catches pairs where the *second* attribute's values are the
    inflated ones.  Serial and sharded mining (and the test reference
    miner) iterate this exact sequence, which is what makes their outputs
    identical.
    """

    tasks: List[Tuple[AttributeCategory, Attribute, Attribute]] = []
    for category in AttributeCategory:
        for attribute_a, attribute_b in category_pairs(category):
            tasks.append((category, attribute_a, attribute_b))
            tasks.append((category, attribute_b, attribute_a))
    return tasks


def columnar_pair_statistics(
    table: ColumnarTable,
    category: AttributeCategory,
    attribute_a: Attribute,
    attribute_b: Attribute,
) -> PairStatistics:
    """Step 1 of Algorithm 1: co-occurrence counts of one attribute pair.

    One ``numpy.unique`` pass yields every (value_a, value_b) count.  The
    result dicts are rebuilt in first-occurrence order — the insertion
    order a per-fingerprint counting loop produces — so downstream
    tie-breaking (stable sorts over dict order) matches it exactly.
    """

    codes_a = table.codes_of(attribute_a)
    codes_b = table.codes_of(attribute_b)
    mask = (codes_a >= 0) & (codes_b >= 0)
    rows = np.nonzero(mask)[0]
    combinations: Dict[object, Dict[object, int]] = {}
    if rows.size:
        n_b = len(table.values_of(attribute_b))
        keys = codes_a[rows].astype(np.int64) * n_b + codes_b[rows]
        unique_keys, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        first_row = np.full(unique_keys.size, table.n_rows, dtype=np.int64)
        np.minimum.at(first_row, inverse, rows)
        values_a = table.values_of(attribute_a)
        values_b = table.values_of(attribute_b)
        for position in np.argsort(first_row, kind="stable"):
            key = int(unique_keys[position])
            value_a = values_a[key // n_b]
            value_b = values_b[key % n_b]
            combinations.setdefault(value_a, {})[value_b] = int(counts[position])
    return PairStatistics(
        category=category,
        attribute_a=attribute_a,
        attribute_b=attribute_b,
        combinations=combinations,
    )


@dataclass(frozen=True)
class _MiningShard:
    """One worker's chunk of pair-mining tasks (picklable for process pools)."""

    pairs: Tuple[Tuple[AttributeCategory, Attribute, Attribute], ...]
    table: ColumnarTable
    config: Optional[SpatialMinerConfig]
    knowledge: Optional[DeviceKnowledgeBase]


def _mine_shard(shard: _MiningShard) -> List[List[InconsistencyRule]]:
    """Worker entry point: mine every pair of one chunk, preserving order."""

    miner = SpatialInconsistencyMiner(knowledge=shard.knowledge, config=shard.config)
    results: List[List[InconsistencyRule]] = []
    for category, attribute_a, attribute_b in shard.pairs:
        statistics = columnar_pair_statistics(shard.table, category, attribute_a, attribute_b)
        results.append(miner.select_rules(statistics))
    return results
