"""The combined FP-Inconsistent detector.

Wraps a mined spatial :class:`FilterList` and a
:class:`TemporalInconsistencyDetector` behind one object that can

* be fitted on a corpus of bot-labelled requests (rule mining),
* classify individual fingerprints / whole request stores, and
* report *why* a request was considered inconsistent.

This is the artefact an anti-bot service would deploy (Section 8.3): the
filter list runs client- or server-side per request, the temporal tracker
runs server-side keyed on the first-party cookie and source address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.columnar import ColumnarTable, partition_rows_by_device
from repro.core.rules import FilterList, InconsistencyRule
from repro.core.spatial import SpatialInconsistencyMiner
from repro.core.temporal import TemporalFlag, TemporalInconsistencyDetector
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.categories import AttributeCategory
from repro.fingerprint.fingerprint import Fingerprint
from repro.honeysite.storage import RequestStore

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
        """Combined decision (spatial OR temporal)."""

        return self.spatially_inconsistent or self.temporally_inconsistent


class FPInconsistent:
    """Data-driven inconsistency detector (the paper's core contribution)."""

    def __init__(
        self,
        *,
        filter_list: Optional[FilterList] = None,
        temporal: Optional[TemporalInconsistencyDetector] = None,
        miner: Optional[SpatialInconsistencyMiner] = None,
        location_predicate: bool = True,
    ):
        self._miner = miner if miner is not None else SpatialInconsistencyMiner()
        self._filter_list = filter_list if filter_list is not None else FilterList()
        self._temporal = temporal if temporal is not None else TemporalInconsistencyDetector()
        #: When enabled, the Location rules generalise beyond the exact
        #: value pairs mined from the corpus: any (IP country, browser
        #: timezone) combination whose UTC offsets cannot overlap is a
        #: spatial inconsistency (this is what flags Tor traffic, §7.5).
        self._location_predicate = location_predicate

    # -- accessors ------------------------------------------------------------

    @property
    def filter_list(self) -> FilterList:
        return self._filter_list

    @filter_list.setter
    def filter_list(self, filter_list: FilterList) -> None:
        """Hot-swap the deployed rule set.

        The streaming subsystem's refresher re-mines periodically and
        swaps the list between batches; matching is stateless (the list is
        recompiled against every batch), so a swap takes effect exactly at
        the next batch boundary.
        """

        if not isinstance(filter_list, FilterList):
            raise TypeError(f"expected a FilterList, got {type(filter_list).__name__}")
        self._filter_list = filter_list

    @property
    def temporal_detector(self) -> TemporalInconsistencyDetector:
        return self._temporal

    @property
    def miner(self) -> SpatialInconsistencyMiner:
        return self._miner

    @property
    def location_predicate(self) -> bool:
        """Whether the generalised Location check backs filter-list misses."""

        return self._location_predicate

    def isolated_clone(self) -> "FPInconsistent":
        """A detector sharing this one's read-only parts.

        The filter list, miner, knowledge base and temporal configuration
        are only ever read during classification, so they are shared by
        reference (temporal seen-state lives in a per-call
        :class:`~repro.core.temporal.TemporalStreamState`, never in the
        detector).  The streaming :class:`~repro.stream.OnlineClassifier`
        classifies through one of these so that hot-swapping its filter
        list never touches the fitted detector a caller handed in.
        """

        return FPInconsistent(
            filter_list=self._filter_list,
            temporal=self._temporal,
            miner=self._miner,
            location_predicate=self._location_predicate,
        )

    # -- fitting -----------------------------------------------------------------

    def fit(
        self,
        store: RequestStore,
        *,
        workers: int = 1,
        executor: Optional[str] = None,
    ) -> "FPInconsistent":
        """Mine the spatial filter list from a bot-labelled request store.

        Extracts the store into a :class:`~repro.core.columnar.ColumnarTable`
        and mines it vectorized, optionally sharded over *workers*.
        """

        return self.fit_table(self.extract_table(store), workers=workers, executor=executor)

    def fit_table(
        self,
        table: ColumnarTable,
        *,
        workers: int = 1,
        executor: Optional[str] = None,
    ) -> "FPInconsistent":
        """Mine the spatial filter list from an already-extracted table."""

        self._filter_list = self._miner.mine_table(table, workers=workers, executor=executor)
        return self

    def table_attributes(self) -> Tuple[Attribute, ...]:
        """The attribute set this detector's tables must carry.

        The default attribute set covers every mineable pair and the
        temporally tracked attributes; attributes referenced by an
        externally loaded filter list are appended so its rules stay
        matchable.
        """

        extra = [rule.attribute_a for rule in self._filter_list] + [
            rule.attribute_b for rule in self._filter_list
        ]
        extra += list(self._temporal.tracked_attributes)
        from repro.core.columnar import default_table_attributes

        ordered: Dict[Attribute, None] = {
            attribute: None for attribute in default_table_attributes()
        }
        for attribute in extra:
            ordered.setdefault(attribute, None)
        return tuple(ordered)

    def accepts_table(self, table: ColumnarTable, store: Optional[RequestStore] = None) -> bool:
        """Whether a pre-extracted *table* can stand in for extracting *store*.

        True when the table carries request metadata and every attribute
        this detector reads — extra columns are harmless (every consumer
        addresses columns by attribute, never by position) — and, when
        *store* is given, when the table's rows actually correspond to it
        (row count and request ids), so a table from a different corpus is
        rejected instead of silently classifying the wrong rows.
        """

        if table.request_ids is None or table.cookie_codes is None or table.ip_codes is None:
            return False
        if not all(table.has_attribute(attribute) for attribute in self.table_attributes()):
            return False
        if store is not None and not table.matches_store(store):
            return False
        return True

    def extract_table(self, store: RequestStore) -> ColumnarTable:
        """Extract *store* into the columnar layout this detector needs."""

        return ColumnarTable.from_store(store, attributes=self.table_attributes())

    def resolve_table(
        self, store: RequestStore, candidate: Optional[ColumnarTable] = None
    ) -> Tuple[ColumnarTable, str]:
        """The table to use for *store*: *candidate* when acceptable, else
        a fresh extraction.

        Returns ``(table, source)`` with source ``"reused"`` or
        ``"extracted"`` — the one reuse-or-extract decision shared by the
        batch pipeline, the stream CLI and the benchmarks, so the
        acceptance rules live in exactly one place
        (:meth:`accepts_table`).
        """

        if candidate is not None and self.accepts_table(candidate, store):
            return candidate, "reused"
        return self.extract_table(store), "extracted"

    # -- single-fingerprint API ------------------------------------------------------

    def check_fingerprint(self, fingerprint: Fingerprint) -> Optional[InconsistencyRule]:
        """Spatial check of a single fingerprint (no temporal state)."""

        match = self._filter_list.first_match(fingerprint)
        if match is not None:
            return match
        if self._location_predicate:
            return self._check_location(fingerprint)
        return None

    def _check_location(self, fingerprint: Fingerprint) -> Optional[InconsistencyRule]:
        """Generalised Location-category check backed by the knowledge base."""

        country = fingerprint.value_for_grouping(Attribute.IP_COUNTRY)
        timezone = fingerprint.value_for_grouping(Attribute.TIMEZONE)
        return self._location_rule(country, timezone)

    def _location_rule(
        self, country: object, timezone: object
    ) -> Optional[InconsistencyRule]:
        if country is None or timezone is None:
            return None
        verdict = self._miner.knowledge.is_pair_consistent(
            Attribute.IP_COUNTRY, country, Attribute.TIMEZONE, timezone
        )
        if verdict is False:
            return InconsistencyRule(
                category=AttributeCategory.LOCATION,
                attribute_a=Attribute.IP_COUNTRY,
                value_a=country,
                attribute_b=Attribute.TIMEZONE,
                value_b=timezone,
                support=0,
            )
        return None

    # -- store classification ----------------------------------------------------------

    def classify_store(
        self,
        store: RequestStore,
        *,
        use_spatial: bool = True,
        use_temporal: bool = True,
        workers: int = 1,
        executor: Optional[str] = None,
    ) -> Dict[int, InconsistencyVerdict]:
        """Classify every request in *store*.

        Extracts the store once and classifies the table
        (:meth:`classify_table`), optionally sharded over *workers*.
        Temporal state is evaluated in timestamp order over the given store
        only (it does not leak across calls).  Returns a verdict per
        ``request_id``.
        """

        return self.classify_table(
            self.extract_table(store),
            use_spatial=use_spatial,
            use_temporal=use_temporal,
            workers=workers,
            executor=executor,
        )

    def classify_table(
        self,
        table: ColumnarTable,
        *,
        use_spatial: bool = True,
        use_temporal: bool = True,
        workers: int = 1,
        executor: Optional[str] = None,
        temporal_state=None,
    ) -> Dict[int, InconsistencyVerdict]:
        """Classify every row of a columnar table (vectorized engine).

        The filter list is compiled to the table's value codes and matched
        with one vectorized lookup per attribute pair; the Location
        predicate is evaluated once per distinct (country, timezone)
        combination.  With ``workers > 1`` rows shard over the worker pool
        in device-closed groups (every cookie's and every source address's
        rows stay on one shard), so temporal flags — whose state is keyed
        on those identifiers — are identical to a single-shard evaluation.

        *temporal_state* switches temporal detection from the
        self-contained batch evaluation (fresh state, whole table replayed)
        to the **incremental** streaming mode: the given
        :class:`~repro.core.temporal.TemporalStreamState` is updated in
        place and carried across calls, so the streaming subsystem scores
        one micro-batch per call without re-reading history.  Incremental
        calls are single-shard by contract (the stream is one arrival
        order; ``workers`` must stay 1).
        """

        if table.request_ids is None:
            raise ValueError(
                "classify_table requires a table built with "
                "ColumnarTable.from_store (request metadata is missing)"
            )
        workers = 1 if workers is None else int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if temporal_state is not None and workers > 1:
            raise ValueError(
                "incremental temporal state is inherently ordered; "
                "classify_table(temporal_state=...) requires workers=1"
            )
        if workers > 1 and table.n_rows > 1:
            return self._classify_table_sharded(
                table,
                use_spatial=use_spatial,
                use_temporal=use_temporal,
                workers=workers,
                executor=executor,
            )

        temporal_flags: Dict[int, List[TemporalFlag]] = {}
        if use_temporal:
            if temporal_state is not None:
                temporal_flags = self._temporal.observe_table(table, temporal_state)
            else:
                temporal_flags = self._temporal.evaluate_table(table)

        spatial_rules: List[Optional[InconsistencyRule]] = [None] * table.n_rows
        if use_spatial:
            spatial_rules = self._filter_list.compile(table).first_match_rows()
            if self._location_predicate:
                self._apply_location_predicate(table, spatial_rules)

        verdicts: Dict[int, InconsistencyVerdict] = {}
        for row in range(table.n_rows):
            request_id = int(table.request_ids[row])
            verdicts[request_id] = InconsistencyVerdict(
                request_id=request_id,
                spatial_rule=spatial_rules[row],
                temporal_flags=tuple(temporal_flags.get(request_id, ())),
            )
        return verdicts

    def _apply_location_predicate(
        self, table: ColumnarTable, spatial_rules: List[Optional[InconsistencyRule]]
    ) -> None:
        """Fill filter-list misses with the generalised Location check.

        The knowledge base is consulted once per distinct (IP country,
        timezone) code pair among the unmatched rows, found with one
        ``np.unique``; each pair's rule object is shared by its rows and is
        value-identical to :meth:`check_fingerprint`'s.
        """

        for attribute in (Attribute.IP_COUNTRY, Attribute.TIMEZONE):
            table.require_attribute(attribute, "Location predicate attribute")
        country_codes = table.codes_of(Attribute.IP_COUNTRY)
        timezone_codes = table.codes_of(Attribute.TIMEZONE)
        unmatched = np.array([rule is None for rule in spatial_rules], dtype=bool)
        rows = np.flatnonzero(unmatched & (country_codes >= 0) & (timezone_codes >= 0))
        if not rows.size:
            return
        country_values = table.values_of(Attribute.IP_COUNTRY)
        timezone_values = table.values_of(Attribute.TIMEZONE)
        n_timezones = len(timezone_values)
        combos, inverse = np.unique(
            country_codes[rows].astype(np.int64) * n_timezones + timezone_codes[rows],
            return_inverse=True,
        )
        combo_rules = [
            self._location_rule(country_values[country], timezone_values[timezone])
            for country, timezone in zip(
                (combos // n_timezones).tolist(), (combos % n_timezones).tolist()
            )
        ]
        for row, combo in zip(rows.tolist(), inverse.tolist()):
            spatial_rules[row] = combo_rules[combo]

    def _classify_table_sharded(
        self,
        table: ColumnarTable,
        *,
        use_spatial: bool,
        use_temporal: bool,
        workers: int,
        executor: Optional[str],
    ) -> Dict[int, InconsistencyVerdict]:
        from repro.analysis.engine import map_shards

        partitions = partition_rows_by_device(table, workers)
        shards = [
            _ClassificationShard(
                detector=self,
                table=table.take(rows),
                use_spatial=use_spatial,
                use_temporal=use_temporal,
            )
            for rows in partitions
        ]
        merged: Dict[int, InconsistencyVerdict] = {}
        for verdicts in map_shards(
            _classify_shard, shards, workers=workers, executor=executor, label="classify"
        ):
            merged.update(verdicts)
        # Re-emit in table row order so the verdict dict is ordered exactly
        # like a single-shard classification.
        return {int(request_id): merged[int(request_id)] for request_id in table.request_ids}


@dataclass(frozen=True)
class _ClassificationShard:
    """One worker's device-closed slice of a classification (picklable)."""

    detector: FPInconsistent
    table: ColumnarTable
    use_spatial: bool
    use_temporal: bool


def _classify_shard(shard: _ClassificationShard) -> Dict[int, InconsistencyVerdict]:
    """Worker entry point: classify one shard single-threaded.

    The detector is only read (temporal seen-state is per call), so thread
    shards share it safely.
    """

    return shard.detector.classify_table(
        shard.table,
        use_spatial=shard.use_spatial,
        use_temporal=shard.use_temporal,
        workers=1,
    )
