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

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import ColumnarTable, TableEncoder
from repro.core.rules import FilterList, FilterListMatcher, InconsistencyRule, RuleTable
from repro.core.spatial import SpatialInconsistencyMiner
from repro.core.temporal import TemporalFlag, TemporalInconsistencyDetector
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.categories import AttributeCategory
from repro.fingerprint.fingerprint import Fingerprint
from repro.honeysite.storage import RequestStore

class Verdicts:
    """FP-Inconsistent's decisions over a set of requests, as columns.

    Row *i* is request ``request_ids[i]``; ``rule_index[i]`` is the
    position of its spatial rule in ``rules`` (an append-only
    :class:`~repro.core.rules.RuleTable`), ``-1`` when no rule matched.
    Temporal flags are sparse: ``flags`` maps the rows that raised any to
    their :class:`~repro.core.temporal.TemporalFlag` tuple.  Equality is
    per request id and independent of row order and rule-table layout.
    """

    __slots__ = ("request_ids", "rule_index", "rules", "flags")

    def __init__(
        self,
        request_ids: np.ndarray,
        rule_index: np.ndarray,
        rules: RuleTable,
        flags: Optional[Dict[int, Tuple[TemporalFlag, ...]]] = None,
    ):
        self.request_ids = request_ids
        self.rule_index = rule_index
        self.rules = rules
        self.flags = {} if flags is None else flags

    @classmethod
    def concat(cls, chunks: Sequence["Verdicts"]) -> "Verdicts":
        """One column set of *chunks* in order; rule tables are merged when
        the chunks do not already share one."""

        if not chunks:
            return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), RuleTable())
        rules = chunks[0].rules
        if any(chunk.rules is not rules for chunk in chunks):
            rules = RuleTable()
        columns, flags, offset = [], {}, 0
        for chunk in chunks:
            column = chunk.rule_index
            if chunk.rules is not rules:
                column = rules.indices(chunk.rules.rules)[column]
            columns.append(column)
            flags.update((row + offset, row_flags) for row, row_flags in chunk.flags.items())
            offset += len(chunk)
        request_ids = np.concatenate([chunk.request_ids for chunk in chunks])
        return cls(request_ids, np.concatenate(columns), rules, flags)

    def __len__(self) -> int:
        return int(self.request_ids.size)

    def spatial(self) -> np.ndarray:
        """Per row: matched a spatial rule."""

        return self.rule_index >= 0

    def temporal(self) -> np.ndarray:
        """Per row: raised a temporal flag."""

        mask = np.zeros(len(self), dtype=bool)
        mask[list(self.flags)] = True
        return mask

    def counts(self) -> Dict[str, int]:
        """Tallies: spatial / temporal / combined (either) inconsistency."""

        spatial, temporal = self.spatial(), self.temporal()
        return {
            "spatial": int(np.count_nonzero(spatial)),
            "temporal": len(self.flags),
            "inconsistent": int(np.count_nonzero(spatial | temporal)),
        }

    def masks_for(self, request_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(spatial, temporal)`` per entry of *request_ids*; an id without
        a verdict is neither."""

        flagged = np.fromiter(self.flags, dtype=np.int64, count=len(self.flags))
        return (
            np.isin(request_ids, self.request_ids[self.spatial()]),
            np.isin(request_ids, self.request_ids[flagged]),
        )


class SpatialMatchState:
    """Spatial scoring state that outlives one table.

    The online classifier keeps one for the life of its stream; a batch
    classification makes a fresh one per call.  It holds the rule table
    the verdict columns index, the deployed matcher's rule positions
    translated into that table (redone only when the deployed list or its
    version changes), and the generalised Location predicate's outcome
    per (country, timezone) code pair: ``-2`` unknown, ``-1``
    consistent, else a rule-table index.  The memo belongs to one pair of
    decode lists, which only ever grow; other lists start a new memo.
    """

    __slots__ = ("rules", "_deployed", "_location")

    def __init__(self):
        self.rules = RuleTable()
        #: (matcher, its rule positions as rule-table indices + [-1])
        self._deployed: Optional[Tuple[FilterListMatcher, np.ndarray]] = None
        #: (country decode list, timezone decode list, memo)
        self._location: Optional[Tuple[List, List, np.ndarray]] = None

    def match(self, filter_list: FilterList, table: ColumnarTable) -> np.ndarray:
        """Rule-table index of each row's filter-list match (``-1``: none)."""

        matcher = filter_list.matcher()
        if self._deployed is None or self._deployed[0] is not matcher:
            self._deployed = (matcher, self.rules.indices(matcher.rules))
        return self._deployed[1][matcher.first_match_rows(table)]

    def location_memo(self, countries: List, timezones: List) -> np.ndarray:
        """The memo for these decode lists, grown to cover every code."""

        cached = self._location
        if cached is not None and cached[0] is countries and cached[1] is timezones:
            memo = cached[2]
        else:
            memo = np.full((0, 0), _UNKNOWN, dtype=np.int64)
        rows, columns = memo.shape
        if rows < len(countries) or columns < len(timezones):
            known, memo = memo, np.full(
                (max(len(countries), 2 * rows), max(len(timezones), 2 * columns)),
                _UNKNOWN,
                dtype=np.int64,
            )
            memo[:rows, :columns] = known
        self._location = (countries, timezones, memo)
        return memo


#: Location memo entry of a (country, timezone) pair not evaluated yet.
_UNKNOWN = -2


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
        swaps the list between batches.  Each list is compiled once
        (:meth:`FilterList.matcher`, recompiled after an :meth:`FilterList.add`)
        and every table is matched against the list deployed when it is
        scored, so a swap takes effect exactly at the next batch boundary.
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

    def fit(self, store: RequestStore) -> "FPInconsistent":
        """Mine the spatial filter list from a bot-labelled request store.

        Extracts the store into a :class:`~repro.core.columnar.ColumnarTable`
        and mines it vectorized.
        """

        return self.fit_table(self.extract_table(store))

    def fit_table(self, table: ColumnarTable) -> "FPInconsistent":
        """Mine the spatial filter list from an already-extracted table."""

        self._filter_list = self._miner.mine_table(table)
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
        """Extract *store* into the columnar layout this detector needs.

        One :class:`~repro.core.columnar.TableEncoder` gather over the
        store's record columns, rows in store order.
        """

        rows = np.arange(len(store), dtype=np.int64)
        return TableEncoder(self.table_attributes()).encode(store.columns, rows)

    def resolve_table(
        self, store: RequestStore, candidate: Optional[ColumnarTable] = None
    ) -> Tuple[ColumnarTable, str]:
        """The table to use for *store*: *candidate* when acceptable, else
        a fresh extraction.

        Returns ``(table, source)`` with source ``"reused"`` or
        ``"extracted"`` — the one reuse-or-extract decision shared by the
        batch pipeline, the stream CLI and the report, so the
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

    def new_spatial_state(self) -> SpatialMatchState:
        """Fresh cross-table spatial state for :meth:`classify_table`."""

        return SpatialMatchState()

    def classify_table(
        self,
        table: ColumnarTable,
        *,
        use_spatial: bool = True,
        use_temporal: bool = True,
        temporal_state=None,
        spatial_state: Optional[SpatialMatchState] = None,
    ) -> Verdicts:
        """Classify every row of a columnar table; verdicts in row order.

        The deployed filter list's compiled matcher
        (:meth:`FilterList.matcher`) scores every row in one vectorized
        pass; the Location predicate is evaluated once per distinct
        (country, timezone) code pair.

        *temporal_state* and *spatial_state* switch to the **incremental**
        streaming mode: the given
        :class:`~repro.core.temporal.TemporalStreamState` is updated in
        place and carried across calls, and the given
        :class:`SpatialMatchState` keeps its rule table, translations and
        Location memo, so the streaming subsystem scores one micro-batch
        per call without re-reading history or recompiling.
        """

        if table.request_ids is None:
            raise ValueError(
                "classify_table requires a table with request metadata "
                "(extract it with FPInconsistent.extract_table)"
            )
        flags: Dict[int, Tuple[TemporalFlag, ...]] = {}
        if use_temporal:
            if temporal_state is not None:
                by_request = self._temporal.observe_table(table, temporal_state)
            else:
                by_request = self._temporal.evaluate_table(table)
            if by_request:
                order = np.argsort(table.request_ids, kind="stable")
                flagged = np.fromiter(by_request, dtype=np.int64, count=len(by_request))
                rows = order[np.searchsorted(table.request_ids[order], flagged)]
                flags = dict(zip(rows.tolist(), map(tuple, by_request.values())))

        state = spatial_state if spatial_state is not None else self.new_spatial_state()
        if use_spatial:
            rules = state.match(self._filter_list, table)
            if self._location_predicate:
                self._apply_location_predicate(table, rules, state)
        else:
            rules = np.full(table.n_rows, -1, dtype=np.int64)
        return Verdicts(table.request_ids, rules, state.rules, flags)

    def _apply_location_predicate(
        self, table: ColumnarTable, rules: np.ndarray, state: SpatialMatchState
    ) -> None:
        """Fill filter-list misses (``-1`` in *rules*) with the generalised
        Location check.

        The knowledge base is consulted once per (IP country, timezone)
        code pair for the life of *state* (its memo); each pair's rule is
        value-identical to :meth:`check_fingerprint`'s.
        """

        for attribute in (Attribute.IP_COUNTRY, Attribute.TIMEZONE):
            table.require_attribute(attribute, "Location predicate attribute")
        country_codes = table.codes_of(Attribute.IP_COUNTRY)
        timezone_codes = table.codes_of(Attribute.TIMEZONE)
        rows = np.flatnonzero((rules < 0) & (country_codes >= 0) & (timezone_codes >= 0))
        if not rows.size:
            return
        country_values = table.values_of(Attribute.IP_COUNTRY)
        timezone_values = table.values_of(Attribute.TIMEZONE)
        memo = state.location_memo(country_values, timezone_values)
        countries, timezones = country_codes[rows], timezone_codes[rows]
        found = memo[countries, timezones]
        unknown = np.flatnonzero(found == _UNKNOWN)
        if unknown.size:
            n_timezones = len(timezone_values)
            pairs = np.unique(countries[unknown].astype(np.int64) * n_timezones + timezones[unknown])
            for country, timezone in zip(*(part.tolist() for part in np.divmod(pairs, n_timezones))):
                rule = self._location_rule(country_values[country], timezone_values[timezone])
                memo[country, timezone] = -1 if rule is None else state.rules.add(rule)
            found = memo[countries, timezones]
        rules[rows] = found
