"""Columnar/reference equivalence: detection must agree exactly.

The columnar engine (vectorized mining, compiled filter-list matching)
is only correct if it reproduces the object-at-a-time reference
(``tests/reference/detection.py``) byte for byte — identical filter lists
and identical per-request verdicts.  These tests pin that contract on
seeded random stores (property-style) and on the shared small corpus.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from reference import detection as reference
from reference.detection import cookie_at, ip_at, value_at, verdicts_equal
from reference.store import (
    RecordedRequest,
    RequestStore,
    columnar_store,
    from_store,
    object_store,
)

from repro.antibot.base import Decision
from repro.core.columnar import ColumnarTable
from repro.core.detector import FPInconsistent
from repro.core.evaluation import evaluate_table3, evaluate_table4, true_negative_rate
from repro.core.pipeline import FPInconsistentPipeline
from repro.core.rules import FilterList, InconsistencyRule
from repro.core.spatial import SpatialInconsistencyMiner, SpatialMinerConfig
from repro.core.temporal import TemporalInconsistencyDetector
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.categories import AttributeCategory
from repro.fingerprint.fingerprint import Fingerprint
from repro.network.request import WebRequest

# -- synthetic seeded stores --------------------------------------------------------

_DEVICES = ["iPhone", "iPad", "Mac", "Windows PC", "SM-A515F", "Pixel 7", None]
_RESOLUTIONS = [(390, 844), (1920, 1080), (847, 476), (2560, 1440), None]
_TOUCH = ["None", "touchEvent/touchStart", None]
_BROWSERS = ["Mobile Safari", "Chrome", "Safari", "Chrome Mobile", None]
_VENDORS = ["Apple Computer, Inc.", "Google Inc.", "", None]
_PLATFORMS = ["iPhone", "Win32", "MacIntel", "Linux armv8l", None]
_OSES = ["iOS", "Windows", "Mac OS X", "Android", None]
_CORES = [2, 4, 6, 8, 16, 32, None]
_MEMORY = [0.25, 2.0, 4.0, 8.0, 3.0, None]
_TIMEZONES = ["America/Los_Angeles", "Europe/Berlin", "Asia/Shanghai", None]
_COUNTRIES = ["United States", "France", "China", "Germany", None]
_TOUCH_POINTS = [0, 5, 10, None]
_COLOR_DEPTHS = [16, 24, 32, None]
_PLUGINS = [(), ("Chrome PDF Viewer",), None]


def _random_store(seed: int, size: int = 400) -> RequestStore:
    """A seeded object store exercising missing values, ties and shared devices."""

    rng = np.random.default_rng(seed)

    def pick(pool):
        return pool[int(rng.integers(0, len(pool)))]

    sources = [f"S{index}" for index in range(1, 6)]
    cookies = [f"cookie-{index}" for index in range(size // 8)] + [""]
    ips = [f"10.0.{index // 256}.{index % 256}" for index in range(size // 10)]
    records = []
    for index in range(size):
        values = {
            Attribute.UA_DEVICE: pick(_DEVICES),
            Attribute.SCREEN_RESOLUTION: pick(_RESOLUTIONS),
            Attribute.TOUCH_SUPPORT: pick(_TOUCH),
            Attribute.UA_BROWSER: pick(_BROWSERS),
            Attribute.VENDOR: pick(_VENDORS),
            Attribute.PLATFORM: pick(_PLATFORMS),
            Attribute.UA_OS: pick(_OSES),
            Attribute.HARDWARE_CONCURRENCY: pick(_CORES),
            Attribute.DEVICE_MEMORY: pick(_MEMORY),
            Attribute.TIMEZONE: pick(_TIMEZONES),
            Attribute.IP_COUNTRY: pick(_COUNTRIES),
            Attribute.MAX_TOUCH_POINTS: pick(_TOUCH_POINTS),
            Attribute.COLOR_DEPTH: pick(_COLOR_DEPTHS),
            Attribute.PLUGINS: pick(_PLUGINS),
        }
        fingerprint = Fingerprint(
            {key: value for key, value in values.items() if value is not None}
        )
        cookie = cookies[int(rng.integers(0, len(cookies)))]
        request = WebRequest(
            url_path="/test",
            timestamp=float(rng.integers(0, 50)),  # many timestamp ties
            ip_address=ips[int(rng.integers(0, len(ips)))],
            fingerprint=fingerprint,
            cookie=cookie or None,
        )
        records.append(
            RecordedRequest(
                request=request,
                source=sources[int(rng.integers(0, len(sources)))],
                cookie=cookie,
                datadome=Decision(
                    detector="DataDome", is_bot=bool(rng.integers(0, 2)), score=0.5
                ),
                botd=Decision(detector="BotD", is_bot=bool(rng.integers(0, 2)), score=0.5),
            )
        )
    return RequestStore(records)


def _extract(store: RequestStore) -> ColumnarTable:
    """The product's table of an object store, through its columnar twin."""

    return FPInconsistent().extract_table(columnar_store(store))


MINER_CONFIG = SpatialMinerConfig(min_support=3, min_value_support=5, inflation_factor=0)


@pytest.mark.parametrize("seed", [0, 1, 7, 99])
def test_mining_equivalence_on_random_stores(seed):
    store = _random_store(seed)
    legacy = reference.mine_store(SpatialInconsistencyMiner(config=MINER_CONFIG), store)
    columnar = SpatialInconsistencyMiner(config=MINER_CONFIG).mine_table(_extract(store))
    assert legacy.to_json() == columnar.to_json()


@pytest.mark.parametrize("seed", [0, 1, 7, 99])
def test_classification_equivalence_on_random_stores(seed):
    store = _random_store(seed)
    detector = FPInconsistent(miner=SpatialInconsistencyMiner(config=MINER_CONFIG))
    reference.fit(detector, store)
    legacy = reference.classify_store(detector, store)
    columnar = detector.classify_table(detector.extract_table(columnar_store(store)))
    assert list(legacy) == columnar.request_ids.tolist()
    assert legacy == reference.verdict_objects(columnar)


def test_temporal_table_equivalence():
    store = _random_store(13)
    legacy = reference.ObjectTemporalDetector().evaluate_store(store)
    assert legacy == TemporalInconsistencyDetector().evaluate_table(_extract(store))


def test_anonymous_traffic_equivalence():
    """Tables with no cookies (or no source addresses) at all must classify,
    not crash on the empty key column (regression).  A store always has a
    served cookie, so the cookie-less table comes from the reference
    extraction."""

    base = _random_store(37, size=60)
    no_cookies = RequestStore(
        RecordedRequest(
            request=dataclasses.replace(record.request, cookie=None),
            source=record.source,
            cookie=None,  # anonymous: no cookie was ever issued
            datadome=record.datadome,
            botd=record.botd,
        )
        for record in base
    )
    detector = FPInconsistent(miner=SpatialInconsistencyMiner(config=MINER_CONFIG))
    table = from_store(no_cookies)
    assert table.cookie_values == []
    detector.fit_table(table)
    legacy = reference.classify_store(detector, no_cookies)
    columnar = detector.classify_table(table)
    assert legacy == reference.verdict_objects(columnar)


def test_custom_temporal_attributes_stay_equivalent():
    """Tracked attributes outside the default table set must still be
    extracted (regression: the pipeline used to drop their flags)."""

    from repro.core.temporal import DEFAULT_COOKIE_ATTRIBUTES

    store = _random_store(29)
    temporal = TemporalInconsistencyDetector(
        cookie_attributes=DEFAULT_COOKIE_ATTRIBUTES + (Attribute.USER_AGENT,)
    )
    detector = reference.fit(
        FPInconsistent(miner=SpatialInconsistencyMiner(config=MINER_CONFIG), temporal=temporal),
        store,
    )
    columnar = FPInconsistentPipeline(miner_config=MINER_CONFIG, temporal=temporal).run(
        columnar_store(store)
    )
    assert reference.classify_store(detector, store) == reference.verdict_objects(
        columnar.verdicts
    )
    assert detector.filter_list.to_json() == columnar.filter_list.to_json()


def test_missing_columns_fail_loudly():
    """A table extracted without the columns a component needs must raise,
    not silently weaken detection."""

    store = _random_store(31, size=50)
    narrow = from_store(store, attributes=[Attribute.UA_DEVICE])

    temporal = TemporalInconsistencyDetector()
    with pytest.raises(ValueError, match="tracked attribute"):
        temporal.evaluate_table(narrow)

    rule = InconsistencyRule(
        category=AttributeCategory.SCREEN,
        attribute_a=Attribute.UA_DEVICE,
        value_a="iPhone",
        attribute_b=Attribute.SCREEN_RESOLUTION,
        value_b="1920x1080",
    )
    with pytest.raises(ValueError, match="rule attribute"):
        FilterList([rule]).matcher().first_match_rows(narrow)

    detector = FPInconsistent(filter_list=FilterList())
    with pytest.raises(ValueError, match="Location predicate"):
        detector.classify_table(narrow, use_temporal=False)


def test_pipeline_engine_equivalence_on_corpus(small_corpus):
    bot = object_store(small_corpus.bot_store)
    real = object_store(small_corpus.real_user_store)
    detector = reference.fit(FPInconsistent(), bot)
    verdicts = reference.verdicts_from_objects(reference.classify_store(detector, bot))
    columnar = FPInconsistentPipeline().run(
        small_corpus.bot_store,
        real_user_store=small_corpus.real_user_store,
        check_generalization=True,
    )
    assert detector.filter_list.to_json() == columnar.filter_list.to_json()
    assert verdicts_equal(verdicts, columnar.verdicts)
    assert evaluate_table3(bot, verdicts) == columnar.table3
    assert evaluate_table4(bot, verdicts) == columnar.table4
    real_verdicts = reference.verdicts_from_objects(reference.classify_store(detector, real))
    assert true_negative_rate(real, real_verdicts) == (
        columnar.real_user_tnr
    )
    assert reference.evaluate_generalization(bot) == columnar.generalization


def test_pipeline_rejects_unknown_engine():
    # One engine, evaluated in-process: the engine selector and the
    # classification fan-out are gone, not merely defaulted.
    with pytest.raises(TypeError):
        FPInconsistentPipeline(engine="legacy")
    with pytest.raises(TypeError):
        FPInconsistentPipeline(workers=2)
    with pytest.raises(TypeError):
        FPInconsistent().classify_table(_extract(_random_store(0, size=10)), workers=2)


# -- columnar table internals ---------------------------------------------------------


def test_table_round_trip_and_codes():
    store = _random_store(17, size=80)
    table = _extract(store)
    for record_index, record in enumerate(store):
        fingerprint = record.request.fingerprint
        for attribute in table.attributes:
            assert value_at(table, attribute, record_index) == fingerprint.value_for_grouping(
                attribute
            )
        assert cookie_at(table, record_index) == record.cookie
        assert ip_at(table, record_index) == record.request.ip_address
    device_values = table.values_of(Attribute.UA_DEVICE)
    assert len(device_values) == len(set(device_values))
    codes = table.codes_of(Attribute.UA_DEVICE)
    for record_index, record in enumerate(store):
        device = record.request.fingerprint.value_for_grouping(Attribute.UA_DEVICE)
        expected = -1 if device is None else device_values.index(device)
        assert codes[record_index] == expected
    assert "Nokia 3310" not in device_values


def test_table_take_slices_metadata():
    table = _extract(_random_store(19, size=60))
    rows = np.array([3, 7, 21], dtype=np.int64)
    sliced = table.take(rows)
    assert sliced.n_rows == 3
    for position, row in enumerate(rows):
        assert value_at(sliced, Attribute.UA_DEVICE, position) == value_at(table, 
            Attribute.UA_DEVICE, int(row)
        )
        assert cookie_at(sliced, position) == cookie_at(table, int(row))
        assert int(sliced.request_ids[position]) == int(table.request_ids[int(row)])


def test_compiled_filter_list_tie_break_matches_reference():
    """When several rules match one fingerprint, the compiled matcher must
    pick the same winner as the reference index walk and the reference
    per-table compile."""

    rules = [
        InconsistencyRule(
            category=AttributeCategory.BROWSER,
            attribute_a=Attribute.UA_BROWSER,
            value_a="Mobile Safari",
            attribute_b=Attribute.VENDOR,
            value_b="Google Inc.",
        ),
        InconsistencyRule(
            category=AttributeCategory.SCREEN,
            attribute_a=Attribute.UA_DEVICE,
            value_a="iPhone",
            attribute_b=Attribute.SCREEN_RESOLUTION,
            value_b="1920x1080",
        ),
        InconsistencyRule(
            category=AttributeCategory.SCREEN,
            attribute_a=Attribute.UA_BROWSER,
            value_a="Mobile Safari",
            attribute_b=Attribute.TOUCH_SUPPORT,
            value_b="None",
        ),
    ]
    filter_list = FilterList(rules)
    fingerprints = [
        Fingerprint(
            {
                Attribute.UA_DEVICE: "iPhone",
                Attribute.UA_BROWSER: "Mobile Safari",
                Attribute.VENDOR: "Google Inc.",
                Attribute.SCREEN_RESOLUTION: (1920, 1080),
                Attribute.TOUCH_SUPPORT: "None",
            }
        ),
        Fingerprint(
            {
                Attribute.UA_DEVICE: "iPhone",
                Attribute.SCREEN_RESOLUTION: (1920, 1080),
                Attribute.TOUCH_SUPPORT: "None",
            }
        ),
        Fingerprint({Attribute.UA_DEVICE: "Windows PC"}),
    ]
    table = ColumnarTable.from_fingerprints(fingerprints)
    matcher = filter_list.matcher()
    vectorized = [
        None if rank < 0 else matcher.rules[rank]
        for rank in matcher.first_match_rows(table).tolist()
    ]
    walked = [reference.first_match(filter_list, fingerprint) for fingerprint in fingerprints]
    assert vectorized == walked
    assert vectorized == reference.compile_per_table(filter_list, table).first_match_rows()
    assert [filter_list.first_match(fingerprint) for fingerprint in fingerprints] == walked
    assert vectorized[0] is not None and vectorized[2] is None
