"""Evaluation of FP-Inconsistent against the anti-bot services.

Implements the Section 7.3 / 7.4 measurements:

* overall detection rate of each anti-bot service with and without the
  inconsistency rules (Table 4: none / spatial / temporal / combined),
* the per-service improvement (Table 3),
* the relative reduction in evading traffic,
* the true-negative rate on real-user traffic, and
* the 80/20 generalisation check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.detector import FPInconsistent, Verdicts
from repro.honeysite.storage import RequestStore, split_rows

DETECTOR_NAMES: Tuple[str, str] = ("DataDome", "BotD")


@dataclass(frozen=True)
class DetectionRates:
    """Detection rate of one anti-bot service under each rule setting (one
    column group of Table 4)."""

    detector: str
    baseline: float
    with_spatial: float
    with_temporal: float
    with_combined: float

    @property
    def evasion_reduction(self) -> float:
        """Relative reduction of evading traffic achieved by the combined
        rules (the headline 44.95% / 48.11% numbers)."""

        baseline_evasion = 1.0 - self.baseline
        if baseline_evasion <= 0.0:
            return 0.0
        combined_evasion = 1.0 - self.with_combined
        return (baseline_evasion - combined_evasion) / baseline_evasion


@dataclass(frozen=True)
class ServiceImprovement:
    """One row of Table 3: a service's detection rates with and without
    FP-Inconsistent, for both anti-bot services."""

    service: str
    num_requests: int
    datadome_baseline: float
    datadome_improved: float
    botd_baseline: float
    botd_improved: float


class _StoreColumns:
    """Per-request boolean columns of one store/verdict pairing.

    The evaluation tables re-derive the same three facts per request —
    which services it evaded and whether the rules flagged it spatially or
    temporally — once per (service, detector, rule-setting) combination.
    Aligning them once with the store's rows (the verdict columns are
    matched by request id) turns every table cell into a masked count.  All rates stay integer-count ratios, so the floats are
    bit-identical to per-record loops'.
    """

    def __init__(self, store: RequestStore, verdicts: Verdicts):
        # Every column routes through the store's columnar accessors
        # (request_id_array / evaded_rows / source_rows).
        self.n = len(store)
        self.spatial, self.temporal = verdicts.masks_for(store.request_id_array())
        self.evaded = {name: store.evaded_rows(name) for name in DETECTOR_NAMES}
        self.source_codes, _source_names, self.source_index = store.source_rows()

    def improved_count(self, detector: str, hits: np.ndarray, mask=None) -> int:
        """Requests detected once the service's decision is OR-ed with *hits*."""

        evaded = self.evaded[detector]
        if mask is not None:
            return int(np.count_nonzero(mask & ~evaded)) + int(
                np.count_nonzero(mask & evaded & hits)
            )
        return int(np.count_nonzero(~evaded)) + int(np.count_nonzero(evaded & hits))


def _detection_rates_from_columns(columns: _StoreColumns, detector: str) -> DetectionRates:
    n = columns.n
    if n == 0:
        return DetectionRates(
            detector=detector, baseline=0.0, with_spatial=0.0, with_temporal=0.0, with_combined=0.0
        )
    evaded_count = int(np.count_nonzero(columns.evaded[detector]))
    return DetectionRates(
        detector=detector,
        # Matches ``store.detection_rate``: 1 - evasion rate, not detected/n.
        baseline=1.0 - evaded_count / n,
        with_spatial=columns.improved_count(detector, columns.spatial) / n,
        with_temporal=columns.improved_count(detector, columns.temporal) / n,
        with_combined=columns.improved_count(detector, columns.spatial | columns.temporal) / n,
    )


def evaluate_table4(
    store: RequestStore,
    verdicts: Verdicts,
    *,
    _columns: Optional[_StoreColumns] = None,
) -> Dict[str, DetectionRates]:
    """Table 4: detection rates under none/spatial/temporal/combined rules."""

    columns = _columns if _columns is not None else _StoreColumns(store, verdicts)
    return {name: _detection_rates_from_columns(columns, name) for name in DETECTOR_NAMES}


def evaluate_table3(
    store: RequestStore,
    verdicts: Verdicts,
    *,
    services: Optional[Sequence[str]] = None,
    _columns: Optional[_StoreColumns] = None,
) -> Tuple[ServiceImprovement, ...]:
    """Table 3: per-service detection improvement for both detectors."""

    columns = _columns if _columns is not None else _StoreColumns(store, verdicts)
    if services is None:
        services = store.sources()
    combined = columns.spatial | columns.temporal
    rows = []
    for service in services:
        code = columns.source_index.get(service)
        if code is None:
            continue
        mask = columns.source_codes == code
        num_requests = int(np.count_nonzero(mask))
        if num_requests == 0:
            continue
        dd_evaded = int(np.count_nonzero(mask & columns.evaded["DataDome"]))
        botd_evaded = int(np.count_nonzero(mask & columns.evaded["BotD"]))
        rows.append(
            ServiceImprovement(
                service=service,
                num_requests=num_requests,
                datadome_baseline=1.0 - dd_evaded / num_requests,
                datadome_improved=columns.improved_count("DataDome", combined, mask)
                / num_requests,
                botd_baseline=1.0 - botd_evaded / num_requests,
                botd_improved=columns.improved_count("BotD", combined, mask) / num_requests,
            )
        )
    return tuple(rows)


def true_negative_rate(store: RequestStore, verdicts: Verdicts) -> float:
    """Fraction of (human) requests in *store* not flagged by the rules."""

    if len(store) == 0:
        return 1.0
    spatial, temporal = verdicts.masks_for(store.request_id_array())
    return 1.0 - int(np.count_nonzero(spatial | temporal)) / len(store)


@dataclass(frozen=True)
class GeneralizationResult:
    """Section 7.3's 80/20 generalisation check."""

    detector: str
    train_detection_rate: float
    test_detection_rate: float

    @property
    def accuracy_drop(self) -> float:
        """Drop (in percentage points of detection rate) on held-out data."""

        return self.train_detection_rate - self.test_detection_rate


def evaluate_generalization(
    store: RequestStore,
    *,
    train_fraction: float = 0.8,
    seed: int = 0,
    detector_factory=None,
    table=None,
) -> Dict[str, GeneralizationResult]:
    """Mine rules on ``train_fraction`` of the corpus, evaluate on the rest.

    Returns per-detector train/test combined detection rates.  The paper
    reports a drop of 0.23 (DataDome) and 0.42 (BotD) percentage points.

    One permutation split (:func:`~repro.honeysite.storage.split_rows`)
    slices both the store (:meth:`~repro.honeysite.storage.RequestStore.take`)
    and one extraction of the whole store — or *table*, when the caller
    (the pipeline) already holds it — so both views agree row for row.
    """

    rng = np.random.default_rng(seed)
    fpi = detector_factory() if detector_factory is not None else FPInconsistent()
    train_rows, test_rows = split_rows(len(store), train_fraction, rng)
    if table is None or not fpi.accepts_table(table, store):
        table = fpi.extract_table(store)
    train_table = table.take(train_rows)
    test_table = table.take(test_rows)
    fpi.fit_table(train_table)
    train = _StoreColumns(store.take(train_rows), fpi.classify_table(train_table))
    test = _StoreColumns(store.take(test_rows), fpi.classify_table(test_table))
    return {
        name: GeneralizationResult(
            detector=name,
            train_detection_rate=_detection_rates_from_columns(train, name).with_combined,
            test_detection_rate=_detection_rates_from_columns(test, name).with_combined,
        )
        for name in DETECTOR_NAMES
    }
