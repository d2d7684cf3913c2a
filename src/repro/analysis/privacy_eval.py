"""Privacy-technology evaluation (Section 7.5 and Appendix G)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.columnar import ColumnarTable
from repro.core.detector import FPInconsistent
from repro.honeysite.storage import RequestStore
from repro.users.privacy import PrivacyTechnology


@dataclass(frozen=True)
class PrivacyTechnologyResult:
    """How one privacy technology fares against the detectors and the rules."""

    technology: PrivacyTechnology
    requests: int
    datadome_detection_rate: float
    botd_detection_rate: float
    fp_inconsistent_rate: float
    fp_spatial_rate: float
    fp_temporal_rate: float


def corpus_privacy_tables(corpus) -> Dict[PrivacyTechnology, ColumnarTable]:
    """Pre-extracted privacy-technology tables a corpus carries.

    The corpus engine's merge encodes one ``privacy:<technology>`` table
    per generated technology (and the corpus cache persists them inside
    the columnar archive); feeding them to
    :func:`evaluate_privacy_technologies` skips per-store extraction.
    """

    tables: Dict[PrivacyTechnology, ColumnarTable] = {}
    for technology in PrivacyTechnology:
        table = corpus.columnar_tables.get(f"privacy:{technology.value}")
        if table is not None:
            tables[technology] = table
    return tables


def evaluate_privacy_technologies(
    stores: Dict[PrivacyTechnology, RequestStore],
    detector: FPInconsistent,
    *,
    tables: Optional[Dict[PrivacyTechnology, ColumnarTable]] = None,
) -> Tuple[PrivacyTechnologyResult, ...]:
    """Run the fitted FP-Inconsistent detector over each technology's traffic.

    The paper's findings: Safari, uBlock Origin and AdBlock Plus trigger
    nothing; Brave triggers only temporal inconsistencies (it retains
    cookies while randomising attributes); Tor triggers spatial location
    inconsistencies on every request.

    *tables* optionally maps technologies to pre-extracted
    :class:`~repro.core.columnar.ColumnarTable` instances (see
    :func:`corpus_privacy_tables`); a table is used only when it verifiably
    corresponds to its store and carries every attribute the detector
    reads, so results never depend on where it came from.
    """

    results = []
    for technology, store in stores.items():
        if len(store) == 0:
            continue
        table = None if tables is None else tables.get(technology)
        if table is not None and detector.accepts_table(table, store):
            verdicts = detector.classify_table(table)
        else:
            verdicts = detector.classify_table(detector.extract_table(store))
        total = len(store)
        counts = verdicts.counts()
        results.append(
            PrivacyTechnologyResult(
                technology=technology,
                requests=total,
                datadome_detection_rate=store.detection_rate("DataDome"),
                botd_detection_rate=store.detection_rate("BotD"),
                fp_inconsistent_rate=counts["inconsistent"] / total,
                fp_spatial_rate=counts["spatial"] / total,
                fp_temporal_rate=counts["temporal"] / total,
            )
        )
    return tuple(results)
