"""End-to-end FP-Inconsistent pipeline.

Chains corpus → rule mining → classification → evaluation, producing the
numbers of Tables 3 and 4, the real-user true-negative rate of Section 7.4
and the generalisation check of Section 7.3 from one call.  ``repro
pipeline`` and the quickstart example are thin wrappers around this module.

Each request store is extracted once into a
:class:`~repro.core.columnar.ColumnarTable` (or a pre-extracted table is
reused); pair statistics are mined serially from one dense count grid
per attribute pair, and the filter list matches every row in one pass
through its compiled code index.  Evaluation runs in-process: scoring is
one lookup plus one temporal pass, too cheap to pay for a worker pool.
The object-at-a-time reference the engine is pinned against lives in
``tests/reference/detection.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import obs
from repro.core.detector import FPInconsistent, Verdicts
from repro.core.evaluation import (
    DetectionRates,
    GeneralizationResult,
    ServiceImprovement,
    _StoreColumns,
    evaluate_generalization,
    evaluate_table3,
    evaluate_table4,
    true_negative_rate,
)
from repro.core.rules import FilterList
from repro.core.spatial import SpatialInconsistencyMiner, SpatialMinerConfig
from repro.core.temporal import TemporalInconsistencyDetector
from repro.honeysite.storage import RequestStore


_RULES_MINED = obs.gauge(
    "repro_pipeline_rules", "Rules in the most recently mined filter list."
)
_VERDICTS = obs.counter(
    "repro_pipeline_verdicts_total", "Verdicts produced, by evaluated subset."
)


@dataclass
class PipelineResult:
    """Everything the Section 7 evaluation produces."""

    filter_list: FilterList
    verdicts: Verdicts
    table4: Dict[str, DetectionRates]
    table3: Tuple[ServiceImprovement, ...]
    real_user_tnr: Optional[float] = None
    generalization: Optional[Dict[str, GeneralizationResult]] = None
    #: how each columnar table was obtained: "reused" (pre-extracted table
    #: accepted — e.g. one embedded in the corpus archive) or "extracted"
    table_sources: Dict[str, str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.table_sources is None:
            self.table_sources = {}

    @property
    def evasion_reductions(self) -> Dict[str, float]:
        """Relative evasion reduction per detector (headline numbers)."""

        return {name: rates.evasion_reduction for name, rates in self.table4.items()}


class FPInconsistentPipeline:
    """Mines rules from bot traffic and evaluates them end to end.

    Parameters
    ----------
    miner_config / temporal:
        Forwarded to the underlying :class:`FPInconsistent` detector.
    """

    def __init__(
        self,
        *,
        miner_config: Optional[SpatialMinerConfig] = None,
        temporal: Optional[TemporalInconsistencyDetector] = None,
    ):
        self._miner_config = miner_config
        self._temporal = temporal

    def _build_detector(self) -> FPInconsistent:
        miner = SpatialInconsistencyMiner(config=self._miner_config)
        temporal = self._temporal if self._temporal is not None else TemporalInconsistencyDetector()
        return FPInconsistent(miner=miner, temporal=temporal)

    def run(
        self,
        bot_store: RequestStore,
        *,
        real_user_store: Optional[RequestStore] = None,
        check_generalization: bool = False,
        generalization_seed: int = 0,
        bot_table=None,
        real_user_table=None,
    ) -> PipelineResult:
        """Run the full evaluation.

        Parameters
        ----------
        bot_store:
            Requests recorded from the bot services (ground-truth bots).
        real_user_store:
            Requests from real users; when given, the true-negative rate of
            Section 7.4 is computed with the same mined rules.
        check_generalization:
            When ``True``, additionally performs the 80/20 train/test check
            of Section 7.3 (more expensive: rules are mined twice).
        bot_table / real_user_table:
            Pre-extracted :class:`~repro.core.columnar.ColumnarTable` of
            the corresponding store (the corpus engine's merge encodes
            them; the corpus cache embeds them in its columnar archive).  A
            table is used only when it carries every attribute this
            detector reads — otherwise the store is extracted as usual —
            so results never depend on where the table came from.
        """

        detector = self._build_detector()
        tracer = obs.tracer()
        table_sources: Dict[str, str] = {}
        # resolve_table extracts with the detector's attribute set: it
        # appends the tracked temporal attributes, so a custom temporal
        # configuration keeps its flags.
        with tracer.span("pipeline.extract", subset="bots") as span:
            table, table_sources["bots"] = detector.resolve_table(bot_store, bot_table)
            span.set(source=table_sources["bots"], rows=table.n_rows)
        with tracer.span("pipeline.mine") as span:
            detector.fit_table(table)
            span.set(rules=len(detector.filter_list))
        with tracer.span("pipeline.classify", subset="bots"):
            verdicts = detector.classify_table(table)
        _RULES_MINED.set(len(detector.filter_list))
        _VERDICTS.inc(len(verdicts), subset="bots")

        with tracer.span("pipeline.evaluate"):
            columns = _StoreColumns(bot_store, verdicts)
            result = PipelineResult(
                filter_list=detector.filter_list,
                verdicts=verdicts,
                table4=evaluate_table4(bot_store, verdicts, _columns=columns),
                table3=evaluate_table3(bot_store, verdicts, _columns=columns),
                table_sources=table_sources,
            )

        if real_user_store is not None and len(real_user_store) > 0:
            with tracer.span("pipeline.classify", subset="real_users"):
                user_table, table_sources["real_users"] = detector.resolve_table(
                    real_user_store, real_user_table
                )
                user_verdicts = detector.classify_table(user_table)
            _VERDICTS.inc(len(user_verdicts), subset="real_users")
            result.real_user_tnr = true_negative_rate(real_user_store, user_verdicts)

        if check_generalization:
            with tracer.span("pipeline.generalization"):
                result.generalization = evaluate_generalization(
                    bot_store,
                    seed=generalization_seed,
                    detector_factory=self._build_detector,
                    table=table,
                )
        return result
