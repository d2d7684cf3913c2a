"""FP-Inconsistent: spatial/temporal inconsistency mining and detection."""

from repro.core.columnar import ColumnarTable
from repro.core.detector import FPInconsistent, SpatialMatchState, Verdicts
from repro.core.evaluation import (
    DetectionRates,
    GeneralizationResult,
    ServiceImprovement,
    detection_rates,
    evaluate_generalization,
    evaluate_table3,
    evaluate_table4,
    true_negative_rate,
)
from repro.core.knowledge import DeviceKnowledgeBase
from repro.core.pipeline import FPInconsistentPipeline, PipelineResult
from repro.core.rules import FilterList, FilterListMatcher, InconsistencyRule, RuleTable
from repro.core.spatial import (
    PairStatistics,
    SpatialInconsistencyMiner,
    SpatialMinerConfig,
)
from repro.core.temporal import (
    DEFAULT_COOKIE_ATTRIBUTES,
    DEFAULT_IP_ATTRIBUTES,
    TemporalFlag,
    TemporalInconsistencyDetector,
)

__all__ = [
    "ColumnarTable",
    "DEFAULT_COOKIE_ATTRIBUTES",
    "DEFAULT_IP_ATTRIBUTES",
    "DetectionRates",
    "DeviceKnowledgeBase",
    "FPInconsistent",
    "FPInconsistentPipeline",
    "FilterList",
    "FilterListMatcher",
    "GeneralizationResult",
    "InconsistencyRule",
    "PairStatistics",
    "PipelineResult",
    "RuleTable",
    "ServiceImprovement",
    "SpatialInconsistencyMiner",
    "SpatialMatchState",
    "SpatialMinerConfig",
    "TemporalFlag",
    "TemporalInconsistencyDetector",
    "Verdicts",
    "detection_rates",
    "evaluate_generalization",
    "evaluate_table3",
    "evaluate_table4",
    "true_negative_rate",
]
