"""FP-Inconsistent: spatial/temporal inconsistency mining and detection.

The public names below load their submodule on first access.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "columnar": ("ColumnarTable",),
        "detector": ("FPInconsistent", "SpatialMatchState", "Verdicts"),
        "evaluation": (
            "DetectionRates",
            "GeneralizationResult",
            "ServiceImprovement",
            "evaluate_generalization",
            "evaluate_table3",
            "evaluate_table4",
            "true_negative_rate",
        ),
        "knowledge": ("DeviceKnowledgeBase",),
        "pipeline": ("FPInconsistentPipeline", "PipelineResult"),
        "rules": ("FilterList", "FilterListMatcher", "InconsistencyRule", "RuleTable"),
        "spatial": ("PairStatistics", "SpatialInconsistencyMiner", "SpatialMinerConfig"),
        "temporal": (
            "DEFAULT_COOKIE_ATTRIBUTES",
            "DEFAULT_IP_ATTRIBUTES",
            "TemporalFlag",
            "TemporalInconsistencyDetector",
        ),
    },
)
