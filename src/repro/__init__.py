"""FP-Inconsistent reproduction library.

This package reproduces the systems and experiments of *FP-Inconsistent:
Measurement and Analysis of Fingerprint Inconsistencies in Evasive Bot
Traffic* (IMC 2025).  The public API is organised as:

``repro.fingerprint``
    Browser-fingerprint attribute model, categories and User-Agent parsing.
``repro.devices``
    Catalogue of real hardware/software configurations.
``repro.geo``
    Synthetic IP/ASN/geolocation/timezone substrate.
``repro.network``
    Web-request, header and cookie model.
``repro.honeysite``
    Versioned-URL honey-site architecture and request store.
``repro.antibot``
    DataDome-like and BotD-like anti-bot detector models.
``repro.bots``
    Evasion strategies and the 20 calibrated bot-service profiles.
``repro.users``
    Real-user and privacy-technology traffic generators.
``repro.ml``
    From-scratch decision tree / random forest and explainability.
``repro.core``
    FP-Inconsistent itself: spatial and temporal inconsistency mining,
    rule generation, combined detection and evaluation.
``repro.analysis``
    Per-table / per-figure measurement analysis.
``repro.reporting``
    Table and figure-series rendering.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "fingerprint": ("Fingerprint", "AttributeCategory"),
        "core": (
            "FPInconsistent",
            "InconsistencyRule",
            "FilterList",
            "SpatialInconsistencyMiner",
            "TemporalInconsistencyDetector",
        ),
    },
)
__all__.append("__version__")
