"""Real-user and privacy-technology traffic generators."""

from repro.users.privacy import (
    EXPERIMENT_DEVICE_NAMES,
    PrivacyTechnology,
    PrivacyTrafficGenerator,
    apply_brave,
    apply_tor,
)
from repro.users.realuser import REAL_USER_SOURCE, RealUserTrafficGenerator

__all__ = [
    "EXPERIMENT_DEVICE_NAMES",
    "PrivacyTechnology",
    "PrivacyTrafficGenerator",
    "REAL_USER_SOURCE",
    "RealUserTrafficGenerator",
    "apply_brave",
    "apply_tor",
]
