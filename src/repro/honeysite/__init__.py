"""Honey-site architecture: versioned URLs, collection, storage."""

from repro.honeysite.collector import (
    CollectedFingerprint,
    CollectionError,
    FingerprintCollector,
    REQUIRED_ATTRIBUTES,
)
from repro.honeysite.site import HoneySite
from repro.honeysite.storage import RequestStore, SECONDS_PER_DAY
from repro.honeysite.urls import UrlRegistry, generate_url_token

__all__ = [
    "CollectedFingerprint",
    "CollectionError",
    "FingerprintCollector",
    "HoneySite",
    "REQUIRED_ATTRIBUTES",
    "RequestStore",
    "SECONDS_PER_DAY",
    "UrlRegistry",
    "generate_url_token",
]
