"""Honey-site architecture: versioned URLs, storage."""

from repro.honeysite.site import HoneySite
from repro.honeysite.storage import RequestStore, SECONDS_PER_DAY
from repro.honeysite.urls import UrlRegistry, generate_url_token

__all__ = [
    "HoneySite",
    "RequestStore",
    "SECONDS_PER_DAY",
    "UrlRegistry",
    "generate_url_token",
]
