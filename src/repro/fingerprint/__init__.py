"""Browser fingerprint model: attributes, categories and User-Agent synthesis.

The User-Agent parser and the fingerprint hash are test oracles in
``tests/reference/fingerprint.py``.
"""

from repro.fingerprint.attributes import (
    ATTRIBUTE_SPECS,
    Attribute,
    AttributeSpec,
    IMMUTABLE_ATTRIBUTES,
    ValueKind,
    coerce_value,
    format_resolution,
    parse_resolution,
)
from repro.fingerprint.categories import (
    AttributeCategory,
    CATEGORY_ATTRIBUTES,
    all_candidate_pairs,
    category_pairs,
)
from repro.fingerprint.fingerprint import Fingerprint
from repro.fingerprint.useragent import build_user_agent

__all__ = [
    "ATTRIBUTE_SPECS",
    "Attribute",
    "AttributeSpec",
    "AttributeCategory",
    "CATEGORY_ATTRIBUTES",
    "Fingerprint",
    "IMMUTABLE_ATTRIBUTES",
    "ValueKind",
    "all_candidate_pairs",
    "build_user_agent",
    "category_pairs",
    "coerce_value",
    "format_resolution",
    "parse_resolution",
]
