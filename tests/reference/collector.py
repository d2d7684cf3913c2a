"""Client-side fingerprint collection model (FingerprintJS stand-in).

On the real honey site, the FingerprintJS library runs in the visitor's
browser, gathers attribute values and posts them to the server (Figure 3).
The object-at-a-time reference generators (:mod:`reference.generation`)
pass every fingerprint through this collector, which validates that the
submission carries the attribute surface the analyses rely on and
computes the visitor identifier used to count unique fingerprints.  The
vectorized generator in ``repro`` builds record columns directly and
never calls it, so it lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import Fingerprint

from reference.fingerprint import stable_hash

#: Attributes every well-formed submission must carry.  A real browser
#: always exposes these; their absence indicates a crippled client.
REQUIRED_ATTRIBUTES: Tuple[Attribute, ...] = (
    Attribute.USER_AGENT,
    Attribute.PLATFORM,
    Attribute.SCREEN_RESOLUTION,
    Attribute.HARDWARE_CONCURRENCY,
    Attribute.TIMEZONE,
)


class CollectionError(ValueError):
    """Raised when a fingerprint submission is malformed."""


@dataclass(frozen=True)
class CollectedFingerprint:
    """A validated submission: the fingerprint plus its visitor identifier."""

    fingerprint: Fingerprint
    visitor_id: str
    missing_attributes: Tuple[Attribute, ...]

    @property
    def complete(self) -> bool:
        """Whether every required attribute was present."""

        return not self.missing_attributes


class FingerprintCollector:
    """Validates fingerprint submissions and derives visitor identifiers."""

    def __init__(self, *, strict: bool = False):
        self._strict = strict

    def collect(self, submission) -> CollectedFingerprint:
        """Validate *submission* (a Fingerprint or attribute mapping).

        Raises
        ------
        CollectionError
            In strict mode, when required attributes are missing; always,
            when the submission cannot be interpreted as a fingerprint.
        """

        if isinstance(submission, Fingerprint):
            fingerprint = submission
        elif isinstance(submission, Mapping):
            try:
                fingerprint = Fingerprint(submission)
            except (ValueError, KeyError) as exc:
                raise CollectionError(f"malformed fingerprint submission: {exc}") from exc
        else:
            raise CollectionError(
                f"submission must be a Fingerprint or mapping, got {type(submission).__name__}"
            )

        missing = tuple(
            attribute for attribute in REQUIRED_ATTRIBUTES if fingerprint.get(attribute) is None
        )
        if missing and self._strict:
            names = ", ".join(attribute.value for attribute in missing)
            raise CollectionError(f"submission is missing required attributes: {names}")
        return CollectedFingerprint(
            fingerprint=fingerprint,
            visitor_id=stable_hash(fingerprint),
            missing_attributes=missing,
        )
