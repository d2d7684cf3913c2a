"""Web request model.

A :class:`WebRequest` is the unit stored by the honey site: one page load
carrying HTTP headers, the source IP address, the first-party cookie (if
the device retained one) and the browser fingerprint collected client-side.
Timestamps are seconds since the start of the measurement campaign so that
the temporal analyses (Figure 9, Section 7.2) can order requests without
depending on wall-clock time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import Fingerprint

_request_counter = itertools.count(1)


def _next_request_id() -> int:
    return next(_request_counter)


@dataclass(frozen=True)
class WebRequest:
    """One request recorded by the honey site.

    Attributes
    ----------
    url_path:
        The path component of the requested URL, e.g. ``"/Byxxodkxn3"``.
        The honey site uses it to attribute the request to a traffic source.
    timestamp:
        Seconds since the start of the measurement campaign.
    ip_address:
        Source address of the connection.
    cookie:
        Value of the honey site's first-party identifier cookie, or ``None``
        when the client presented no cookie.
    fingerprint:
        Browser fingerprint collected by the client-side script.
    headers:
        HTTP request headers.
    request_id:
        Monotonically increasing identifier assigned at construction.
    """

    url_path: str
    timestamp: float
    ip_address: str
    fingerprint: Fingerprint
    cookie: Optional[str] = None
    headers: Mapping[str, str] = field(default_factory=dict)
    request_id: int = field(default_factory=_next_request_id)

    def __post_init__(self) -> None:
        if not self.url_path.startswith("/"):
            raise ValueError(f"url_path must start with '/', got {self.url_path!r}")
        if self.timestamp < 0:
            raise ValueError("timestamp cannot be negative")

    @property
    def user_agent(self) -> Optional[str]:
        """The User-Agent header (falling back to the fingerprint value)."""

        header = self.headers.get("User-Agent") if self.headers else None
        if header:
            return header
        value = self.fingerprint.get(Attribute.USER_AGENT)
        return str(value) if value is not None else None
