"""First-party identifier cookies.

The honey site stores a large random number in a first-party cookie on
first visit (Section 6.3).  Requests that present the same cookie value can
therefore be attributed to the same device — the keystone of the temporal
inconsistency analysis.  Whether a client *retains* the cookie is up to the
client model: real users usually do, bots frequently clear cookies, and
Brave retains them even while randomising other attributes (Section 7.5).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

COOKIE_NAME = "hs_device_id"
_COOKIE_BITS = 96


class CookieIssuer:
    """Server-side issuer of first-party identifier cookies."""

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self._rng = rng  # None: ``default_rng(0)``, built on the first draw
        self._issued: set = set()

    @property
    def issued_count(self) -> int:
        """Number of distinct cookie values issued so far."""

        return len(self._issued)

    def issue(self) -> str:
        """Issue a fresh, never-before-seen cookie value."""

        if self._rng is None:
            self._rng = np.random.default_rng(0)
        while True:
            value = format(int(self._rng.integers(0, 2 ** 63 - 1)), "d") + format(
                int(self._rng.integers(0, 2 ** 33)), "d"
            )
            if value not in self._issued:
                self._issued.add(value)
                return value

    def ensure(self, presented: Optional[str]) -> str:
        """Return *presented* when the client sent a cookie, else a new one."""

        if presented:
            return presented
        return self.issue()


class ClientCookieStore:
    """Client-side cookie retention model.

    Each client (real device or bot worker) owns one store per honey-site
    origin.  ``retention`` is the probability the client still holds the
    cookie on its next visit: 1.0 models a normal browser profile, 0.0 a
    bot that clears state between visits.
    """

    def __init__(self, retention: float = 1.0, rng: Optional[np.random.Generator] = None):
        if not 0.0 <= retention <= 1.0:
            raise ValueError("retention must be within [0, 1]")
        self._retention = retention
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._value: Optional[str] = None

    @property
    def value(self) -> Optional[str]:
        """The currently stored cookie value (``None`` when empty)."""

        return self._value

    def outgoing(self) -> Optional[str]:
        """The cookie value to attach to the next request.

        With probability ``1 - retention`` the store is cleared first,
        modelling a bot wiping its profile between visits.
        """

        if self._value is not None and self._rng.random() > self._retention:
            self._value = None
        return self._value

    def receive(self, value: str) -> None:
        """Store the cookie set by the server response."""

        if not value:
            raise ValueError("cannot store an empty cookie value")
        self._value = value

    def clear(self) -> None:
        """Explicitly clear the stored cookie."""

        self._value = None
