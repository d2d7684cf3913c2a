"""First-party identifier cookies.

The honey site stores a large random number in a first-party cookie on
first visit (Section 6.3).  Requests that present the same cookie value can
therefore be attributed to the same device — the keystone of the temporal
inconsistency analysis.  Whether a client *retains* the cookie is up to the
traffic generator: real users do, bots frequently clear cookies, and Brave
retains them even while randomising other attributes (Section 7.5).
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
