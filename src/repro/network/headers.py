"""HTTP header synthesis.

The honey site receives ordinary page-load requests; the headers relevant
to the paper's analyses are ``User-Agent`` and ``Accept-Language`` (which
feeds the Location attribute category).  Headers are synthesised from the
fingerprint so that consistent clients produce consistent headers and
altered fingerprints propagate into altered headers.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import Fingerprint


def accept_language_for(languages: Optional[Sequence[str]]) -> str:
    """Build an ``Accept-Language`` header value from a language list.

    Quality values decrease by 0.1 per entry as browsers do, e.g.
    ``("fr-FR", "fr", "en-US")`` → ``"fr-FR,fr;q=0.9,en-US;q=0.8"``.
    """

    if not languages:
        return "en-US,en;q=0.9"
    parts = []
    for index, language in enumerate(languages):
        if index == 0:
            parts.append(str(language))
        else:
            quality = max(0.1, 1.0 - 0.1 * index)
            parts.append(f"{language};q={quality:.1f}")
    return ",".join(parts)


def build_headers(fingerprint: Fingerprint, *, referer: Optional[str] = None) -> Dict[str, str]:
    """Synthesise request headers consistent with *fingerprint*."""

    headers: Dict[str, str] = {
        "Accept": "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8",
        "Accept-Encoding": "gzip, deflate, br",
        "Connection": "keep-alive",
    }
    user_agent = fingerprint.get(Attribute.USER_AGENT)
    if user_agent:
        headers["User-Agent"] = str(user_agent)
    languages = fingerprint.get(Attribute.LANGUAGES)
    headers["Accept-Language"] = accept_language_for(languages)
    if referer:
        headers["Referer"] = referer
    return headers
