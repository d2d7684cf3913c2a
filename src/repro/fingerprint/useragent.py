"""User-Agent synthesis.

The paper derives three attributes from the ``User-Agent`` header —
*UA Device*, *UA OS* and *UA Browser* — and uses them heavily in the
spatial inconsistency analysis (e.g. an ``iPhone`` User-Agent paired with a
``Win32`` platform).  The device catalogue and the vectorised traffic
generators write those three attributes directly and synthesise a matching
header string here; the parser that checks the round trip lives with the
tests (``tests/reference/fingerprint.py``).
"""

from __future__ import annotations

_CHROME_VERSION = "118.0.0.0"
_SAFARI_WEBKIT = "605.1.15"
_FIREFOX_VERSION = "118.0"


def build_user_agent(
    device: str,
    os_family: str,
    browser: str,
    os_version: str = "",
    model: str = "",
) -> str:
    """Synthesise a plausible User-Agent string for the given families.

    It is intentionally conservative: for the device families of the
    device catalogue and the traffic generators, the reference parser
    (``tests/reference/fingerprint.py``) reads ``(d, o, b)`` back out of
    ``build_user_agent(d, o, b)``, a round trip the test suite checks.
    """

    if device == "iPhone":
        version = os_version or "16_6"
        if browser == "Chrome Mobile iOS":
            return (
                f"Mozilla/5.0 (iPhone; CPU iPhone OS {version} like Mac OS X) "
                f"AppleWebKit/{_SAFARI_WEBKIT} (KHTML, like Gecko) "
                f"CriOS/{_CHROME_VERSION} Mobile/15E148 Safari/604.1"
            )
        return (
            f"Mozilla/5.0 (iPhone; CPU iPhone OS {version} like Mac OS X) "
            f"AppleWebKit/{_SAFARI_WEBKIT} (KHTML, like Gecko) "
            f"Version/16.6 Mobile/15E148 Safari/604.1"
        )
    if device == "iPad":
        version = os_version or "16_6"
        return (
            f"Mozilla/5.0 (iPad; CPU OS {version} like Mac OS X) "
            f"AppleWebKit/{_SAFARI_WEBKIT} (KHTML, like Gecko) "
            f"Version/16.6 Mobile/15E148 Safari/604.1"
        )
    if device == "Mac":
        version = os_version or "10_15_7"
        if browser == "Safari":
            return (
                f"Mozilla/5.0 (Macintosh; Intel Mac OS X {version}) "
                f"AppleWebKit/{_SAFARI_WEBKIT} (KHTML, like Gecko) "
                f"Version/16.6 Safari/{_SAFARI_WEBKIT}"
            )
        if browser == "Firefox":
            return (
                f"Mozilla/5.0 (Macintosh; Intel Mac OS X {version}; rv:{_FIREFOX_VERSION}) "
                f"Gecko/20100101 Firefox/{_FIREFOX_VERSION}"
            )
        return (
            f"Mozilla/5.0 (Macintosh; Intel Mac OS X {version}) "
            f"AppleWebKit/537.36 (KHTML, like Gecko) "
            f"Chrome/{_CHROME_VERSION} Safari/537.36"
        )
    if device == "Windows PC":
        if browser == "Firefox":
            return (
                f"Mozilla/5.0 (Windows NT 10.0; Win64; x64; rv:{_FIREFOX_VERSION}) "
                f"Gecko/20100101 Firefox/{_FIREFOX_VERSION}"
            )
        if browser == "Edge":
            return (
                "Mozilla/5.0 (Windows NT 10.0; Win64; x64) "
                f"AppleWebKit/537.36 (KHTML, like Gecko) Chrome/{_CHROME_VERSION} "
                f"Safari/537.36 Edg/{_CHROME_VERSION}"
            )
        return (
            "Mozilla/5.0 (Windows NT 10.0; Win64; x64) "
            f"AppleWebKit/537.36 (KHTML, like Gecko) Chrome/{_CHROME_VERSION} Safari/537.36"
        )
    if device == "Linux PC":
        if browser == "Firefox":
            return (
                f"Mozilla/5.0 (X11; Linux x86_64; rv:{_FIREFOX_VERSION}) "
                f"Gecko/20100101 Firefox/{_FIREFOX_VERSION}"
            )
        return (
            "Mozilla/5.0 (X11; Linux x86_64) "
            f"AppleWebKit/537.36 (KHTML, like Gecko) Chrome/{_CHROME_VERSION} Safari/537.36"
        )
    if os_family == "Android":
        model_text = model or device
        android_version = os_version or "13"
        if browser == "Samsung Internet":
            return (
                f"Mozilla/5.0 (Linux; Android {android_version}; {model_text}) "
                f"AppleWebKit/537.36 (KHTML, like Gecko) SamsungBrowser/22.0 "
                f"Chrome/{_CHROME_VERSION} Mobile Safari/537.36"
            )
        if browser == "MiuiBrowser":
            return (
                f"Mozilla/5.0 (Linux; U; Android {android_version}; {model_text}) "
                f"AppleWebKit/537.36 (KHTML, like Gecko) Version/4.0 "
                f"Chrome/{_CHROME_VERSION} Mobile Safari/537.36 "
                f"XiaoMi/MiuiBrowser/13.5"
            )
        return (
            f"Mozilla/5.0 (Linux; Android {android_version}; {model_text}) "
            f"AppleWebKit/537.36 (KHTML, like Gecko) Chrome/{_CHROME_VERSION} "
            f"Mobile Safari/537.36"
        )
    # Fallback: a generic desktop Chrome UA.
    return (
        "Mozilla/5.0 (X11; Linux x86_64) "
        f"AppleWebKit/537.36 (KHTML, like Gecko) Chrome/{_CHROME_VERSION} Safari/537.36"
    )

