"""Unit tests for the request, cookie and header models."""

import dataclasses

import numpy as np
import pytest
from reference.generation import ClientCookieStore
from reference.store import request_dict

from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import Fingerprint
from repro.network.cookies import CookieIssuer
from repro.network.headers import accept_language_for, build_headers
from repro.network.request import WebRequest


def _fingerprint():
    return Fingerprint(
        {
            Attribute.USER_AGENT: "Mozilla/5.0 (X11; Linux x86_64) Chrome/118.0.0.0",
            Attribute.LANGUAGES: ("fr-FR", "fr", "en-US"),
            Attribute.PLATFORM: "Linux x86_64",
        }
    )


# -- WebRequest ---------------------------------------------------------------


def test_request_requires_leading_slash():
    with pytest.raises(ValueError):
        WebRequest(url_path="nope", timestamp=0.0, ip_address="100.0.0.1", fingerprint=_fingerprint())


def test_request_rejects_negative_timestamp():
    with pytest.raises(ValueError):
        WebRequest(url_path="/x", timestamp=-1.0, ip_address="100.0.0.1", fingerprint=_fingerprint())


def test_request_ids_increase():
    first = WebRequest(url_path="/a", timestamp=0.0, ip_address="100.0.0.1", fingerprint=_fingerprint())
    second = WebRequest(url_path="/a", timestamp=1.0, ip_address="100.0.0.1", fingerprint=_fingerprint())
    assert second.request_id > first.request_id


def test_request_user_agent_prefers_header():
    fingerprint = _fingerprint()
    request = WebRequest(
        url_path="/a",
        timestamp=0.0,
        ip_address="100.0.0.1",
        fingerprint=fingerprint,
        headers={"User-Agent": "custom-agent"},
    )
    assert request.user_agent == "custom-agent"
    bare = WebRequest(url_path="/a", timestamp=0.0, ip_address="100.0.0.1", fingerprint=fingerprint)
    assert "Chrome" in bare.user_agent


def test_request_attribute_accessor_and_cookie_copy():
    request = WebRequest(url_path="/a", timestamp=0.0, ip_address="100.0.0.1", fingerprint=_fingerprint())
    assert request.fingerprint.get(Attribute.PLATFORM) == "Linux x86_64"
    updated = dataclasses.replace(request, cookie="abc")
    assert updated.cookie == "abc" and request.cookie is None


def test_request_serialisation_round_trip():
    request = WebRequest(
        url_path="/a",
        timestamp=3.5,
        ip_address="100.0.0.1",
        fingerprint=_fingerprint(),
        cookie="c1",
        headers={"User-Agent": "ua"},
    )
    data = request_dict(request)
    rebuilt = WebRequest(
        url_path=data["url_path"],
        timestamp=data["timestamp"],
        ip_address=data["ip_address"],
        fingerprint=Fingerprint(data["fingerprint"]),
        cookie=data["cookie"],
        headers=data["headers"],
        request_id=data["request_id"],
    )
    assert rebuilt == request
    assert rebuilt.url_path == request.url_path
    assert rebuilt.cookie == "c1"
    assert rebuilt.fingerprint == request.fingerprint


# -- cookies -----------------------------------------------------------------------


def test_cookie_issuer_unique_values():
    issuer = CookieIssuer(np.random.default_rng(0))
    values = {issuer.issue() for _ in range(200)}
    assert len(values) == 200


def test_cookie_issuer_ensure_echoes_existing():
    issuer = CookieIssuer(np.random.default_rng(0))
    assert issuer.ensure("existing") == "existing"
    assert issuer.ensure(None) != ""


def test_client_cookie_store_full_retention():
    store = ClientCookieStore(retention=1.0, rng=np.random.default_rng(0))
    assert store.outgoing() is None
    store.receive("cookie-1")
    assert all(store.outgoing() == "cookie-1" for _ in range(20))


def test_client_cookie_store_zero_retention():
    store = ClientCookieStore(retention=0.0, rng=np.random.default_rng(0))
    store.receive("cookie-1")
    assert store.outgoing() is None


def test_client_cookie_store_validation():
    with pytest.raises(ValueError):
        ClientCookieStore(retention=1.5)
    store = ClientCookieStore()
    with pytest.raises(ValueError):
        store.receive("")
    store.receive("x")
    assert store.value == "x"


# -- headers --------------------------------------------------------------------------


def test_accept_language_quality_values():
    header = accept_language_for(("fr-FR", "fr", "en-US"))
    assert header == "fr-FR,fr;q=0.9,en-US;q=0.8"
    assert accept_language_for(None) == "en-US,en;q=0.9"


def test_parse_accept_language_round_trip():
    languages = ("fr-FR", "fr", "en-US")
    header = accept_language_for(languages)
    assert tuple(part.split(";")[0] for part in header.split(",")) == languages


def test_build_headers_reflects_fingerprint():
    headers = build_headers(_fingerprint(), referer="https://example.com/")
    assert "Chrome" in headers["User-Agent"]
    assert headers["Accept-Language"].startswith("fr-FR")
    assert headers["Referer"] == "https://example.com/"
