"""The honey site.

Ties the pieces of Section 4 together: versioned URLs provide ground-truth
attribution, a first-party cookie identifies devices across requests, and
both anti-bot services are consulted for every attributed request.  Only
registered sources are recorded, exactly as the paper's design dictates:
generators submit through a source's versioned URL path.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.antibot.base import BotDetector, Decision
from repro.antibot.botd import BotDModel
from repro.antibot.datadome import DataDomeModel
from repro.geo.asn import TOR_EXIT_ASNS
from repro.fingerprint.attributes import Attribute
from repro.fingerprint.fingerprint import Fingerprint
from repro.geo.geolite import GeoDatabase
from repro.honeysite.storage import RecordColumnsBuilder, RequestStore
from repro.honeysite.urls import UrlRegistry
from repro.network.cookies import CookieIssuer
from repro.network.headers import build_headers
from repro.network.request import WebRequest


class HoneySite:
    """A honey site instance with versioned URLs and two anti-bot services.

    Parameters
    ----------
    geo:
        IP-intelligence database shared with the DataDome model (and the
        downstream analyses).  A fresh one is created when omitted.
    rng:
        Source of randomness for URL tokens and cookie values.  Without
        one (a site rebuilt around a stored corpus, which mints neither),
        the URL registry and the cookie issuer each build their own
        ``default_rng(0)`` on their first draw.
    datadome, botd:
        Detector overrides, mainly for tests; defaults build the standard
        models.
    """

    def __init__(
        self,
        *,
        geo: Optional[GeoDatabase] = None,
        rng: Optional[np.random.Generator] = None,
        datadome: Optional[BotDetector] = None,
        botd: Optional[BotDetector] = None,
    ):
        self.geo = geo if geo is not None else GeoDatabase()
        if rng is None:
            self.urls, self.cookies = UrlRegistry(), CookieIssuer()
        else:
            self.urls = UrlRegistry(np.random.default_rng(rng.integers(0, 2 ** 32)))
            self.cookies = CookieIssuer(np.random.default_rng(rng.integers(0, 2 ** 32)))
        #: rows recorded by session recorders created without a sink
        self.recorded = RecordColumnsBuilder()
        self._store: Optional[RequestStore] = None
        self.datadome = datadome if datadome is not None else DataDomeModel(self.geo)
        self.botd = botd if botd is not None else BotDModel(self.geo)

    # -- source management ----------------------------------------------------

    def register_source(self, source: str) -> str:
        """Register a traffic source and return its versioned URL path."""

        return self.urls.register(source)

    @property
    def store(self) -> RequestStore:
        """The site's request store.

        A corpus attaches its merged store here; until one is attached,
        the store holds the rows recorded into :attr:`recorded` so far,
        with request ids 1..N in recording order.
        """

        if self._store is None:
            return RequestStore(self.recorded.columns().renumbered())
        return self._store

    @store.setter
    def store(self, store: RequestStore) -> None:
        self._store = store


class SessionMaterial:
    """Everything about one client session that is constant per request.

    A traffic-generator session keeps one (fingerprint, source address)
    configuration across a stretch of requests; every per-request quantity
    the site derives from that configuration — the enriched fingerprint,
    the synthesised headers, both detector decisions — is therefore
    computed once here and shared by all of the session's rows.
    Sharing the objects is output-invisible: the columnar sink encodes
    them by value, and the request-by-request reference path
    (``tests/reference/generation.py``) produces equal values.
    """

    __slots__ = (
        "fingerprint",
        "headers",
        "datadome",
        "botd",
        "ip_address",
        "payload_code",
    )

    def __init__(
        self,
        *,
        fingerprint: Fingerprint,
        headers: Mapping[str, str],
        datadome: Decision,
        botd: Decision,
        ip_address: str,
    ):
        self.fingerprint = fingerprint
        self.headers = headers
        self.datadome = datadome
        self.botd = botd
        self.ip_address = ip_address
        #: session index assigned by the recorder's columnar sink
        #: (:class:`~repro.honeysite.storage.RecordColumnsBuilder`)
        self.payload_code: Optional[int] = None


class SessionRecorder:
    """Session-cached request recording for the vectorized generators.

    The vectorized traffic generators plan sessions and timestamps first,
    then record requests through this recorder: session-constant work
    runs once per session (:meth:`materialize` / :meth:`materialize_values`)
    and :meth:`emit` only issues the cookie and appends one row of codes
    to the *sink*, a :class:`~repro.honeysite.storage.RecordColumnsBuilder`
    (the site's own :attr:`HoneySite.recorded` when none is given).  The
    builder's columns are what shard workers ship back to the corpus
    coordinator.  Detector decisions are additionally memoized across
    sessions on the exact signal surface the models read, because
    thousands of sessions share a handful of signal combinations.

    Byte-for-byte equivalence with the request-by-request reference
    (``handle`` in ``tests/reference/generation.py``) for every emitted
    row is the contract (``tests/test_vectorized.py`` pins it).
    """

    def __init__(self, site: HoneySite, *, sink: Optional[RecordColumnsBuilder] = None):
        self._site = site
        self._sink = sink if sink is not None else site.recorded
        self._decisions: Dict[Tuple, Tuple[Decision, Decision]] = {}
        self._headers: Dict[Tuple, Mapping[str, str]] = {}
        #: /16-prefix string → GeoRecord (or None): every address of a
        #: prefix shares its country/region/ASN facts, so one lookup per
        #: block replaces one per session
        self._geo_facts: Dict[str, Any] = {}

    # -- session-constant work -------------------------------------------------

    def materialize_values(
        self, values: Mapping[Attribute, Any], ip_address: str
    ) -> SessionMaterial:
        """Materialise a session from a canonical attribute dict.

        *values* must already be coerced (the vectorized bot planner builds
        it from the coerced template plus strategy changes) and in the
        attribute order the ``Fingerprint`` constructor would produce — serialised
        fingerprints preserve insertion order.
        """

        # All facts the recorder needs (country, region, ASN, datacenter
        # membership) are per-/16-block properties, so the lookup result is
        # shared across every session inside one block.
        second_dot = ip_address.find(".", ip_address.find(".") + 1)
        prefix = ip_address[:second_dot]
        try:
            geo_record = self._geo_facts[prefix]
        except KeyError:
            geo_record = self._site.geo.lookup(ip_address)
            self._geo_facts[prefix] = geo_record
        if geo_record is not None:
            stored_values: Dict[Attribute, Any] = dict(values)
            # Appended in the exact keyword order the reference path's
            # enrichment replace() uses, so serialised key order matches.
            stored_values[Attribute.IP_COUNTRY] = str(geo_record.country)
            stored_values[Attribute.IP_REGION] = str(geo_record.region)
            stored_values[Attribute.ASN] = int(geo_record.asn)
        else:
            stored_values = dict(values)
        fingerprint = Fingerprint._from_coerced(stored_values)
        # Headers depend only on the User-Agent and the language list; the
        # shared dict is never mutated and the sink encodes it by value.
        headers_key = (
            stored_values.get(Attribute.USER_AGENT),
            stored_values.get(Attribute.LANGUAGES),
        )
        headers = self._headers.get(headers_key)
        if headers is None:
            headers = build_headers(fingerprint)
            self._headers[headers_key] = headers
        datadome, botd = self._decisions_for(fingerprint, headers, ip_address, geo_record)
        return SessionMaterial(
            fingerprint=fingerprint,
            headers=headers,
            datadome=datadome,
            botd=botd,
            ip_address=ip_address,
        )

    def materialize(self, fingerprint: Fingerprint, ip_address: str) -> SessionMaterial:
        """Materialise a session from an existing :class:`Fingerprint`."""

        return self.materialize_values(fingerprint._values, ip_address)

    def _decisions_for(
        self, fingerprint: Fingerprint, headers, ip_address: str, geo_record
    ) -> Tuple[Decision, Decision]:
        values = fingerprint._values
        # Key on the *normalised* signal surface the models read — presence
        # of plugins rather than the exact plugin tuple, the touch boolean
        # rather than the raw string, Tor/datacenter membership rather than
        # the ASN — so thousands of sessions collapse onto a handful of
        # cache entries.  Anything the models distinguish, the key
        # distinguishes; the memoized decisions are therefore exact.
        touch = values.get(Attribute.TOUCH_SUPPORT)
        languages = values.get(Attribute.LANGUAGES)
        cores = values.get(Attribute.HARDWARE_CONCURRENCY)
        frame = values.get(Attribute.SCREEN_FRAME)
        key = (
            values.get(Attribute.USER_AGENT),
            bool(values.get(Attribute.WEBDRIVER, False)),
            bool(values.get(Attribute.FORCED_COLORS, False)),
            not languages,
            bool(values.get(Attribute.PLUGINS) or ()),
            touch is not None and str(touch) not in ("", "None"),
            None if cores is None else int(cores),
            None if frame is None else int(frame),
            geo_record is not None and geo_record.asn in TOR_EXIT_ASNS,
            geo_record is not None and geo_record.is_datacenter,
            geo_record is None,
        )
        cached = self._decisions.get(key)
        if cached is None:
            probe = WebRequest(
                url_path="/",
                timestamp=0.0,
                ip_address=ip_address,
                fingerprint=fingerprint,
                headers=headers,
            )
            cached = (self._site.datadome.evaluate(probe), self._site.botd.evaluate(probe))
            self._decisions[key] = cached
        return cached

    # -- per-request work --------------------------------------------------------

    def emit(
        self,
        material: SessionMaterial,
        *,
        url_path: str,
        source: str,
        timestamp: float,
        presented_cookie: Optional[str],
    ) -> str:
        """Record one request of a session; returns the served cookie."""

        cookie = self._site.cookies.ensure(presented_cookie)
        self._sink.append(
            material,
            url_path=url_path,
            source=source,
            timestamp=timestamp,
            presented=presented_cookie,
            served=cookie,
        )
        return cookie
