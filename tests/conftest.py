"""Shared fixtures.

A small-scale corpus (including real users and the privacy experiment) is
built once per session and reused by the analysis and integration tests so
the suite stays fast while still exercising the full pipeline.  So is each
corpus's :class:`test_paper_claims.ClaimsRun`, whose pipeline, report and
analyses both claim modules read.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.analysis.corpus import build_corpus
from repro.devices.catalog import DeviceCatalog
from repro.geo.geolite import GeoDatabase


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def catalog() -> DeviceCatalog:
    return DeviceCatalog()


@pytest.fixture
def geo() -> GeoDatabase:
    return GeoDatabase()


@pytest.fixture(scope="session")
def small_corpora():
    """Seed -> a ~4k-request corpus with bots, real users and privacy
    traffic, each seed built once per session."""

    @functools.lru_cache(maxsize=None)
    def build(seed: int):
        return build_corpus(
            seed=seed,
            scale=0.008,
            include_real_users=True,
            include_privacy=True,
            real_user_requests=600,
            privacy_requests_each=40,
        )

    return build


@pytest.fixture(scope="session")
def small_corpus(small_corpora):
    """The shared seed-11 small corpus."""

    return small_corpora(11)


@pytest.fixture(scope="session")
def claims_runs(small_corpora):
    """Seed -> the ``ClaimsRun`` of ``small_corpora(seed)``, built once per
    session, so the pipeline, report and analyses behind the claims run
    once however many modules check them."""

    from test_paper_claims import ClaimsRun

    @functools.lru_cache(maxsize=None)
    def build(seed: int):
        return ClaimsRun(small_corpora(seed))

    return build
