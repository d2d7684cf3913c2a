"""Shared fixtures for the benchmark harness.

One corpus (bots + real users + privacy technologies) is used per
benchmark session at the scale given by ``REPRO_SCALE`` (default 0.05,
i.e. ~25k bot requests; set ``REPRO_SCALE=1.0`` to regenerate the paper's
full 507,080-request campaign).  Each benchmark regenerates one table or
figure of the paper and prints it alongside the paper's reference numbers.

The corpus comes from the sharded engine, the same one ``repro corpus``
builds; ``REPRO_WORKERS`` sets its fan-out and ``REPRO_CORPUS_CACHE`` an
on-disk cache (as in CI, where the warm run must hit the cache).
"""

from __future__ import annotations

import pytest

from repro.analysis.corpus import build_corpus, default_scale
from repro.core.pipeline import FPInconsistentPipeline


def pytest_configure(config):
    config.addinivalue_line("markers", "bench: benchmark reproducing one paper artefact")


@pytest.fixture(scope="session")
def corpus():
    """The measurement corpus shared by every benchmark.

    ``build_corpus`` runs the sharded engine, through the on-disk cache
    when ``REPRO_CORPUS_CACHE`` is set (as in CI).
    """

    return build_corpus(
        seed=7,
        scale=default_scale(),
        include_real_users=True,
        include_privacy=True,
    )


@pytest.fixture(scope="session")
def bot_store(corpus):
    return corpus.bot_store


@pytest.fixture(scope="session")
def pipeline_result(corpus):
    """FP-Inconsistent mined and evaluated once for all rule benchmarks."""

    pipeline = FPInconsistentPipeline()
    return pipeline.run(corpus.bot_store, real_user_store=corpus.real_user_store)
