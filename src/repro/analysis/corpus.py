"""Corpus construction.

One honey-site corpus backs every analysis, table and figure: all 20 bot
services (Table 1 volumes), the real-user share (Section 7.4) and,
optionally, the privacy-technology experiment (Section 7.5), all driven by
a single seed so results are reproducible.  This module defines the
:class:`Corpus` and the :func:`build_corpus` facade; the sharded engine
(:mod:`repro.analysis.engine`) does the building.

The full-scale corpus is 507,080 bot requests; the CLI defaults to a
scaled-down corpus (controlled by the ``REPRO_SCALE`` environment
variable, default 0.05 ≈ 25k requests) so a full report runs in seconds
on a laptop.  The scale only changes sampling noise, not behaviour.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.bots.service import BotServiceProfile
from repro.honeysite.site import HoneySite
from repro.honeysite.storage import RequestStore
from repro.users.privacy import PrivacyTechnology
from repro.users.realuser import REAL_USER_SOURCE

#: Environment variable overriding the default corpus scale.
SCALE_ENV_VAR = "REPRO_SCALE"

#: Default corpus scale when neither ``--scale`` nor the variable is set.
DEFAULT_SCALE = 0.05


def default_scale() -> float:
    """The corpus scale requested through ``REPRO_SCALE`` (default 0.05)."""

    raw = os.environ.get(SCALE_ENV_VAR)
    if not raw:
        return DEFAULT_SCALE
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{SCALE_ENV_VAR} must be a number, got {raw!r}") from exc
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{SCALE_ENV_VAR} must be positive and finite, got {value}")
    return value


@dataclass
class Corpus:
    """Everything one measurement campaign produced."""

    site: HoneySite
    scale: float
    seed: int
    bot_profiles: Tuple[BotServiceProfile, ...]
    #: per-service recorded request counts
    service_volumes: Dict[str, int] = field(default_factory=dict)
    real_user_requests: int = 0
    privacy_requests: Dict[PrivacyTechnology, int] = field(default_factory=dict)
    #: pre-extracted columnar fingerprint tables keyed by store subset
    #: ("bots", "real_users", "privacy:<technology>"), emitted during
    #: generation (or restored from the corpus cache's archive);
    #: identical to extracting the matching store, so the detection
    #: pipeline can skip extraction outright.
    columnar_tables: Dict[str, object] = field(default_factory=dict)

    @property
    def store(self) -> RequestStore:
        """Every recorded request."""

        return self.site.store

    @property
    def bot_store(self) -> RequestStore:
        """Requests attributed to the 20 bot services.

        A :meth:`~repro.honeysite.storage.RequestStore.by_sources` row
        slice, answered from the store's source codes.
        """

        bot_names = {profile.name for profile in self.bot_profiles}
        return self.site.store.by_sources(bot_names)

    @property
    def real_user_store(self) -> RequestStore:
        """Requests recorded at the real-user URL."""

        return self.site.store.by_source(REAL_USER_SOURCE)

    def privacy_store(self, technology: PrivacyTechnology) -> RequestStore:
        """Requests recorded for one privacy technology."""

        return self.site.store.by_source(f"privacy:{technology.value}")


def build_corpus(
    *,
    seed: int = 7,
    scale: Optional[float] = None,
    include_real_users: bool = True,
    include_privacy: bool = False,
    real_user_requests: int = 2206,
    privacy_requests_each: int = 60,
    campaign_days: int = 90,
    workers: Optional[int] = None,
    cache=None,
) -> Corpus:
    """Build the full measurement corpus (or load it from the cache).

    Parameters
    ----------
    seed:
        Master seed; every generator derives its stream from it.
    scale:
        Fraction of the paper's request volumes to generate (``None`` reads
        ``REPRO_SCALE`` / defaults to 0.05; pass 1.0 for the full 507,080
        requests).
    include_real_users / include_privacy:
        Whether to also generate the Section 7.4 and 7.5 traffic.
    workers / cache:
        Parallelism and caching knobs of the sharded engine
        (:func:`repro.analysis.engine.build_or_load_corpus`): *workers*
        defaults to ``REPRO_WORKERS`` or 1, *cache* to
        ``REPRO_CORPUS_CACHE`` (``False`` disables caching).  The corpus
        is byte-identical for any worker count, and
        equals what ``repro corpus`` builds for the same configuration.
    """

    from repro.analysis.engine import build_or_load_corpus

    corpus, _status = build_or_load_corpus(
        seed=seed,
        scale=scale,
        include_real_users=include_real_users,
        include_privacy=include_privacy,
        real_user_requests=real_user_requests,
        privacy_requests_each=privacy_requests_each,
        campaign_days=campaign_days,
        workers=workers,
        cache=cache,
    )
    return corpus
