"""Deterministic seeding helpers shared by the traffic generators.

The sharded corpus engine derives one ``numpy.random.SeedSequence`` per
traffic shard via ``SeedSequence.spawn`` and hands it to the generator
running inside the worker.  Spawned sequences are reproducible functions of
the master seed and the spawn index alone, which is what makes corpus
output independent of worker count or scheduling order.
"""

from __future__ import annotations

import numpy as np


def derive_rng(seed) -> np.random.Generator:
    """Build a generator from a seed, ``SeedSequence`` or existing generator.

    Accepts anything ``numpy.random.default_rng`` accepts, plus an already
    constructed ``Generator`` (returned unchanged), so call sites can take
    one ``rng`` argument serving both the legacy API (generator instances)
    and the sharded engine (spawned ``SeedSequence`` objects).
    """

    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

