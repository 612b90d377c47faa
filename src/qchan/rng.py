"""Deterministic random streams.

Every stochastic operation in the package is keyed by ``(seed, *path)``.  The
same key always yields the same stream, and distinct paths give statistically
independent streams, so batched work can run in any order without changing
results.
"""
from __future__ import annotations

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the stream keyed by ``(seed, *path)``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))
