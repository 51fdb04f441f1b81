"""Deterministic seeded RNG streams.

Counter-based Philox generators keyed by (seed, purpose tags) so every
pipeline stage draws from its own reproducible stream regardless of call
order elsewhere.
"""

from __future__ import annotations

import zlib

import numpy as np

from .core import ValidationError


def seeded_rng(seed: int, *tags) -> np.random.Generator:
    """The stream of the whole seed, an int >= 0 (a numpy integer counts, a
    bool does not), and the tags; any other seed raises a ValidationError
    naming it. Distinct seeds key distinct streams."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be an int >= 0, got {seed!r}")
    entropy = [int(seed)] + [zlib.crc32(str(t).encode()) for t in tags]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
