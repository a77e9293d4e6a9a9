"""Deterministic seed derivation for every random component in the pipeline.

All randomness flows from explicit integer seeds. Sub-streams (per chunk,
per tree, per grid point, per hybrid mu point) are derived with
`numpy.random.SeedSequence` keyed on the master seed plus stable integer tags,
so results never depend on worker count, scheduling, or process-level hash
randomization.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["seed_key", "derive_rng", "derive_seed_sequence", "derive_seed"]


def seed_key(part: int | str) -> int:
    """Map a tag to a stable unsigned 64-bit integer.

    Integers pass through (masked to 64 bits); strings hash via blake2b,
    which is stable across processes and platforms.
    """
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_seed_sequence(*parts: int | str) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed_key(p) for p in parts])


def derive_rng(*parts: int | str) -> np.random.Generator:
    """Generator seeded from the given (master_seed, tag, ...) key chain."""
    return np.random.default_rng(derive_seed_sequence(*parts))


def derive_seed(*parts: int | str) -> int:
    """Collapse a key chain into one 64-bit seed, for APIs that take an integer."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(seed_key(part).to_bytes(8, "big"))
    return int.from_bytes(h.digest(), "big")
