"""Deterministic RNG stream derivation.

Every random draw in the simulator comes from a stream derived by hashing a
tuple of labels (master seed, seed index, variant tag, round, ...) with
SHA-256.  Hashing makes the derivation independent of execution order, so
cells of a sweep and clients within a batch can run in any order, or in
parallel, and still reproduce the sequential results bit for bit.
"""

import hashlib

import numpy as np

# An int label is hashed as a signed big-endian integer of this many bits,
# so only ints in INT_LABELS can be labels; config seeds are checked
# against it.
INT_LABEL_BITS = 128
INT_LABELS = range(-(1 << (INT_LABEL_BITS - 1)), 1 << (INT_LABEL_BITS - 1))


def derive_entropy(*parts: int | str) -> int:
    """Hash a label tuple into a 256-bit integer usable as SeedSequence entropy."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bool):
            raise TypeError("bool labels are ambiguous; use int or str")
        if isinstance(part, (int, np.integer)):
            h.update(b"i")
            h.update(int(part).to_bytes(INT_LABEL_BITS // 8, "big", signed=True))
        elif isinstance(part, str):
            h.update(b"s")
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        else:
            raise TypeError(f"unsupported seed label type: {type(part)!r}")
    return int.from_bytes(h.digest(), "big")


def seed_sequence(*parts: int | str) -> np.random.SeedSequence:
    """SeedSequence keyed by a label tuple."""
    return np.random.SeedSequence(derive_entropy(*parts))


def rng_from(*parts: int | str) -> np.random.Generator:
    """Fresh Generator keyed by a label tuple."""
    return np.random.default_rng(seed_sequence(*parts))
