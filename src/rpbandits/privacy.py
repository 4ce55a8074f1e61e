"""Local differential privacy for reported rewards.

A client that averages n_a plays releases mean + Lap(2 / (n_a * epsilon)).
A per-reward client (M1) reports a single play (n_a = 1) and so releases
reward + Lap(2 / epsilon); an aggregating client (M2) reports the mean of
its n_a plays.  The rate comes from a reward sensitivity of 2 (clean rewards
are modeled on [-1, 1]); if clipping to [-clip, clip] is enabled the
sensitivity becomes 2 * clip and the scale adjusts accordingly.

All Laplace noise is generated through one inverse-CDF transform of a single
uniform draw so that a stream position fully determines the noise value.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PrivacyParams:
    epsilon: float = 1.0
    enabled: bool = True
    clip: float | None = None

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.clip is not None and not self.clip > 0.0:
            raise ValueError("clip must be positive when set")

    @property
    def sensitivity(self) -> float:
        return 2.0 * (self.clip if self.clip is not None else 1.0)


def laplace_icdf(u: np.ndarray) -> np.ndarray:
    """Inverse CDF of the zero-mean, unit-scale Laplace distribution, elementwise.

    u < 0.5 maps to log(2u), u = 0.5 to -0.0 and u > 0.5 to -log(2(1-u)), with
    one log per element.  A client's noise is this times its scale (see
    laplace_scale).
    """
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    return np.log(2.0 * np.minimum(u, 1.0 - u)) * (1.0 - 2.0 * (u >= 0.5))


def laplace_scale(params: PrivacyParams, n_a: int | np.ndarray) -> float | np.ndarray:
    """Laplace scale sensitivity / (n_a * epsilon) of a client averaging n_a plays.

    n_a may be an array of play counts, one per client; a per-reward client
    has n_a = 1.
    """
    counts = np.asarray(n_a)
    if np.any(counts < 1):
        raise ValueError("n_a must be at least 1")
    out = params.sensitivity / (counts * params.epsilon)
    return float(out) if out.ndim == 0 else out
