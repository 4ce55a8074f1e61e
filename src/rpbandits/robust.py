"""Corruption-robust mean estimation and fixed-design least squares.

The core primitive removes points one at a time, sampling proportionally to
the squared projection onto the top eigenvector of the empirical covariance,
until that eigenvalue drops below four times a clean-scale budget lambda.
Least squares becomes robust by whitening each observation a_i * y_i with the
inverse square root of the Gram matrix, filtering the whitened points, and
mapping the filtered mean back.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OutOfSpan, SingularGram, TooManyRemoved

EIG_FLOOR = 1e-12
SPAN_TOL = 1e-8
# Treat a top eigenvalue at numerical-noise scale as zero covariance.
ZERO_COV_TOL = 1e-12


@dataclass(frozen=True)
class FilterDiagnostics:
    removed_count: int
    final_top_eigenvalue: float
    iterations: int
    removed_indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class RobustEstimate:
    theta: np.ndarray
    lam: float
    diagnostics: FilterDiagnostics
    gram: np.ndarray | None = None


def _top_eigenpair(cov: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a symmetric matrix and a unit eigenvector for it.

    One dense `eigh`; with a repeated top eigenvalue the vector is some unit
    vector of that eigenspace.
    """
    evals, evecs = np.linalg.eigh(cov)
    return float(evals[-1]), evecs[:, -1]


def spectral_filter(
    points: np.ndarray,
    lam: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, FilterDiagnostics]:
    """Mean of `points` after randomized removal of spectral outliers.

    While the top eigenvalue mu of the empirical covariance satisfies
    mu >= 4 * lam, one point is removed, sampled with probability
    proportional to its squared projection on the top eigenvector, and the
    check repeats on the survivors.  A top eigenvalue at floating-point noise
    scale counts as zero so that identical points pass for any lam >= 0.

    Raises TooManyRemoved once more than ceil(n / 2) points would be gone.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cannot filter an empty point set")
    if lam < 0:
        raise ValueError("lam must be nonnegative")

    max_removed = int(np.ceil(n / 2))
    alive = np.ones(n, dtype=bool)
    removed_order: list[int] = []
    # Incremental first and second moments; refreshed periodically to keep
    # downdate rounding from accumulating.
    vec_sum = pts.sum(axis=0)
    outer_sum = pts.T @ pts
    removed = 0
    iterations = 0
    scale = float(np.mean(np.einsum("ij,ij->i", pts, pts)))
    while True:
        iterations += 1
        m = n - removed
        mean = vec_sum / m
        cov = outer_sum / m - np.outer(mean, mean)
        mu, v = _top_eigenpair(cov)
        if mu < 4.0 * lam or mu <= ZERO_COV_TOL * max(1.0, scale):
            diag = FilterDiagnostics(removed_count=removed,
                                     final_top_eigenvalue=mu,
                                     iterations=iterations,
                                     removed_indices=tuple(removed_order))
            return mean, diag
        if removed + 1 > max_removed:
            raise TooManyRemoved(
                f"filter would remove more than {max_removed} of {n} points",
                diagnostics=FilterDiagnostics(removed_count=removed,
                                              final_top_eigenvalue=mu,
                                              iterations=iterations,
                                              removed_indices=tuple(removed_order)),
            )
        idx_alive = np.flatnonzero(alive)
        proj = (pts[idx_alive] - mean) @ v
        scores = proj * proj
        total = scores.sum()
        if total <= 0.0:
            # Cannot happen when mu > 0, but guard the division anyway.
            diag = FilterDiagnostics(removed_count=removed,
                                     final_top_eigenvalue=mu,
                                     iterations=iterations,
                                     removed_indices=tuple(removed_order))
            return mean, diag
        pick = idx_alive[rng.choice(scores.size, p=scores / total)]
        alive[pick] = False
        removed_order.append(int(pick))
        vec_sum = vec_sum - pts[pick]
        outer_sum = outer_sum - np.outer(pts[pick], pts[pick])
        removed += 1
        if removed % 256 == 0:
            vec_sum = pts[alive].sum(axis=0)
            outer_sum = pts[alive].T @ pts[alive]


def _gram_inverse_sqrt(actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenbasis pieces of M_n = sum a_i a_i^T restricted to its span.

    Returns (basis Q, inv_sqrt_evals, evals) where Q has one orthonormal
    column per retained eigenvalue.
    """
    gram = actions.T @ actions
    evals, evecs = np.linalg.eigh(gram)
    cutoff = max(float(evals[-1]) * EIG_FLOOR, 1e-300)
    keep = evals > cutoff
    if not keep.any():
        raise SingularGram("all played actions are numerically zero")
    return evecs[:, keep], 1.0 / np.sqrt(evals[keep]), evals[keep]


def _check_in_span(vectors: np.ndarray, basis: np.ndarray, label: str) -> None:
    residual = vectors - (vectors @ basis) @ basis.T
    norms = np.linalg.norm(residual, axis=1)
    ref = np.maximum(1.0, np.linalg.norm(vectors, axis=1))
    if np.any(norms > SPAN_TOL * ref):
        worst = int(np.argmax(norms / ref))
        raise SingularGram(
            f"{label} {worst} leaves the span of the played actions "
            f"by {norms[worst]:.3g}"
        )


def vanilla_least_squares(actions: np.ndarray, rewards: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares M_n^+ sum_i a_i y_i."""
    acts = np.asarray(actions, dtype=float)
    y = np.asarray(rewards, dtype=float)
    if acts.ndim != 2 or acts.shape[0] != y.shape[0]:
        raise ValueError("actions and rewards must have matching first dimension")
    basis, inv_sqrt, _ = _gram_inverse_sqrt(acts)
    rhs = acts.T @ y
    return basis @ ((basis.T @ rhs) * inv_sqrt * inv_sqrt)


# A-priori scale (in max-leverage units) of the top eigenvalue of the clean
# reduced points' covariance.  Centering strips the mean-reward component, so
# what is left per direction is noise variance times the average-to-max
# leverage ratio plus the across-arm signal spread; on anything resembling an
# optimal-design batch that sits near 0.3, and the spectral check fires at 4x
# this budget, leaving several-fold clean slack.  Smaller values tighten the
# residual bias left by outliers that stop just under the check (roughly
# 4 * scale * d / outlier-magnitude); 0.75 was frozen after calibration runs
# against 10% contamination at magnitude 50.  Callers wanting the worst-case
# a-priori reward bound E y^2 <= 2 can pass clean_scale_sq=2.0.
DEFAULT_CLEAN_SCALE_SQ = 0.75


def robust_least_squares(
    actions: np.ndarray,
    rewards: np.ndarray,
    rng: np.random.Generator,
    query_actions: np.ndarray | None = None,
    lam: float | None = None,
    clean_scale_sq: float = DEFAULT_CLEAN_SCALE_SQ,
    reward_clip: float | None = None,
) -> RobustEstimate:
    """Filtered least squares over played (action, reward) pairs.

    The points M_n^{-1/2} a_i y_i are passed through the spectral filter and
    the surviving mean w is mapped back as theta = n * M_n^{-1/2} w.  With no
    removals this reproduces vanilla least squares exactly.

    The filter budget defaults to
        lam = max_a ||a||^2_{M_n^+} * clean_scale_sq,
    the worst queried leverage times an a-priori bound on the second moment
    of one clean reported reward.  Tying the budget to the clean scale (and
    not to the realized sum of squares, which corruption inflates without
    bound) is what lets gross outliers trip the spectral check.  Callers that
    add privacy noise should fold its variance into clean_scale_sq; `lam`
    overrides the rule entirely.  `reward_clip` truncates rewards to
    [-reward_clip, reward_clip] before any computation.

    `query_actions` (default: the played actions) is the set whose leverages
    feed the budget; every queried direction must lie in the span of the
    played actions, otherwise SingularGram is raised.
    """
    acts = np.asarray(actions, dtype=float)
    y = np.asarray(rewards, dtype=float)
    if acts.ndim != 2 or acts.shape[0] != y.shape[0]:
        raise ValueError("actions and rewards must have matching first dimension")
    n = acts.shape[0]
    if n == 0:
        raise ValueError("need at least one observation")
    if reward_clip is not None:
        if reward_clip <= 0:
            raise ValueError("reward_clip must be positive")
        y = np.clip(y, -reward_clip, reward_clip)

    basis, inv_sqrt, _ = _gram_inverse_sqrt(acts)
    queries = acts if query_actions is None else np.asarray(query_actions, dtype=float)
    _check_in_span(queries, basis, "query action")

    # Leverages ||a||^2_{M_n^+} for the queried directions.
    q_coords = (queries @ basis) * inv_sqrt
    max_lev = float(np.max(np.einsum("ij,ij->i", q_coords, q_coords)))
    if lam is None:
        if clean_scale_sq <= 0:
            raise ValueError("clean_scale_sq must be positive")
        lam = max_lev * clean_scale_sq

    points = (acts @ basis) * inv_sqrt * y[:, None]
    w, diag = spectral_filter(points, lam, rng)
    theta = basis @ (n * inv_sqrt * w)
    return RobustEstimate(theta=theta, lam=float(lam), diagnostics=diag,
                          gram=acts.T @ acts)

