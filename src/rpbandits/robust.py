"""Corruption-robust mean estimation and fixed-design least squares.

The core primitive removes points one at a time, sampling proportionally to
the squared projection onto the top eigenvector of the empirical covariance,
until that eigenvalue drops below four times a clean-scale budget lambda.
Least squares becomes robust by whitening each observation a_i * y_i with the
inverse square root of the Gram matrix, filtering the whitened points, and
mapping the filtered mean back.

Both estimators take their observations as runs: k rows, a run length per
row, and one reward per observation, the rewards of run b being the next
lengths[b] entries.  A coreset entry is a run: under per-reward clients
(M1) its action row with one reward per play, under aggregating clients
(M2) its action row with the one reward of its client.  So the Gram is
sum_b lengths[b] c_b c_b^T and nothing of size n x d is built.  The filter
keeps each run's count, sum and centred sum of squares of its surviving
weights (the run moments), builds the covariance and the removal scores
from them, and samples a removal in two levels, a run and then a point
inside it, from one uniform.  A caller with single observations passes
runs of length 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .design import span_leverages
from .errors import TooManyRemoved

# Treat a top eigenvalue at numerical-noise scale as zero covariance.
ZERO_COV_TOL = 1e-12


@dataclass(frozen=True)
class FilterDiagnostics:
    removed_count: int
    final_top_eigenvalue: float
    iterations: int
    removed_indices: tuple[int, ...] = ()


def _top_eigenpair(cov: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a symmetric matrix and a unit eigenvector for it.

    One dense `eigh`; with a repeated top eigenvalue the vector is some unit
    vector of that eigenspace.
    """
    evals, evecs = np.linalg.eigh(cov)
    return float(evals[-1]), evecs[:, -1]


def _search(cum: np.ndarray, u: float) -> int:
    """`searchsorted(cum, u, side="right")` over a cumsum of nonnegative
    scores, held to the last entry with a positive score when rounding
    leaves u >= cum[-1]."""
    j = int(cum.searchsorted(u, side="right"))
    if j == cum.size:
        j = int(cum.searchsorted(cum[-1], side="left"))
    return j


def _runs(rows, lengths, values) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validated (rows, lengths, values, run starts) of k runs over n values."""
    rows = np.asarray(rows, dtype=float)
    lengths = np.asarray(lengths, dtype=int)
    values = np.asarray(values, dtype=float)
    if rows.ndim != 2 or lengths.shape != rows.shape[:1]:
        raise ValueError("need a 2-d array of rows and one run length per row")
    if values.ndim != 1:
        raise ValueError(f"values must have shape (n,), got {values.shape}")
    if values.size == 0:
        raise ValueError("need at least one observation")
    if np.any(lengths < 1):
        raise ValueError("run lengths must be positive")
    if int(lengths.sum()) != values.size:
        raise ValueError(f"run lengths sum to {int(lengths.sum())}, "
                         f"but the values have shape {values.shape}")
    return rows, lengths, values, np.cumsum(lengths) - lengths


def spectral_filter(
    weights: np.ndarray,
    rows: np.ndarray,
    lengths: np.ndarray,
    lam: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, FilterDiagnostics]:
    """Mean of the points weights[i] * rows[b], for i in run b, after
    randomized removal of spectral outliers.

    Run b is the next lengths[b] points, which lie on the line through
    rows[b].  While the top eigenvalue mu of the points' empirical
    covariance satisfies mu >= 4 * lam, one point is removed, sampled with
    probability proportional to its squared projection on the top
    eigenvector, and the check repeats on the survivors.  A top eigenvalue
    at floating-point noise scale counts as zero so that identical points
    pass for any lam >= 0.

    The filter keeps each run's count, weight sum and centred sum of squared
    weights over its survivors, and builds the covariance from these run
    moments.  A removal scores each run in closed form, picks a run and then
    a point inside it with one uniform, and recomputes that run's moments.
    With k runs of about n / k points in R^p a removal costs O(k p^2 + n / k).
    The one uniform is the draw `Generator.choice(p=...)` makes, and the
    two-level pick lands where choice's search over all points would, up to
    rounding in the scores, so the rng stream is the same.  For the same
    reason splitting a run into adjacent runs on the same row changes the
    removals only through rounding.

    Raises TooManyRemoved once more than ceil(n / 2) points would be gone,
    and ValueError on empty or non-finite input or run lengths that do not
    sum to n.
    """
    coef, sizes, w, starts = _runs(rows, lengths, weights)
    n = w.size
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if not (np.isfinite(coef).all() and np.isfinite(w).all()):
        raise ValueError("rows and weights must be finite")

    # Run moments of the surviving weights: count, sum, mean and centred sum
    # of squares m2, kept as rows sqrt(m2) * c (within) and mean * c (centres).
    root_cnt = np.sqrt(sizes)
    wsum = np.add.reduceat(w, starts)
    wbar = wsum / sizes
    dev = w - np.repeat(wbar, sizes)
    m2 = np.add.reduceat(dev * dev, starts)
    within = coef * np.sqrt(m2)[:, None]
    centres = coef * wbar[:, None]
    # Mean squared norm of the points, sum_i w_i^2 = m2 + wsum * wbar per run.
    scale = float((m2 + wsum * wbar) @ np.einsum("ij,ij->i", coef, coef)) / n

    max_removed = int(np.ceil(n / 2))
    alive = np.ones(n, dtype=bool)
    removed_order: list[int] = []
    removed = 0
    iterations = 0
    while True:
        iterations += 1
        m = n - removed
        mean = (wsum @ coef) / m
        # Within-run plus between-run scatter: no cancellation.
        between = (centres - mean) * root_cnt[:, None]
        cov = (within.T @ within + between.T @ between) / m
        mu, v = _top_eigenpair(cov)
        if mu < 4.0 * lam or mu <= ZERO_COV_TOL * max(1.0, scale):
            break
        if removed + 1 > max_removed:
            raise TooManyRemoved(
                f"filter would remove more than {max_removed} of {n} points",
                diagnostics=FilterDiagnostics(removed_count=removed,
                                              final_top_eigenvalue=mu,
                                              iterations=iterations,
                                              removed_indices=tuple(removed_order)),
            )
        # The squared projections on v of run b's points w[i] * c sum to
        # (within[b] @ v)^2 + (between[b] @ v)^2.
        cum = ((within @ v) ** 2 + (between @ v) ** 2).cumsum()
        u = rng.random() * float(cum[-1])
        b = _search(cum, u)
        lo, hi = starts[b], starts[b] + sizes[b]
        members = lo + alive[lo:hi].nonzero()[0]
        proj = w[members] * float(coef[b] @ v) - float(mean @ v)
        u_in_run = u - cum[b - 1] if b else u
        pick = int(members[_search((proj * proj).cumsum(), u_in_run)])
        alive[pick] = False
        removed_order.append(pick)
        removed += 1
        survivors = w[lo:hi][alive[lo:hi]]
        wsum[b] = survivors.sum()
        wbar_b = wsum[b] / survivors.size if survivors.size else 0.0
        root_cnt[b] = math.sqrt(survivors.size)
        within[b] = coef[b] * math.sqrt(float(((survivors - wbar_b) ** 2).sum()))
        centres[b] = coef[b] * wbar_b
    diag = FilterDiagnostics(removed_count=removed,
                             final_top_eigenvalue=mu,
                             iterations=iterations,
                             removed_indices=tuple(removed_order))
    return (coef * wsum[:, None]).sum(axis=0) / m, diag


def vanilla_least_squares(rows: np.ndarray, lengths: np.ndarray,
                          rewards: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares M_n^+ sum_i a_i y_i over runs.

    The right-hand side is sum_b c_b * (sum of run b's rewards).  Raises
    OutOfSpan when every played row is numerically zero.
    """
    rows, lengths, y, starts = _runs(rows, lengths, rewards)
    gram = (rows * lengths[:, None]).T @ rows
    _, basis, inv_sqrt = span_leverages(rows[:0], gram)
    rhs = rows.T @ np.add.reduceat(y, starts)
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
    rows: np.ndarray,
    lengths: np.ndarray,
    rewards: np.ndarray,
    rng: np.random.Generator,
    query_actions: np.ndarray,
    clean_scale_sq: float,
) -> tuple[np.ndarray, FilterDiagnostics]:
    """Filtered least squares over runs of played (action, reward) pairs.

    The points M_n^{-1/2} a_i y_i are passed through the spectral filter and
    the surviving mean w is mapped back as theta = n * M_n^{-1/2} w.  With no
    removals this reproduces vanilla least squares up to rounding.  Run b's
    points lie on the line through its whitened row M_n^{-1/2} c_b, and the
    filter gets them as that row, its length and the run's rewards.

    The filter budget is
        lam = max_a ||a||^2_{M_n^+} * clean_scale_sq,
    the worst queried leverage times an a-priori bound on the second moment
    of one clean reported reward.  Tying the budget to the clean scale (and
    not to the realized sum of squares, which corruption inflates without
    bound) is what lets gross outliers trip the spectral check.  Callers that
    add privacy noise should fold its variance into clean_scale_sq.

    `query_actions` is the set whose leverages feed the budget; every
    queried direction must lie in the span of the played actions, otherwise
    OutOfSpan is raised.  Returns (theta, filter diagnostics), and raises
    TooManyRemoved, carrying the diagnostics, when the filter would remove
    more than half the points.
    """
    rows, lengths, y, _ = _runs(rows, lengths, rewards)
    if clean_scale_sq <= 0:
        raise ValueError("clean_scale_sq must be positive")
    gram = (rows * lengths[:, None]).T @ rows
    leverages, basis, inv_sqrt = span_leverages(query_actions, gram)
    lam = float(np.max(leverages)) * clean_scale_sq

    w, diag = spectral_filter(y, (rows @ basis) * inv_sqrt, lengths, lam, rng)
    return basis @ (y.size * inv_sqrt * w), diag
