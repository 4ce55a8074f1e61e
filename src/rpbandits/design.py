"""Action sets, near-optimal exploration designs, and play-count coresets.

A design is a probability distribution over a finite action set chosen so
that the worst-case normalized leverage max_a ||a||^2_{M(w)^-1} is within a
small factor of the dimension of the span (the Kiefer-Wolfowitz optimum).
The optimizer is Frank-Wolfe on the log-det objective with away steps and
exact line search, which keeps the support small while converging linearly.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import scipy.linalg

from .errors import FailsToConverge, InvalidNu, OutOfSpan

# Rank decisions below this relative pivot size treat a direction as
# numerically absent from the span.
RANK_TOL = 1e-10
EIG_FLOOR = 1e-12
SPAN_TOL = 1e-8
PRUNE_FRACTION = 1e-6
# Frank-Wolfe iteration cap, and the factor c of the support bound
# c * r * max(1, log log r).
MAX_ITERS = 5000
SUPPORT_CONSTANT = 4.0
MODELS = ("M1", "M2")  # per-reward and aggregating clients


@dataclass(frozen=True)
class ActionSet:
    """Ordered finite set of finite actions in R^d, d >= 1, each of norm <= 1."""

    vectors: np.ndarray  # shape (K, d)

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=float)
        if arr.ndim != 2:
            raise ValueError("actions must form a 2-d array of shape (K, d)")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("an action set needs at least one action and one coordinate")
        if not np.isfinite(arr).all():
            raise ValueError("actions must be finite")
        norms = np.linalg.norm(arr, axis=1)
        if np.any(norms > 1.0 + 1e-9):
            worst = int(np.argmax(norms))
            raise ValueError(f"action {worst} has norm {norms[worst]:.6g} > 1")
        object.__setattr__(self, "vectors", arr)

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def subset(self, indices) -> "ActionSet":
        return ActionSet(self.vectors[np.asarray(indices, dtype=int)])

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "actions": self.vectors.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ActionSet":
        arr = np.asarray(data["actions"], dtype=float)
        if arr.ndim != 2 or arr.shape[1] != int(data["dim"]):
            raise ValueError("action set JSON has inconsistent dimensions")
        return cls(arr)


def span_leverages(vecs: np.ndarray,
                   gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise <a, gram^+ a> restricted to the span of gram, from one eigh.

    Returns (leverages, basis, inv_sqrt): the span's orthonormal eigenvectors
    as columns of basis, with 1 / sqrt of their eigenvalues, so that
    gram^+ = basis diag(inv_sqrt^2) basis^T.  Eigenvalues at or below
    EIG_FLOOR times the largest are outside the span.  Raises OutOfSpan when
    gram is numerically zero, or when a row has a component orthogonal to
    the span larger than SPAN_TOL * max(1, ||a||).
    """
    evals, evecs = np.linalg.eigh(gram)
    cutoff = max(float(evals[-1]) * EIG_FLOOR, 1e-300)
    keep = evals > cutoff
    if not keep.any():
        raise OutOfSpan("the Gram matrix is numerically zero")
    proj = vecs @ evecs
    residual = np.linalg.norm(proj[:, ~keep], axis=1)
    ref = SPAN_TOL * np.maximum(1.0, np.linalg.norm(vecs, axis=1))
    if np.any(residual > ref):
        worst = int(np.argmax(residual / ref))
        raise OutOfSpan(f"vector {worst} leaves the Gram span by {residual[worst]:.3g}")
    leverages = np.sum(proj[:, keep] ** 2 / evals[keep], axis=1)
    return leverages, evecs[:, keep], 1.0 / np.sqrt(evals[keep])


def _support_bound(r: int) -> int:
    if r <= 0:
        return 0
    loglog = np.log(max(np.log(max(r, 2)), 1e-12))
    return int(np.floor(SUPPORT_CONSTANT * r * max(1.0, loglog) + 1e-9))


@dataclass(frozen=True)
class Design:
    """Distribution over action indices with its leverage certificate."""

    weights: Mapping[int, float]
    gvalue: float
    effective_dim: int

    @property
    def support(self) -> list[int]:
        return sorted(self.weights)

    def support_bound(self) -> int:
        return _support_bound(self.effective_dim)

    def validate(self) -> None:
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"design weights sum to {total!r}, not 1")
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("design weights must be nonnegative")
        if len(self.weights) > self.support_bound():
            raise ValueError(
                f"support {len(self.weights)} exceeds bound {self.support_bound()}"
            )
        if self.gvalue > 2.0 * self.effective_dim + 1e-9:
            raise ValueError(
                f"gvalue {self.gvalue:.6g} exceeds twice the effective dimension"
            )


def _greedy_basis(coords: np.ndarray, rank: int) -> np.ndarray:
    """Indices of a well-conditioned spanning subset, via pivoted QR."""
    piv = scipy.linalg.qr(coords.T, mode="r", pivoting=True)[1]
    return np.sort(piv[:rank])


def _leverages(coords: np.ndarray, gram: np.ndarray) -> np.ndarray:
    sol = np.linalg.solve(gram, coords.T)
    return np.einsum("ij,ji->i", coords, sol)


def compute_design(actions: ActionSet, tol: float = 0.05) -> Design:
    """Near-optimal design on `actions` with a certified leverage bound.

    Runs away-step Frank-Wolfe on log det M(w) inside the span of the action
    set, starting from the uniform distribution on a pivoted-QR spanning
    subset.  Stops once max_a ||a||^2_{M(w)^-1} <= (1 + tol) * r where r is
    the span dimension.  Weights below 1e-6 / K are pruned afterwards and the
    support is thinned further if it exceeds the allowed bound.

    Raises FailsToConverge if the certificate still exceeds 2 r after
    MAX_ITERS iterations and pruning.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    vecs = actions.vectors
    K = actions.count

    r_mat, piv = scipy.linalg.qr(vecs.T, mode="r", pivoting=True)
    diag = np.abs(np.diag(r_mat))
    if diag.size == 0 or diag[0] <= RANK_TOL:
        raise ValueError("action set spans no direction (all actions are zero)")
    rank = int(np.sum(diag > RANK_TOL * diag[0]))
    basis, _ = np.linalg.qr(vecs[piv[:rank]].T)  # (d, rank), orthonormal columns
    coords = vecs @ basis  # (K, rank)

    w = np.zeros(K)
    w[_greedy_basis(coords, rank)] = 1.0 / rank

    target = (1.0 + tol) * rank
    for _ in range(MAX_ITERS):
        gram = coords.T @ (coords * w[:, None])
        lev = _leverages(coords, gram)
        j_fw = int(np.argmax(lev))
        g_fw = float(lev[j_fw])
        if g_fw <= target:
            break

        support = np.flatnonzero(w > 0)
        use_away = False
        if rank > 1 and support.size > 1:
            j_aw = int(support[np.argmin(lev[support])])
            g_aw = float(lev[j_aw])
            use_away = (rank - g_aw) > (g_fw - rank) and g_aw < rank

        if use_away:
            # Away step: shift mass off the lowest-leverage support point.
            # Parameterized as w' = (1 + gamma) w - gamma e_j; the exact line
            # search optimum in u = gamma / (1 + gamma) is (r - g)/(g (r - 1)).
            u_star = (rank - g_aw) / (g_aw * (rank - 1)) if g_aw > 0 else np.inf
            u_max = float(w[j_aw])
            u = min(u_star, u_max)
            if u <= 0 or u >= 1.0:
                u = u_max
            gamma = u / (1.0 - u)
            w = w * (1.0 + gamma)
            if u >= u_max - 1e-15:
                w[j_aw] = 0.0
            else:
                w[j_aw] -= gamma
            w = np.maximum(w, 0.0)
            w /= w.sum()
        else:
            # Frank-Wolfe step toward the highest-leverage action; exact line
            # search for log-det gives gamma = (g/r - 1)/(g - 1).
            gamma = (g_fw / rank - 1.0) / (g_fw - 1.0)
            gamma = float(np.clip(gamma, 0.0, 1.0 - 1e-12))
            if gamma <= 0:
                break
            w *= 1.0 - gamma
            w[j_fw] += gamma

    w[w < PRUNE_FRACTION / K] = 0.0
    w /= w.sum()
    w = _thin_support(coords, w, rank, _support_bound(rank))

    gvalue = float(np.max(span_leverages(vecs, (vecs * w[:, None]).T @ vecs)[0]))
    if gvalue > 2.0 * rank + 1e-9:
        raise FailsToConverge(
            f"design certificate {gvalue:.4f} exceeds {2 * rank} "
            f"after {MAX_ITERS} iterations"
        )
    # Read-only, because a design may be shared between runs.
    weights = MappingProxyType({int(i): float(w[i]) for i in np.flatnonzero(w > 0)})
    design = Design(weights=weights, gvalue=gvalue, effective_dim=rank)
    design.validate()
    return design


def _thin_support(coords: np.ndarray, w: np.ndarray, rank: int, bound: int) -> np.ndarray:
    """Drop the smallest weights while the leverage certificate stays <= 2r."""
    while int(np.sum(w > 0)) > bound:
        support = np.flatnonzero(w > 0)
        j = int(support[np.argmin(w[support])])
        trial = w.copy()
        trial[j] = 0.0
        trial /= trial.sum()
        gram = coords.T @ (coords * trial[:, None])
        evals = np.linalg.eigvalsh(gram)
        if evals[0] <= RANK_TOL * max(evals[-1], 1e-300):
            raise FailsToConverge(
                f"cannot thin design support to {bound} without losing rank"
            )
        if float(np.max(_leverages(coords, gram))) > 2.0 * rank:
            raise FailsToConverge(
                f"cannot thin design support to {bound} within the leverage budget"
            )
        w = trial
    return w


@dataclass(frozen=True)
class Coreset:
    """Integer play counts per action index for one exploration round."""

    entries: list[tuple[int, int]]  # (action index, play count), sorted by index
    model: str  # one of MODELS

    @property
    def total(self) -> int:
        return sum(n for _, n in self.entries)

    @property
    def support_size(self) -> int:
        return len(self.entries)

    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Action index, client count and plays per client of each entry.

        Each entry is a run of clients that report on its action, in play
        order.  A per-reward client (M1) reports one play, so an entry with n
        plays is a run of n clients of one play each.  An aggregating client
        (M2) reports the mean of all plays of its entry: a run of one client
        of n plays.
        """
        actions = np.asarray([i for i, _ in self.entries], dtype=int)
        counts = np.asarray([n for _, n in self.entries], dtype=int)
        ones = np.ones_like(counts)
        if self.model == "M1":
            return actions, counts, ones
        return actions, ones, counts


def build_coreset(design: Design, budget: int, model: str, nu: float | None = None) -> Coreset:
    """Round a design into integer play counts.

    Per-reward clients (M1) play action a exactly ceil(budget * w(a)) times.
    Aggregating clients (M2) add a floor: ceil(budget * max(w(a), nu)), which
    requires 0 < nu < 1 and keeps the total at most
    support + budget * (1 + support * nu).
    """
    if model not in MODELS:
        raise ValueError(f"unknown client model {model!r}")
    if budget < 1:
        raise ValueError("round budget must be at least 1")
    if model == "M2":
        if nu is None or not (0.0 < nu < 1.0):
            raise InvalidNu(f"nu must lie in (0, 1) under M2, got {nu!r}")
    entries = []
    for idx in sorted(design.weights):
        wgt = design.weights[idx]
        eff = wgt if model == "M1" else max(wgt, nu)
        x = budget * eff
        # Forgive float fuzz just above an integer before taking the ceiling.
        count = int(np.ceil(x - 1e-9 * max(1.0, x)))
        entries.append((idx, max(count, 1)))
    return Coreset(entries=entries, model=model)
