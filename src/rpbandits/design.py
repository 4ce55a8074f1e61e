"""Action sets, near-optimal exploration designs, and play-count coresets.

A design is a probability distribution over a finite action set chosen so
that the worst-case normalized leverage max_a ||a||^2_{M(w)^-1} is within a
small factor of the dimension of the span (the Kiefer-Wolfowitz optimum).
The optimizer is Frank-Wolfe on the log-det objective with away steps and
exact line search, which keeps the support small while converging linearly.

Each step needs only two leverages: the largest over all arms and the
smallest over the support.  On large sets they come from one r x r inverse,
which estimates every leverage, and an exact solve for the few arms whose
estimate is near an extreme.  Those exact values are the bits the full
solve np.linalg.solve(gram, coords.T) would give: each arm is solved within
the aligned block of columns the full solve's kernel tiles it in, and its
dot product adds in einsum's order.  So every step, and every design, is
the one the full solve gives, bit for bit; designs feed coreset ceilings,
where a last-bit change in a weight can move a play count.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import get_args

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import FailsToConverge, OutOfSpan

# Rank decisions below this relative pivot size treat a direction as
# numerically absent from the span.
RANK_TOL = 1e-10
EIG_FLOOR = 1e-12
SPAN_TOL = 1e-8
PRUNE_FRACTION = 1e-6
# LAPACK dlaqp2's TOL3Z: a downdated partial norm is recomputed from the
# remaining rows once cancellation may have cost it half its digits.
NORM_RECOMPUTE_TOL = math.sqrt(np.finfo(float).eps)
# Frank-Wolfe iteration cap, and the factor c of the support bound
# c * r * max(1, log log r).
MAX_ITERS = 5000
SUPPORT_CONSTANT = 4.0
# Frank-Wolfe steps (_step_extremes): the band of estimated leverages,
# relative to the top one, that is solved for exactly; the width of the
# column blocks those solves use; and the factor of the estimate's error
# bound.  Below CHEAP_MIN_ARMS arms one full solve costs less than the
# estimate's fixed overhead (timed at r = 3 to 30 on a 2-vCPU x86-64 VM).
BAND = 1e-7
SOLVE_BLOCK = 16
CHEAP_MIN_ARMS = 256
ERROR_FACTOR = 64.0
EPS = float(np.finfo(float).eps)
MODELS = ("M1", "M2")  # per-reward and aggregating clients


def is_int(value) -> bool:
    """A JSON integer: a Python or NumPy int, never a bool and never 2.0."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A JSON number: an int or a float, never a bool."""
    return is_int(value) or isinstance(value, (float, np.floating))


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
               list: "an array", dict: "an object", type(None): "null"}


def json_object_error(data, kinds: dict, required: tuple = ()) -> tuple[str, str] | None:
    """None if `data` is a JSON object with every required key, no key
    outside `kinds`, and each value of its annotation's JSON type (`X | None`
    is X or null; a bool is no number and 2.0 no integer).  Otherwise the
    first problem, as (key, message), with key "" for the object itself."""
    if not isinstance(data, dict):
        return "", f"need a JSON object, got {type(data).__name__}"
    missing = [key for key in required if key not in data]
    unknown = sorted(set(data) - set(kinds))
    if missing or unknown:
        return "", f"{(missing or unknown)[0]} is {'required' if missing else 'not a known key'}"
    for key, value in data.items():
        options = get_args(kinds[key]) or (kinds[key],)
        if not any(is_int(value) if kind is int else is_real(value) if kind is float
                   else isinstance(value, kind) for kind in options):
            return key, f"{value!r} is not " + " or ".join(_TYPE_NAMES[kind] for kind in options)
    return None


def json_reals(value, name: str) -> np.ndarray:
    """A (nested) list of JSON numbers as a float array, without parsing strings."""
    arr = np.asarray(value, dtype=object)
    if not all(map(is_real, arr.flat)):
        raise TypeError(f"{name} must hold only numbers")
    return arr.astype(float)


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
        error = json_object_error(data, {"dim": int, "actions": list}, ("dim", "actions"))
        if error is not None:
            raise ValueError(": ".join(filter(None, error)))
        arr = json_reals(data["actions"], "actions")
        if arr.ndim != 2 or arr.shape[1] != data["dim"]:
            raise ValueError("action set JSON has inconsistent dimensions")
        return cls(arr)


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(a) of a symmetric float64 matrix, bit for bit:
    ascending eigenvalues and eigenvectors as columns, from the lower
    triangle.

    It calls the LAPACK gufunc np.linalg.eigh calls and skips the wrapper,
    which costs as much as the solve on small matrices.  A failed solve
    comes back as NaN, and so can a NaN input that LAPACK does not fail on;
    a NaN top eigenvalue goes through np.linalg.eigh, which raises
    LinAlgError on the failure.  Floating-point flags of the first call
    (invalid on a failure, divide by zero on some infinite inputs) are
    reported as numpy's errstate says; np.linalg.eigh silences them.
    """
    evals, evecs = _umath_linalg.eigh_lo(a, signature="d->dd")
    if evals[-1] != evals[-1]:
        return np.linalg.eigh(a)
    return evals, evecs


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
    evals, evecs = eigh(gram)
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
    loglog = np.log(np.log(max(r, 2)))
    return int(np.floor(SUPPORT_CONSTANT * r * max(1.0, loglog) + 1e-9))


@dataclass(frozen=True)
class Design:
    """Distribution over action indices with its leverage certificate.

    compute_design returns weights that sum to 1 on at most
    _support_bound(effective_dim) indices, with gvalue <= 2 * effective_dim.
    """

    weights: Mapping[int, float]
    gvalue: float
    effective_dim: int


def column_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of `a`, rounded as OpenBLAS's x86-64 dnrm2.

    That kernel sums squares in x87 extended precision (np.longdouble): row
    r goes to accumulator r % 4 over the largest multiple of 8 rows, the
    remaining rows go to accumulator 0, and the sum is ((s0 + s2) + s1) + s3.
    Unit-norm actions tie in their last bit, so this rounding decides which
    one LAPACK pivots on first.
    """
    sq = np.square(a, dtype=np.longdouble)
    blocked = sq.shape[0] - sq.shape[0] % 8
    acc = np.zeros((4, sq.shape[1]), np.longdouble)
    for r in range(0, blocked, 4):
        acc += sq[r:r + 4]
    for r in range(blocked, sq.shape[0]):
        acc[0] += sq[r]
    return np.sqrt(((acc[0] + acc[2]) + acc[1]) + acc[3]).astype(float)


@np.errstate(divide="ignore", invalid="ignore")  # see the downdate
def pivoted_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|diag(R)| and the column order of a column-pivoted QR of `a` (m x n).

    A transcription of LAPACK's dlaqp2 (Businger & Golub 1965), the path
    dgeqp3 takes when min(m, n) <= 128.  Step i swaps in the column of
    largest partial norm, zeroes it below row i with a Householder
    reflector (dlarfg), applies the reflector to the columns after it
    (dlarf), and downdates their partial norms, recomputing a norm from the
    remaining rows where the downdate has lost half its digits (Drmac and
    Bujanovic, LAPACK Working Note 176).  Initial and recomputed norms are
    rounded as column_norms rounds them, so ties between columns of equal
    norm break as LAPACK breaks them.  The reflector's last bits differ
    from LAPACK's, because numpy's products do not round as its gemv and
    ger kernels do; so exactly repeated columns may be taken in another
    order, and the reflector's norms are math.hypot, not dnrm2 and dlapy2.
    dlarfg's rescaling of norms below 1e-292 is left out.  `a` is not
    modified.
    """
    m, n = a.shape
    r = np.array(a, dtype=float, order="C")  # a copy: rows stay long, `a` untouched
    perm = np.arange(n)
    vn1 = column_norms(r)  # partial norms, downdated each step
    vn2 = vn1.copy()  # the norm each partial norm was last computed as
    diag = np.empty(min(m, n))
    for i in range(diag.size):
        p = i + int(vn1[i:].argmax())
        if p != i:
            r[:, p], r[:, i] = r[:, i], r[:, p].copy()
            perm[p], perm[i] = perm[i], perm[p]
            vn1[p], vn2[p] = vn1[i], vn2[i]
        alpha, *below = r[i:, i].tolist()
        xnorm = math.hypot(*below)
        beta = alpha
        if xnorm != 0.0:
            beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
            tau = (beta - alpha) / beta
            v = r[i:, i] * (1.0 / (alpha - beta))  # the reflector [1; x / (alpha - beta)]
            v[0] = 1.0
            # Apply it to the columns after i through whole rows, which
            # numpy updates several times faster than the strided block;
            # the finished columns 0..i change too, but are never read
            # again.  einsum forms the outer product twice as fast as
            # np.multiply.outer.
            w = v @ r[i:]
            r[i:] -= np.einsum("i,j->ij", v, tau * w)
        diag[i] = abs(beta)
        if i + 1 == diag.size:
            break
        # Downdate: each later column's partial norm loses its row-i entry,
        # and is recomputed where temp * (vn1 / vn2)^2 <= tol (LAPACK's
        # TEMP2).  A norm of 0 belongs to a column that is 0 from row i on,
        # so its ratio is 0/0: fmax turns that NaN into temp = 0, its TEMP2
        # stays NaN and fails the test, and the norm stays 0 * 0, as LAPACK
        # skips such columns.
        live = vn1[i + 1:]
        temp = np.fmax(1.0 - np.square(r[i, i + 1:] / live), 0.0)
        redo = temp * np.square(live / vn2[i + 1:]) <= NORM_RECOMPUTE_TOL
        live *= np.sqrt(temp)
        if redo.any():
            redo = np.flatnonzero(redo) + i + 1
            vn1[redo] = column_norms(r[i + 1:, redo])
            vn2[redo] = vn1[redo]
    return diag, perm


def _greedy_basis(coords: np.ndarray, rank: int) -> np.ndarray:
    """Indices of a well-conditioned spanning subset, via pivoted QR."""
    return np.sort(pivoted_qr(coords.T)[1][:rank])


def _leverages(coords: np.ndarray, gram: np.ndarray) -> np.ndarray:
    sol = np.linalg.solve(gram, coords.T)
    return np.einsum("ij,ji->i", coords, sol)


def _leverages_at(coords: np.ndarray, gram: np.ndarray, arms: list[int]) -> list[float]:
    """[_leverages(coords, gram)[i] for i in arms], bit for bit, from a few columns.

    A column's solve rounds by where it sits among the right-hand sides:
    OpenBLAS's triangular solves work on tiles of columns, and a lone column
    or the odd tail of a tile takes another kernel.  So each arm is solved
    within its aligned SOLVE_BLOCK-wide block, as the full solve tiles them,
    with a one-column tail merged into the block before it, and the blocks
    go into one solve in order.  The dot products then add left to right
    from 0.0, each product rounded, as np.einsum("ij,ji->i") does on whole
    columns (on a subset einsum picks another loop).
    """
    count = coords.shape[0]
    last = max(1, (count + SOLVE_BLOCK - 2) // SOLVE_BLOCK) - 1
    shift, spans, width = {}, [], 0
    for b in sorted({min(i // SOLVE_BLOCK, last) for i in arms}):
        lo = b * SOLVE_BLOCK
        hi = count if b == last else lo + SOLVE_BLOCK
        shift[b] = width - lo
        spans.append(coords[lo:hi])
        width += hi - lo
    sol = np.linalg.solve(gram, np.concatenate(spans).T).T
    out = []
    for i in arms:
        acc = 0.0  # Python floats: each product and sum rounded, no FMA
        col = sol[i + shift[min(i // SOLVE_BLOCK, last)]]
        for x, y in zip(coords[i].tolist(), col.tolist()):
            acc += x * y
        out.append(acc)
    return out


def _step_extremes(coords: np.ndarray, gram: np.ndarray,
                   support: np.ndarray) -> tuple[int, float, int, float]:
    """A Frank-Wolfe step's extremes: (j_fw, g_fw, j_aw, g_aw).

    j_fw is the arm of largest leverage and j_aw the support point of
    smallest, first index on ties, as np.argmax and np.argmin pick them from
    _leverages(coords, gram); g_fw and g_aw are their leverages, bit for bit.
    Where the full solve is cheap, or the Gram too ill-conditioned for the
    estimate below, they are read off _leverages itself.  Otherwise one
    r x r inverse estimates every leverage, and only the candidates get
    exact values from _leverages_at: the arms within BAND * top of the
    estimated top leverage, and the support points within BAND * top of the
    estimated support minimum.  To first order the estimate and the solve
    are each off by well under 16 r * eps * kappa^2 times the top leverage,
    where kappa = ||gram||_F ||gram^-1||_F is at least the 2-norm condition
    number; on the benchmark's designs the estimate was off by at most
    1.1e-15 of the top.  The test below holds the bound under BAND / 4, so
    an arm outside the band lies below the arm of the top estimate in exact
    values too: every arm that reaches an extreme, or ties one, is a
    candidate.
    """
    count, rank = coords.shape
    if count >= CHEAP_MIN_ARMS:
        inv = np.linalg.inv(gram)
        kappa_sq = np.vdot(gram, gram) * np.vdot(inv, inv)
        if ERROR_FACTOR * rank * EPS * kappa_sq <= BAND:  # False on NaN
            est = np.einsum("ij,ij->i", coords @ inv, coords)
            top = est.max()
            low = est[support]
            away = support[low <= low.min() + BAND * top].tolist()
            near = est >= top - BAND * top
            near[away] = True
            arms = np.flatnonzero(near).tolist()
            lev = dict(zip(arms, _leverages_at(coords, gram, arms)))
            j_fw = max(arms, key=lev.__getitem__)  # the first of equals, as argmax
            j_aw = min(away, key=lev.__getitem__)
            return j_fw, lev[j_fw], j_aw, lev[j_aw]
    lev = _leverages(coords, gram)
    j_fw = int(lev.argmax())
    j_aw = int(support[lev[support].argmin()])
    return j_fw, float(lev[j_fw]), j_aw, float(lev[j_aw])


def compute_design(actions: ActionSet, tol: float) -> Design:
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

    # pivoted_qr, not np.linalg.qr: unit-norm actions tie in rounding, and
    # designs follow LAPACK dgeqp3's choice among them.
    diag, piv = pivoted_qr(vecs.T)
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
        support = np.flatnonzero(w > 0)
        j_fw, g_fw, j_aw, g_aw = _step_extremes(coords, gram, support)
        if g_fw <= target:
            break

        use_away = (rank > 1 and support.size > 1
                    and (rank - g_aw) > (g_fw - rank) and g_aw < rank)

        if use_away:
            # Away step: shift mass off the lowest-leverage support point.
            # Parameterized as w' = (1 + gamma) w - gamma e_j; the exact line
            # search optimum in u = gamma / (1 + gamma) is (r - g)/(g (r - 1)).
            u_star = (rank - g_aw) / (g_aw * (rank - 1)) if g_aw > 0 else np.inf
            u_max = float(w[j_aw])
            u = min(u_star, u_max)
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
    return Design(weights=weights, gvalue=gvalue, effective_dim=rank)


def _thin_support(coords: np.ndarray, w: np.ndarray, rank: int, bound: int) -> np.ndarray:
    """Drop the smallest weights while the leverage certificate stays <= 2r."""
    while int(np.sum(w > 0)) > bound:
        support = np.flatnonzero(w > 0)
        j = int(support[np.argmin(w[support])])
        trial = w.copy()
        trial[j] = 0.0
        trial /= trial.sum()
        try:
            leverages = span_leverages(coords, coords.T @ (coords * trial[:, None]))[0]
        except OutOfSpan as exc:
            raise FailsToConverge(
                f"cannot thin design support to {bound} without losing rank"
            ) from exc
        if float(np.max(leverages)) > 2.0 * rank:
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
    Aggregating clients (M2) add a floor: ceil(budget * max(w(a), nu)),
    which keeps the total at most support + budget * (1 + support * nu).
    The caller's ThresholdConfig holds model to MODELS and, under M2, nu to
    (0, 1); the policy passes a budget of at least 1.
    """
    entries = []
    for idx in sorted(design.weights):
        wgt = design.weights[idx]
        eff = wgt if model == "M1" else max(wgt, nu)
        x = budget * eff
        # Forgive float fuzz just above an integer before taking the ceiling.
        count = int(np.ceil(x - 1e-9 * max(1.0, x)))
        entries.append((idx, max(count, 1)))
    return Coreset(entries=entries, model=model)
