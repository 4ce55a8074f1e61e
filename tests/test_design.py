import json
import platform

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import rpbandits.design
from rpbandits.design import (
    RANK_TOL,
    ActionSet,
    Coreset,
    Design,
    build_coreset,
    column_norms,
    compute_design,
    eigh,
    pivoted_qr,
    span_leverages,
)
from rpbandits.env import generate_instance
from rpbandits.errors import FailsToConverge, OutOfSpan
from rpbandits.robust import DEFAULT_CLEAN_SCALE_SQ, robust_least_squares, vanilla_least_squares


def unit_rows(rng, k, d):
    v = rng.normal(size=(k, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def leverage(a, gram):
    """<a, gram^+ a> of one vector, through the design's row-wise leverages."""
    return float(span_leverages(np.asarray(a, dtype=float)[None, :], gram)[0][0])


def design_gram(design, vecs):
    """sum_a w(a) a a^T, summed as compute_design sums it for its certificate."""
    w = np.zeros(len(vecs))
    w[list(design.weights)] = list(design.weights.values())
    return (vecs * w[:, None]).T @ vecs


# ---------------------------------------------------------------- ActionSet


def test_action_set_validates_norms():
    with pytest.raises(ValueError):
        ActionSet(np.array([[2.0, 0.0]]))


def test_action_set_requires_2d():
    with pytest.raises(ValueError):
        ActionSet(np.array([1.0, 0.0]))


@pytest.mark.parametrize("vectors", [
    [[np.nan, 0.0]], [[0.5, np.inf]], [[-np.inf, 0.0]], np.zeros((3, 0)), np.zeros((0, 2)),
])
def test_action_set_rejects_non_finite_and_empty(vectors):
    with pytest.raises(ValueError):
        ActionSet(np.array(vectors))


def test_action_set_json_round_trip():
    acts = ActionSet(np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]))
    raw = json.loads(json.dumps(acts.to_json_dict()))
    loaded = ActionSet.from_json_dict(raw)
    assert np.array_equal(loaded.vectors, acts.vectors)
    assert raw["dim"] == 2
    assert len(raw["actions"]) == 3


def test_action_set_subset():
    acts = ActionSet(np.eye(4))
    sub = acts.subset([0, 2])
    assert sub.count == 2
    assert np.array_equal(sub.vectors, np.eye(4)[[0, 2]])


# ------------------------------------------------------------------- eigh


def symmetric_cases(seed, p):
    """Symmetric p x p matrices: a random one, one with a repeated top and a
    repeated bottom eigenvalue, a rank-one one, the identity and zero."""
    r = np.random.default_rng((seed, p))
    a = r.normal(size=(p, p))
    q, _ = np.linalg.qr(r.normal(size=(p, p)))
    spectrum = np.sort(r.normal(size=p))
    spectrum[: p // 3] = spectrum[0]
    spectrum[-(p // 2 or 1):] = spectrum[-1]
    u = r.normal(size=p)
    return [a + a.T, (q * spectrum) @ q.T, np.outer(u, u), np.eye(p), np.zeros((p, p))]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20))
def test_eigh_is_numpys_eigh_bit_for_bit(seed, p):
    for a in symmetric_cases(seed, p):
        evals, evecs = eigh(a)
        want_vals, want_vecs = np.linalg.eigh(a)
        assert evals.tobytes() == want_vals.tobytes()
        assert evecs.tobytes() == want_vecs.tobytes()
        assert evecs.shape == want_vecs.shape and evecs.strides == want_vecs.strides


def outcome(fn, a):
    try:
        evals, evecs = fn(a)
    except np.linalg.LinAlgError as exc:
        return "raised", str(exc)
    return "returned", evals.tobytes(), evecs.tobytes()


# The gufunc reports the flags LAPACK's failure raises as numpy's errstate
# says, and np.linalg.eigh silences them.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("p", [1, 2, 3, 8])
@pytest.mark.parametrize("where", ["diagonal", "lower", "upper", "everywhere", "inf"])
def test_eigh_raises_where_numpys_eigh_does(p, where):
    # With numpy 2.4.6's LAPACK a NaN below the diagonal fails the solve for
    # p >= 3, and numpy raises; for p <= 2 LAPACK returns NaN without failing,
    # and numpy does not raise.  A NaN above the diagonal is never read.
    a = symmetric_cases(5, p)[0]
    index = {"diagonal": (0, 0), "lower": (p - 1, 0), "upper": (0, p - 1),
             "everywhere": (slice(None), slice(None)), "inf": (p - 1, 0)}[where]
    a[index] = np.inf if where == "inf" else np.nan
    got, want = outcome(eigh, a), outcome(np.linalg.eigh, a)
    assert got == want
    if where == "lower" and p >= 3:
        assert want[0] == "raised"


# -------------------------------------------------- leverages (span_leverages)


def test_weighted_norm_identity():
    assert leverage(np.array([1.0, 0.0]), np.eye(2)) == pytest.approx(1.0)


def test_weighted_norm_diagonal():
    gram = np.diag([0.25, 1.0])
    assert leverage(np.array([1.0, 0.0]), gram) == pytest.approx(4.0)


def test_weighted_norm_rank_deficient_matches_reduced_solve():
    rng = np.random.default_rng(3)
    basis, _ = np.linalg.qr(rng.normal(size=(5, 3)))
    core = rng.normal(size=(3, 3))
    gram_small = core @ core.T + 0.5 * np.eye(3)
    gram = basis @ gram_small @ basis.T
    coeff = rng.normal(size=3)
    a = basis @ coeff
    expected = coeff @ np.linalg.solve(gram_small, coeff)
    assert leverage(a, gram) == pytest.approx(expected, abs=1e-10)


def test_weighted_norm_out_of_span():
    gram = np.diag([1.0, 0.0])
    with pytest.raises(OutOfSpan):
        leverage(np.array([0.0, 1.0]), gram)


def test_span_basis_and_inverse_sqrt_give_the_pseudo_inverse():
    rng = np.random.default_rng(4)
    rows = unit_rows(rng, 3, 2) @ np.linalg.qr(rng.normal(size=(5, 2)))[0].T
    gram = rows.T @ rows  # rank 2 in R^5
    levs, basis, inv_sqrt = span_leverages(rows, gram)
    assert basis.shape == (5, 2) and inv_sqrt.shape == (2,)
    pinv = (basis * inv_sqrt**2) @ basis.T
    assert np.allclose(pinv, np.linalg.pinv(gram, rcond=1e-10), atol=1e-10)
    assert np.allclose(levs, np.einsum("ij,jk,ik->i", rows, pinv, rows), atol=1e-10)


@pytest.mark.parametrize("gram", [np.zeros((3, 3)), np.diag([1e-310, 0.0, 0.0])])
def test_numerically_zero_gram_raises(gram):
    with pytest.raises(OutOfSpan, match="numerically zero"):
        span_leverages(np.zeros((0, 3)), gram)


def test_estimators_raise_out_of_span():
    # The estimators' span rule is span_leverages': zero rows, or a query
    # outside the span of the played rows, raise OutOfSpan.
    rows, lengths, y = np.zeros((2, 3)), np.array([2, 1]), np.ones(3)
    with pytest.raises(OutOfSpan, match="numerically zero"):
        vanilla_least_squares(rows, lengths, y)
    with pytest.raises(OutOfSpan, match="numerically zero"):
        robust_least_squares(rows, lengths, y, np.random.default_rng(0),
                             rows, DEFAULT_CLEAN_SCALE_SQ)
    rows = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
    with pytest.raises(OutOfSpan, match="leaves the Gram span"):
        robust_least_squares(rows, lengths, y, np.random.default_rng(0),
                             query_actions=np.array([[0.6, 0.0, 0.8]]),
                             clean_scale_sq=DEFAULT_CLEAN_SCALE_SQ)


# ------------------------------------------------------------ compute_design


def test_basis_actions_uniform_design():
    design = compute_design(ActionSet(np.eye(4)), tol=0.05)
    assert design.effective_dim == 4
    assert design.gvalue == pytest.approx(4.0, rel=1e-6)
    for idx in range(4):
        assert design.weights[idx] == pytest.approx(0.25, abs=1e-6)


def test_single_vector_design():
    design = compute_design(ActionSet(np.array([[0.6, 0.8]])), tol=0.05)
    assert design.effective_dim == 1
    assert design.weights[0] == pytest.approx(1.0)
    assert design.gvalue == pytest.approx(1.0, rel=1e-9)


def test_design_golden_random_unit_vectors():
    # frozen calibration output for 100 unit vectors in R^5 at tol=0.05
    rng = np.random.default_rng(20250817)
    acts = ActionSet(unit_rows(rng, 100, 5))
    design = compute_design(acts, tol=0.05)
    assert design.gvalue <= 5.25
    assert len(design.weights) <= 20
    assert design.gvalue == pytest.approx(5.229347314606026, rel=1e-6)
    assert len(design.weights) == 17


def test_design_invariants_random_sets():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(2, 11))
        k = int(rng.integers(d, 201))
        design = compute_design(ActionSet(unit_rows(rng, k, d)), tol=0.25)
        r = design.effective_dim
        weights = np.array(list(design.weights.values()))
        assert abs(weights.sum() - 1.0) <= 1e-9
        assert (weights >= 0).all()
        assert design.gvalue <= 2 * r
        assert len(design.weights) <= rpbandits.design._support_bound(r)


def test_support_above_the_bound_is_thinned(monkeypatch):
    # At tol = 0.05 Frank-Wolfe leaves 121 weights on this set, above the
    # bound of 87 for r = 20, so the support is thinned down to the bound.
    seen = []
    thin = rpbandits.design._thin_support

    def spy(coords, w, rank, bound):
        seen.append((int(np.count_nonzero(w)), bound))
        return thin(coords, w, rank, bound)

    monkeypatch.setattr(rpbandits.design, "_thin_support", spy)
    design = compute_design(generate_instance(dim=20, num_actions=300, seed=0).actions, tol=0.05)
    assert seen == [(121, 87)]
    assert design.effective_dim == 20
    assert len(design.weights) <= 87
    assert design.gvalue <= 2 * 20
    assert sum(design.weights.values()) == pytest.approx(1.0, abs=1e-9)


def test_thinning_that_loses_rank_raises():
    with pytest.raises(FailsToConverge, match="without losing rank"):
        rpbandits.design._thin_support(np.eye(3), np.full(3, 1 / 3), 3, 2)


def test_thinning_past_the_leverage_budget_raises():
    # Dropping action 0 leaves action 1 alone on e1 with weight 1/19, so its
    # leverage is 19 > 2 * 2.
    coords = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(FailsToConverge, match="within the leverage budget"):
        rpbandits.design._thin_support(coords, np.array([0.05, 0.05, 0.9]), 2, 2)


def test_kiefer_wolfowitz_certificate():
    rng = np.random.default_rng(12)
    acts = ActionSet(unit_rows(rng, 60, 4))
    tol = 0.05
    design = compute_design(acts, tol=tol)
    # max leverage over all candidate actions is the certificate
    gram = design_gram(design, acts.vectors)
    levs = [leverage(a, gram) for a in acts.vectors]
    assert max(levs) <= (1 + tol) * design.effective_dim + 1e-9


@pytest.mark.parametrize("d,k,rank", [
    (2, 5, 2), (5, 50, 5), (10, 400, 10), (20, 2000, 20), (30, 3000, 30),
    (6, 40, 3), (6, 500, 3),
])
def test_certificate_matches_per_action_leverages(d, k, rank):
    # The certificate comes from one decomposition of the Gram; it must equal
    # the largest per-action leverage.  rank < d puts every row in a random
    # rank-dimensional subspace of R^d.
    rng = np.random.default_rng(1000 * d + k)
    basis, _ = np.linalg.qr(rng.normal(size=(d, rank)))
    vecs = rng.normal(size=(k, rank)) @ basis.T
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    design = compute_design(ActionSet(vecs), tol=0.25)
    assert design.effective_dim == rank
    gram = design_gram(design, vecs)
    levs = [leverage(a, gram) for a in vecs]
    assert design.gvalue == pytest.approx(max(levs), rel=1e-12)


def test_rank_deficient_action_set():
    rng = np.random.default_rng(9)
    basis, _ = np.linalg.qr(rng.normal(size=(6, 2)))
    coeffs = rng.normal(size=(30, 2))
    vecs = coeffs @ basis.T
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    design = compute_design(ActionSet(vecs), tol=0.05)
    assert design.effective_dim == 2
    assert design.gvalue <= 4.0  # 2 * rank, not 2 * ambient dim


def test_design_deterministic():
    rng = np.random.default_rng(5)
    acts = ActionSet(unit_rows(rng, 40, 3))
    d1 = compute_design(acts, tol=0.05)
    d2 = compute_design(acts, tol=0.05)
    assert d1.weights == d2.weights
    assert d1.gvalue == d2.gvalue


def test_design_bit_equal_on_separate_copies():
    # The policy reuses designs keyed by the bytes of the active vectors, so
    # two arrays with the same content must give the same design, bit for bit.
    rng = np.random.default_rng(11)
    vecs = unit_rows(rng, 300, 6)
    active = np.flatnonzero(rng.random(300) < 0.7)
    a = ActionSet(np.asfortranarray(vecs)).subset(active)
    b = ActionSet(vecs[active].copy())
    assert a.vectors is not b.vectors
    assert a.vectors.flags.c_contiguous and b.vectors.flags.c_contiguous
    assert a.vectors.tobytes() == b.vectors.tobytes()
    d1 = compute_design(a, tol=0.25)
    d2 = compute_design(b, tol=0.25)
    assert list(d1.weights) == list(d2.weights)
    assert np.array(list(d1.weights.values())).tobytes() == np.array(
        list(d2.weights.values())).tobytes()
    assert repr(d1.gvalue) == repr(d2.gvalue)


# ---------------------------------------------------------------- pivoted_qr
# scipy's dgeqp3 is the oracle: the port must pick the same rank and the same
# pivots, because designs start from them.

X87 = pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64") or np.finfo(np.longdouble).nmant != 63,
    reason="the port rounds norms as OpenBLAS's x86-64 dnrm2, which sums in x87 "
           "extended precision; elsewhere LAPACK's norms round another way")


def pivots(diag, perm):
    """Rank at RANK_TOL and the pivots that span it."""
    rank = int(np.sum(diag > RANK_TOL * diag[0]))
    return rank, perm[:rank].tolist()


def lapack_pivots(a):
    r, piv = scipy.linalg.qr(a, mode="r", pivoting=True)
    return pivots(np.abs(np.diag(r)), piv)


@X87
def test_column_norms_round_as_dnrm2():
    # About one column in 10^4 tells the order in which the sums combine.
    rng = np.random.default_rng(0)
    for m in range(1, 71):
        a = rng.normal(size=(m, 1000))
        a[:, ::2] /= np.linalg.norm(a[:, ::2], axis=0)  # unit columns tie in the last bit
        expected = [float(scipy.linalg.blas.dnrm2(col)) for col in a.T]
        assert column_norms(a).tolist() == expected, m


@X87
def test_pivots_match_lapack_on_generated_sets():
    # Each design pivots on the active actions, then on their coordinates in
    # the span (coords.T); generated actions are unit-norm, so norms tie.
    rng = np.random.default_rng(1)
    for seed in range(40):
        d, k = int(rng.integers(1, 21)), int(rng.integers(1, 300))
        vecs = generate_instance(dim=d, num_actions=k, seed=seed).actions.vectors
        active = vecs[np.sort(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))]
        _, piv = pivots(*pivoted_qr(active.T))
        basis, _ = np.linalg.qr(active[piv].T)
        for a in (vecs.T, active.T, (active @ basis).T):
            assert pivots(*pivoted_qr(a)) == lapack_pivots(a), seed


@X87
@pytest.mark.parametrize("kind", ["low-rank", "signed-identity", "graded"])
def test_pivots_match_lapack_on_hard_inputs(kind):
    rng = np.random.default_rng(2)
    for _ in range(30):
        d, k = int(rng.integers(2, 21)), int(rng.integers(2, 300))
        if kind == "low-rank":
            vecs = rng.normal(size=(k, 2)) @ rng.normal(size=(2, d))
        elif kind == "signed-identity":
            # Repeats leave remainders of exactly 0, so norms drop to 0.
            signs = np.diag(rng.choice([-1.0, 1.0], size=d))
            vecs = np.vstack([signs, np.zeros((1, d)), -signs, np.eye(d)])
        else:
            vecs = rng.normal(size=(k, d)) * np.logspace(0, -12, d)
        a = vecs.T
        assert pivots(*pivoted_qr(a)) == lapack_pivots(a)


def test_pivoted_qr_leaves_its_input_alone():
    # compute_design passes vecs.T, whose C-ordered form is vecs itself, so
    # working in np.ascontiguousarray(a) would corrupt the caller's actions.
    vecs = generate_instance(dim=5, num_actions=40, seed=1).actions.vectors
    for a in (vecs.T, vecs):
        before = a.copy()
        pivoted_qr(a)
        assert a.tobytes() == before.tobytes()


@X87
def test_repeated_actions_pivot_on_an_equal_copy():
    # A documented difference: among exactly equal columns, LAPACK's choice
    # follows the rounding of its gemv kernel, which the port does not copy.
    # The port pivots on an equal column, so the spanning vectors agree.
    rng = np.random.default_rng(5)
    other_index = 0
    for seed in range(60):
        d, k = int(rng.integers(1, 25)), int(rng.integers(1, 400))
        vecs = generate_instance(dim=d, num_actions=k, seed=seed).actions.vectors
        a = vecs[rng.integers(0, k, size=k)].T
        rank, piv = pivots(*pivoted_qr(a))
        lapack_rank, lapack_piv = lapack_pivots(a)
        assert rank == lapack_rank
        assert np.array_equal(a[:, piv], a[:, lapack_piv])
        other_index += piv != lapack_piv
    assert other_index > 0


# ------------------------------------------------------------- build_coreset


def uniform_design_on_basis(d=4):
    return compute_design(ActionSet(np.eye(d)), tol=0.05)


def test_coreset_m1_exact_division():
    cs = build_coreset(uniform_design_on_basis(), budget=100, model="M1")
    assert [n for _, n in cs.entries] == [25, 25, 25, 25]
    assert cs.total == 100


def test_coreset_m1_ceiling():
    cs = build_coreset(uniform_design_on_basis(), budget=10, model="M1")
    assert [n for _, n in cs.entries] == [3, 3, 3, 3]
    assert cs.total == 12


def test_coreset_m2_truncation_rule():
    # weights (0.9, 0.1) over two actions, nu = 0.2 -> counts (90, 20)
    gram = np.diag([0.9, 0.1])
    design = Design(
        weights={0: 0.9, 1: 0.1},
        gvalue=leverage(np.array([0.0, 1.0]), gram),
        effective_dim=2,
    )
    cs = build_coreset(design, budget=100, model="M2", nu=0.2)
    assert [n for _, n in cs.entries] == [90, 20]


@settings(max_examples=200, deadline=None)
@given(
    budget=st.integers(min_value=1, max_value=10**6),
    raw=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=12),
)
def test_coreset_m1_total_bounds(budget, raw):
    weights = np.array(raw) / np.sum(raw)
    design = Design(weights=dict(enumerate(weights.tolist())),
                    gvalue=float(len(raw)), effective_dim=len(raw))
    cs = build_coreset(design, budget=budget, model="M1")
    assert budget <= cs.total <= budget + cs.support_size


@settings(max_examples=200, deadline=None)
@given(
    budget=st.integers(min_value=1, max_value=10**5),
    raw=st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=10),
    nu=st.floats(min_value=1e-4, max_value=0.999),
)
def test_coreset_m2_total_bound(budget, raw, nu):
    weights = np.array(raw) / np.sum(raw)
    design = Design(weights=dict(enumerate(weights.tolist())),
                    gvalue=float(len(raw)), effective_dim=len(raw))
    cs = build_coreset(design, budget=budget, model="M2", nu=nu)
    k = cs.support_size
    assert cs.total <= k + budget * (1 + k * nu)


def test_coreset_counts_at_least_one():
    rng = np.random.default_rng(2)
    design = compute_design(ActionSet(unit_rows(rng, 30, 4)), tol=0.05)
    cs = build_coreset(design, budget=1, model="M1")
    assert all(n >= 1 for _, n in cs.entries)
    assert Coreset is type(cs)
