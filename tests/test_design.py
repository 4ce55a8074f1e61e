import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpbandits.design import (
    ActionSet,
    Coreset,
    Design,
    build_coreset,
    compute_design,
    span_leverages,
)
from rpbandits.errors import InvalidNu, OutOfSpan
from rpbandits.robust import robust_least_squares, vanilla_least_squares


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
        robust_least_squares(rows, lengths, y, np.random.default_rng(0))
    rows = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
    with pytest.raises(OutOfSpan, match="leaves the Gram span"):
        robust_least_squares(rows, lengths, y, np.random.default_rng(0),
                             query_actions=np.array([[0.6, 0.0, 0.8]]))


# ------------------------------------------------------------ compute_design


def test_basis_actions_uniform_design():
    design = compute_design(ActionSet(np.eye(4)))
    assert design.effective_dim == 4
    assert design.gvalue == pytest.approx(4.0, rel=1e-6)
    for idx in range(4):
        assert design.weights[idx] == pytest.approx(0.25, abs=1e-6)


def test_single_vector_design():
    design = compute_design(ActionSet(np.array([[0.6, 0.8]])))
    assert design.effective_dim == 1
    assert design.weights[0] == pytest.approx(1.0)
    assert design.gvalue == pytest.approx(1.0, rel=1e-9)


def test_design_golden_random_unit_vectors():
    # frozen calibration output for 100 unit vectors in R^5 at tol=0.05
    rng = np.random.default_rng(20250817)
    acts = ActionSet(unit_rows(rng, 100, 5))
    design = compute_design(acts, tol=0.05)
    assert design.gvalue <= 5.25
    assert len(design.support) <= 20
    assert design.gvalue == pytest.approx(5.229347314606026, rel=1e-6)
    assert len(design.support) == 17


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
        assert len(design.support) <= design.support_bound()
        design.validate()


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
    design = compute_design(ActionSet(vecs))
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


# ------------------------------------------------------------- build_coreset


def uniform_design_on_basis(d=4):
    return compute_design(ActionSet(np.eye(d)))


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


def test_coreset_m2_requires_nu():
    design = uniform_design_on_basis()
    with pytest.raises(InvalidNu):
        build_coreset(design, budget=10, model="M2")
    with pytest.raises(InvalidNu):
        build_coreset(design, budget=10, model="M2", nu=1.0)
    with pytest.raises(InvalidNu):
        build_coreset(design, budget=10, model="M2", nu=0.0)


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
    design = compute_design(ActionSet(unit_rows(rng, 30, 4)))
    cs = build_coreset(design, budget=1, model="M1")
    assert all(n >= 1 for _, n in cs.entries)
    assert Coreset is type(cs)
