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
    effective_dimension,
    load_action_set,
    save_action_set,
    weighted_norm_sq,
)
from rpbandits.errors import InvalidNu, OutOfSpan


def unit_rows(rng, k, d):
    v = rng.normal(size=(k, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------- ActionSet


def test_action_set_validates_norms():
    with pytest.raises(ValueError):
        ActionSet(np.array([[2.0, 0.0]]))


def test_action_set_requires_2d():
    with pytest.raises(ValueError):
        ActionSet(np.array([1.0, 0.0]))


def test_action_set_json_round_trip(tmp_path):
    acts = ActionSet(np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]))
    path = tmp_path / "actions.json"
    save_action_set(acts, path)
    loaded = load_action_set(path)
    assert np.array_equal(loaded.vectors, acts.vectors)
    raw = json.loads(path.read_text())
    assert raw["dim"] == 2
    assert len(raw["actions"]) == 3


def test_action_set_subset():
    acts = ActionSet(np.eye(4))
    sub = acts.subset([0, 2])
    assert sub.count == 2
    assert np.array_equal(sub.vectors, np.eye(4)[[0, 2]])


def test_effective_dimension():
    rng = np.random.default_rng(0)
    basis = unit_rows(rng, 3, 5)
    coeffs = rng.normal(size=(20, 3))
    vecs = coeffs @ basis
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    assert effective_dimension(vecs) == 3


# ---------------------------------------------------------- weighted_norm_sq


def test_weighted_norm_identity():
    assert weighted_norm_sq(np.array([1.0, 0.0]), np.eye(2)) == pytest.approx(1.0)


def test_weighted_norm_diagonal():
    gram = np.diag([0.25, 1.0])
    assert weighted_norm_sq(np.array([1.0, 0.0]), gram) == pytest.approx(4.0)


def test_weighted_norm_rank_deficient_matches_reduced_solve():
    rng = np.random.default_rng(3)
    basis, _ = np.linalg.qr(rng.normal(size=(5, 3)))
    core = rng.normal(size=(3, 3))
    gram_small = core @ core.T + 0.5 * np.eye(3)
    gram = basis @ gram_small @ basis.T
    coeff = rng.normal(size=3)
    a = basis @ coeff
    expected = coeff @ np.linalg.solve(gram_small, coeff)
    assert weighted_norm_sq(a, gram) == pytest.approx(expected, abs=1e-10)


def test_weighted_norm_out_of_span():
    gram = np.diag([1.0, 0.0])
    with pytest.raises(OutOfSpan):
        weighted_norm_sq(np.array([0.0, 1.0]), gram)


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
    levs = [weighted_norm_sq(a, design.gram) for a in acts.vectors]
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
    levs = [weighted_norm_sq(a, design.gram) for a in vecs]
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


def test_design_json_round_trip():
    design = compute_design(ActionSet(np.eye(3)))
    data = design.to_json_dict()
    assert set(map(int, data["weights"])) == set(design.support)
    assert data["gvalue"] == design.gvalue


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
    acts = ActionSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    gram = np.diag([0.9, 0.1])
    design = Design(
        actions=acts, weights={0: 0.9, 1: 0.1}, gram=gram,
        gvalue=weighted_norm_sq(np.array([0.0, 1.0]), gram),
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
    acts = ActionSet(np.eye(max(len(raw), 2))[: len(raw)])
    gram = acts.vectors.T @ (weights[:, None] * acts.vectors)
    design = Design(actions=acts, weights=dict(enumerate(weights.tolist())),
                    gram=gram, gvalue=float(len(raw)), effective_dim=len(raw))
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
    acts = ActionSet(np.eye(max(len(raw), 2))[: len(raw)])
    gram = acts.vectors.T @ (weights[:, None] * acts.vectors)
    design = Design(actions=acts, weights=dict(enumerate(weights.tolist())),
                    gram=gram, gvalue=float(len(raw)), effective_dim=len(raw))
    cs = build_coreset(design, budget=budget, model="M2", nu=nu)
    k = cs.support_size
    assert cs.total <= k + budget * (1 + k * nu)


def test_coreset_counts_at_least_one():
    rng = np.random.default_rng(2)
    design = compute_design(ActionSet(unit_rows(rng, 30, 4)))
    cs = build_coreset(design, budget=1, model="M1")
    assert all(n >= 1 for _, n in cs.entries)
    assert Coreset is type(cs)
