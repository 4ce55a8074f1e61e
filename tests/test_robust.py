import json
from pathlib import Path

import numpy as np
import pytest

from rpbandits.design import ActionSet, build_coreset, compute_design
from rpbandits.env import generate_instance
from rpbandits.errors import OutOfSpan, TooManyRemoved
from rpbandits.robust import (
    DEFAULT_CLEAN_SCALE_SQ,
    _search,
    _top_eigenpair,
    robust_least_squares,
    spectral_filter,
    vanilla_least_squares,
)


DATA_DIR = Path(__file__).parent / "data"


def unit_rows(rng, k, d):
    v = rng.normal(size=(k, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def singles(rows):
    """Run lengths that make every row its own run of one observation."""
    return np.ones(len(rows), dtype=int)


def points(pts):
    """A point cloud as filter input: unit weights on runs of length 1."""
    pts = np.asarray(pts, dtype=float).reshape(len(pts), -1)
    return np.ones(len(pts)), pts, singles(pts)


# ------------------------------------------------------------ spectral_filter


def test_filter_identical_points_zero_covariance():
    pts = np.tile([1.5, -0.5], (10, 1))
    mean, diag = spectral_filter(*points(pts), 0.0, np.random.default_rng(0))
    assert np.allclose(mean, [1.5, -0.5])
    assert diag.removed_count == 0


def test_filter_gaussian_cloud_no_removal():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(100, 3))
    mean, diag = spectral_filter(*points(pts), 10.0, np.random.default_rng(2))
    assert diag.removed_count == 0
    # no-removal path is exactly the empirical mean
    assert np.array_equal(mean, pts.mean(axis=0))


def test_filter_one_dim_outliers_monte_carlo():
    # calibration run froze: median |estimate| 0.0484, all 20 outliers removed
    # in 50/50 seeds (requirements: median <= 1.0, >= 45 seeds)
    est_vals = []
    all_removed = 0
    for seed in range(50):
        r = np.random.default_rng(seed + 1000)
        pts = np.concatenate([r.normal(0, 1, 180), np.full(20, 100.0)])
        mean, diag = spectral_filter(*points(pts), 2.0, np.random.default_rng(seed + 5000))
        est_vals.append(abs(float(mean[0])))
        if set(range(180, 200)) <= set(diag.removed_indices):
            all_removed += 1
    assert float(np.median(est_vals)) <= 1.0
    assert float(np.median(est_vals)) == pytest.approx(0.04841369429465596, rel=1e-6)
    assert all_removed >= 45


def test_filter_too_many_removed():
    # two equal-size clusters far apart: no stopping point before the cap
    pts = np.concatenate([np.zeros(10), np.full(10, 1000.0)])
    with pytest.raises(TooManyRemoved) as exc:
        spectral_filter(*points(pts), 0.001, np.random.default_rng(3))
    assert exc.value.diagnostics.removed_count <= 10


def test_filter_removal_cap_is_half():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(21, 2)) * 100
    try:
        _, diag = spectral_filter(*points(pts), 1e-9, np.random.default_rng(5))
        removed = diag.removed_count
    except TooManyRemoved as exc:
        removed = exc.diagnostics.removed_count
    assert removed <= 11  # ceil(21/2)


def test_filter_success_eigenvalue_below_threshold():
    rng = np.random.default_rng(6)
    pts = np.concatenate([rng.normal(size=(90, 2)), rng.normal(size=(10, 2)) + 30])
    lam = 2.0
    _, diag = spectral_filter(*points(pts), lam, np.random.default_rng(7))
    assert diag.final_top_eigenvalue < 4 * lam
    assert diag.removed_count == len(diag.removed_indices)


def test_filter_deterministic_given_seed():
    rng = np.random.default_rng(8)
    pts = np.concatenate([rng.normal(size=(50, 2)), rng.normal(size=(8, 2)) + 20])
    m1, d1 = spectral_filter(*points(pts), 1.0, np.random.default_rng(99))
    m2, d2 = spectral_filter(*points(pts), 1.0, np.random.default_rng(99))
    assert np.array_equal(m1, m2)
    assert d1.removed_indices == d2.removed_indices


def test_filter_rejects_negative_lambda():
    with pytest.raises(ValueError):
        spectral_filter(*points(np.zeros((3, 2))), -1.0, np.random.default_rng(0))


def test_filter_empty_input():
    no_runs = np.zeros((0, 2)), np.zeros(0, dtype=int)
    with pytest.raises(ValueError, match="at least one"):
        spectral_filter(np.zeros(0), *no_runs, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="at least one"):
        vanilla_least_squares(*no_runs, np.zeros(0))


@pytest.mark.parametrize("rows, weights", [
    (np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, 1.0]]), None),
    (np.array([[1.0, 0.0], [np.inf, 0.0], [0.0, 1.0]]), None),
    (np.eye(3), np.array([1.0, np.nan, 2.0])),
    (np.eye(3), np.array([1.0, -np.inf, 2.0])),
], ids=["nan-point", "inf-point", "nan-weight", "inf-weight"])
def test_filter_rejects_non_finite_input(rows, weights):
    weights = np.ones(len(rows)) if weights is None else weights
    with pytest.raises(ValueError, match="finite"):
        spectral_filter(weights, rows, singles(rows), 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("weights", [np.ones(2), np.ones(4), np.ones((3, 1))],
                         ids=["short", "long", "column"])
def test_filter_rejects_misshapen_weights(weights):
    with pytest.raises(ValueError, match="shape"):
        spectral_filter(weights, np.eye(3), singles(np.eye(3)), 1.0, np.random.default_rng(0))



@pytest.mark.parametrize("lengths, match", [
    (np.array([1, 0, 2]), "positive"),
    (np.array([2, 1]), "one run length per row"),
], ids=["empty-run", "lengths-per-row"])
def test_runs_reject_bad_lengths(lengths, match):
    with pytest.raises(ValueError, match=match):
        spectral_filter(np.ones(3), np.eye(3), lengths, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match=match):
        vanilla_least_squares(np.eye(3), lengths, np.ones(3))

def test_search_skips_zero_scores_and_holds_to_last_positive():
    cum = np.cumsum([0.0, 1.0, 0.0, 2.0, 0.0])
    assert [_search(cum, u) for u in (0.0, 0.5, 1.0, 2.9)] == [1, 1, 3, 3]
    # u at or past the total, as rounding can leave it
    assert _search(cum, 3.0) == 3
    assert _search(cum, 3.5) == 3


def test_filter_runs_match_single_points():
    # Weighted runs remove the same points, in the same order and with the
    # same rng draws, as the premultiplied points taken one by one (every run
    # of length 1).
    rows, lengths, y, _, _ = line_case("M1", 1500, 0.0, 0.1, 0)
    by_run, by_point = np.random.default_rng(9), np.random.default_rng(9)
    mean_r, diag_r = spectral_filter(y, rows, lengths, 1.0, by_run)
    mean_p, diag_p = spectral_filter(*points(np.repeat(rows, lengths, axis=0) * y[:, None]),
                                     1.0, by_point)
    assert diag_r.removed_count > 100
    assert diag_r.removed_indices == diag_p.removed_indices
    assert diag_r.iterations == diag_p.iterations
    assert by_run.random() == by_point.random()
    assert diag_r.final_top_eigenvalue == pytest.approx(diag_p.final_top_eigenvalue,
                                                        rel=1e-12)
    assert np.allclose(mean_r, mean_p, rtol=0.0, atol=1e-12)


# ------------------------------------------------------------- _top_eigenpair


def assert_top_eigenpair(cov, expected_mu, eigenspace):
    mu, v = _top_eigenpair(np.asarray(cov, dtype=float))
    assert isinstance(mu, float)
    assert mu == pytest.approx(expected_mu, abs=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    basis = np.asarray(eigenspace, dtype=float)
    # v lies in the span of the given orthonormal eigenspace columns
    assert np.linalg.norm(v - basis @ (basis.T @ v)) <= 1e-12


def test_top_eigenpair_zero_matrix():
    assert_top_eigenpair(np.zeros((3, 3)), 0.0, np.eye(3))


def test_top_eigenpair_diagonal():
    assert_top_eigenpair(np.diag([1.0, 3.0, 2.0]), 3.0, np.eye(3)[:, [1]])


def test_top_eigenpair_repeated_top_eigenvalue():
    assert_top_eigenpair(np.diag([5.0, 1.0, 5.0]), 5.0, np.eye(3)[:, [0, 2]])


def test_top_eigenpair_one_by_one():
    assert_top_eigenpair([[2.5]], 2.5, [[1.0]])


def test_filter_golden_removal_stream():
    # The golden was recorded with an earlier power-iteration eigensolver.
    # Removals and iterations must match it exactly, since they pin the
    # filter's rng stream; the final eigenvalue only to rounding, since a
    # Rayleigh quotient and an eigh eigenvalue round differently.
    golden = json.loads((DATA_DIR / "filter_golden.json").read_text())
    rng = np.random.default_rng(20230421)
    n, p, n_bad = 2000, 5, 200
    pts = rng.normal(size=(n, p))
    pts[:n_bad] = 8.0 * np.ones(p) / np.sqrt(p) + 0.5 * rng.normal(size=(n_bad, p))
    pts = pts[rng.permutation(n)]
    _, diag = spectral_filter(*points(pts), 0.5, np.random.default_rng(7))
    assert list(diag.removed_indices) == golden["removed_indices"]
    assert diag.iterations == golden["iterations"]
    assert diag.final_top_eigenvalue == pytest.approx(
        float(golden["final_top_eigenvalue"]), rel=1e-14)


# Line-structured estimation cases: (name, model, budget, Laplace scale,
# contaminated share, seed).  Under M1 a coreset entry with n plays is n equal
# consecutive rows, so the whitened points lie on one line per entry; under M2
# each entry is one row whose reward is the mean of its plays.
LINE_CASES = (
    ("m1-gauss-0", "M1", 1500, 0.0, 0.1, 0),
    ("m1-gauss-1", "M1", 1500, 0.0, 0.1, 1),
    ("m1-laplace-0", "M1", 1500, 2.0, 0.1, 0),
    ("m1-laplace-1", "M1", 1500, 2.0, 0.1, 1),
    ("m1-small-laplace", "M1", 120, 2.0, 0.1, 2),
    ("m1-too-many", "M1", 120, 0.0, 0.7, 0),
    ("m2-one-row-per-action", "M2", 1500, 2.0, 0.1, 0),
)


def line_case(model, budget, laplace, share, seed):
    """Played rows and run lengths, rewards, query actions and clean scale
    of one case.

    A `share` of the rewards is replaced by +-50 with random signs.
    """
    inst = generate_instance(dim=5, num_actions=50, seed=3)
    vecs = inst.actions.vectors
    design = compute_design(inst.actions, tol=0.25)
    nu = 0.02 if model == "M2" else None
    acts, lengths, counts = build_coreset(design, budget, model, nu).runs()
    rows = vecs[acts]
    counts = np.repeat(counts, lengths)
    n = len(counts)
    r = np.random.default_rng((5, seed))
    y = np.repeat(rows, lengths, axis=0) @ inst.theta_star + r.normal(size=n) / np.sqrt(counts)
    if laplace:
        y = y + r.laplace(scale=laplace / counts, size=n)
    bad = r.random(n) < share
    y[bad] = 50.0 * r.choice([-1.0, 1.0], size=int(bad.sum()))
    return rows, lengths, y, vecs, DEFAULT_CLEAN_SCALE_SQ + 2.0 * laplace ** 2


def run_line_case(model, budget, laplace, share, seed):
    """Filter outcome of one case and the next uniform of its rng."""
    rows, lengths, y, vecs, scale = line_case(model, budget, laplace, share, seed)
    rng = np.random.default_rng((6, seed))
    try:
        theta, diag = robust_least_squares(rows, lengths, y, rng, query_actions=vecs,
                                           clean_scale_sq=scale)
        raised = False
    except TooManyRemoved as exc:
        theta, diag, raised = None, exc.diagnostics, True
    return theta, diag, raised, float(rng.random())


@pytest.mark.parametrize("case", LINE_CASES, ids=[c[0] for c in LINE_CASES])
def test_filter_lines_golden(case):
    # Recorded from a filter that scored and sampled every point on its own.
    # Removals, iterations and the rng stream must match exactly; estimates
    # and eigenvalues only to rounding, since per-run moments sum in another
    # order.
    golden = json.loads((DATA_DIR / "filter_lines_golden.json").read_text())[case[0]]
    theta, diag, raised, next_uniform = run_line_case(*case[1:])
    assert raised == golden["raised"]
    assert list(diag.removed_indices) == golden["removed_indices"]
    assert diag.removed_count == len(golden["removed_indices"])
    assert diag.iterations == golden["iterations"]
    assert diag.final_top_eigenvalue == pytest.approx(
        golden["final_top_eigenvalue"], rel=1e-12)
    assert next_uniform == golden["next_uniform"]
    if not raised:
        expected = np.asarray(golden["theta"])
        assert np.linalg.norm(theta - expected) <= 1e-10 * np.linalg.norm(expected)



@pytest.mark.parametrize("case", LINE_CASES[:5], ids=[c[0] for c in LINE_CASES[:5]])
def test_adjacent_runs_on_equal_rows_match_merged_run(case):
    # An instance may list one action vector under two indices, and a coreset
    # then holds adjacent entries on equal rows.  Passed as the separate runs
    # they are, every run here split in two, they remove the same points in
    # the same order with the same rng draws as the one merged run that
    # detecting runs from equal consecutive rows formed.
    rows, lengths, y, vecs, scale = line_case(*case[1:])
    split_rows = np.repeat(rows, 2, axis=0)
    split_lengths = np.column_stack([lengths // 2, lengths - lengths // 2]).ravel()
    keep = split_lengths > 0
    outcomes = []
    for r, n in ((rows, lengths), (split_rows[keep], split_lengths[keep])):
        rng = np.random.default_rng((6, case[-1]))
        est = robust_least_squares(r, n, y, rng, query_actions=vecs, clean_scale_sq=scale)
        outcomes.append((*est, rng.random()))
    (merged, merged_diag, next_merged), (split, split_diag, next_split) = outcomes
    assert merged_diag.removed_count > 0
    assert split_diag.removed_indices == merged_diag.removed_indices
    assert split_diag.iterations == merged_diag.iterations
    assert next_split == next_merged
    assert split_diag.final_top_eigenvalue == pytest.approx(
        merged_diag.final_top_eigenvalue, rel=1e-12)
    assert np.linalg.norm(split - merged) <= 1e-12 * np.linalg.norm(merged)


# ------------------------------------------------------ robust_least_squares


def test_noiseless_basis_recovery():
    theta = np.array([0.4, -0.3, 0.2, 0.6])
    actions = np.eye(4)
    rewards = actions @ theta
    est, diag = robust_least_squares(actions, singles(actions), rewards, np.random.default_rng(0),
                                     actions, DEFAULT_CLEAN_SCALE_SQ)
    assert np.linalg.norm(est - theta) <= 1e-10
    assert diag.removed_count == 0


def test_zero_rewards_zero_estimate():
    actions = np.eye(3)
    est, _ = robust_least_squares(actions, singles(actions), np.zeros(3), np.random.default_rng(0),
                                  actions, DEFAULT_CLEAN_SCALE_SQ)
    assert np.allclose(est, 0.0)


def test_single_action_reduces_to_projection():
    actions = np.array([[1.0, 0.0, 0.0]])
    est, _ = robust_least_squares(actions, singles(actions), np.array([3.0]),
                                  np.random.default_rng(0), actions, DEFAULT_CLEAN_SCALE_SQ)
    assert np.allclose(est, [3.0, 0.0, 0.0])


@pytest.mark.parametrize("scale", [0.0, -1.0])
def test_non_positive_clean_scale_rejected(scale):
    actions = np.eye(2)
    with pytest.raises(ValueError, match="clean_scale_sq must be positive"):
        robust_least_squares(actions, singles(actions), np.ones(2), np.random.default_rng(0),
                             actions, scale)


def test_gram_attached_and_psd():
    rng = np.random.default_rng(10)
    A = unit_rows(rng, 30, 4)[rng.integers(0, 30, size=100)]
    y = rng.normal(size=100)
    est, _ = robust_least_squares(A, singles(A), y, np.random.default_rng(1),
                                  A, DEFAULT_CLEAN_SCALE_SQ)
    assert np.all(np.isfinite(est))


def test_clean_reduction_matches_vanilla():
    # alpha = 0: robust and vanilla agree within 1e-8 in the M_n norm, and the
    # filter takes the no-removal branch
    rng = np.random.default_rng(11)
    for trial in range(100):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(d, 60))
        vecs = unit_rows(rng, k, d)
        theta = rng.normal(size=d)
        theta /= max(1.0, float(np.linalg.norm(theta)))
        n = int(rng.integers(20, 500))
        A = vecs[rng.integers(0, k, size=n)]
        y = A @ theta + rng.normal(size=n)
        est, diag = robust_least_squares(A, singles(A), y, np.random.default_rng(trial),
                                         A, DEFAULT_CLEAN_SCALE_SQ)
        v = vanilla_least_squares(A, singles(A), y)
        diff = est - v
        m_norm = float(np.sqrt(diff @ (A.T @ A) @ diff))
        assert m_norm <= 1e-8
        assert diag.removed_count == 0


def test_vanilla_matches_dense_normal_equations():
    rng = np.random.default_rng(12)
    A = rng.normal(size=(200, 5))
    y = rng.normal(size=200)
    theta = vanilla_least_squares(A, singles(A), y)
    expected = np.linalg.solve(A.T @ A, A.T @ y)
    assert np.allclose(theta, expected, atol=1e-9)


def test_vanilla_noiseless_recovery():
    rng = np.random.default_rng(13)
    theta = np.array([0.2, -0.5, 0.1])
    A = unit_rows(rng, 10, 3)
    y = A @ theta
    assert np.linalg.norm(vanilla_least_squares(A, singles(A), y) - theta) <= 1e-10


def test_rotation_equivariance_clean_path():
    rng = np.random.default_rng(14)
    d = 4
    A = unit_rows(rng, 40, d)[rng.integers(0, 40, size=120)]
    theta = rng.normal(size=d)
    theta /= 2 * np.linalg.norm(theta)
    y = A @ theta + rng.normal(size=120)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    est, diag = robust_least_squares(A, singles(A), y, np.random.default_rng(15),
                                     A, DEFAULT_CLEAN_SCALE_SQ)
    est_rot, diag_rot = robust_least_squares(A @ q.T, singles(A), y, np.random.default_rng(15),
                                             A @ q.T, DEFAULT_CLEAN_SCALE_SQ)
    assert diag.removed_count == 0
    assert diag_rot.removed_count == 0
    assert np.allclose(est_rot, q @ est, atol=1e-9)


def test_contamination_recovery_beats_vanilla():
    # frozen from the calibration sweep: instance seed 0, d=5, K=100,
    # G-optimal coreset of ~2005 plays, 10% corruption at +50.
    inst = generate_instance(dim=5, num_actions=100, seed=0)
    vecs = inst.actions.vectors
    design = compute_design(inst.actions, tol=0.05)
    coreset = build_coreset(design, budget=2000, model="M1")
    acts, lengths, _ = coreset.runs()
    rows = vecs[acts]
    theta = inst.theta_star
    clean = np.repeat(rows @ theta, lengths)
    n = clean.size
    robust_err, vanilla_err = [], []
    for seed in range(50):
        r = np.random.default_rng((0, seed, 77))
        y = clean + r.normal(0, 1, n)
        y = np.where(r.random(n) < 0.1, 50.0, y)
        est, _ = robust_least_squares(rows, lengths, y, np.random.default_rng((0, seed, 88)),
                                      query_actions=vecs, clean_scale_sq=DEFAULT_CLEAN_SCALE_SQ)
        robust_err.append(float(np.linalg.norm(est - theta)))
        vanilla_err.append(float(np.linalg.norm(vanilla_least_squares(rows, lengths, y) - theta)))
    assert float(np.median(robust_err)) <= 0.5
    assert np.mean(np.asarray(robust_err) <= 0.5) >= 0.9
    assert float(np.median(vanilla_err)) >= 2.0


def test_robust_deterministic():
    rng = np.random.default_rng(16)
    A = unit_rows(rng, 20, 3)[rng.integers(0, 20, size=300)]
    y = A @ np.array([0.5, 0.1, -0.2]) + rng.normal(size=300)
    y[:30] = 40.0
    e1, d1 = robust_least_squares(A, singles(A), y, np.random.default_rng(17),
                                  A, DEFAULT_CLEAN_SCALE_SQ)
    e2, d2 = robust_least_squares(A, singles(A), y, np.random.default_rng(17),
                                  A, DEFAULT_CLEAN_SCALE_SQ)
    assert np.array_equal(e1, e2)
    assert d1.removed_indices == d2.removed_indices


def test_query_out_of_span_raises():
    actions = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(OutOfSpan):
        robust_least_squares(actions, singles(actions), np.array([1.0, 1.0]),
                             np.random.default_rng(0),
                             query_actions=np.array([[0.0, 1.0]]),
                             clean_scale_sq=DEFAULT_CLEAN_SCALE_SQ)


def test_default_scale_constant_frozen():
    assert DEFAULT_CLEAN_SCALE_SQ == 0.75
