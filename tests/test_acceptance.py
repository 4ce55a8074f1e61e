"""Acceptance suite: ten end-to-end checks, one test per criterion.

Run `pytest tests/test_acceptance.py -v` for a one-line pass/fail verdict
per criterion.  Every tolerance is pinned; comments record the measured
margin at the time the bound was frozen.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy import stats

from rpbandits.design import ActionSet, Coreset, build_coreset, compute_design
from rpbandits.env import (
    AdversaryConfig,
    BanditInstance,
    LearnerEnv,
    generate_instance,
    observe_batch,
)
from rpbandits.harness import run_sweep
from rpbandits.policy import (
    Schedule,
    ThresholdConfig,
    default_num_rounds,
    run_elimination,
    run_vanilla_elimination,
)
from rpbandits.privacy import PrivacyParams, laplace_scale
from rpbandits.robust import (
    DEFAULT_CLEAN_SCALE_SQ,
    robust_least_squares,
    spectral_filter,
    vanilla_least_squares,
)
from rpbandits.seeding import rng_from, seed_sequence

NO_PRIVACY = PrivacyParams(enabled=False)
CLEAN = AdversaryConfig()


def unit_rows(rng, k, d):
    v = rng.normal(size=(k, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * (1.0 - 1e-12)


def test_criterion_01_design_certificate():
    # 50 random action sets: gvalue <= 2 * effective dimension and support
    # <= 4 d max(1, ln ln d), all inside 60 s.
    rng = np.random.default_rng(20250818)
    started = time.monotonic()
    for _ in range(50):
        d = int(rng.integers(2, 11))
        k = int(rng.integers(d, 201))
        design = compute_design(ActionSet(unit_rows(rng, k, d)), tol=0.25)
        assert design.gvalue <= 2.0 * design.effective_dim + 1e-9
        support_cap = 4.0 * d * max(1.0, math.log(math.log(d)))
        assert len(design.weights) <= support_cap
    assert time.monotonic() - started < 60.0


def test_criterion_02_clean_filter_equivalence():
    # 100 uncorrupted random regression problems: the robust estimator agrees
    # with plain least squares to 1e-8 in the data norm and never removes a
    # point; a clean filter call returns the empirical mean bit for bit.
    rng = np.random.default_rng(20250819)
    for trial in range(100):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(d, 60))
        vecs = unit_rows(rng, k, d)
        theta = rng.normal(size=d)
        theta /= max(1.0, float(np.linalg.norm(theta)))
        n = int(rng.integers(20, 500))
        A = vecs[rng.integers(0, k, size=n)]
        y = A @ theta + rng.normal(size=n)
        # Every observation is its own run of length 1.
        ones = np.ones(n, dtype=int)
        est, diag = robust_least_squares(A, ones, y, np.random.default_rng(trial),
                                         A, DEFAULT_CLEAN_SCALE_SQ)
        diff = est - vanilla_least_squares(A, ones, y)
        assert float(np.sqrt(diff @ (A.T @ A) @ diff)) <= 1e-8
        assert diag.removed_count == 0

    pts = np.random.default_rng(99).normal(size=(400, 3))
    mean, diag = spectral_filter(np.ones(400), pts, np.ones(400, dtype=int), 10.0,
                                 np.random.default_rng(1))
    assert diag.removed_count == 0
    assert np.array_equal(mean, pts.mean(axis=0))


def test_criterion_03_robust_estimation_under_contamination():
    # d = 5, ~2000 plays of a near-optimal design, 10% of rewards replaced by
    # +50.  Frozen margins: robust median error 0.290 (bound 0.5), vanilla
    # median 6.61 (bound 2.0).
    inst = generate_instance(dim=5, num_actions=100, seed=0)
    vecs = inst.actions.vectors
    design = compute_design(inst.actions, tol=0.05)
    coreset = build_coreset(design, budget=2000, model="M1")
    acts, lengths, _ = coreset.runs()
    rows = vecs[acts]
    clean = np.repeat(rows @ inst.theta_star, lengths)
    n = clean.size
    robust_err, vanilla_err = [], []
    for seed in range(50):
        r = np.random.default_rng((0, seed, 77))
        y = clean + r.normal(0, 1, n)
        y = np.where(r.random(n) < 0.1, 50.0, y)
        est, _ = robust_least_squares(
            rows, lengths, y, np.random.default_rng((0, seed, 88)),
            query_actions=vecs, clean_scale_sq=DEFAULT_CLEAN_SCALE_SQ,
        )
        robust_err.append(float(np.linalg.norm(est - inst.theta_star)))
        vanilla_err.append(
            float(np.linalg.norm(vanilla_least_squares(rows, lengths, y) - inst.theta_star))
        )
    assert float(np.median(robust_err)) <= 0.5
    assert float(np.median(vanilla_err)) >= 2.0


def _mean_final_regret(instance, horizon, tag, n_seeds, adversary, thr_alpha,
                       runner=run_elimination):
    sched = Schedule(horizon=horizon, num_rounds=default_num_rounds(horizon))
    cfg = ThresholdConfig(delta=0.05, alpha=thr_alpha)
    totals = []
    for seed in range(n_seeds):
        env = LearnerEnv(instance, adversary, NO_PRIVACY, seed_sequence(tag, seed, "env"))
        trace = runner(env, sched, cfg, rng_from(tag, seed, "policy"))
        totals.append(trace.final_regret)
    return float(np.mean(totals))


def test_criterion_04_sublinear_regret_trend():
    # Quadrupling the horizon must grow mean regret by at most 2.6x (a sqrt
    # law predicts 2.0; the longer run's extra rounds actually measured 0.91).
    instance = generate_instance(dim=5, num_actions=50, seed=11)
    started = time.monotonic()
    small = _mean_final_regret(instance, 20_000, "c4", 20, CLEAN, 0.0)
    large = _mean_final_regret(instance, 80_000, "c4", 20, CLEAN, 0.0)
    assert large / small <= 2.6
    assert time.monotonic() - started < 300.0


def test_criterion_05_robustness_benefit():
    # Under a 10% anti-optimal attack at T = 4e4, the robust policy's mean
    # regret is at most half the vanilla baseline's (measured ratio 0.409).
    instance = generate_instance(dim=5, num_actions=50, seed=11)
    adversary = AdversaryConfig(alpha=0.1, strategy="anti-optimal", magnitude=50.0)
    robust_mean = _mean_final_regret(
        instance, 40_000, "c5", 20, adversary, 0.1, runner=run_elimination
    )
    vanilla_mean = _mean_final_regret(
        instance, 40_000, "c5", 20, adversary, 0.1, runner=run_vanilla_elimination
    )
    assert robust_mean <= 0.5 * vanilla_mean


def test_criterion_06_optimal_arm_survival():
    # 100 clean runs at delta = 0.05: the best arm may be eliminated in at
    # most 10 of them (measured 0).  Whenever a round's realized estimation
    # error is within gamma, the best arm survives that round and every
    # survivor's true gap is at most 4 gamma.
    instance = generate_instance(dim=5, num_actions=50, seed=11)
    vectors = instance.actions.vectors
    means = instance.mean_rewards
    best_mean = float(means.max())
    optimal = instance.optimal_index
    sched = Schedule(horizon=10_000, num_rounds=default_num_rounds(10_000))
    cfg = ThresholdConfig(delta=0.05)
    eliminated = 0
    conditional_checks = 0
    for seed in range(100):
        env = LearnerEnv(instance, CLEAN, NO_PRIVACY, seed_sequence("c6", seed, "env"))
        trace = run_elimination(env, sched, cfg, rng_from("c6", seed, "policy"))
        if not trace.optimal_arm_survived():
            eliminated += 1
        for rec in trace.rounds[:-1]:
            if rec.estimate is None or rec.gamma is None:
                continue
            active = rec.active_before
            errors = np.abs(vectors[active] @ rec.estimate - means[active])
            if float(errors.max()) > rec.gamma:
                continue
            conditional_checks += 1
            if optimal in active:
                assert optimal in rec.active_after
            gaps = best_mean - means[rec.active_after]
            assert np.all(gaps <= 4.0 * rec.gamma + 1e-12)
    assert eliminated <= 10
    assert conditional_checks >= 100


def _privacy_noise(priv, rng, size, n_a=None):
    """Noise on `size` reports drawn through the environment's release path
    on a zero-mean, zero-noise instance with no adversary, 1000 clients per
    batch: per-reward (M1) clients when n_a is None, else aggregating (M2)
    clients of n_a plays."""
    per_batch = 1000
    inst = BanditInstance(
        theta_star=np.zeros(1), actions=ActionSet(np.ones((per_batch, 1))), noise="zero"
    )
    if n_a is None:
        cs = Coreset(entries=[(0, per_batch)], model="M1")
    else:
        cs = Coreset(entries=[(i, n_a) for i in range(per_batch)], model="M2")
    return np.concatenate([
        observe_batch(inst, cs, CLEAN, priv, rng)[3] for _ in range(size // per_batch)
    ])


def test_criterion_07_privacy_mechanism_distribution():
    # 1e5 reports from each client model pass a KS test against Laplace at
    # the prescribed scale (2/eps per reward, 2/(n_a eps) aggregated) at
    # level 0.01, and doubling epsilon halves the IQR within 10%.
    priv = PrivacyParams(epsilon=0.8)
    per_reward = _privacy_noise(priv, rng_from("c7", "m1"), 100_000)
    assert laplace_scale(priv, 1) == pytest.approx(2.0 / 0.8)
    assert stats.kstest(per_reward, stats.laplace(scale=2.0 / 0.8).cdf).pvalue > 0.01

    n_a = 40
    aggregated = _privacy_noise(priv, rng_from("c7", "m2"), 100_000, n_a=n_a)
    assert laplace_scale(priv, n_a) == pytest.approx(2.0 / (n_a * 0.8))
    assert stats.kstest(
        aggregated, stats.laplace(scale=2.0 / (n_a * 0.8)).cdf
    ).pvalue > 0.01

    doubled = _privacy_noise(PrivacyParams(epsilon=1.6), rng_from("c7", "m1-doubled"), 100_000)
    def iqr(x):
        return float(np.percentile(x, 75) - np.percentile(x, 25))
    assert iqr(per_reward) / iqr(doubled) == pytest.approx(2.0, rel=0.10)


def test_criterion_08_aggregate_batch_accounting(tmp_path):
    # In an aggregating-client sweep every round's play total obeys
    # sum_a n_a <= k + m (1 + k nu) as an exact integer inequality.
    nu = 0.02
    config = {
        "version": 1,
        "instance": {"generate": {"dim": 3, "num_actions": 20, "seed": 4}},
        "schedule": {"horizon": 5000, "num_rounds": 5},
        "model": "M2",
        "adversary": {"alpha": 0.05, "strategy": "sign-flip"},
        "privacy": {"enabled": True, "epsilon": 1.0},
        "threshold": {"delta": 0.05, "alpha": 0.05, "nu": nu},
        "seeds": 3,
        "baselines": ["vanilla"],
    }
    result = run_sweep(config, str(tmp_path / "m2"))
    assert result.failures == []
    rounds_checked = 0
    for trace in result.traces.values():
        assert trace.model == "M2"
        for rec in trace.rounds[:-1]:
            if rec.coreset_entries is None:
                continue
            total = sum(n for _, n in rec.coreset_entries)
            k = len(rec.coreset_entries)
            m = rec.round_budget
            assert total <= k + m * (1 + k * nu)
            rounds_checked += 1
    assert rounds_checked >= 8


def test_criterion_09_corruption_mask_concentration():
    # With n = 1e4 plays at alpha = 0.1, the clean fraction deviates from
    # 0.9 by more than 3 sqrt(alpha ln(1/delta) / n) (delta = 0.01) in fewer
    # than 2% of 1000 draws.
    inst = BanditInstance(
        theta_star=np.zeros(2), actions=ActionSet(np.eye(2)), noise="zero"
    )
    cs = Coreset(entries=[(0, 10_000)], model="M1")
    adv = AdversaryConfig(alpha=0.1, strategy="none")
    # Anchor: the direct mask rule reproduces the environment's flags (zero
    # noise consumes no draws, so the mask uniforms come first).
    for probe in range(3):
        corrupted = observe_batch(
            inst, cs, adv, NO_PRIVACY, np.random.default_rng(seed_sequence("c9", probe))
        )[2]
        mask = np.random.default_rng(seed_sequence("c9", probe)).random(10_000) >= 0.9
        assert corrupted.tolist() == mask.tolist()

    bound = 3.0 * math.sqrt(0.1 * math.log(100.0) / 10_000)
    exceed = 0
    for i in range(1000):
        mask = np.random.default_rng(seed_sequence("c9", i)).random(10_000) >= 0.9
        clean_frac = 1.0 - float(mask.mean())
        if abs(clean_frac - 0.9) > bound:
            exceed += 1
    assert exceed < 20


def test_criterion_10_reproducibility(tmp_path):
    # The same config run twice produces byte-identical trace files and
    # manifests, across every variant and with all features switched on.
    config = {
        "version": 1,
        "instance": {"generate": {"dim": 3, "num_actions": 15, "seed": 9}},
        "schedule": {"horizon": 2000, "num_rounds": 4},
        "model": "M2",
        "adversary": {"alpha": 0.1, "strategy": "anti-optimal", "magnitude": 40.0},
        "privacy": {"enabled": True, "epsilon": 1.0},
        "threshold": {"delta": 0.05, "alpha": 0.1, "nu": 0.02},
        "seeds": [0, 1],
        "baselines": ["vanilla", "non-private", "non-robust"],
        "master_seed": 2024,
    }
    first = run_sweep(config, str(tmp_path / "one"))
    second = run_sweep(config, str(tmp_path / "two"))
    assert first.failures == [] and second.failures == []
    names = sorted(os.listdir(tmp_path / "one" / "traces"))
    assert names == sorted(os.listdir(tmp_path / "two" / "traces"))
    assert len(names) == 8
    for name in names:
        a = (tmp_path / "one" / "traces" / name).read_bytes()
        b = (tmp_path / "two" / "traces" / name).read_bytes()
        assert a == b, name
    assert (tmp_path / "one" / "manifest.json").read_bytes() == (
        tmp_path / "two" / "manifest.json"
    ).read_bytes()
