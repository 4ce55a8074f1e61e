"""Environment tests: instances, corruption strategies, aggregation, and the
oracle/learner capability split."""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from rpbandits import env
from rpbandits.design import ActionSet, Coreset
from rpbandits.env import (
    PLAY_CHUNK,
    AdversaryConfig,
    BanditInstance,
    LearnerEnv,
    generate_instance,
    observe_batch,
)
from rpbandits.privacy import PrivacyParams, laplace_icdf, laplace_scale

DATA_DIR = Path(__file__).parent / "data"
NO_PRIVACY = PrivacyParams(enabled=False)
NO_ADVERSARY = AdversaryConfig()


def basis_instance(theta, noise="zero"):
    theta = np.asarray(theta, dtype=float)
    return BanditInstance(theta_star=theta, actions=ActionSet(np.eye(theta.size)), noise=noise)


def m1_coreset(entries):
    return Coreset(entries=list(entries), model="M1")


def m2_coreset(entries):
    return Coreset(entries=list(entries), model="M2")


class TestBanditInstance:
    def test_theta_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            BanditInstance(theta_star=np.zeros(3), actions=ActionSet(np.eye(2)))

    def test_theta_norm_above_one_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            BanditInstance(theta_star=np.array([1.2, 0.0]), actions=ActionSet(np.eye(2)))

    @pytest.mark.parametrize("theta", [[np.nan, 0.0], [0.0, np.inf]])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="finite"):
            BanditInstance(theta_star=np.array(theta), actions=ActionSet(np.eye(2)))

    def test_unknown_noise_kind_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            BanditInstance(theta_star=np.zeros(2), actions=ActionSet(np.eye(2)), noise="cauchy")

    def test_mean_rewards_and_optimal_index(self):
        acts = ActionSet(np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]]))
        inst = BanditInstance(theta_star=np.array([0.3, -0.4]), actions=acts)
        np.testing.assert_allclose(inst.mean_rewards, [0.3, -0.4, -0.14])
        assert inst.optimal_index == 0

    def test_json_round_trip(self):
        inst = generate_instance(dim=3, num_actions=12, seed=4, noise="uniform")
        back = BanditInstance.from_json_dict(inst.to_json_dict())
        np.testing.assert_array_equal(back.theta_star, inst.theta_star)
        np.testing.assert_array_equal(back.actions.vectors, inst.actions.vectors)
        assert back.noise == "uniform"

    def test_generate_deterministic_in_seed(self):
        a = generate_instance(dim=4, num_actions=30, seed=7)
        b = generate_instance(dim=4, num_actions=30, seed=7)
        c = generate_instance(dim=4, num_actions=30, seed=8)
        np.testing.assert_array_equal(a.theta_star, b.theta_star)
        np.testing.assert_array_equal(a.actions.vectors, b.actions.vectors)
        assert not np.array_equal(a.theta_star, c.theta_star)

    def test_generate_respects_norm_constraints(self):
        inst = generate_instance(dim=5, num_actions=40, seed=3, theta_norm=0.5)
        norms = np.linalg.norm(inst.actions.vectors, axis=1)
        assert np.all(norms <= 1.0)
        assert np.linalg.norm(inst.theta_star) == pytest.approx(0.5, abs=1e-12)

    def test_generate_rejects_bad_theta_norm(self):
        with pytest.raises(ValueError, match="theta_norm"):
            generate_instance(dim=2, num_actions=4, seed=0, theta_norm=1.5)


class TestRegretOracle:
    def test_optimal_arm_has_zero_regret(self):
        inst = basis_instance([0.7, 0.2])
        assert inst.regrets[0] == 0.0
        assert inst.regrets[1] == pytest.approx(0.5)

    def test_matches_brute_force_gaps(self):
        inst = generate_instance(dim=4, num_actions=25, seed=9)
        means = inst.actions.vectors @ inst.theta_star
        best = means.max()
        for i in range(25):
            assert inst.regrets[i] == pytest.approx(best - means[i], abs=1e-12)

    def test_oracle_exposes_hidden_state(self):
        inst = basis_instance([0.4, 0.1, -0.2])
        oracle = LearnerEnv(inst, NO_ADVERSARY, NO_PRIVACY, np.random.SeedSequence(0)).oracle
        np.testing.assert_array_equal(oracle.theta_star, inst.theta_star)
        assert oracle.optimal_index == 0
        assert oracle.regrets[2] == pytest.approx(0.6)
        assert not oracle.regrets.flags.writeable


class TestAdversaryConfig:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            AdversaryConfig(alpha=-0.01)
        with pytest.raises(ValueError):
            AdversaryConfig(alpha=0.25)
        AdversaryConfig(alpha=0.2499)  # boundary inside the open interval

    def test_magnitude_cap(self):
        with pytest.raises(ValueError):
            AdversaryConfig(magnitude=100.5)
        AdversaryConfig(magnitude=100.0)

    def test_unknown_strategy_and_stage(self):
        with pytest.raises(ValueError):
            AdversaryConfig(strategy="gaussian-shift")
        with pytest.raises(ValueError):
            AdversaryConfig(corrupt_stage="mid-privacy")


class TestPerRewardClean:
    def test_zero_noise_reports_exact_means(self):
        inst = basis_instance([0.9, -0.3])
        cs = m1_coreset([(0, 3), (1, 2)])
        acts, raw, corrupted, reported = observe_batch(
            inst, cs, NO_ADVERSARY, NO_PRIVACY, np.random.default_rng(0)
        )
        assert acts.tolist() == [0, 0, 0, 1, 1]
        assert reported.tolist() == [0.9, 0.9, 0.9, -0.3, -0.3]
        assert not corrupted.any()
        np.testing.assert_array_equal(raw, reported)

    def test_gaussian_alpha_zero_never_flags(self):
        inst = basis_instance([0.5, 0.0], noise="gaussian")
        cs = m1_coreset([(0, 50), (1, 50)])
        _, raw, corrupted, reported = observe_batch(
            inst, cs, NO_ADVERSARY, NO_PRIVACY, np.random.default_rng(1)
        )
        assert not corrupted.any()
        np.testing.assert_array_equal(raw, reported)

    def test_empty_coreset_yields_no_observations(self):
        inst = basis_instance([0.5, 0.0])
        cs = Coreset(entries=[], model="M1")
        batch = observe_batch(inst, cs, NO_ADVERSARY, NO_PRIVACY, np.random.default_rng(0))
        assert [a.size for a in batch] == [0, 0, 0, 0]


class TestPerRewardCorruption:
    def test_tiny_alpha_rarely_fires(self):
        inst = basis_instance([0.5, 0.0])
        cs = m1_coreset([(0, 500), (1, 500)])
        adv = AdversaryConfig(alpha=1e-9, strategy="constant", magnitude=50.0)
        corrupted = observe_batch(inst, cs, adv, NO_PRIVACY, np.random.default_rng(42))[2]
        assert corrupted.sum() == 0

    def test_interception_fraction_near_alpha(self):
        inst = basis_instance([0.5, 0.0], noise="gaussian")
        cs = m1_coreset([(0, 200), (1, 200)])
        adv = AdversaryConfig(alpha=0.1, strategy="constant", magnitude=50.0)
        hits = 0
        total = 0
        for seed in range(50):
            corrupted = observe_batch(inst, cs, adv, NO_PRIVACY, np.random.default_rng(seed))[2]
            hits += int(corrupted.sum())
            total += corrupted.size
        frac = hits / total
        band = 4.0 * np.sqrt(0.1 * 0.9 / total)
        assert abs(frac - 0.1) <= band

    def test_constant_strategy_replaces_exactly(self):
        inst = basis_instance([0.9, -0.3])
        cs = m1_coreset([(0, 200), (1, 200)])
        adv = AdversaryConfig(alpha=0.2, strategy="constant", magnitude=7.0)
        _, raw, corrupted, reported = observe_batch(
            inst, cs, adv, NO_PRIVACY, np.random.default_rng(3)
        )
        assert corrupted.sum() > 10
        assert np.all(reported[corrupted] == 7.0)
        np.testing.assert_array_equal(reported[~corrupted], raw[~corrupted])
        # the raw reward keeps the pre-corruption value
        assert np.all(np.isin(raw[corrupted], [0.9, -0.3]))

    def test_sign_flip_negates_clean_value(self):
        inst = basis_instance([0.9, -0.3])
        cs = m1_coreset([(0, 150), (1, 150)])
        adv = AdversaryConfig(alpha=0.2, strategy="sign-flip")
        _, raw, corrupted, reported = observe_batch(
            inst, cs, adv, NO_PRIVACY, np.random.default_rng(5)
        )
        assert corrupted.sum() > 10
        np.testing.assert_array_equal(reported[corrupted], -raw[corrupted])

    def test_anti_optimal_targets_worst_arm_in_coreset(self):
        # Arm 2 is the global worst but sits outside the coreset, so the
        # boost goes to arm 1, the worst among the arms actually played.
        acts = ActionSet(np.array([[1.0, 0.0], [0.5, 0.0], [-1.0, 0.0]]))
        inst = BanditInstance(theta_star=np.array([0.9, 0.0]), actions=acts, noise="zero")
        cs = m1_coreset([(0, 300), (1, 300)])
        adv = AdversaryConfig(alpha=0.2, strategy="anti-optimal", magnitude=11.0)
        acts, _, corrupted, reported = observe_batch(
            inst, cs, adv, NO_PRIVACY, np.random.default_rng(8)
        )
        assert set(acts[corrupted].tolist()) == {0, 1}
        np.testing.assert_array_equal(
            reported[corrupted], np.where(acts[corrupted] == 1, 11.0, -11.0)
        )

    def test_none_strategy_draws_mask_but_keeps_values(self):
        inst = basis_instance([0.9, -0.3])
        cs = m1_coreset([(0, 200), (1, 200)])
        adv = AdversaryConfig(alpha=0.2, strategy="none")
        _, raw, corrupted, reported = observe_batch(
            inst, cs, adv, NO_PRIVACY, np.random.default_rng(6)
        )
        assert corrupted.sum() > 10
        np.testing.assert_array_equal(reported, raw)

    def test_mask_independent_of_noise_sign(self):
        # theta = 0 makes the clean reward pure noise; interception flags
        # come from a separate stream segment and must not track its sign.
        inst = basis_instance([0.0, 0.0], noise="gaussian")
        cs = m1_coreset([(0, 10_000)])
        adv = AdversaryConfig(alpha=0.2, strategy="none")
        _, raw, hit, _ = observe_batch(inst, cs, adv, NO_PRIVACY, np.random.default_rng(12))
        pos = raw > 0
        table = np.array([
            [np.sum(pos & hit), np.sum(pos & ~hit)],
            [np.sum(~pos & hit), np.sum(~pos & ~hit)],
        ])
        assert table.min() > 100
        _, pvalue, _, _ = stats.chi2_contingency(table)
        assert pvalue > 0.01


class TestPerRewardDrawOrder:
    """Draws sit at fixed stream slots: noise, then mask, then privacy."""

    def test_noise_slots_unchanged_by_alpha(self):
        inst = basis_instance([0.5, -0.2], noise="gaussian")
        cs = m1_coreset([(0, 40), (1, 40)])
        adv = AdversaryConfig(alpha=0.15, strategy="constant", magnitude=9.0)
        base = observe_batch(inst, cs, NO_ADVERSARY, NO_PRIVACY, np.random.default_rng(21))
        with_adv = observe_batch(inst, cs, adv, NO_PRIVACY, np.random.default_rng(21))
        np.testing.assert_array_equal(base[1], with_adv[1])

    def test_mask_slots_unchanged_by_privacy(self):
        inst = basis_instance([0.5, -0.2], noise="gaussian")
        cs = m1_coreset([(0, 60), (1, 60)])
        adv = AdversaryConfig(alpha=0.15, strategy="constant", magnitude=9.0)
        _, raw_off, flags_off, rep_off = observe_batch(
            inst, cs, adv, NO_PRIVACY, np.random.default_rng(22)
        )
        _, raw_on, flags_on, rep_on = observe_batch(
            inst, cs, adv, PrivacyParams(epsilon=1.0), np.random.default_rng(22)
        )
        np.testing.assert_array_equal(flags_off, flags_on)
        np.testing.assert_array_equal(raw_off, raw_on)
        assert np.all(rep_off != rep_on)


class TestPerRewardPrivacyStages:
    def test_pre_privacy_noise_lands_on_corrupt_value(self):
        # Zero noise consumes no draws, so the stream is mask then privacy
        # uniforms and every reported value can be reproduced exactly.
        inst = basis_instance([0.9, -0.3])
        cs = m1_coreset([(0, 30), (1, 30)])
        adv = AdversaryConfig(alpha=0.2, strategy="constant", magnitude=7.0)
        priv = PrivacyParams(epsilon=0.5)
        _, _, corrupted, reported = observe_batch(inst, cs, adv, priv, np.random.default_rng(9))

        rng = np.random.default_rng(9)
        mask = rng.random(60) >= 0.8
        noise = laplace_icdf(rng.random(60)) * laplace_scale(priv, 1)
        means = np.repeat([0.9, -0.3], 30)
        expected = np.where(mask, 7.0, means) + noise
        np.testing.assert_array_equal(reported, expected)
        assert corrupted.tolist() == mask.tolist()

    def test_post_privacy_corruption_overrides_noise(self):
        inst = basis_instance([0.9, -0.3])
        cs = m1_coreset([(0, 100), (1, 100)])
        adv = AdversaryConfig(
            alpha=0.2, strategy="constant", magnitude=7.0, corrupt_stage="post-privacy"
        )
        _, raw, corrupted, reported = observe_batch(
            inst, cs, adv, PrivacyParams(epsilon=1.0), np.random.default_rng(10)
        )
        assert corrupted.sum() > 10
        assert np.all(reported[corrupted] == 7.0)
        assert np.all(reported[~corrupted] != raw[~corrupted])  # Laplace noise present

    def test_clip_bounds_released_values(self):
        inst = basis_instance([0.9, -0.3])
        cs = m1_coreset([(0, 100), (1, 100)])
        adv = AdversaryConfig(alpha=0.2, strategy="constant", magnitude=7.0)
        clipped = PrivacyParams(enabled=False, clip=0.5)
        _, _, corrupted, reported = observe_batch(inst, cs, adv, clipped, np.random.default_rng(11))
        assert np.all(np.abs(reported) <= 0.5)
        assert np.all(reported[corrupted] == 0.5)


class TestAggregatingClients:
    def test_one_report_per_distinct_action(self):
        inst = basis_instance([0.9, 0.0, -0.3])
        cs = m2_coreset([(0, 5), (2, 7)])
        acts, raw, _, reported = observe_batch(
            inst, cs, NO_ADVERSARY, NO_PRIVACY, np.random.default_rng(0)
        )
        assert acts.tolist() == [0, 2]
        assert reported.tolist() == [0.9, -0.3]
        assert raw.tolist() == [0.9, -0.3]

    def test_raw_reward_is_clean_group_mean(self):
        inst = basis_instance([0.6, 0.0], noise="gaussian")
        cs = m2_coreset([(0, 50), (1, 50)])
        rng = np.random.default_rng(31)
        raw = observe_batch(inst, cs, NO_ADVERSARY, NO_PRIVACY, rng)[1]
        draws = np.repeat([0.6, 0.0], 50) + np.random.default_rng(31).standard_normal(100)
        assert raw[0] == pytest.approx(draws[:50].mean(), abs=1e-12)
        assert raw[1] == pytest.approx(draws[50:].mean(), abs=1e-12)

    def test_aggregation_shrinks_noise_std(self):
        inst = basis_instance([0.4, 0.0], noise="gaussian")
        cs = m2_coreset([(0, 400)])
        devs = []
        for seed in range(200):
            reported = observe_batch(
                inst, cs, NO_ADVERSARY, NO_PRIVACY, np.random.default_rng(seed)
            )[3]
            devs.append(reported[0] - 0.4)
        measured = np.std(devs)
        assert measured == pytest.approx(1.0 / 20.0, rel=0.15)

    def test_raw_draw_interception_probability(self):
        # Default mode intercepts individual draws, so a group of n_a draws
        # is flagged with probability 1 - (1 - alpha)^n_a.
        inst = basis_instance([0.5, 0.0])
        entries = [(0, 20)]
        cs = m2_coreset(entries)
        adv = AdversaryConfig(alpha=0.05, strategy="constant", magnitude=5.0)
        flags = [
            observe_batch(inst, cs, adv, NO_PRIVACY, np.random.default_rng(seed))[2][0]
            for seed in range(1000)
        ]
        p = 1.0 - 0.95**20
        frac = np.mean(flags)
        assert abs(frac - p) <= 4.0 * np.sqrt(p * (1 - p) / 1000)

    def test_raw_draw_corruption_is_averaged_in(self):
        # Zero noise consumes no draws, so the raw mask can be replayed and
        # the diluted aggregate checked exactly.
        inst = basis_instance([0.9, 0.0])
        cs = m2_coreset([(0, 10), (1, 10)])
        adv = AdversaryConfig(alpha=0.2, strategy="constant", magnitude=10.0)
        _, raw, corrupted, reported = observe_batch(
            inst, cs, adv, NO_PRIVACY, np.random.default_rng(17)
        )

        mask = np.random.default_rng(17).random(20) >= 0.8
        for j, (mean, sl) in enumerate([(0.9, slice(0, 10)), (0.0, slice(10, 20))]):
            hits = int(mask[sl].sum())
            expected = (hits * 10.0 + (10 - hits) * mean) / 10.0
            assert reported[j] == pytest.approx(expected, abs=1e-12)
            assert corrupted[j] == (hits > 0)
            assert raw[j] == mean

    def test_aggregate_mode_corrupts_whole_report(self):
        inst = basis_instance([0.9, 0.0])
        cs = m2_coreset([(0, 10), (1, 10)])
        adv = AdversaryConfig(
            alpha=0.2, strategy="constant", magnitude=10.0, aggregate_corruption=True
        )
        hits = 0
        for seed in range(300):
            _, raw, corrupted, reported = observe_batch(
                inst, cs, adv, NO_PRIVACY, np.random.default_rng(seed)
            )
            hits += int(corrupted.sum())
            assert np.all(reported[corrupted] == 10.0)
            np.testing.assert_array_equal(reported[~corrupted], raw[~corrupted])
        # One decision per report at probability alpha, not per raw draw.
        frac = hits / 600
        assert abs(frac - 0.2) <= 4.0 * np.sqrt(0.2 * 0.8 / 600)

    def test_post_privacy_stage_implies_aggregate_mode(self):
        # Raw draws are never released post-privacy, so the adversary can
        # only touch the aggregated report, even without the explicit flag.
        inst = basis_instance([0.9, 0.0])
        cs = m2_coreset([(0, 10), (1, 10)])
        adv = AdversaryConfig(
            alpha=0.2, strategy="constant", magnitude=10.0, corrupt_stage="post-privacy"
        )
        found = 0
        for seed in range(200):
            _, _, corrupted, reported = observe_batch(
                inst, cs, adv, PrivacyParams(epsilon=1.0), np.random.default_rng(seed)
            )
            found += int(corrupted.sum())
            assert np.all(reported[corrupted] == 10.0)  # exact despite privacy noise
        assert found > 10

    def test_privacy_scale_matches_group_size(self):
        # alpha = 0 and zero noise leave only the privacy uniforms in the
        # stream; replay them to check the per-group scale 2 / (n_a eps).
        inst = basis_instance([0.9, 0.0])
        cs = m2_coreset([(0, 100), (1, 400)])
        priv = PrivacyParams(epsilon=0.5)
        reported = observe_batch(inst, cs, NO_ADVERSARY, priv, np.random.default_rng(19))[3]

        unit = laplace_icdf(np.random.default_rng(19).random(2))
        expected = np.array([0.9, 0.0]) + unit * np.array(
            [laplace_scale(priv, 100), laplace_scale(priv, 400)]
        )
        # Summing n_a identical terms leaves ulp-level fuzz in the group mean.
        np.testing.assert_allclose(reported, expected, rtol=0, atol=1e-12)


class TestLearnerEnv:
    def test_capability_split(self):
        inst = generate_instance(dim=3, num_actions=10, seed=2)
        env = LearnerEnv(inst, NO_ADVERSARY, NO_PRIVACY, seed=np.random.SeedSequence(5))
        assert not hasattr(env, "theta_star")
        assert not hasattr(env, "optimal_index")
        assert env.privacy is NO_PRIVACY
        np.testing.assert_array_equal(env.actions.vectors, inst.actions.vectors)
        np.testing.assert_array_equal(env.oracle.theta_star, inst.theta_star)

    def test_play_batch_returns_reported_values_only(self):
        inst = basis_instance([0.8, 0.1], noise="gaussian")
        adv = AdversaryConfig(alpha=0.1, strategy="constant")
        cs = m1_coreset([(0, 4), (1, 3)])
        env = LearnerEnv(inst, adv, NO_PRIVACY, seed=np.random.SeedSequence(7))
        reports = env.play_batch(cs, round_index=0)
        assert reports.shape == (7,) and reports.dtype == np.float64
        ss = np.random.SeedSequence(entropy=7, spawn_key=(0,))
        direct = observe_batch(inst, cs, adv, NO_PRIVACY, np.random.default_rng(ss))
        np.testing.assert_array_equal(reports, direct[3])

    def test_play_batch_matches_direct_call(self):
        inst = basis_instance([0.8, 0.1], noise="gaussian")
        adv = AdversaryConfig(alpha=0.1, strategy="sign-flip")
        cs = m1_coreset([(0, 20), (1, 20)])
        env = LearnerEnv(inst, adv, NO_PRIVACY, seed=np.random.SeedSequence(13))
        reports = env.play_batch(cs, round_index=3)

        ss = np.random.SeedSequence(entropy=13, spawn_key=(3,))
        direct = observe_batch(inst, cs, adv, NO_PRIVACY, np.random.default_rng(ss))
        np.testing.assert_array_equal(reports, direct[3])

    @pytest.mark.parametrize("adv", [
        AdversaryConfig(alpha=0.2, strategy="anti-optimal"),
        AdversaryConfig(alpha=0.2, strategy="sign-flip"),
        AdversaryConfig(alpha=0.2, strategy="anti-optimal", aggregate_corruption=True),
        AdversaryConfig(alpha=0.2, strategy="constant", corrupt_stage="post-privacy"),
    ], ids=["per-draw", "per-draw-sign-flip", "aggregate", "post-privacy"])
    def test_m2_play_batch_matches_direct_call(self, adv):
        # play_batch keeps no raw values, so under per-draw corruption it
        # skips the client means that the mask stage recomputes, which
        # observe_batch keeps.  The batch holds more plays than a chunk: one
        # client larger than a chunk (a chunk inside one run) and two that
        # share a chunk.
        inst = basis_instance([0.8, 0.1, -0.5], noise="gaussian")
        cs = m2_coreset([(0, PLAY_CHUNK + 3000), (1, 3000), (2, 9000)])
        env = LearnerEnv(inst, adv, PrivacyParams(epsilon=1.0), seed=np.random.SeedSequence(13))
        reports = env.play_batch(cs, round_index=3)

        ss = np.random.SeedSequence(entropy=13, spawn_key=(3,))
        direct = observe_batch(inst, cs, adv, PrivacyParams(epsilon=1.0),
                               np.random.default_rng(ss))
        np.testing.assert_array_equal(reports.view(np.uint64), direct[3].view(np.uint64))

    def test_rounds_use_distinct_streams(self):
        inst = basis_instance([0.8, 0.1], noise="gaussian")
        env = LearnerEnv(inst, NO_ADVERSARY, NO_PRIVACY, seed=np.random.SeedSequence(4))
        cs = m1_coreset([(0, 10)])
        a = env.play_batch(cs, round_index=0)
        b = env.play_batch(cs, round_index=1)
        assert not np.array_equal(a, b)

    def test_same_seed_same_history(self):
        inst = generate_instance(dim=3, num_actions=15, seed=6, noise="gaussian")
        adv = AdversaryConfig(alpha=0.15, strategy="anti-optimal")
        cs = m1_coreset([(0, 8), (4, 8), (9, 8)])
        histories = []
        for _ in range(2):
            env = LearnerEnv(inst, adv, NO_PRIVACY, seed=np.random.SeedSequence(99))
            histories.append(
                [env.play_batch(cs, round_index=r) for r in range(3)]
            )
        np.testing.assert_array_equal(histories[0], histories[1])

    def test_seed_sequence_accepted(self):
        # Round i draws from the seed with i appended to its spawn key.
        inst = basis_instance([0.8, 0.1], noise="gaussian")
        cs = m1_coreset([(0, 5)])
        env = LearnerEnv(inst, NO_ADVERSARY, NO_PRIVACY,
                         seed=np.random.SeedSequence(21).spawn(2)[1])
        ss = np.random.SeedSequence(entropy=21, spawn_key=(1, 0))
        direct = observe_batch(inst, cs, NO_ADVERSARY, NO_PRIVACY, np.random.default_rng(ss))
        np.testing.assert_array_equal(env.play_batch(cs, 0), direct[3])

    def test_m2_coreset_dispatches_to_aggregation(self):
        inst = basis_instance([0.8, 0.1, -0.5], noise="gaussian")
        env = LearnerEnv(inst, NO_ADVERSARY, NO_PRIVACY, seed=np.random.SeedSequence(2))
        cs = m2_coreset([(0, 6), (1, 6), (2, 6)])
        reports = env.play_batch(cs, 0)
        assert reports.shape == (3,)
        ss = np.random.SeedSequence(entropy=2, spawn_key=(0,))
        acts, raw, _, reported = observe_batch(
            inst, cs, NO_ADVERSARY, NO_PRIVACY, np.random.default_rng(ss)
        )
        assert acts.tolist() == [0, 1, 2]
        np.testing.assert_array_equal(reports, reported)
        np.testing.assert_array_equal(reports, raw)


def test_observe_batch_matches_golden():
    # env_golden.json was recorded from the separate per-reward and
    # aggregating generators that observe_batch replaced: every combination
    # of the axes below on one mixed-count coreset, the same stream seed
    # each time.  Floats are stored by repr, so each field must match
    # exactly.  Per case the file holds the corrupted flags as a 0/1 string
    # and indices into "values" for the raw and reported arrays.
    golden = json.loads((DATA_DIR / "env_golden.json").read_text())
    axes = golden["axes"]
    entries = [tuple(e) for e in golden["entries"]]
    combos = list(itertools.product(*axes.values()))
    assert len(combos) == len(golden["cases"]) == 960
    for combo, (flags, raw_at, reported_at) in zip(combos, golden["cases"]):
        case = dict(zip(axes, combo))
        inst = BanditInstance(
            theta_star=np.array(golden["theta"]),
            actions=ActionSet(np.eye(len(golden["theta"]))),
            noise=case["noise"],
        )
        model = case["model"]
        cs = Coreset(entries=entries, model=model)
        adv = AdversaryConfig(
            alpha=case["alpha"], strategy=case["strategy"], magnitude=golden["magnitude"],
            corrupt_stage=case["corrupt_stage"],
            aggregate_corruption=case["aggregate_corruption"],
        )
        priv = PrivacyParams(epsilon=golden["epsilon"], enabled=case["privacy"], clip=case["clip"])
        acts, raw, corrupted, reported = observe_batch(
            inst, cs, adv, priv, np.random.default_rng(golden["seed"])
        )
        assert acts.tolist() == golden["actions"][model], case
        assert "".join("1" if c else "0" for c in corrupted) == flags, case
        assert raw.tolist() == golden["values"][raw_at], case
        assert reported.tolist() == golden["values"][reported_at], case


def array_digest(arr: np.ndarray) -> list:
    """sha256 of an array's bytes, with its shape and dtype."""
    arr = np.ascontiguousarray(arr)
    return [hashlib.sha256(arr.tobytes()).hexdigest(), list(arr.shape), str(arr.dtype)]


def chunk_golden_batches(golden: dict):
    """Every case of env_chunks_golden.json: (case, observe_batch arguments).

    The noise kind cycles with the case index, so every kind meets every
    model, stage and strategy without tripling the cases.
    """
    axes = golden["axes"]
    entries = [tuple(e) for e in golden["entries"]]
    for i, combo in enumerate(itertools.product(*axes.values())):
        case = dict(zip(axes, combo))
        case["noise"] = golden["noise_cycle"][i % len(golden["noise_cycle"])]
        inst = BanditInstance(
            theta_star=np.array(golden["theta"]),
            actions=ActionSet(np.eye(len(golden["theta"]))),
            noise=case["noise"],
        )
        model = case["model"]
        cs = Coreset(entries=entries, model=model)
        adv = AdversaryConfig(
            alpha=case["alpha"], strategy=case["strategy"], magnitude=golden["magnitude"],
            corrupt_stage=case["corrupt_stage"],
            aggregate_corruption=case["aggregate_corruption"],
        )
        priv = PrivacyParams(epsilon=golden["epsilon"], enabled=case["privacy"], clip=case["clip"])
        yield case, (inst, cs, adv, priv, np.random.default_rng(golden["seed"]))


def test_observe_batch_matches_chunk_golden():
    # env_chunks_golden.json was recorded from a whole-batch observe_batch
    # that drew and transformed every play at once.  Its coreset has 61,010
    # plays, more than three chunks of PLAY_CHUNK plus a remainder: M1 entries
    # straddle chunk ends, and M2 has clients both larger and smaller than a
    # chunk.  Each returned array must match bit for bit.
    golden = json.loads((DATA_DIR / "env_chunks_golden.json").read_text())
    total = sum(n for _, n in golden["entries"])
    assert total > 3 * PLAY_CHUNK and total % PLAY_CHUNK
    cases = list(chunk_golden_batches(golden))
    assert len(cases) == len(golden["cases"]) == 320
    for (case, args), expected in zip(cases, golden["cases"]):
        got = [array_digest(a) for a in observe_batch(*args)]
        assert got == expected, case


@pytest.mark.parametrize("chunk", [PLAY_CHUNK, 5])
def test_chunks_cover_whole_clients_within_the_bound(monkeypatch, chunk):
    # Every stage of a batch runs over _chunks' plan: per-play stages slice
    # plays [p0, p1), per-client ones clients [c0, c1), and under M2 both
    # reduceat a chunk's plays into its clients.  Runs of one-play clients
    # (M1) are long, and runs of few clients hold more plays than a chunk (M2).
    monkeypatch.setattr(env, "PLAY_CHUNK", chunk)
    rng = np.random.default_rng(0)
    for _ in range(300):
        n_runs = int(rng.integers(0, 8))
        single = rng.random(n_runs) < 0.5
        counts = np.where(single, 1, rng.integers(1, 3 * chunk, n_runs))
        lengths = np.where(single, rng.integers(1, 3 * chunk, n_runs), rng.integers(1, 4, n_runs))
        client_ends = np.concatenate([[0], np.cumsum(np.repeat(counts, lengths))])
        c = p = 0
        for c0, c1, p0, p1 in env._chunks(lengths, counts):
            assert (c0, p0) == (c, p) and c1 > c0
            assert (p0, p1) == (client_ends[c0], client_ends[c1])
            assert p1 - p0 <= chunk or c1 - c0 == 1
            c, p = c1, p1
        assert (c, p) == (lengths.sum(), client_ends[-1])


def test_observe_batch_bytes_do_not_depend_on_the_chunk_size(monkeypatch):
    # A chunk's run plan clips the first and last runs it spans to the
    # clients and plays inside the chunk.  At PLAY_CHUNK = 5 or 7, M1 runs
    # straddle chunk ends and M2 clients are both larger and smaller than a
    # chunk; every array must keep the bytes of the same batch in one chunk.
    rng = np.random.default_rng(5)
    privacies = [NO_PRIVACY, PrivacyParams(epsilon=1.0), PrivacyParams(epsilon=0.5, clip=0.6)]
    for trial, noise in enumerate(("gaussian", "uniform", "zero", "gaussian")):
        theta = rng.standard_normal(6)
        inst = basis_instance(theta / (1.01 * np.linalg.norm(theta)), noise=noise)
        counts = rng.permutation(np.concatenate([rng.integers(1, 5, 2), rng.integers(8, 20, 2)]))
        support = np.sort(rng.choice(6, counts.size, replace=False))
        entries = [(int(i), int(n)) for i, n in zip(support, counts)]
        for model, strategy, stage, aggregate, priv in itertools.product(
                ("M1", "M2"), env.STRATEGIES, env.CORRUPT_STAGES, (False, True), privacies):
            cs = Coreset(entries=entries, model=model)
            adv = AdversaryConfig(alpha=0.2, strategy=strategy, magnitude=9.0,
                                  corrupt_stage=stage, aggregate_corruption=aggregate)
            played = {}
            for chunk in (PLAY_CHUNK, 5, 7):
                monkeypatch.setattr(env, "PLAY_CHUNK", chunk)
                batch = observe_batch(inst, cs, adv, priv, np.random.default_rng(trial))
                played[chunk] = [array_digest(a) for a in batch]
            case = (entries, model, strategy, stage, aggregate, priv)
            assert played[5] == played[PLAY_CHUNK] == played[7], case
