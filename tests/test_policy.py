"""Policy tests: schedules, elimination widths, the elimination loop, and
trace bookkeeping."""

import json
import math
import struct
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpbandits.policy as policy_module
from rpbandits.design import ActionSet
from rpbandits.env import AdversaryConfig, BanditInstance, LearnerEnv, generate_instance
from rpbandits.errors import CheckpointOutOfRange, TooManyRemoved
from rpbandits.policy import (
    RegretTrace,
    RoundRecord,
    Schedule,
    ThresholdConfig,
    default_num_rounds,
    run_elimination,
    run_nonrobust_elimination,
    run_vanilla_elimination,
    threshold_m1,
    threshold_m2,
)
from rpbandits.privacy import PrivacyParams
from rpbandits.robust import FilterDiagnostics

NO_PRIVACY = PrivacyParams(enabled=False)
CLEAN = AdversaryConfig()


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(horizon=0, num_rounds=2)
        with pytest.raises(ValueError):
            Schedule(horizon=100, num_rounds=1)

    def test_square_horizon(self):
        sched = Schedule(horizon=100, num_rounds=2)
        assert sched.q == pytest.approx(10.0)
        assert sched.round_budgets == [10]

    def test_power_of_two_budgets(self):
        sched = Schedule(horizon=2**20, num_rounds=20)
        assert sched.q == pytest.approx(2.0)
        assert sched.round_budgets == [2**i for i in range(1, 20)]

    def test_budget_shape(self):
        for horizon, rounds in [(1000, 3), (12345, 7), (10**6, 12)]:
            budgets = Schedule(horizon, rounds).round_budgets
            assert len(budgets) == rounds - 1
            assert budgets[0] >= 1
            assert all(b1 <= b2 for b1, b2 in zip(budgets, budgets[1:]))

    def test_default_num_rounds(self):
        assert default_num_rounds(10**4) == 10
        assert default_num_rounds(100) == 5
        assert default_num_rounds(2) == 2
        assert default_num_rounds(1) == 2


class TestThresholdConfig:
    def test_delta_bounds(self):
        with pytest.raises(ValueError):
            ThresholdConfig(delta=0.0)
        with pytest.raises(ValueError):
            ThresholdConfig(delta=1.0)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            ThresholdConfig(delta=0.1, alpha=0.25)
        ThresholdConfig(delta=0.1, alpha=0.2499)

    def test_positive_constants(self):
        with pytest.raises(ValueError):
            ThresholdConfig(delta=0.1, c_gamma=0.0)
        with pytest.raises(ValueError):
            ThresholdConfig(delta=0.1, epsilon=0.0)

    def test_aggregating_model_needs_nu(self):
        with pytest.raises(ValueError, match="nu"):
            ThresholdConfig(delta=0.1, model="M2")
        ThresholdConfig(delta=0.1, model="M2", nu=0.01)


class TestThresholdM1:
    def test_golden_value(self):
        sched = Schedule(horizon=10**8, num_rounds=2)  # q^1 = 1e4
        cfg = ThresholdConfig(delta=0.01)
        assert threshold_m1(1, sched, cfg, d=4) == pytest.approx(
            0.042919320525786946, rel=1e-12
        )

    def test_clean_closed_form(self):
        sched = Schedule(horizon=10**6, num_rounds=3)  # q = 100
        cfg = ThresholdConfig(delta=0.05, c_gamma=1.7)
        for i in (1, 2):
            expected = 1.7 * math.sqrt(3 * math.log(20.0) / 100.0**i)
            assert threshold_m1(i, sched, cfg, d=3) == pytest.approx(expected, rel=1e-12)

    def test_decreasing_over_clean_rounds(self):
        sched = Schedule(horizon=10**6, num_rounds=10)
        cfg = ThresholdConfig(delta=0.05)
        widths = [threshold_m1(i, sched, cfg, d=5) for i in range(1, 10)]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_corruption_floor(self):
        sched = Schedule(horizon=10**6, num_rounds=10)
        cfg = ThresholdConfig(delta=0.05, alpha=0.08, c_gamma=2.0)
        for i in range(1, 10):
            assert threshold_m1(i, sched, cfg, d=5) >= 2.0 * 0.08

    def test_privacy_inflates_width(self):
        sched = Schedule(horizon=10**6, num_rounds=4)
        base = ThresholdConfig(delta=0.05, alpha=0.05)
        loose = ThresholdConfig(delta=0.05, alpha=0.05, epsilon=1.0)
        tight = ThresholdConfig(delta=0.05, alpha=0.05, epsilon=0.5)
        w0 = threshold_m1(1, sched, base, d=4)
        w1 = threshold_m1(1, sched, loose, d=4)
        w2 = threshold_m1(1, sched, tight, d=4)
        assert w0 < w1 < w2

    def test_round_index_starts_at_one(self):
        sched = Schedule(horizon=100, num_rounds=2)
        with pytest.raises(ValueError):
            threshold_m1(0, sched, ThresholdConfig(delta=0.1), d=2)


class TestThresholdM2:
    def test_golden_value(self):
        sched = Schedule(horizon=10**8, num_rounds=2)  # m = 1e4
        cfg = ThresholdConfig(delta=0.01, alpha=0.05, nu=0.01, model="M2", epsilon=1.0)
        assert threshold_m2(1, sched, cfg, d=5, k=12) == pytest.approx(
            17.40698100404376, rel=1e-12
        )

    def test_clean_reduces_to_sampling_term(self):
        sched = Schedule(horizon=10**8, num_rounds=2)
        cfg = ThresholdConfig(delta=0.01, nu=0.02, model="M2")
        expected = math.sqrt(6 * math.log(100.0) / (0.02 * 10**4))
        assert threshold_m2(1, sched, cfg, d=6, k=9) == pytest.approx(expected, rel=1e-12)

    def test_budget_doubling_shrinks_sampling(self):
        cfg = ThresholdConfig(delta=0.01, nu=0.05, model="M2")
        small = threshold_m2(1, Schedule(10**8, 2), cfg, d=4, k=8)  # m = 1e4
        large = threshold_m2(1, Schedule(4 * 10**8, 2), cfg, d=4, k=8)  # m = 2e4
        assert small / large == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_rounds_past_schedule_reuse_last_budget(self):
        sched = Schedule(horizon=10**8, num_rounds=2)
        cfg = ThresholdConfig(delta=0.01, alpha=0.02, nu=0.01, model="M2")
        assert threshold_m2(5, sched, cfg, d=3, k=7) == threshold_m2(1, sched, cfg, d=3, k=7)

    def test_validation(self):
        sched = Schedule(horizon=100, num_rounds=2)
        cfg = ThresholdConfig(delta=0.1, nu=0.1, model="M2")
        with pytest.raises(ValueError):
            threshold_m2(0, sched, cfg, d=2, k=3)
        with pytest.raises(ValueError):
            threshold_m2(1, sched, cfg, d=2, k=0)
        with pytest.raises(ValueError):
            threshold_m2(1, sched, ThresholdConfig(delta=0.1), d=2, k=3)


def make_trace():
    r1 = RoundRecord(
        round_index=1, active_before=[0, 1, 2], active_after=[0, 2],
        round_budget=5, batch_size=5, gamma=0.25,
        cumulative_plays=5, cumulative_regret=1.5,
    )
    r2 = RoundRecord(
        round_index=2, active_before=[0, 2], active_after=[0, 2],
        round_budget=5, batch_size=5, chosen_arm=0,
        cumulative_plays=10, cumulative_regret=6.5,
    )
    return RegretTrace(
        horizon=10, num_rounds=2, model="M1", rounds=[r1, r2],
        segments=[(3, 0.5), (2, 0.0), (5, 1.0)], optimal_arm=0,
    )


class TestRegretTrace:
    def test_play_accounting(self):
        trace = make_trace()
        assert trace.total_plays == 10
        expected = np.cumsum([0.5] * 3 + [0.0] * 2 + [1.0] * 5)
        assert [trace.cumulative_at(p) for p in range(1, 11)] == list(expected)
        assert trace.final_regret == 6.5

    def test_cumulative_at_matches_cumsum_bit_for_bit(self):
        chunk = 1 << 16
        counts = [1, 3 * chunk + 17, 5, chunk, 2 * chunk - 1,
                  400_000, 12, 300_000, 1]
        values = np.random.default_rng(11).uniform(0.0, 2.0, len(counts))
        values[2] = 0.0
        trace = RegretTrace(
            horizon=sum(counts), num_rounds=2, model="M1", rounds=[],
            segments=list(zip(counts, values.tolist())), optimal_arm=0,
        )
        assert trace.total_plays >= 10**6
        reference = np.cumsum(np.repeat(values, counts))
        ends = np.cumsum(counts)
        points = {0, trace.total_plays}
        for start, count, end in zip(ends - counts, counts, ends):
            points |= {end - 1, end, min(end + 1, trace.total_plays), start + count // 2}
            for k in range(1, count // chunk + 1):
                points |= {start + k * chunk + j for j in (-1, 0, 1)}
        for p in sorted(points):
            assert trace.cumulative_at(p) == (0.0 if p == 0 else reference[p - 1]), p
        assert trace.final_regret == reference[-1]
        # Summing each segment as count * value rounds differently, so the
        # comparison above can tell the two apart.
        assert math.fsum(counts * values) != reference[-1]

    def test_cumulative_at_memory_is_bounded(self):
        trace = RegretTrace(
            horizon=10**7, num_rounds=2, model="M1", rounds=[],
            segments=[(3, 0.25), (4_000_000, 0.1), (5_999_997, 0.3)], optimal_arm=0,
        )
        tracemalloc.start()
        try:
            mid = trace.cumulative_at(5_000_001)
            total = trace.cumulative_at(10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert 0.0 < mid < total

    def test_cumulative_at_does_no_per_play_work(self, monkeypatch):
        def per_play(*args):
            raise AssertionError("summed play by play")

        monkeypatch.setattr(policy_module, "_accumulate", per_play)
        trace = RegretTrace(
            horizon=10**12, num_rounds=2, model="M1", rounds=[],
            segments=[(10**12, 0.25)], optimal_arm=0,
        )
        assert trace.cumulative_at(10**12) == 2.5e11
        assert trace.cumulative_at(10**12 - 3) == 2.5e11 - 0.75
        assert trace.final_regret == 2.5e11

    def test_cumulative_at_checkpoints(self):
        trace = make_trace()
        assert trace.cumulative_at(0) == 0.0
        assert trace.cumulative_at(3) == pytest.approx(1.5)
        assert trace.cumulative_at(5) == pytest.approx(1.5)
        assert trace.cumulative_at(6) == pytest.approx(2.5)
        assert trace.cumulative_at(10) == pytest.approx(6.5)
        assert trace.final_regret == pytest.approx(6.5)

    def test_checkpoint_out_of_range(self):
        trace = make_trace()
        with pytest.raises(CheckpointOutOfRange):
            trace.cumulative_at(11)
        with pytest.raises(CheckpointOutOfRange):
            trace.cumulative_at(-1)

    def test_final_round_views(self):
        trace = make_trace()
        assert trace.final_active == [0, 2]
        assert trace.chosen_arm == 0
        assert trace.optimal_arm_survived()

    def test_json_round_trip(self):
        trace = make_trace()
        back = RegretTrace.from_json_dict(trace.to_json_dict())
        assert json.dumps(back.to_json_dict(), sort_keys=True) == json.dumps(
            trace.to_json_dict(), sort_keys=True
        )
        # A record with every optional field set: the bytes survive a round
        # trip, and the diagnostics keep all but removed_indices.
        trace.rounds[0] = RoundRecord(
            round_index=1, active_before=[0, 1, 2], active_after=[0, 2],
            round_budget=5, batch_size=5, gamma=0.25, estimate=np.array([0.1, -0.3]),
            coreset_entries=[(0, 3), (2, 2)], design_gvalue=2.0000000000000004,
            filter_diagnostics=FilterDiagnostics(removed_count=2, final_top_eigenvalue=0.7,
                                                 iterations=3, removed_indices=(4, 1)),
            filter_fallback=True, estimation_skipped=True, chosen_arm=2,
            cumulative_plays=5, cumulative_regret=1.5,
        )
        text = json.dumps(trace.to_json_dict(), sort_keys=True)
        assert "removed_indices" not in text
        back = RegretTrace.from_json_dict(json.loads(text))
        assert json.dumps(back.to_json_dict(), sort_keys=True) == text
        rec = back.rounds[0]
        assert rec.coreset_entries == [(0, 3), (2, 2)]
        assert rec.estimate.tolist() == [0.1, -0.3]
        assert rec.filter_diagnostics == FilterDiagnostics(2, 0.7, 3)
        assert json.loads(text)["regret_segments"] == [[3, 0.5], [2, 0.0], [5, 1.0]]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _play_by_play(total: float, value: float, plays: int) -> float:
    buf = np.full(plays + 1, value)
    buf[0] = total
    return float(np.add.accumulate(buf)[-1])


plays = st.integers(0, 2000)
totals = st.floats(0.0, 1e300)
fractions = st.sampled_from([0.0, 0.25, 0.5, 0.75]) | st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def ties(draw):
    total = draw(totals)
    return total, (draw(st.integers(0, 40)) + 0.5) * math.ulp(total)


@st.composite
def binade_edges(draw):
    # Just below, at or just above 2^e, with a value of a few units there.
    edge = 2.0 ** draw(st.integers(-1074, 1023))
    total = edge + draw(st.integers(-40, 8)) * math.ulp(edge) / 2
    return total, (draw(st.integers(0, 6)) + draw(fractions)) * math.ulp(total)


@st.composite
def powers_of_two(draw):
    return 2.0 ** draw(st.integers(-1074, 1023)), 2.0 ** draw(st.integers(-1074, 1023))


@st.composite
def subnormals(draw):
    tiny = 2.0 ** -1074
    return draw(st.integers(0, 2**53)) * tiny, draw(st.integers(1, 2**20)) * tiny


@st.composite
def near_overflow(draw):
    total = np.nextafter(np.inf, 0.0) - draw(st.integers(0, 3000)) * 2.0 ** 970
    return float(total), (draw(st.integers(0, 4)) + draw(fractions)) * 2.0 ** 971


pairs = (
    ties()
    | binade_edges()
    | powers_of_two()
    | subnormals()
    | near_overflow()
    | st.tuples(st.just(0.0), st.floats(0.0, 1e300))
    | st.tuples(totals, st.just(0.0))
    | st.tuples(totals, st.floats(0.0, 1e300))
)
fallback_pairs = st.tuples(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf, -math.inf]),
) | st.tuples(st.sampled_from([math.nan, math.inf, -math.inf, -1.5]), st.floats(0.0, 1e300))


class TestAdvance:
    """_advance(s, v, n) has np.add.accumulate's exact bits."""

    @settings(max_examples=800, deadline=None)
    @given(pairs, plays)
    def test_matches_play_by_play(self, pair, n):
        total, value = pair
        with np.errstate(over="ignore"):
            expected = _play_by_play(total, value, n)
        assert _bits(policy_module._advance(total, value, n)) == _bits(expected)

    @settings(max_examples=300, deadline=None)
    @given(fallback_pairs, plays)
    def test_fallback_inputs_match_play_by_play(self, pair, n):
        total, value = pair
        with np.errstate(all="ignore"):
            expected = _play_by_play(total, value, n)
            got = policy_module._advance(total, value, n)
        assert _bits(got) == _bits(expected) or (math.isnan(got) and math.isnan(expected))

    @pytest.mark.parametrize("total, value, n", [
        (2.0 ** 52 + 1.0, 0.5, 5),   # a tie on an odd sum moves once, then sticks
        (2.0 ** 53 - 2.0, 1.5, 5),   # even ties add 2 up to 2^53
        (1.0, 2.0 ** -53, 9),        # a tie on an even sum never moves
        (0.0, 5e-324, 10**6),        # subnormal units, exact all the way
        (1.0, 0.75, 0),              # no plays
    ])
    def test_named_edges(self, total, value, n):
        assert _bits(policy_module._advance(total, value, n)) == _bits(
            _play_by_play(total, value, n))


class TestEliminationRun:
    def test_single_arm_commits_immediately(self):
        inst = BanditInstance(
            theta_star=np.array([0.7, 0.0]),
            actions=ActionSet(np.array([[1.0, 0.0]])),
        )
        env = LearnerEnv(inst, CLEAN, seed=1)
        trace = run_elimination(
            env, Schedule(horizon=500, num_rounds=4),
            ThresholdConfig(delta=0.05), NO_PRIVACY, rng=1,
        )
        assert trace.total_plays == 500
        assert trace.final_regret == 0.0
        assert trace.chosen_arm == 0
        assert len(trace.rounds) == 1
        assert trace.rounds[0].round_index == 4

    def test_noiseless_run_eliminates_in_first_round(self):
        inst = BanditInstance(
            theta_star=np.array([0.9, 0.1]), actions=ActionSet(np.eye(2)), noise="zero"
        )
        env = LearnerEnv(inst, CLEAN, seed=2)
        trace = run_elimination(
            env, Schedule(horizon=100, num_rounds=2),
            ThresholdConfig(delta=0.05, c_gamma=1e-9), NO_PRIVACY, rng=2,
        )
        first = trace.rounds[0]
        assert first.active_after == [0]
        # All regret comes from the suboptimal arm's exploration plays.
        expected = sum(n for idx, n in first.coreset_entries if idx == 1) * 0.8
        assert trace.final_regret == pytest.approx(expected)
        assert trace.cumulative_at(first.cumulative_plays) == pytest.approx(expected)
        assert trace.chosen_arm == 0
        assert trace.total_plays == 100

    def test_invariants_on_generated_instance(self):
        inst = generate_instance(dim=3, num_actions=15, seed=5)
        env = LearnerEnv(inst, CLEAN, seed=5)
        trace = run_elimination(
            env, Schedule(horizon=3000, num_rounds=5),
            ThresholdConfig(delta=0.05), NO_PRIVACY, rng=5,
        )
        assert trace.total_plays == 3000
        assert trace.rounds[-1].cumulative_plays == 3000
        plays = [r.cumulative_plays for r in trace.rounds]
        assert plays == sorted(plays)
        cum = [trace.cumulative_at(p) for p in range(trace.total_plays + 1)]
        assert np.all(np.diff(cum) >= 0.0)

        for rec in trace.rounds[:-1]:
            assert set(rec.active_after) <= set(rec.active_before)
            assert len(rec.active_after) >= 1

    def test_recorded_rule_reproduces_survivors(self):
        inst = generate_instance(dim=4, num_actions=20, seed=8)
        env = LearnerEnv(inst, CLEAN, seed=8)
        trace = run_elimination(
            env, Schedule(horizon=4000, num_rounds=5),
            ThresholdConfig(delta=0.05), NO_PRIVACY, rng=8,
        )
        vectors = inst.actions.vectors
        checked = 0
        for rec in trace.rounds[:-1]:
            if rec.estimate is None or rec.gamma is None:
                continue
            scores = vectors[rec.active_before] @ rec.estimate
            cutoff = float(np.max(scores)) - 2.0 * rec.gamma
            survivors = [
                a for a, s in zip(rec.active_before, scores) if s >= cutoff
            ]
            assert survivors == rec.active_after
            assert rec.active_before[int(np.argmax(scores))] in rec.active_after
            checked += 1
        assert checked >= 2

    def test_vanilla_matches_robust_on_clean_data(self):
        inst = generate_instance(dim=3, num_actions=12, seed=11)
        sched = Schedule(horizon=2000, num_rounds=4)
        cfg = ThresholdConfig(delta=0.05)
        robust = run_elimination(LearnerEnv(inst, CLEAN, seed=11), sched, cfg, NO_PRIVACY, rng=11)
        vanilla = run_vanilla_elimination(
            LearnerEnv(inst, CLEAN, seed=11), sched, cfg, NO_PRIVACY, rng=11
        )
        assert robust.segments == vanilla.segments
        for r_rec, v_rec in zip(robust.rounds, vanilla.rounds):
            assert r_rec.active_after == v_rec.active_after
            if r_rec.estimate is not None:
                np.testing.assert_allclose(r_rec.estimate, v_rec.estimate, atol=1e-8)
        assert robust.final_regret == vanilla.final_regret

    def test_baseline_estimator_and_width_split(self):
        # "vanilla" zeroes the corruption terms; the non-robust ablation
        # keeps them.  Both estimate with plain least squares (no filter).
        inst = generate_instance(dim=3, num_actions=10, seed=14)
        sched = Schedule(horizon=1000, num_rounds=3)
        cfg = ThresholdConfig(delta=0.05, alpha=0.1)
        adv = AdversaryConfig(alpha=0.1, strategy="constant", magnitude=20.0)
        vanilla = run_vanilla_elimination(
            LearnerEnv(inst, adv, seed=14), sched, cfg, NO_PRIVACY, rng=14
        )
        nonrobust = run_nonrobust_elimination(
            LearnerEnv(inst, adv, seed=14), sched, cfg, NO_PRIVACY, rng=14
        )
        robust = run_elimination(
            LearnerEnv(inst, adv, seed=14), sched, cfg, NO_PRIVACY, rng=14
        )
        assert vanilla.rounds[0].gamma < nonrobust.rounds[0].gamma
        assert nonrobust.rounds[0].gamma == robust.rounds[0].gamma
        assert vanilla.rounds[0].filter_diagnostics is None
        assert nonrobust.rounds[0].filter_diagnostics is None
        assert robust.rounds[0].filter_diagnostics is not None

    def test_identical_seeds_identical_traces(self):
        inst = generate_instance(dim=3, num_actions=12, seed=21)
        adv = AdversaryConfig(alpha=0.15, strategy="anti-optimal", magnitude=30.0)
        sched = Schedule(horizon=1500, num_rounds=4)
        cfg = ThresholdConfig(delta=0.05, alpha=0.15)
        dumps = []
        for _ in range(2):
            env = LearnerEnv(inst, adv, seed=33)
            trace = run_elimination(env, sched, cfg, NO_PRIVACY, rng=33)
            dumps.append(json.dumps(trace.to_json_dict(), sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_run_trace_survives_json_round_trip(self):
        inst = generate_instance(dim=3, num_actions=10, seed=2)
        env = LearnerEnv(inst, AdversaryConfig(alpha=0.1, strategy="sign-flip"), seed=2)
        trace = run_elimination(
            env, Schedule(horizon=800, num_rounds=3),
            ThresholdConfig(delta=0.05, alpha=0.1), NO_PRIVACY, rng=2,
        )
        back = RegretTrace.from_json_dict(trace.to_json_dict())
        assert json.dumps(back.to_json_dict(), sort_keys=True) == json.dumps(
            trace.to_json_dict(), sort_keys=True
        )
        assert back.final_regret == trace.final_regret
        with pytest.raises(CheckpointOutOfRange):
            back.cumulative_at(801)

    def test_filter_breakdown_falls_back_to_vanilla(self, monkeypatch):
        diag = FilterDiagnostics(removed_count=9, final_top_eigenvalue=1.0, iterations=9)

        def explode(*args, **kwargs):
            raise TooManyRemoved("filter gave up", diagnostics=diag)

        monkeypatch.setattr(policy_module, "robust_least_squares", explode)
        inst = generate_instance(dim=3, num_actions=10, seed=6)
        env = LearnerEnv(inst, CLEAN, seed=6)
        trace = run_elimination(
            env, Schedule(horizon=500, num_rounds=3),
            ThresholdConfig(delta=0.05), NO_PRIVACY, rng=6,
        )
        exploration = trace.rounds[:-1]
        assert exploration
        for rec in exploration:
            assert rec.filter_fallback
            assert rec.filter_diagnostics.removed_count == 9
            assert rec.estimate is not None
        assert trace.total_plays == 500

    def test_unspanned_coreset_skips_elimination(self):
        # A horizon of 5 over 3 rounds leaves 2 plays for the second round,
        # which cannot span three basis arms; the round's plays still count
        # but no elimination happens.
        inst = BanditInstance(
            theta_star=np.array([0.9, 0.3, 0.1]), actions=ActionSet(np.eye(3)),
            noise="zero",
        )
        env = LearnerEnv(inst, CLEAN, seed=3)
        trace = run_elimination(
            env, Schedule(horizon=5, num_rounds=3),
            ThresholdConfig(delta=0.1, c_gamma=100.0), NO_PRIVACY, rng=3,
        )
        assert len(trace.rounds) == 3
        skipped = trace.rounds[1]
        assert skipped.estimation_skipped
        assert skipped.gamma is None
        assert skipped.active_after == skipped.active_before == [0, 1, 2]
        assert skipped.batch_size == 2
        assert trace.total_plays == 5
        assert trace.rounds[-1].round_budget == 0
        assert trace.chosen_arm == 0
        # Round 1 plays each arm once (regret 0 + 0.6 + 0.8); round 2 plays
        # the two arms that survived the budget trim (0 + 0.6).
        assert trace.final_regret == pytest.approx(2.0)


class TestDesignReuse:
    @pytest.fixture
    def computed(self, monkeypatch):
        """Empty design cache; returns the list of sets compute_design ran on."""
        monkeypatch.setattr(policy_module, "_designs", OrderedDict())
        calls = []
        real = policy_module.compute_design

        def counting(actions, tol):
            calls.append(actions.count)
            return real(actions, tol=tol)

        monkeypatch.setattr(policy_module, "compute_design", counting)
        return calls

    @staticmethod
    def action_set(k):
        return ActionSet(np.eye(4)[:k] * 0.5)

    def test_equal_content_is_a_hit(self, computed):
        first = policy_module._design_for(self.action_set(3), tol=0.25)
        again = policy_module._design_for(self.action_set(3), tol=0.25)
        assert again is first
        assert computed == [3]
        policy_module._design_for(self.action_set(3), tol=0.1)
        assert computed == [3, 3]

    def test_least_recently_used_is_evicted_at_cap(self, computed, monkeypatch):
        monkeypatch.setattr(policy_module, "DESIGN_CACHE_SIZE", 2)
        for k in (2, 3, 2, 4):  # 2 is used again before 4 evicts the oldest
            policy_module._design_for(self.action_set(k), tol=0.25)
        assert computed == [2, 3, 4]
        assert len(policy_module._designs) == 2
        policy_module._design_for(self.action_set(2), tol=0.25)
        assert computed == [2, 3, 4]
        policy_module._design_for(self.action_set(3), tol=0.25)
        assert computed == [2, 3, 4, 3]

    def test_cached_design_is_read_only(self, computed):
        design = policy_module._design_for(self.action_set(3), tol=0.25)
        with pytest.raises(TypeError):
            design.weights[0] = 1.0
        with pytest.raises(AttributeError):
            design.gvalue = 1.0
