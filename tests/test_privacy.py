import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rpbandits.design import ActionSet, Coreset
from rpbandits.env import AdversaryConfig, BanditInstance, observe_batch
from rpbandits.privacy import PrivacyParams, laplace_icdf, laplace_scale

CLIENTS_PER_BATCH = 1000


def releases(reward, params, rng, size, n_a=None):
    """`size` values released by clients whose plays all have a fixed
    reward, drawn through the environment's release path: per-reward (M1)
    clients when n_a is None, else aggregating (M2) clients of n_a plays.

    Zero reward noise and no adversary consume no draws, so the privacy
    uniforms are consecutive slots of rng however the clients are batched.
    """
    inst = BanditInstance(
        theta_star=np.array([reward]),
        actions=ActionSet(np.ones((CLIENTS_PER_BATCH, 1))),
        noise="zero",
    )
    if n_a is None:
        coreset = Coreset(entries=[(0, CLIENTS_PER_BATCH)], model="M1")
    else:
        entries = [(i, n_a) for i in range(CLIENTS_PER_BATCH)]
        coreset = Coreset(entries=entries, model="M2")
    out = [
        observe_batch(inst, coreset, AdversaryConfig(), params, rng)[3]
        for _ in range(-(-size // CLIENTS_PER_BATCH))
    ]
    return np.concatenate(out)[:size]


def test_params_validation():
    with pytest.raises(ValueError):
        PrivacyParams(epsilon=0.0, enabled=True)
    with pytest.raises(ValueError):
        PrivacyParams(epsilon=1.0, enabled=True, clip=-1.0)
    # epsilon unchecked when disabled is not allowed either; keep it positive
    p = PrivacyParams(epsilon=2.0, enabled=False)
    assert p.sensitivity == 2.0


@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan")])
def test_epsilon_is_checked_when_disabled(epsilon):
    with pytest.raises(ValueError, match="^epsilon"):
        PrivacyParams(enabled=False, epsilon=epsilon)


def test_scales():
    p = PrivacyParams(epsilon=1.0, enabled=True)
    assert laplace_scale(p, 1) == 2.0
    assert laplace_scale(p, 100) == pytest.approx(0.02)
    clipped = PrivacyParams(epsilon=1.0, enabled=True, clip=3.0)
    assert laplace_scale(clipped, 1) == 6.0
    np.testing.assert_array_equal(
        laplace_scale(p, np.array([1, 100, 1])), [2.0, laplace_scale(p, 100), 2.0]
    )
    with pytest.raises(ValueError):
        laplace_scale(p, 0)


# --------------------------------------------------------------- laplace icdf


def test_icdf_median_is_zero():
    assert laplace_icdf(0.5) == 0.0


def test_icdf_unit_quantile():
    # invert F(x) = 1 - exp(-x)/2 at x = 1
    u = 0.5 * (1 + (1 - math.exp(-1)))
    assert laplace_icdf(u) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(u=st.floats(min_value=1e-12, max_value=1 - 1e-12),
       scale=st.floats(min_value=1e-6, max_value=1e3))
def test_icdf_inverts_cdf(u, scale):
    x = laplace_icdf(u) * scale
    cdf = stats.laplace.cdf(x, scale=scale)
    assert cdf == pytest.approx(u, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(u=st.floats(min_value=1e-6, max_value=0.5))
def test_icdf_antisymmetric(u):
    # tolerance reflects the icdf slope b/(1-u) amplifying the rounding of 1-u
    slack = max(1e-12, 4e-16 * 2.0 / (1 - u) if u < 1 else 0.0)
    assert laplace_icdf(u) * 2.0 == pytest.approx(-laplace_icdf(1 - u) * 2.0, abs=slack + 1e-9)


def test_icdf_vectorized():
    us = np.array([0.25, 0.5, 0.75])
    vals = laplace_icdf(us)
    assert vals.shape == (3,)
    assert vals[1] == 0.0
    assert vals[0] == pytest.approx(-vals[2])


def test_icdf_keeps_every_bit_of_the_two_branch_form():
    # laplace_icdf takes one log per element; the reference is the form it
    # replaced, with a log per branch.  The bits, sign included, must match:
    # u = 0.5 gives -0.0, and noise = icdf * scale must not move.
    def two_branch(u):
        u = np.clip(u, 1e-300, 1.0 - 1e-16)
        return np.where(u >= 0.5, -np.log(2.0 * (1.0 - u)), np.log(2.0 * u))

    edges = [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0 - 1e-17, 1e-320]
    us = np.concatenate([np.random.default_rng(7).random(1 << 20), edges])
    np.testing.assert_array_equal(laplace_icdf(us).view(np.uint64),
                                  two_branch(us).view(np.uint64))
    for u in edges:
        assert np.asarray(laplace_icdf(u)).view(np.uint64) == two_branch(u).view(np.uint64)
    assert math.copysign(1.0, laplace_icdf(0.5)) == -1.0


def test_icdf_of_uniforms_ks():
    rng = np.random.default_rng(101)
    draws = laplace_icdf(rng.random(10**5)) * 1.5
    stat, pvalue = stats.kstest(draws, stats.laplace(scale=1.5).cdf)
    assert pvalue > 0.01


# ------------------------------------------------- release through the env


def test_disabled_is_identity():
    p = PrivacyParams(enabled=False)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert np.all(releases(0.7, p, rng, 10) == 0.7)
    # An aggregating client's mean of 100 plays is released as it is.
    inst = BanditInstance(theta_star=np.array([0.7]), actions=ActionSet(np.ones((2, 1))),
                          noise="zero")
    cs = Coreset(entries=[(0, 100), (1, 100)], model="M2")
    _, raw, _, reported = observe_batch(inst, cs, AdversaryConfig(), p, rng)
    np.testing.assert_array_equal(reported, raw)
    # identity consumes no randomness
    assert rng.bit_generator.state == before


def test_m1_noise_mean_and_variance():
    p = PrivacyParams(epsilon=1.0, enabled=True)
    rng = np.random.default_rng(7)
    draws = releases(0.0, p, rng, 10**5)
    assert abs(draws.mean()) <= 0.03
    assert draws.var() == pytest.approx(8.0, rel=0.05)  # 2 * (2/1)^2


def test_epsilon_doubling_halves_iqr():
    def iqr(eps, seed):
        p = PrivacyParams(epsilon=eps, enabled=True)
        rng = np.random.default_rng(seed)
        draws = releases(0.0, p, rng, 10**5)
        return np.percentile(draws, 75) - np.percentile(draws, 25)

    ratio = iqr(1.0, 21) / iqr(2.0, 22)
    assert ratio == pytest.approx(2.0, rel=0.10)


def test_m2_noise_variance():
    p = PrivacyParams(epsilon=1.0, enabled=True)
    rng = np.random.default_rng(8)
    draws = releases(0.0, p, rng, 10**5, n_a=100)
    assert draws.var() == pytest.approx(2 * 0.02**2, rel=0.05)


def test_m2_single_client_matches_m1_distribution():
    p = PrivacyParams(epsilon=1.0, enabled=True)
    r1, r2 = np.random.default_rng(31), np.random.default_rng(32)
    a = releases(0.0, p, r1, 20000)
    b = releases(0.0, p, r2, 20000, n_a=1)
    stat, pvalue = stats.ks_2samp(a, b)
    assert pvalue > 0.01


def test_noise_independent_of_reward_value():
    p = PrivacyParams(epsilon=1.0, enabled=True)
    samples = {}
    for i, r in enumerate((-1.0, 0.0, 1.0)):
        rng = np.random.default_rng(50 + i)
        samples[r] = releases(r, p, rng, 20000) - r
    for r in (0.0, 1.0):
        stat, pvalue = stats.ks_2samp(samples[-1.0], samples[r])
        assert pvalue > 0.01


def test_clipping_bounds_input_not_noise():
    p = PrivacyParams(epsilon=1e9, enabled=True, clip=0.5)
    rng = np.random.default_rng(9)
    out = releases(0.9, p, rng, 1)[0]
    # deterministic part clipped to 0.5; astronomically small noise
    assert out == pytest.approx(0.5, abs=1e-6)
    assert out != 0.5


def test_sub_exponential_tail():
    p = PrivacyParams(epsilon=1.0, enabled=True)
    rng = np.random.default_rng(10)
    n, delta = 10**5, 0.01
    b = laplace_scale(p, 1)
    draws = np.abs(releases(0.0, p, rng, n))
    threshold = 4 * b * math.log(n / delta)
    assert np.mean(draws > threshold) < 2 * delta
