"""Bandit environments with probabilistic reward corruption.

Each scheduled play yields a clean reward <a, theta*> + noise.  An adversary
independently intercepts each observation with probability alpha and replaces
it according to its strategy; privacy noise is added afterwards by default
(corrupt_stage "pre-privacy") or before the adversary acts ("post-privacy").

A batch is played by clients, each of which averages the n_a plays it holds
and sends one report.  Per-reward clients (M1) hold a single play each, so
every play is reported; aggregating clients (M2) hold all plays of one
action, so there is one report per distinct action.  A coreset entry is a
run of clients on one action (Coreset.runs): n_a clients of one play under
M1, one client of n_a plays under M2.  By default the adversary corrupts
individual raw draws, and an aggregate-corruption mode corrupts the single
averaged report instead; for a client of one play the two coincide.

Randomness layout: every batch consumes one derived stream, drawing noise
for every play, then corruption uniforms, then privacy uniforms, in that
order.  A play's draws therefore live at fixed stream positions (its client
slot), independent of processing order, which keeps batch generation
parallelizable across clients with results identical to sequential
execution.  The batch is processed stage by stage (noise, mask, privacy),
each stage in chunks of at most PLAY_CHUNK plays of whole clients, so a
stage draws from the stream in the same order as one whole-batch draw while
its temporaries stay bounded.  What scales with the batch is one float per
play and one flag per client; under M1 the per-play floats become the
reports in place.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .design import ActionSet, Coreset
from .privacy import PrivacyParams, laplace_icdf, laplace_scale
from .seeding import derive_entropy

NOISE_KINDS = ("gaussian", "uniform", "zero")
STRATEGIES = ("none", "constant", "large-positive", "sign-flip", "anti-optimal")
CORRUPT_STAGES = ("pre-privacy", "post-privacy")
MAX_MAGNITUDE = 100.0


@dataclass(frozen=True)
class BanditInstance:
    """Hidden parameter, action set, and noise model."""

    theta_star: np.ndarray
    actions: ActionSet
    noise: str = "gaussian"

    def __post_init__(self):
        theta = np.asarray(self.theta_star, dtype=float)
        if theta.ndim != 1 or theta.shape[0] != self.actions.dim:
            raise ValueError("theta_star must be a vector matching the action dimension")
        if not (np.linalg.norm(theta) <= 1.0 + 1e-9):
            raise ValueError("theta_star must be finite with norm at most 1")
        if self.noise not in NOISE_KINDS:
            raise ValueError(f"noise must be one of {NOISE_KINDS}, got {self.noise!r}")
        object.__setattr__(self, "theta_star", theta)

    @cached_property
    def mean_rewards(self) -> np.ndarray:
        """Expected reward of every action, computed once (read-only)."""
        means = self.actions.vectors @ self.theta_star
        means.flags.writeable = False
        return means

    @property
    def optimal_index(self) -> int:
        return int(np.argmax(self.mean_rewards))

    def to_json_dict(self) -> dict:
        return {
            "theta_star": self.theta_star.tolist(),
            "actions": self.actions.to_json_dict(),
            "noise": self.noise,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BanditInstance":
        return cls(
            theta_star=np.asarray(data["theta_star"], dtype=float),
            actions=ActionSet.from_json_dict(data["actions"]),
            noise=data.get("noise", "gaussian"),
        )


def save_instance(instance: BanditInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance.to_json_dict(), fh)


def load_instance(path) -> BanditInstance:
    with open(path) as fh:
        return BanditInstance.from_json_dict(json.load(fh))


def generate_instance(
    dim: int,
    num_actions: int,
    seed: int,
    noise: str = "gaussian",
    theta_norm: float = 1.0,
) -> BanditInstance:
    """Random instance: uniform unit-sphere actions and a random theta*."""
    if not (0.0 <= theta_norm <= 1.0):
        raise ValueError("theta_norm must lie in [0, 1]")
    rng = np.random.default_rng(np.random.SeedSequence(derive_entropy("instance", seed)))
    acts = rng.standard_normal((num_actions, dim))
    acts /= np.linalg.norm(acts, axis=1, keepdims=True)
    acts *= 1.0 - 1e-12
    theta = rng.standard_normal(dim)
    theta *= theta_norm / max(np.linalg.norm(theta), 1e-300)
    return BanditInstance(theta_star=theta, actions=ActionSet(acts), noise=noise)


@dataclass(frozen=True)
class AdversaryConfig:
    """Probabilistic corruption model.

    Each observation is intercepted independently with probability alpha.
    With strategy "none" the interception flag is still drawn but the value
    is left untouched, which keeps the mask observable in observe_batch's
    corrupted flags.
    """

    alpha: float = 0.0
    strategy: str = "none"
    magnitude: float = 50.0
    corrupt_stage: str = "pre-privacy"
    aggregate_corruption: bool = False

    def __post_init__(self):
        if not (0.0 <= self.alpha < 0.25):
            raise ValueError("alpha must lie in [0, 1/4)")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if not (0.0 <= self.magnitude <= MAX_MAGNITUDE):
            raise ValueError(f"magnitude must lie in [0, {MAX_MAGNITUDE}]")
        if self.corrupt_stage not in CORRUPT_STAGES:
            raise ValueError(f"corrupt_stage must be one of {CORRUPT_STAGES}")


def _noise_draws(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "gaussian":
        return rng.standard_normal(size)
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, size)
    return np.zeros(size)


def _corrupt_values(
    original: np.ndarray,
    action_indices: np.ndarray,
    adversary: AdversaryConfig,
    worst_arm: int,
) -> np.ndarray:
    """Replacement values the adversary would report for each slot."""
    c = adversary.magnitude
    if adversary.strategy == "constant":
        return np.full_like(original, c)
    if adversary.strategy == "large-positive":
        return np.full_like(original, abs(c))
    if adversary.strategy == "sign-flip":
        return -original
    if adversary.strategy == "anti-optimal":
        return np.where(action_indices == worst_arm, abs(c), -abs(c))
    return original.copy()  # "none"


def _worst_arm_in(instance: BanditInstance, coreset: Coreset) -> int:
    means = instance.mean_rewards
    idxs = [i for i, _ in coreset.entries]
    sub = np.asarray([means[i] for i in idxs])
    return int(idxs[int(np.argmin(sub))])


# Plays per chunk of a batch's per-play stages, and clients per chunk of its
# per-client ones, which bounds their temporaries; a client with more plays
# than this is a chunk of its own.
PLAY_CHUNK = 1 << 14


def _chunks(lengths: np.ndarray, counts: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Client range [c0, c1) and play range [p0, p1) of every chunk.

    Run b holds lengths[b] clients of counts[b] plays each.  Whole clients
    are packed in play order while a chunk holds at most PLAY_CHUNK plays.
    """
    chunks = []
    c0 = p0 = c = p = 0
    for clients, plays in zip(lengths.tolist(), counts.tolist()):
        while clients:
            take = min(clients, max(PLAY_CHUNK - (p - p0), 0) // plays)
            if take == 0:
                if p > p0:
                    chunks.append((c0, c, p0, p))
                    c0, p0 = c, p
                    continue
                take = 1
            c += take
            p += take * plays
            clients -= take
    if p > p0:
        chunks.append((c0, c, p0, p))
    return chunks


def _play(
    instance: BanditInstance,
    coreset: Coreset,
    adversary: AdversaryConfig,
    privacy: PrivacyParams,
    rng: np.random.Generator,
    keep_raw: bool,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Per-client (raw reward or None, corrupted flag, reported reward).

    Three stages run over the whole batch one after another, noise, then
    the adversary's mask, then privacy, each chunk by chunk and in place on
    one per-play and one per-client array, so a stage draws its uniforms
    and noise in the same stream order as a single whole-batch call.  When
    every client holds one play (M1) the two arrays are one.  Stages that
    touch plays take chunks of whole clients (see _chunks); stages that
    touch only reports take PLAY_CHUNK clients at a time.
    """
    actions, lengths, counts = coreset.runs()
    client_ends = np.cumsum(lengths)
    n_clients = int(lengths.sum())
    total = int(lengths @ counts)
    chunks = _chunks(lengths, counts)
    client_chunks = [(c0, min(c0 + PLAY_CHUNK, n_clients))
                     for c0 in range(0, n_clients, PLAY_CHUNK)]
    means = instance.mean_rewards
    aggregate_mode = adversary.aggregate_corruption or adversary.corrupt_stage == "post-privacy"
    worst = _worst_arm_in(instance, coreset) if actions.size else 0

    def clients_of(c0, c1):
        run = client_ends.searchsorted(np.arange(c0, c1), side="right")
        n_a = counts[run]
        return actions[run], n_a, np.cumsum(n_a) - n_a

    # Noise: every play's clean reward plus noise, then each client's mean.
    draws = np.empty(total)
    values = draws if total == n_clients else np.empty(n_clients)
    for c0, c1, p0, p1 in chunks:
        acts, n_a, starts = clients_of(c0, c1)
        draws[p0:p1] = means[np.repeat(acts, n_a)] + _noise_draws(instance.noise, p1 - p0, rng)
        values[c0:c1] = np.add.reduceat(draws[p0:p1], starts) / n_a
    raw = values.copy() if keep_raw else None

    # Mask: per raw draw by default, per report in aggregate mode.
    corrupted = np.zeros(n_clients, dtype=bool)
    if adversary.alpha > 0.0 and aggregate_mode:
        for c0, c1 in client_chunks:
            mask = rng.random(c1 - c0) >= 1.0 - adversary.alpha
            corrupted[c0:c1] = mask
            if adversary.corrupt_stage == "pre-privacy":
                v = values[c0:c1]
                replaced = _corrupt_values(v, clients_of(c0, c1)[0], adversary, worst)
                v[:] = np.where(mask, replaced, v)
    elif adversary.alpha > 0.0:
        for c0, c1, p0, p1 in chunks:
            acts, n_a, starts = clients_of(c0, c1)
            mask = rng.random(p1 - p0) >= 1.0 - adversary.alpha
            corrupted[c0:c1] = np.logical_or.reduceat(mask, starts)
            d = draws[p0:p1]
            d[:] = np.where(mask, _corrupt_values(d, np.repeat(acts, n_a), adversary, worst), d)
            values[c0:c1] = np.add.reduceat(d, starts) / n_a

    # Privacy: release each report, then corrupt it under the post-privacy stage.
    for c0, c1 in client_chunks:
        acts, n_a, _ = clients_of(c0, c1)
        priv = None
        if privacy.enabled:
            priv = laplace_icdf(rng.random(c1 - c0), 1.0) * laplace_scale(privacy, n_a)
        released = _release(values[c0:c1], privacy, priv)
        if adversary.corrupt_stage == "post-privacy":
            released = np.where(corrupted[c0:c1],
                                _corrupt_values(released, acts, adversary, worst), released)
        values[c0:c1] = released
    return raw, corrupted, values


def observe_batch(
    instance: BanditInstance,
    coreset: Coreset,
    adversary: AdversaryConfig,
    privacy: PrivacyParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Play a coreset; one report per client (see Coreset.runs).

    Returns per-client arrays (action index, raw reward, corrupted flag,
    reported reward).  The raw reward is the clean mean of the client's
    plays before corruption and privacy; only the reported reward reaches
    the learner.  By default the adversary corrupts individual raw draws
    before they are averaged, and a client is flagged when any of its draws
    was intercepted.  With aggregate_corruption=True (and always under the
    post-privacy stage, where raw draws are never released) a single
    interception decision applies to the whole report.
    """
    actions, lengths, _ = coreset.runs()
    raw, corrupted, reported = _play(instance, coreset, adversary, privacy, rng, keep_raw=True)
    return np.repeat(actions, lengths), raw, corrupted, reported


def _release(values: np.ndarray, privacy: PrivacyParams, noise: np.ndarray | None) -> np.ndarray:
    """What a client sends: its value, clipped if set, plus its privacy noise."""
    if privacy.clip is not None:
        values = np.clip(values, -privacy.clip, privacy.clip)
    return values if noise is None else values + noise


class EnvOracle:
    """Test- and driver-side view: hidden parameter and gaps."""

    def __init__(self, instance: BanditInstance):
        self._instance = instance
        means = instance.mean_rewards
        # Expected regret <a* - a, theta*> of one play of each action.
        self._regrets = means[instance.optimal_index] - means

    @property
    def theta_star(self) -> np.ndarray:
        return self._instance.theta_star

    @property
    def optimal_index(self) -> int:
        return self._instance.optimal_index

    def regret_of(self, action_index: int) -> float:
        return float(self._regrets[action_index])


class LearnerEnv:
    """Capability-restricted handle given to the learner.

    The learner sees the action set and, per play_batch call, only the
    reported reward of each client.  Everything else (theta*, corruption
    flags, raw rewards) stays with the environment; the oracle object gives
    the experiment driver what it needs for regret accounting.
    """

    def __init__(
        self,
        instance: BanditInstance,
        adversary: AdversaryConfig,
        seed: int | np.random.SeedSequence,
    ):
        self._instance = instance
        self._adversary = adversary
        if isinstance(seed, np.random.SeedSequence):
            self._seed_seq = seed
        else:
            self._seed_seq = np.random.SeedSequence(int(seed))
        self._oracle = EnvOracle(instance)

    @property
    def actions(self) -> ActionSet:
        return self._instance.actions

    @property
    def oracle(self) -> EnvOracle:
        return self._oracle

    def _batch_rng(self, round_index: int) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self._seed_seq.entropy,
            spawn_key=tuple(self._seed_seq.spawn_key) + (int(round_index),),
        )
        return np.random.default_rng(ss)

    def play_batch(
        self,
        coreset: Coreset,
        round_index: int,
        privacy: PrivacyParams,
    ) -> np.ndarray:
        """Play a coreset; returns each client's reported reward, in client order."""
        rng = self._batch_rng(round_index)
        return _play(self._instance, coreset, self._adversary, privacy, rng, keep_raw=False)[2]
