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
slot), independent of processing order, so results do not depend on how a
batch is cut up.  Each stage runs over chunks of whole clients of at most
PLAY_CHUNK plays, which bounds its temporaries, and draws in the same order
as one whole-batch draw.  Each chunk gets a run plan, made once: the runs it
spans and how many of each run's clients and plays it holds.  Per-play
values (mean reward, the adversary's replacement, the Laplace scale) are
per-run values repeated by those counts; a chunk inside one run takes the
run's mean and replacement as scalars.  What scales with the batch is one
float per play and one flag per client; under M1 the per-play floats are
the reports, and no one-play client is averaged or reduced.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .design import ActionSet, Coreset, is_int, is_real, json_fields, json_reals
from .privacy import PrivacyParams, laplace_icdf, laplace_scale
from .seeding import INT_LABEL_BITS, INT_LABELS, derive_entropy

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

    @cached_property
    def regrets(self) -> np.ndarray:
        """Expected regret <a* - a, theta*> of one play of each action (read-only)."""
        means = self.mean_rewards
        regrets = means[self.optimal_index] - means
        regrets.flags.writeable = False
        return regrets

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
        json_fields(data, ("theta_star", "actions"), ("noise",))
        return cls(
            theta_star=json_reals(data["theta_star"], "theta_star"),
            actions=ActionSet.from_json_dict(data["actions"]),
            noise=data.get("noise", "gaussian"),
        )


def generate_instance(
    dim: int,
    num_actions: int,
    seed: int,
    noise: str = "gaussian",
    theta_norm: float = 1.0,
) -> BanditInstance:
    """Random instance: uniform unit-sphere actions and a random theta*."""
    for name, value in (("dim", dim), ("num_actions", num_actions), ("seed", seed)):
        if not is_int(value):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    if seed not in INT_LABELS:
        raise ValueError(f"seed must lie in [-2^{INT_LABEL_BITS - 1}, 2^{INT_LABEL_BITS - 1}), "
                         f"got {seed}")
    if not (is_real(theta_norm) and 0.0 <= theta_norm <= 1.0):
        raise ValueError("theta_norm must be a number in [0, 1]")
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


def _draw_noise(kind: str, out: np.ndarray, rng: np.random.Generator) -> None:
    if kind == "gaussian":
        rng.standard_normal(out=out)
    else:
        out[:] = rng.uniform(-1.0, 1.0, out.size) if kind == "uniform" else 0.0


def _replacements(adversary: AdversaryConfig, actions: np.ndarray, means: np.ndarray):
    """Per-run value written over an intercepted observation, or None where
    there is none: "none" keeps the value and "sign-flip" negates it."""
    c = float(adversary.magnitude)
    if adversary.strategy in ("constant", "large-positive"):
        return np.full(actions.size, c if adversary.strategy == "constant" else abs(c))
    if adversary.strategy == "anti-optimal" and actions.size:
        # The worst arm among those played is boosted, every other one pushed down.
        return np.where(actions == actions[means[actions].argmin()], abs(c), -abs(c))
    return None


# Plays per chunk of a batch, which bounds the temporaries of every stage: a
# chunk holds at most this many plays, and so at most this many clients; a
# client with more plays than this is a chunk of its own.
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

    The noise, mask and privacy stages run in turn over each chunk's run
    plan (see the module docstring), in place on the per-play draws and the
    per-client values; under M1 these are one array, and nothing is reduced.
    """
    actions, lengths, counts = coreset.runs()
    client_ends = np.cumsum(lengths)
    n_clients = int(lengths.sum())
    total = int(lengths @ counts)
    one_play = total == n_clients
    # Each client's play count and first play; under M1 every count is 1.
    n_a = 1 if one_play else np.repeat(counts, lengths)
    first = None if one_play else np.cumsum(n_a) - n_a
    plan = []
    for c0, c1, p0, p1 in _chunks(lengths, counts):
        r0, r1 = client_ends.searchsorted((c0, c1 - 1), side="right") + (0, 1)
        ends = client_ends[r0:r1]
        clients = np.minimum(ends, c1) - np.maximum(ends - lengths[r0:r1], c0)
        plan.append((c0, c1, p0, p1, slice(r0, r1), clients, clients * counts[r0:r1]))
    run_means = instance.mean_rewards[actions]
    replacements = _replacements(adversary, actions, instance.mean_rewards)
    aggregate_mode = adversary.aggregate_corruption or adversary.corrupt_stage == "post-privacy"
    per_draw = adversary.alpha > 0.0 and not aggregate_mode

    def per_play(per_run, r, reps):
        # A chunk inside one run takes that run's value as a scalar.
        return per_run[r.start] if r.stop - r.start == 1 else np.repeat(per_run[r], reps)

    def intercept(v, mask, r, reps):
        if adversary.strategy == "sign-flip":
            np.putmask(v, mask, -v)
        elif replacements is not None:
            np.putmask(v, mask, per_play(replacements, r, reps))

    # Noise: every play's noise, drawn in place, plus its clean reward; then
    # each M2 client's mean, unless per-draw corruption recomputes it below.
    draws = np.empty(total)
    values = draws if one_play else np.empty(n_clients)
    for c0, c1, p0, p1, r, clients, plays in plan:
        d = draws[p0:p1]
        _draw_noise(instance.noise, d, rng)
        d += per_play(run_means, r, plays)
        if not (one_play or per_draw and not keep_raw):
            values[c0:c1] = np.add.reduceat(d, first[c0:c1] - p0) / n_a[c0:c1]
    raw = values.copy() if keep_raw else None

    # Mask: per raw draw by default, per report in aggregate mode.
    corrupted = np.zeros(n_clients, dtype=bool)
    if adversary.alpha > 0.0 and aggregate_mode:
        for c0, c1, _, _, r, clients, _ in plan:
            corrupted[c0:c1] = rng.random(c1 - c0) >= 1.0 - adversary.alpha
            if adversary.corrupt_stage == "pre-privacy":
                intercept(values[c0:c1], corrupted[c0:c1], r, clients)
    elif per_draw:
        for c0, c1, p0, p1, r, clients, plays in plan:
            d = draws[p0:p1]
            mask = rng.random(p1 - p0) >= 1.0 - adversary.alpha
            intercept(d, mask, r, plays)
            if one_play:
                corrupted[c0:c1] = mask
            else:
                corrupted[c0:c1] = np.logical_or.reduceat(mask, first[c0:c1] - p0)
                values[c0:c1] = np.add.reduceat(d, first[c0:c1] - p0) / n_a[c0:c1]

    # Privacy: each client sends its value, clipped if set, plus its Laplace
    # noise; under the post-privacy stage the adversary then corrupts it.
    scale = laplace_scale(privacy, n_a) if privacy.enabled else None
    for c0, c1, _, _, r, clients, _ in plan:
        v = values[c0:c1]
        if privacy.clip is not None:
            np.clip(v, -privacy.clip, privacy.clip, out=v)
        if privacy.enabled:
            noise = laplace_icdf(rng.random(c1 - c0))
            v += np.multiply(noise, scale if one_play else scale[c0:c1], out=noise)
        if adversary.corrupt_stage == "post-privacy":
            intercept(v, corrupted[c0:c1], r, clients)
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


class LearnerEnv:
    """Capability-restricted handle given to the learner.

    The learner sees the action set and, per play_batch call, only the
    reported reward of each client.  Everything else (theta*, corruption
    flags, raw rewards) stays with the environment; `oracle` is the instance
    itself, from which the policy's regret accounting reads the optimal arm
    and each arm's regret.  Round i's batch draws from `seed` with i
    appended to its spawn key.
    """

    def __init__(
        self,
        instance: BanditInstance,
        adversary: AdversaryConfig,
        seed: np.random.SeedSequence,
    ):
        self._instance = instance
        self._adversary = adversary
        self._seed_seq = seed

    @property
    def actions(self) -> ActionSet:
        return self._instance.actions

    @property
    def oracle(self) -> BanditInstance:
        return self._instance

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
