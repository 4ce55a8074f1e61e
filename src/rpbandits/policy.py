"""Batched arm elimination with robust estimation and elimination thresholds.

The horizon T is split into B rounds that grow geometrically with ratio
q = T^(1/B).  Each exploration round plays a coreset of a near-optimal design
on the surviving arms, estimates the hidden parameter from the reported
rewards, and drops every arm whose estimated mean falls more than twice the
round threshold below the best one.  The final round commits the remaining
budget to the arm with the best estimated mean.
"""

import bisect
import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .design import MODELS, ActionSet, Coreset, Design, build_coreset, compute_design
from .env import LearnerEnv
from .errors import CheckpointOutOfRange, SingularGram, TooManyRemoved
from .privacy import PrivacyParams, laplace_scale
from .robust import (
    DEFAULT_CLEAN_SCALE_SQ,
    FilterDiagnostics,
    robust_least_squares,
    vanilla_least_squares,
)
from .seeding import rng_from


@dataclass(frozen=True)
class Schedule:
    """Geometric batch schedule: B rounds covering a horizon of T plays."""

    horizon: int
    num_rounds: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.num_rounds < 2:
            raise ValueError("need at least 2 rounds")

    @property
    def q(self) -> float:
        return float(self.horizon) ** (1.0 / self.num_rounds)

    @property
    def round_budgets(self) -> list[int]:
        """Nominal exploration budgets ceil(q^i) for rounds 1 .. B-1.

        The final round absorbs whatever budget remains at run time, and a
        run truncates these budgets if exploration would overshoot T.
        """
        return [int(math.ceil(self.q ** i - 1e-9)) for i in range(1, self.num_rounds)]


def default_num_rounds(horizon: int) -> int:
    """B = ceil(log T), floored at 2."""
    return max(2, int(math.ceil(math.log(max(horizon, 2)))))


@dataclass(frozen=True)
class ThresholdConfig:
    """Inputs of the per-round elimination width gamma_i.

    epsilon carries the privacy level into the width; None means privacy is
    disabled and every 1/epsilon term is dropped.
    """

    delta: float
    alpha: float = 0.0
    c_gamma: float = 1.0
    nu: float | None = None
    model: str = "M1"
    epsilon: float | None = None

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if not (0.0 <= self.alpha < 0.25):
            raise ValueError("alpha must lie in [0, 1/4)")
        if self.c_gamma <= 0.0:
            raise ValueError("c_gamma must be positive")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if self.model == "M2" and (self.nu is None or not (0.0 < self.nu < 1.0)):
            raise ValueError("M2 requires nu in (0, 1)")
        if self.epsilon is not None and self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive when set")


def threshold_m1(i: int, schedule: Schedule, cfg: ThresholdConfig, d: int) -> float:
    """Elimination width for round i under per-reward clients."""
    if i < 1:
        raise ValueError("round index starts at 1")
    qi = schedule.q ** i
    log_round = math.log(max(qi / cfg.delta, 1.0 + 1e-12))
    log_conf = math.log(1.0 / cfg.delta)
    inv_eps = (1.0 / cfg.epsilon) if cfg.epsilon is not None else 0.0

    corruption = (
        math.sqrt(d)
        * (math.sqrt(log_round) + log_round * inv_eps)
        * (math.sqrt(cfg.alpha) + cfg.alpha * math.sqrt(d))
    )
    sampling = math.sqrt(d * log_conf / qi) * (1.0 + math.sqrt(log_conf) * inv_eps)
    return cfg.c_gamma * (corruption + cfg.alpha + sampling)


def threshold_m2(i: int, schedule: Schedule, cfg: ThresholdConfig, d: int, k: int) -> float:
    """Elimination width for round i under aggregating clients.

    k is the number of distinct actions played in the round (the design
    support size); the round budget m is taken from the schedule.
    """
    if i < 1:
        raise ValueError("round index starts at 1")
    if k < 1:
        raise ValueError("support size must be at least 1")
    if cfg.nu is None:
        raise ValueError("threshold_m2 requires nu")
    budgets = schedule.round_budgets
    m = budgets[i - 1] if i - 1 < len(budgets) else budgets[-1]
    nu_m = cfg.nu * m
    log_conf = math.log(1.0 / cfg.delta)
    log_k = math.log(max(k / cfg.delta, 1.0 + 1e-12))
    inv_eps = (1.0 / cfg.epsilon) if cfg.epsilon is not None else 0.0

    sampling = math.sqrt(d * log_conf / nu_m) * (1.0 + math.sqrt(log_conf / nu_m) * inv_eps)
    corruption = (
        2.0
        * d
        * (1.0 + math.sqrt(log_k / nu_m) + log_k / nu_m * inv_eps)
        * (math.sqrt(k * cfg.alpha) + math.sqrt(cfg.alpha * log_conf))
    )
    return cfg.c_gamma * (sampling + corruption + cfg.alpha)


@dataclass
class RoundRecord:
    round_index: int
    active_before: list[int]
    active_after: list[int]
    round_budget: int
    batch_size: int
    gamma: float | None = None
    estimate: np.ndarray | None = None
    coreset_entries: list[tuple[int, int]] | None = None
    design_gvalue: float | None = None
    filter_diagnostics: FilterDiagnostics | None = None
    filter_fallback: bool = False
    estimation_skipped: bool = False
    chosen_arm: int | None = None
    cumulative_plays: int = 0
    cumulative_regret: float = 0.0

    def to_json_dict(self) -> dict:
        diag = self.filter_diagnostics
        return {
            "round_index": self.round_index,
            "active_before": list(self.active_before),
            "active_after": list(self.active_after),
            "round_budget": self.round_budget,
            "batch_size": self.batch_size,
            "gamma": self.gamma,
            "estimate": None if self.estimate is None else list(map(float, self.estimate)),
            "coreset_entries": self.coreset_entries,
            "design_gvalue": self.design_gvalue,
            "filter_diagnostics": None if diag is None else {
                "removed_count": diag.removed_count,
                "final_top_eigenvalue": diag.final_top_eigenvalue,
                "iterations": diag.iterations,
            },
            "filter_fallback": self.filter_fallback,
            "estimation_skipped": self.estimation_skipped,
            "chosen_arm": self.chosen_arm,
            "cumulative_plays": self.cumulative_plays,
            "cumulative_regret": self.cumulative_regret,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RoundRecord":
        diag = data.get("filter_diagnostics")
        return cls(
            round_index=data["round_index"],
            active_before=list(data["active_before"]),
            active_after=list(data["active_after"]),
            round_budget=data["round_budget"],
            batch_size=data["batch_size"],
            gamma=data.get("gamma"),
            estimate=None if data.get("estimate") is None else np.asarray(data["estimate"]),
            coreset_entries=None if data.get("coreset_entries") is None else [
                (int(a), int(b)) for a, b in data["coreset_entries"]
            ],
            design_gvalue=data.get("design_gvalue"),
            filter_diagnostics=None if diag is None else FilterDiagnostics(
                removed_count=diag["removed_count"],
                final_top_eigenvalue=diag["final_top_eigenvalue"],
                iterations=diag["iterations"],
            ),
            filter_fallback=data.get("filter_fallback", False),
            estimation_skipped=data.get("estimation_skipped", False),
            chosen_arm=data.get("chosen_arm"),
            cumulative_plays=data.get("cumulative_plays", 0),
            cumulative_regret=data.get("cumulative_regret", 0.0),
        )


def _advance(total: float, value: float, plays: int) -> float:
    """`total` plus `plays` copies of `value`, added one at a time from the
    left, which is the order np.cumsum adds in, with the same bits.

    For value > 0 and a finite total >= 0 this costs O(binades crossed), not
    O(plays).  In the binade [2^(e-1), 2^e) every double is a multiple of
    u = 2^(e-53) (below 2^-1022 they are sparser, but every add there is
    exact); with S = total/u and V = value/u (both exact), one rounded
    add gives (S + D)·u, where D is V rounded to the nearest integer, or on
    a tie (frac V = 1/2) whichever of floor V and floor V + 1 leaves S + D
    even.  While the sum stays at or below 2^e, D is the same every step
    (once S is even, on a tie), so k adds land on (S + k·D)·u.  A zero
    total, a value of at least 2^(e-2), a tie on an odd S, and the add that
    leaves the binade each take one plain add.  Any other sign or a
    non-finite input is summed by np.add.accumulate.
    """
    s, v = float(total), float(value)
    if plays <= 0:
        return s
    if v == 0.0:
        return s + v
    if not (v > 0.0 and s >= 0.0 and math.isfinite(v) and math.isfinite(s)):
        return _accumulate(s, v, plays)
    while plays:
        e = math.frexp(s)[1]
        k = 0
        if s and v < math.ldexp(1.0, e - 2):
            big = math.ldexp(v, 53 - e)
            whole = math.floor(big)
            frac = big - whole
            units = int(math.ldexp(s, 53 - e))
            if frac != 0.5:
                step = whole + (frac > 0.5)
            elif units % 2 == 0:
                step = whole + whole % 2
            else:
                step = None  # the first tie makes the sum even: add it plainly
            if step == 0:
                return s
            if step:
                # In the top binade 2^53·u overflows, so stop one unit short.
                limit = (1 << 53) - (e == 1024)
                k = min(plays, (limit - units - math.ceil(big)) // step + 1)
        if k > 0:
            s = math.ldexp(units + k * step, e - 53)
            plays -= k
        else:
            s += v
            plays -= 1
            if s == math.inf:
                return s
    return s


def _accumulate(total: float, value: float, plays: int) -> float:
    """_advance by np.add.accumulate, in pieces of at most 2^16 plays."""
    while plays > 0:
        n = min(plays, 1 << 16)
        buf = np.full(n + 1, value)
        buf[0] = total
        total = float(np.add.accumulate(buf)[-1])
        plays -= n
    return total


@dataclass
class RegretTrace:
    """Per-round records plus per-play expected regret, run-length encoded."""

    horizon: int
    num_rounds: int
    model: str
    rounds: list[RoundRecord]
    segments: list[tuple[int, float]]  # (play count, per-play regret), in play order
    optimal_arm: int

    @cached_property
    def _marks(self) -> tuple[list[int], list[float], list[float]]:
        """Play count, cumulative regret and per-play regret at the end of
        every segment."""
        plays, sums, values = [0], [0.0], [0.0]
        for count, value in self.segments:
            plays.append(plays[-1] + count)
            sums.append(_advance(sums[-1], value, count))
            values.append(value)
        return plays, sums, values

    @property
    def total_plays(self) -> int:
        return self._marks[0][-1]

    def cumulative_at(self, plays: int) -> float:
        """Cumulative expected regret after the first `plays` plays."""
        marks, sums, values = self._marks
        if plays < 0 or plays > marks[-1]:
            raise CheckpointOutOfRange(f"checkpoint {plays} outside [0, {marks[-1]}]")
        j = bisect.bisect_left(marks, plays)
        if marks[j] == plays:
            return sums[j]
        return _advance(sums[j - 1], values[j], plays - marks[j - 1])

    @property
    def final_regret(self) -> float:
        return self._marks[1][-1]

    @property
    def final_active(self) -> list[int]:
        return self.rounds[-1].active_after if self.rounds else []

    @property
    def chosen_arm(self) -> int | None:
        for rec in reversed(self.rounds):
            if rec.chosen_arm is not None:
                return rec.chosen_arm
        return None

    def optimal_arm_survived(self) -> bool:
        return self.optimal_arm in self.final_active

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "num_rounds": self.num_rounds,
            "model": self.model,
            "optimal_arm": self.optimal_arm,
            "rounds": [r.to_json_dict() for r in self.rounds],
            "regret_segments": [[int(c), float(v)] for c, v in self.segments],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RegretTrace":
        return cls(
            horizon=data["horizon"],
            num_rounds=data["num_rounds"],
            model=data["model"],
            rounds=[RoundRecord.from_json_dict(r) for r in data["rounds"]],
            segments=[(int(c), float(v)) for c, v in data["regret_segments"]],
            optimal_arm=data["optimal_arm"],
        )


def _fit_coreset_to_budget(coreset: Coreset, budget: int) -> Coreset:
    """Trim play counts so the total fits the remaining budget.

    Decrements the largest counts first (ties: highest action index), and
    drops whole entries only when every count has reached 1.
    """
    if coreset.total <= budget:
        return coreset
    entries = {idx: n for idx, n in coreset.entries}
    total = coreset.total
    while total > budget:
        reducible = [(n, idx) for idx, n in entries.items() if n > 1]
        if reducible:
            _, idx = max(reducible)
            entries[idx] -= 1
        else:
            idx = max(entries)
            del entries[idx]
        total -= 1
    return replace(coreset, entries=sorted(entries.items()))


def _clean_scale_sq(privacy: PrivacyParams, client_counts: np.ndarray) -> float:
    """Filter budget scale for this batch: the clean default plus the variance
    of the largest privacy noise the mechanism adds to a reported value,
    which belongs to the client with the fewest plays."""
    extra = 0.0
    if privacy.enabled:
        extra = 2.0 * (laplace_scale(privacy, int(client_counts.min())) ** 2)
    return DEFAULT_CLEAN_SCALE_SQ + extra


def _estimate(
    estimator: str,
    coreset: Coreset,
    rewards: np.ndarray,
    active_vectors: np.ndarray,
    all_vectors: np.ndarray,
    privacy: PrivacyParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, FilterDiagnostics | None, bool]:
    """Parameter estimate for one round; returns (theta, diagnostics, fallback).

    The estimators get the coreset's runs: one action row per entry, the
    number of clients that reported on it, and the reports in client order.
    """
    actions, lengths, client_counts = coreset.runs()
    rows = all_vectors[actions]
    if estimator == "vanilla":
        return vanilla_least_squares(rows, lengths, rewards), None, False
    try:
        est = robust_least_squares(
            rows, lengths, rewards, rng,
            query_actions=active_vectors,
            clean_scale_sq=_clean_scale_sq(privacy, client_counts),
        )
        return est.theta, est.diagnostics, False
    except TooManyRemoved as exc:
        return vanilla_least_squares(rows, lengths, rewards), exc.diagnostics, True


# Designs this process has computed, least recently used first, keyed by
# active-set content.  An entry is a d x d Gram plus at most
# _support_bound(r) weights, so the cap holds the cache to a few MB.
DESIGN_CACHE_SIZE = 128
_designs: OrderedDict[tuple, Design] = OrderedDict()


def _design_for(sub: ActionSet, tol: float) -> Design:
    """compute_design(sub, tol), reused if this process already ran it on
    the same vectors.

    compute_design is deterministic, so equal bytes give a bit-equal design
    and a reused one leaves every trace byte as it was.  Cached designs are
    shared between cells: their Gram is read-only, and callers must not
    change their weights.  A miss calls compute_design through this
    module's attribute, so a wrapper installed there sees every design
    actually computed.
    """
    vecs = sub.vectors
    key = (vecs.shape, hashlib.blake2b(vecs.tobytes()).digest(), tol)
    design = _designs.get(key)
    if design is not None:
        _designs.move_to_end(key)
        return design
    design = _designs[key] = compute_design(sub, tol=tol)
    if len(_designs) > DESIGN_CACHE_SIZE:
        _designs.popitem(last=False)
    return design


def _run(
    env: LearnerEnv,
    schedule: Schedule,
    cfg: ThresholdConfig,
    privacy: PrivacyParams,
    rng: int | np.random.Generator,
    estimator: str,
) -> RegretTrace:
    if isinstance(rng, (int, np.integer)):
        filter_rng = rng_from("policy-filter", int(rng))
    else:
        filter_rng = rng
    actions = env.actions
    all_vectors = actions.vectors
    d = actions.dim
    oracle = env.oracle

    active = list(range(actions.count))
    used = 0
    records: list[RoundRecord] = []
    segments: list[tuple[int, float]] = []
    last_estimate: np.ndarray | None = None
    budgets = schedule.round_budgets

    for i in range(1, schedule.num_rounds):
        remaining = schedule.horizon - used
        if remaining <= 0 or len(active) == 1:
            break
        budget = min(budgets[i - 1], remaining)
        sub = actions.subset(active)
        design = _design_for(sub, tol=0.25)
        # Design indices are local to the active subset; map them back to
        # the instance's action indices (active is ascending, so the entry
        # order is unchanged).
        local = build_coreset(design, budget, cfg.model, cfg.nu)
        coreset = replace(local, entries=[(active[j], n) for j, n in local.entries])
        coreset = _fit_coreset_to_budget(coreset, remaining)
        if not coreset.entries:
            break

        reports = env.play_batch(coreset, i, privacy)
        active_vectors = all_vectors[active]
        record = RoundRecord(
            round_index=i,
            active_before=list(active),
            active_after=list(active),
            round_budget=budget,
            batch_size=coreset.total,
            coreset_entries=list(coreset.entries),
            design_gvalue=design.gvalue,
        )
        try:
            theta, diag, fallback = _estimate(
                estimator, coreset, reports,
                active_vectors, all_vectors, privacy, filter_rng,
            )
            record.filter_diagnostics = diag
            record.filter_fallback = fallback
            if cfg.model == "M2":
                gamma = threshold_m2(i, schedule, cfg, d, coreset.support_size)
            else:
                gamma = threshold_m1(i, schedule, cfg, d)
            record.gamma = gamma
            record.estimate = theta
            last_estimate = theta
            scores = active_vectors @ theta
            cutoff = float(np.max(scores)) - 2.0 * gamma
            survivors = [active[j] for j in range(len(active)) if scores[j] >= cutoff]
            record.active_after = survivors
            active = survivors
        except SingularGram:
            # A truncated coreset failed to span the active set; keep the
            # round's plays but skip elimination.
            record.estimation_skipped = True

        for idx, count in coreset.entries:
            segments.append((count, oracle.regret_of(idx)))
        used += coreset.total
        record.cumulative_plays = used
        records.append(record)

    # Exploitation round: commit the remaining budget to the best estimate.
    remaining = schedule.horizon - used
    if last_estimate is not None:
        active_scores = all_vectors[active] @ last_estimate
        chosen = active[int(np.argmax(active_scores))]
    else:
        chosen = active[0]
    final = RoundRecord(
        round_index=schedule.num_rounds,
        active_before=list(active),
        active_after=list(active),
        round_budget=remaining,
        batch_size=remaining,
        estimate=last_estimate,
        chosen_arm=chosen,
        cumulative_plays=schedule.horizon,
    )
    if remaining > 0:
        segments.append((remaining, oracle.regret_of(chosen)))
    records.append(final)

    trace = RegretTrace(
        horizon=schedule.horizon,
        num_rounds=schedule.num_rounds,
        model=cfg.model,
        rounds=records,
        segments=segments,
        optimal_arm=oracle.optimal_index,
    )
    for rec in records:
        rec.cumulative_regret = trace.cumulative_at(rec.cumulative_plays)
    return trace


def run_elimination(
    env: LearnerEnv,
    schedule: Schedule,
    cfg: ThresholdConfig,
    privacy: PrivacyParams,
    rng: int | np.random.Generator,
) -> RegretTrace:
    """Robust arm elimination over the full horizon."""
    return _run(env, schedule, cfg, privacy, rng, estimator="robust")


def run_vanilla_elimination(
    env: LearnerEnv,
    schedule: Schedule,
    cfg: ThresholdConfig,
    privacy: PrivacyParams,
    rng: int | np.random.Generator,
) -> RegretTrace:
    """Baseline: plain least squares and corruption-blind thresholds.

    Uses the same schedule and elimination rule but estimates with vanilla
    least squares and zeroes the corruption terms in the width.
    """
    blind = replace(cfg, alpha=0.0)
    return _run(env, schedule, blind, privacy, rng, estimator="vanilla")


def run_nonrobust_elimination(
    env: LearnerEnv,
    schedule: Schedule,
    cfg: ThresholdConfig,
    privacy: PrivacyParams,
    rng: int | np.random.Generator,
) -> RegretTrace:
    """Ablation: vanilla least squares but corruption-aware widths."""
    return _run(env, schedule, cfg, privacy, rng, estimator="vanilla")
