"""Batched arm elimination with robust estimation and elimination thresholds.

The horizon T is split into B rounds that grow geometrically with ratio
q = T^(1/B).  Each exploration round plays a coreset of a near-optimal design
on the surviving arms, estimates the hidden parameter from the reported
rewards, and drops every arm whose estimated mean falls more than twice the
round threshold below the best one.  The final round commits the remaining
budget to the arm with the best estimated mean.  A round that would overrun
T loses plays from its largest count first (ties: highest action index), and
once every count is 1, whole entries go, highest index first.
"""

import bisect
import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .design import MODELS, ActionSet, Coreset, Design, build_coreset, compute_design
from .env import LearnerEnv
from .errors import CheckpointOutOfRange, OutOfSpan, TooManyRemoved
from .privacy import PrivacyParams, laplace_scale
from .robust import (
    DEFAULT_CLEAN_SCALE_SQ,
    FilterDiagnostics,
    robust_least_squares,
    vanilla_least_squares,
)


@dataclass(frozen=True)
class Schedule:
    """Geometric batch schedule: B rounds covering a horizon of T plays."""

    horizon: int
    num_rounds: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.num_rounds < 2:
            raise ValueError("num_rounds must be at least 2")

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
    """Inputs of the per-round elimination width gamma_i, other than the
    privacy level, which the widths read from the env's PrivacyParams.
    """

    delta: float
    alpha: float = 0.0
    c_gamma: float = 1.0
    nu: float | None = None
    model: str = "M1"

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if not (0.0 <= self.alpha < 0.25):
            raise ValueError("alpha must lie in [0, 1/4)")
        if not self.c_gamma > 0.0:
            raise ValueError("c_gamma must be positive")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if self.nu is not None and not (0.0 < self.nu < 1.0):
            raise ValueError("nu must lie in (0, 1)")
        if self.model == "M2" and self.nu is None:
            raise ValueError("nu is required when model is M2")


def threshold_m1(i: int, schedule: Schedule, cfg: ThresholdConfig, privacy: PrivacyParams,
                 d: int) -> float:
    """Elimination width for round i under per-reward clients."""
    if i < 1:
        raise ValueError("round index starts at 1")
    qi = schedule.q ** i
    log_round = math.log(max(qi / cfg.delta, 1.0 + 1e-12))
    log_conf = math.log(1.0 / cfg.delta)
    inv_eps = (1.0 / privacy.epsilon) if privacy.enabled else 0.0

    corruption = (
        math.sqrt(d)
        * (math.sqrt(log_round) + log_round * inv_eps)
        * (math.sqrt(cfg.alpha) + cfg.alpha * math.sqrt(d))
    )
    sampling = math.sqrt(d * log_conf / qi) * (1.0 + math.sqrt(log_conf) * inv_eps)
    return cfg.c_gamma * (corruption + cfg.alpha + sampling)


def threshold_m2(i: int, schedule: Schedule, cfg: ThresholdConfig, privacy: PrivacyParams,
                 d: int, k: int) -> float:
    """Elimination width for round i under aggregating clients.

    k is the number of distinct actions played in the round (the design
    support size); the round budget m is taken from the schedule.  cfg.nu is
    set, since ThresholdConfig requires it under M2.
    """
    if i < 1:
        raise ValueError("round index starts at 1")
    if k < 1:
        raise ValueError("support size must be at least 1")
    budgets = schedule.round_budgets
    m = budgets[i - 1] if i - 1 < len(budgets) else budgets[-1]
    nu_m = cfg.nu * m
    log_conf = math.log(1.0 / cfg.delta)
    log_k = math.log(max(k / cfg.delta, 1.0 + 1e-12))
    inv_eps = (1.0 / privacy.epsilon) if privacy.enabled else 0.0

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

    # The JSON keys are the field names.  The estimate and the diagnostics
    # change form on the way out, the coreset entries on the way back (JSON
    # has no tuples), and a trace keeps no removed_indices.
    def to_json_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.estimate is not None:
            data["estimate"] = list(map(float, self.estimate))
        if self.filter_diagnostics is not None:
            data["filter_diagnostics"] = {
                f.name: getattr(self.filter_diagnostics, f.name)
                for f in fields(FilterDiagnostics) if f.name != "removed_indices"}
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "RoundRecord":
        rec = cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})
        if rec.estimate is not None:
            rec.estimate = np.asarray(rec.estimate)
        if rec.coreset_entries is not None:
            rec.coreset_entries = [(int(a), int(n)) for a, n in rec.coreset_entries]
        if rec.filter_diagnostics is not None:
            rec.filter_diagnostics = FilterDiagnostics(**rec.filter_diagnostics)
        return rec


def _advance(total: float, value: float, plays: int) -> float:
    """`total` plus `plays` copies of `value`, added one at a time from the
    left, which is the order np.cumsum adds in, with the same bits.

    For a finite total >= 0 and value >= 0 this costs O(binades crossed), not
    O(plays).  In the binade [2^(e-1), 2^e) every double is a multiple of
    u = 2^(e-53) (below 2^-1022 they are sparser, but every add there is
    exact); with S = total/u and V = value/u (both exact), one rounded
    add gives (S + D)·u, where D is V rounded to the nearest integer, or on
    a tie (frac V = 1/2) whichever of floor V and floor V + 1 leaves S + D
    even.  While the sum stays at or below 2^e, D is the same every step
    (once S is even, on a tie), so k adds land on (S + k·D)·u.  A zero
    total, a value of at least 2^(e-2), a tie on an odd S, and the add that
    leaves the binade each take one plain add.  Per-play regret is never
    negative, so a negative or non-finite input raises ValueError.
    """
    s, v = float(total), float(value)
    if not (s >= 0.0 and v >= 0.0 and math.isfinite(s) and math.isfinite(v)):
        raise ValueError(f"regret sums need a finite total and value >= 0, got {s!r} and {v!r}")
    if plays <= 0:
        return s
    if v == 0.0:
        return s + v
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
        return self.rounds[-1].chosen_arm if self.rounds else None

    def optimal_arm_survived(self) -> bool:
        return self.optimal_arm in self.final_active

    # The JSON keys are the field names, but the segments go under
    # "regret_segments".
    def to_json_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["rounds"] = [r.to_json_dict() for r in self.rounds]
        data["regret_segments"] = [[int(c), float(v)] for c, v in data.pop("segments")]
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "RegretTrace":
        kwargs = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        kwargs["rounds"] = [RoundRecord.from_json_dict(r) for r in data["rounds"]]
        kwargs["segments"] = [(int(c), float(v)) for c, v in data["regret_segments"]]
        for count, value in kwargs["segments"]:
            if count < 0 or not (value >= 0.0 and math.isfinite(value)):
                raise ValueError(f"regret segment {[count, value]}: need a play count >= 0 "
                                 "and a finite regret >= 0")
        trace = cls(**kwargs)
        # Sum the segments now, so a sum that overflows fails the load.
        if not math.isfinite(trace.final_regret):
            raise ValueError("regret segments sum past the largest float")
        return trace


def _fit_coreset_to_budget(coreset: Coreset, budget: int) -> Coreset:
    """Trim play counts to the budget by the module docstring's rule, in closed
    form: cap every count at the lowest level that covers the budget, and take
    one more play off each of the last entries at that level."""
    if coreset.total <= budget:
        return coreset
    counts = [n for _, n in coreset.entries]
    level = bisect.bisect_left(range(max(counts)), budget,
                               key=lambda cap: sum(min(n, cap) for n in counts))
    extra = sum(min(n, level) for n in counts) - budget
    entries = [(idx, min(n, level)) for idx, n in coreset.entries]
    at_level = [j for j, (_, n) in enumerate(entries) if n == level]
    for j in at_level[len(at_level) - extra:]:
        entries[j] = (entries[j][0], level - 1)
    return replace(coreset, entries=[(idx, n) for idx, n in entries if n])


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
        theta, diag = robust_least_squares(
            rows, lengths, rewards, rng,
            query_actions=active_vectors,
            clean_scale_sq=_clean_scale_sq(privacy, client_counts),
        )
        return theta, diag, False
    except TooManyRemoved as exc:
        return vanilla_least_squares(rows, lengths, rewards), exc.diagnostics, True


# Designs this process has computed, least recently used first, keyed by
# active-set content.  An entry is a Design with at most _support_bound(r)
# weights, so the cap holds the cache to a few MB.
DESIGN_CACHE_SIZE = 128
DESIGN_TOL = 0.25
_designs: OrderedDict[tuple, Design] = OrderedDict()


def _design_for(sub: ActionSet) -> Design:
    """compute_design(sub, tol=DESIGN_TOL), reused if this process already
    ran it on the same vectors.

    compute_design is deterministic, so equal bytes give a bit-equal design
    and a reused one leaves every trace byte as it was.  Cached designs are
    shared between cells, and callers cannot change them: a Design is
    frozen and its weights are a read-only mapping.  A miss calls
    compute_design through this module's attribute, so a wrapper installed
    there sees every design actually computed.
    """
    vecs = sub.vectors
    key = (vecs.shape, hashlib.blake2b(vecs.tobytes()).digest())
    design = _designs.get(key)
    if design is not None:
        _designs.move_to_end(key)
        return design
    design = _designs[key] = compute_design(sub, tol=DESIGN_TOL)
    if len(_designs) > DESIGN_CACHE_SIZE:
        _designs.popitem(last=False)
    return design


def _run(
    env: LearnerEnv,
    schedule: Schedule,
    cfg: ThresholdConfig,
    rng: np.random.Generator,
    estimator: str,
) -> RegretTrace:
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
        design = _design_for(sub)
        # Design indices are local to the active subset; map them back to
        # the instance's action indices (active is ascending, so the entry
        # order is unchanged).
        local = build_coreset(design, budget, cfg.model, cfg.nu)
        coreset = replace(local, entries=[(active[j], n) for j, n in local.entries])
        coreset = _fit_coreset_to_budget(coreset, remaining)

        reports = env.play_batch(coreset, i)
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
                active_vectors, all_vectors, env.privacy, rng,
            )
            record.filter_diagnostics = diag
            record.filter_fallback = fallback
            if cfg.model == "M2":
                gamma = threshold_m2(i, schedule, cfg, env.privacy, d, coreset.support_size)
            else:
                gamma = threshold_m1(i, schedule, cfg, env.privacy, d)
            record.gamma = gamma
            record.estimate = theta
            last_estimate = theta
            scores = active_vectors @ theta
            cutoff = float(np.max(scores)) - 2.0 * gamma
            survivors = [active[j] for j in range(len(active)) if scores[j] >= cutoff]
            record.active_after = survivors
            active = survivors
        except OutOfSpan:
            # A truncated coreset failed to span the active set; keep the
            # round's plays but skip elimination.
            record.estimation_skipped = True

        for idx, count in coreset.entries:
            segments.append((count, float(oracle.regrets[idx])))
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
        segments.append((remaining, float(oracle.regrets[chosen])))
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
    rng: np.random.Generator,
) -> RegretTrace:
    """Robust arm elimination over the full horizon."""
    return _run(env, schedule, cfg, rng, estimator="robust")


def run_vanilla_elimination(
    env: LearnerEnv,
    schedule: Schedule,
    cfg: ThresholdConfig,
    rng: np.random.Generator,
) -> RegretTrace:
    """Baseline: plain least squares and corruption-blind thresholds.

    Uses the same schedule and elimination rule but estimates with vanilla
    least squares and zeroes the corruption terms in the width.
    """
    blind = replace(cfg, alpha=0.0)
    return _run(env, schedule, blind, rng, estimator="vanilla")


def run_nonrobust_elimination(
    env: LearnerEnv,
    schedule: Schedule,
    cfg: ThresholdConfig,
    rng: np.random.Generator,
) -> RegretTrace:
    """Ablation: vanilla least squares but corruption-aware widths."""
    return _run(env, schedule, cfg, rng, estimator="vanilla")
