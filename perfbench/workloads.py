"""The benchmark's workloads: sweep configs generated from a workload seed.

One benchmark run makes several sweeps, each on its own instance, because
the cost of a sweep depends on its instance (how many points the filter
removes, how fast arms are eliminated) about as much as on the machine.
Sweep r of a run with workload seed n uses the sweep seed `sweep_seed(n, r)`,
which feeds both the instance generator and the sweep's `master_seed`.  So
two workload seeds give different instances and RNG streams, and one seed
always gives the same sequence of sweeps.
"""

from dataclasses import dataclass, replace

# Cap on worker processes: BLAS runs single-threaded in every benchmark
# process, so workers x threads stays within the core count.
MAX_WORKERS = 2
MAX_SWEEPS = 1000


def sweep_seed(seed: int, rep: int) -> int:
    """Seed of the rep-th sweep of a run with the given workload seed."""
    if not 0 <= rep < MAX_SWEEPS:
        raise ValueError(f"sweep index {rep} outside [0, {MAX_SWEEPS})")
    return MAX_SWEEPS * seed + rep


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    dim: int
    num_actions: int
    horizon: int
    num_rounds: int | None
    alpha: float  # adversary corruption rate, also the learner's budget
    private: bool
    baselines: tuple[str, ...]
    seeds: int  # cells per variant
    workers: int
    nu: float | None = None
    # run_sweep always runs the robust variant next to the baselines.  A
    # workload that must leave it out drives run_cell per cell instead.
    skip_robust: bool = False

    @property
    def variants(self) -> list[str]:
        lead = [] if self.skip_robust else ["robust"]
        return lead + list(self.baselines)

    @property
    def cells(self) -> int:
        return len(self.variants) * self.seeds

    @property
    def plays(self) -> int:
        """Plays accounted for by one sweep: the horizon of every cell."""
        return self.cells * self.horizon

    def config(self, seed: int) -> dict:
        """The config of the sweep with this sweep seed, in `rpbandits run` format."""
        horizon = self.horizon
        cfg = {
            "version": 1,
            "instance": {"generate": {"dim": self.dim, "num_actions": self.num_actions,
                                      "seed": seed}},
            "schedule": {"horizon": horizon},
            "model": self.model,
            "adversary": {
                "alpha": self.alpha,
                "strategy": "anti-optimal" if self.alpha > 0 else "none",
                "magnitude": 50.0,
            },
            "privacy": {"enabled": self.private, "epsilon": 1.0},
            "threshold": {"delta": 0.05, "alpha": self.alpha},
            "seeds": self.seeds,
            "baselines": list(self.baselines),
            "master_seed": seed,
            "checkpoints": sorted({max(1, horizon // 4), max(1, horizon // 2),
                                   max(1, 3 * horizon // 4), horizon}),
        }
        if self.num_rounds is not None:
            cfg["schedule"]["num_rounds"] = self.num_rounds
        if self.nu is not None:
            cfg["threshold"]["nu"] = self.nu
        return cfg

    def shrunk(self) -> "Workload":
        """A small copy of this workload, for self-tests and smoke runs."""
        return replace(self, horizon=max(1000, self.horizon // 20),
                       num_actions=min(self.num_actions, 200), seeds=min(self.seeds, 2))


WORKLOADS = {w.name: w for w in [
    Workload(
        name="m1-attack",
        model="M1", dim=5, num_actions=50, horizon=40_000, num_rounds=11,
        alpha=0.1, private=True, baselines=("vanilla", "non-robust"), seeds=1,
        workers=1,
    ),
    Workload(
        name="design-wide",
        model="M1", dim=20, num_actions=2000, horizon=20_000, num_rounds=6,
        alpha=0.0, private=False, baselines=("vanilla",), seeds=2, workers=1,
    ),
    Workload(
        name="m1-long",
        model="M1", dim=5, num_actions=50, horizon=1_000_000, num_rounds=None,
        alpha=0.1, private=True, baselines=("non-robust", "vanilla"), seeds=1,
        workers=1, skip_robust=True,
    ),
    Workload(
        name="m2-sweep",
        model="M2", dim=5, num_actions=50, horizon=2_000_000, num_rounds=None,
        alpha=0.1, private=True, baselines=("vanilla",), seeds=16,
        workers=MAX_WORKERS, nu=0.02,
    ),
]}
