"""Batched stochastic linear bandits with corruption-robust, locally private
least squares estimation.

The public surface re-exports the pieces most users need: action set and
optimal design construction, the filtered least squares estimator, reward
privatization, simulation environments, the phased elimination policy, and
the sweep harness.
"""

from .design import (
    ActionSet,
    Coreset,
    Design,
    build_coreset,
    compute_design,
)
from .env import (
    AdversaryConfig,
    BanditInstance,
    EnvOracle,
    LearnerEnv,
    generate_instance,
    load_instance,
    save_instance,
)
from .errors import (
    BanditError,
    CheckpointOutOfRange,
    ConfigInvalid,
    FailsToConverge,
    InvalidNu,
    OutOfSpan,
    SingularGram,
    TooManyRemoved,
)
from .harness import (
    SweepResult,
    emit_plotdata,
    load_sweep,
    run_cell,
    run_sweep,
    summarize,
    summary_table,
    validate_config,
    write_summary_csv,
)
from .policy import (
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
from .privacy import (
    PrivacyParams,
    laplace_icdf,
    laplace_scale,
)
from .robust import (
    FilterDiagnostics,
    RobustEstimate,
    robust_least_squares,
    spectral_filter,
    vanilla_least_squares,
)
from .seeding import derive_entropy, rng_from, seed_sequence

__version__ = "0.1.0"

__all__ = [
    "ActionSet",
    "AdversaryConfig",
    "BanditError",
    "BanditInstance",
    "CheckpointOutOfRange",
    "ConfigInvalid",
    "Coreset",
    "Design",
    "EnvOracle",
    "FailsToConverge",
    "FilterDiagnostics",
    "InvalidNu",
    "LearnerEnv",
    "OutOfSpan",
    "PrivacyParams",
    "RegretTrace",
    "RobustEstimate",
    "RoundRecord",
    "Schedule",
    "SingularGram",
    "SweepResult",
    "ThresholdConfig",
    "TooManyRemoved",
    "build_coreset",
    "compute_design",
    "default_num_rounds",
    "derive_entropy",
    "emit_plotdata",
    "generate_instance",
    "laplace_icdf",
    "laplace_scale",
    "load_instance",
    "load_sweep",
    "robust_least_squares",
    "rng_from",
    "run_cell",
    "run_elimination",
    "run_nonrobust_elimination",
    "run_sweep",
    "run_vanilla_elimination",
    "save_instance",
    "seed_sequence",
    "spectral_filter",
    "summarize",
    "summary_table",
    "threshold_m1",
    "threshold_m2",
    "validate_config",
    "vanilla_least_squares",
    "write_summary_csv",
]
