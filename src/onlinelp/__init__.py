"""One-pass dual-subgradient online algorithms for binary packing programs,
with exact LP baselines, instance generators, and an experiment harness."""

__version__ = "0.1.0"

from .core import (
    Instance,
    MultiInstance,
    RunTrace,
    StepSchedule,
    dual_saa_objective,
    violation_norm,
)
from .simplex import (
    LpSolution,
    solve_binary_exact,
    solve_box_lp,
    solve_relaxation,
    solve_scaled,
)
from .algorithms import (
    AlgorithmConfig,
    AlgorithmKind,
    repair_feasibility,
    run_dla,
    run_multi_soa,
    run_pbd,
    run_sfa,
    run_sna,
    run_soa,
)
from .generators import (
    GeneratorFamily,
    GeneratorSpec,
    PermutationPlan,
    generate,
    permute,
    read_mknap,
    write_mknap,
)
from .metrics import TrialResult, aggregate, evaluate_trial, fit_scaling
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    child_seed,
    load_config,
    load_report,
    run_experiment,
)
