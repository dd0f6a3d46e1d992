"""Scattered-data interpolation with a hybrid Gaussian-cubic radial kernel.

The toolkit covers the full workflow: radial kernels (including the hybrid
Gaussian-cubic blend), dense interpolation systems with optional linear
polynomial augmentation, RMS and leave-one-out cross-validation objectives,
a bounded global-best particle swarm for parameter search, and a seeded
benchmark harness with CSV reports.
"""

from .errors import (
    ConfigError,
    DegenerateInputError,
    DomainError,
    EigensolverError,
    NumericalBreakdownError,
    SingularSystemError,
    ToolkitError,
)
from .geometry import (
    EvaluationGrid,
    PointSet,
    make_evaluation_grid,
    make_halton_set,
    make_tensor_grid,
    min_separation,
    pairwise_distances,
    read_points_csv,
    write_points_csv,
)
from .interpolation import (
    AssembledSystem,
    InterpolationModel,
    SpectralReport,
    assemble,
    evaluate,
    fit,
    inverse_diagonal,
    load_model,
    save_model,
    spectral_report,
)
from .kernels import (
    KERNEL_KINDS,
    KernelSpec,
    eval_kernel,
    eval_kernel_batch,
)
from .objectives import (
    CostValue,
    ObjectiveSpec,
    SENTINEL_COST,
    kernel_objective,
    loocv_cost_brute,
    loocv_cost_rippa,
    objective_value,
    rms_error,
)
from .pso import (
    OptimizationTrace,
    PsoConfig,
    PsoResult,
    pso_minimize,
    write_trace_csv,
)
from .bench import (
    ExperimentReport,
    ExperimentSpec,
    franke,
    linear_truth,
    run_study,
    synthetic_fault_surface,
)

__version__ = "0.1.0"

__all__ = [
    "AssembledSystem",
    "ConfigError",
    "CostValue",
    "DegenerateInputError",
    "DomainError",
    "EigensolverError",
    "EvaluationGrid",
    "ExperimentReport",
    "ExperimentSpec",
    "InterpolationModel",
    "KERNEL_KINDS",
    "KernelSpec",
    "NumericalBreakdownError",
    "ObjectiveSpec",
    "OptimizationTrace",
    "PointSet",
    "PsoConfig",
    "PsoResult",
    "SENTINEL_COST",
    "SingularSystemError",
    "SpectralReport",
    "ToolkitError",
    "assemble",
    "eval_kernel",
    "eval_kernel_batch",
    "evaluate",
    "fit",
    "franke",
    "inverse_diagonal",
    "kernel_objective",
    "linear_truth",
    "load_model",
    "loocv_cost_brute",
    "loocv_cost_rippa",
    "make_evaluation_grid",
    "make_halton_set",
    "make_tensor_grid",
    "min_separation",
    "objective_value",
    "pairwise_distances",
    "pso_minimize",
    "read_points_csv",
    "rms_error",
    "run_study",
    "save_model",
    "spectral_report",
    "synthetic_fault_surface",
    "write_points_csv",
    "write_trace_csv",
]
