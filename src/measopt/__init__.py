"""Sparse measure-valued control of semilinear elliptic equations.

The package solves -Lap u + g(u) = mu with zero Dirichlet data on box
grids, where mu is a discrete measure (point atoms plus a density) and
g is a nondecreasing nonlinearity with g(0) = 0, and minimizes

    F(mu) = ||u(mu) - u_d||_{L^p} + alpha * ||mu||_tv

over controls by proximal gradient descent.  Scripted experiments
reproduce the verifiable phenomena of this problem class: the
absorption estimate, truncation inequalities, minimizer regularity,
nonconvexity of F, mollification stability, and the collapse of
mollified point sources under supercritical absorption.
"""
from .grid import (Grid, ScalarField, build_grid, constant_field, load_field,
                   lp_norm, named_field, neg_laplacian_apply, save_field,
                   w11_norm, zeros_field)
from .measures import (DiscreteMeasure, bump_kernel, describe, mollify,
                       negate, rasterize, scale, tv_norm)
from .nonlinearity import Nonlinearity, nonlinearity_from_config
from .solver import (ConvergenceError, LevelRecord, ReducedLimitResult,
                     SolveReport, TruncationCheck, lemma_truncation_check,
                     reduced_limit, residual_measure, solve_linear,
                     solve_semilinear, truncate_max, truncate_min)
from .control import (ControlProblem, OptimResult, OptimizeConfig,
                      RegularityReport, SweepRow, adjoint_gradient, alpha_sweep,
                      check_state_regularity, evaluate_cost, optimize)
from .experiments import (ExperimentReport, ExperimentSpec, list_experiments,
                          run_experiment)

__version__ = "0.1.0"

__all__ = [
    "Grid", "ScalarField", "build_grid", "constant_field", "load_field",
    "lp_norm", "named_field", "neg_laplacian_apply", "save_field", "w11_norm",
    "zeros_field",
    "DiscreteMeasure", "bump_kernel", "describe", "mollify", "negate",
    "rasterize", "scale", "tv_norm",
    "Nonlinearity", "nonlinearity_from_config",
    "ConvergenceError", "LevelRecord", "ReducedLimitResult", "SolveReport",
    "TruncationCheck", "lemma_truncation_check", "reduced_limit",
    "residual_measure", "solve_linear", "solve_semilinear", "truncate_max",
    "truncate_min",
    "ControlProblem", "OptimResult", "OptimizeConfig", "RegularityReport",
    "SweepRow", "adjoint_gradient", "alpha_sweep", "check_state_regularity",
    "evaluate_cost", "optimize",
    "ExperimentReport", "ExperimentSpec", "list_experiments", "run_experiment",
    "__version__",
]
