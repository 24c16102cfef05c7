"""Square-root minimum-volume NMF: solvers, metrics, data generators.

Submodules import numpy lazily through this package interface, so
process-level knobs (BLAS thread caps, warnings filters) can be set
before any numerical code loads.
"""

import importlib

__version__ = "0.1.0"

# Public name -> owning submodule.
_EXPORTS = {
    # errors
    "SqrtMinvolError": "errors",
    "InvalidInputError": "errors",
    "NumericalFaultError": "errors",
    # linear algebra kernels
    "frobenius_norm": "linalg",
    "shifted_gram": "linalg",
    # projections
    "project_nonneg": "projections",
    "project_H_columns": "projections",
    # matrix text files
    "read_matrix": "matrixio",
    "write_matrix": "matrixio",
    "write_table": "matrixio",
    # initialization
    "SnpaResult": "initialization",
    "snpa": "initialization",
    "nnls_capped_simplex": "initialization",
    # baseline solver
    "MinvolConfig": "baseline",
    "objective_minvol": "baseline",
    "lambda_from_init": "baseline",
    # square-root solver
    "SqrtConfig": "solver",
    "FactorPair": "solver",
    "SolveTrace": "solver",
    "f_eps": "solver",
    "residual_r": "solver",
    "lambda_k": "solver",
    "sqrt_minvol": "solver",
    "solve": "solver",
    # metrics
    "rel_rmse_X": "metrics",
    "rel_rmse_W": "metrics",
    "align_columns": "metrics",
    "AlignmentResult": "metrics",
    # data generation
    "InstanceSpec": "datagen",
    "GroundTruth": "datagen",
    "fixed_W4": "datagen",
    "dirichlet_H": "datagen",
    "random_uniform_W": "datagen",
    "add_uniform_noise": "datagen",
    "make_instance": "datagen",
    # sweeps
    "ExperimentSpec": "sweep",
    "SweepRecord": "sweep",
    "run_sweep": "sweep",
    "summarize": "sweep",
    "parse_generator_config": "sweep",
    "parse_experiment_config": "sweep",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        modname = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{modname}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
