"""Heterogeneous-domain SVM adaptation.

Learns a shared augmented feature space for a labeled source domain and a
sparsely labeled target domain whose feature dimensions differ, by
Frank-Wolfe steps on a trace-constrained PSD metric, each followed by a
warm-started SVM dual solve, until a certified saddle gap is reached.

The names below load with their module on first use (PEP 562), so a
command imports only the modules it runs: `hfa predict` loads neither the
SVM solver, the metric nor the trainer.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the hfa module that defines it
_HOMES = {name: module for module, names in {
    "core": ("HfaConfig", "KernelExpansion"),
    "data": ("Dataset", "SyntheticSpec", "generate_synthetic", "load_dense_csv", "load_sparse", "sample_protocol",
             "save_dense_csv"),
    "evaluate": ("ExperimentReport", "ExperimentRun", "HfaModel", "accuracy", "hfa_train", "prepare_kernels",
                 "render_report", "run_experiment", "svm_t_baseline", "train_multiclass"),
    "linalg": ("KernelSpec",),
    "metric": ("TransformMetric",),
    "model_io": ("load_model_set", "save_model_set"),
    "svm": ("DualSolution", "solve_dual"),
}.items() for name in names}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module 'hfa' has no attribute {name!r}")
    value = getattr(importlib.import_module(f"hfa.{_HOMES[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})
