"""Heterogeneous-domain SVM adaptation.

Learns a shared augmented feature space for a labeled source domain and a
sparsely labeled target domain whose feature dimensions differ, by
Frank-Wolfe steps on a trace-constrained PSD metric, each followed by a
warm-started SVM dual solve, until a certified saddle gap is reached.
"""

from hfa.core import (
    HfaConfig,
    HfaModel,
    KernelExpansion,
    hfa_train,
    prepare_kernels,
)
from hfa.data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_dense_csv,
    load_sparse,
    sample_protocol,
    save_dense_csv,
)
from hfa.evaluate import (
    ExperimentReport,
    ExperimentRun,
    accuracy,
    render_report,
    run_experiment,
    svm_t_baseline,
    train_multiclass,
)
from hfa.linalg import KernelSpec
from hfa.metric import TransformMetric
from hfa.model_io import load_model_set, save_model_set
from hfa.svm import DualSolution, solve_dual

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DualSolution",
    "ExperimentReport",
    "ExperimentRun",
    "HfaConfig",
    "HfaModel",
    "KernelExpansion",
    "KernelSpec",
    "SyntheticSpec",
    "TransformMetric",
    "accuracy",
    "generate_synthetic",
    "hfa_train",
    "load_dense_csv",
    "load_model_set",
    "load_sparse",
    "prepare_kernels",
    "render_report",
    "run_experiment",
    "sample_protocol",
    "save_dense_csv",
    "save_model_set",
    "solve_dual",
    "svm_t_baseline",
    "train_multiclass",
    "__version__",
]
