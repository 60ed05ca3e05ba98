"""Heterogeneous-domain SVM adaptation.

Learns a shared augmented feature space for a labeled source domain and a
sparsely labeled target domain whose feature dimensions differ, by
alternating an SVM dual solve with a trace-constrained PSD metric update.
"""

from hfa.core import (
    HfaConfig,
    HfaModel,
    KernelExpansion,
    LinearHfaModel,
    hfa_train,
    hfa_train_linear,
    predict,
    predict_linear,
    prepare_kernels,
)
from hfa.data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_dense_csv,
    load_sparse,
    pca_fit_transform,
    sample_protocol,
    save_dense_csv,
)
from hfa.evaluate import (
    ExperimentReport,
    ExperimentRun,
    accuracy,
    classify,
    render_report,
    run_experiment,
    svm_t_baseline,
    train_multiclass,
)
from hfa.linalg import KernelSpec
from hfa.metric import TransformMetric
from hfa.model_io import load_model, load_model_set, save_model, save_model_set
from hfa.svm import DualProblem, DualSolution, solve_dual

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DualProblem",
    "DualSolution",
    "ExperimentReport",
    "ExperimentRun",
    "HfaConfig",
    "HfaModel",
    "KernelExpansion",
    "KernelSpec",
    "LinearHfaModel",
    "SyntheticSpec",
    "TransformMetric",
    "accuracy",
    "classify",
    "generate_synthetic",
    "hfa_train",
    "hfa_train_linear",
    "load_dense_csv",
    "load_model",
    "load_model_set",
    "load_sparse",
    "pca_fit_transform",
    "predict",
    "predict_linear",
    "prepare_kernels",
    "render_report",
    "run_experiment",
    "sample_protocol",
    "save_dense_csv",
    "save_model",
    "save_model_set",
    "solve_dual",
    "svm_t_baseline",
    "train_multiclass",
    "__version__",
]
