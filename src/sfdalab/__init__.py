"""Desk-scale laboratory for source-free domain adaptation by attracting
predictions of nearby features and dispersing the rest."""

from .bank import MemoryBank
from .datasets import (
    Dataset,
    MoonsConfig,
    load_csv_dataset,
    make_twin_moons,
    rotate_dataset,
)
from .errors import (
    ConfigError,
    DivergenceError,
    InsufficientDataError,
    InvalidInputError,
    OracleError,
    ParseError,
    ShapeError,
)
from .metrics import (
    EvalReport,
    OdaScores,
    agreement_ratios,
    build_report,
    classification_report,
    decision_grid,
    evaluate_model,
    open_set_scores,
    snd_score,
)
from .model import (
    MlpModel,
    backward,
    forward,
    init_model,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
    sgd_step,
)
from .numerics import (
    finite_diff_grad,
    max_relative_error,
    softmax_rows,
)
from .objectives import (
    LossResult,
    attract_disperse_loss,
    bnm_loss,
    cross_entropy_loss,
    exact_aad_nll,
    infonce_loss,
    jensen_upper_bound,
    lambda_schedule,
    mi_loss,
    nc_loss,
)
from .orchestrator import AdaptConfig, RunHistory, adapt, pretrain_source, sweep_beta

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig",
    "ConfigError",
    "Dataset",
    "DivergenceError",
    "EvalReport",
    "InsufficientDataError",
    "InvalidInputError",
    "LossResult",
    "MemoryBank",
    "MlpModel",
    "MoonsConfig",
    "OdaScores",
    "OracleError",
    "ParseError",
    "RunHistory",
    "ShapeError",
    "adapt",
    "agreement_ratios",
    "attract_disperse_loss",
    "backward",
    "bnm_loss",
    "build_report",
    "classification_report",
    "cross_entropy_loss",
    "decision_grid",
    "evaluate_model",
    "exact_aad_nll",
    "finite_diff_grad",
    "forward",
    "infonce_loss",
    "init_model",
    "jensen_upper_bound",
    "lambda_schedule",
    "load_checkpoint",
    "load_csv_dataset",
    "make_twin_moons",
    "max_relative_error",
    "mi_loss",
    "nc_loss",
    "open_set_scores",
    "predict_labels",
    "pretrain_source",
    "rotate_dataset",
    "save_checkpoint",
    "sgd_step",
    "snd_score",
    "softmax_rows",
    "sweep_beta",
]
