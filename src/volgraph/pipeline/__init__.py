"""Model assembly, training, metrics, transductive modes, checkpoints."""

from .checkpoint import load_checkpoint, save_checkpoint
from .metrics import MetricsReport, build_report
from .model import (
    ModelConfig,
    PreparedQuarter,
    VolatilityModel,
    build_models,
    by_scope,
    masked_mse_tensor,
    predict_windows,
    prepare_quarter,
)
from .training import evaluate, fine_tune, train
from .transductive import transductive_split

__all__ = [
    "MetricsReport",
    "ModelConfig",
    "PreparedQuarter",
    "VolatilityModel",
    "build_models",
    "build_report",
    "by_scope",
    "evaluate",
    "fine_tune",
    "load_checkpoint",
    "masked_mse_tensor",
    "predict_windows",
    "prepare_quarter",
    "save_checkpoint",
    "train",
    "transductive_split",
]
