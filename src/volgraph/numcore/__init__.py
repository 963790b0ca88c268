"""Minimal reverse-mode autodiff engine and neural building blocks."""

from .layers import TransformerLayerParams, transformer_encoder_layer
from .optim import AdamState, adam_step
from .params import ParamStore, uniform_init
from .tensor import Tensor, concat, is_grad_enabled, no_grad, take

__all__ = [
    "AdamState",
    "ParamStore",
    "Tensor",
    "TransformerLayerParams",
    "adam_step",
    "concat",
    "is_grad_enabled",
    "no_grad",
    "take",
    "transformer_encoder_layer",
    "uniform_init",
]
