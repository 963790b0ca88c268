"""Minimal reverse-mode autodiff engine and neural building blocks."""

from .gradcheck import GradCheckReport, grad_check
from .layers import TransformerLayerParams, linear, transformer_encoder_layer
from .optim import AdamState, adam_step
from .params import ParamStore, uniform_init
from .tensor import (
    Tensor,
    add,
    as_tensor,
    concat,
    div,
    exp,
    is_grad_enabled,
    matmul,
    mean_,
    mul,
    no_grad,
    relu,
    reshape,
    sigmoid,
    sub,
    sum_,
    swapaxes,
    take,
    tanh,
)

__all__ = [
    "AdamState",
    "GradCheckReport",
    "ParamStore",
    "Tensor",
    "TransformerLayerParams",
    "adam_step",
    "add",
    "as_tensor",
    "concat",
    "div",
    "exp",
    "grad_check",
    "is_grad_enabled",
    "linear",
    "matmul",
    "mean_",
    "mul",
    "no_grad",
    "relu",
    "reshape",
    "sigmoid",
    "sub",
    "sum_",
    "swapaxes",
    "take",
    "tanh",
    "transformer_encoder_layer",
    "uniform_init",
]
