"""Adam with decoupled weight decay.

State lives per parameter store; ``adam_step`` consumes the gradients
currently attached to the tensors and advances the shared step counter.
The moment decays and the denominator's epsilon are Adam's usual
constants. A NaN or an infinity in a gradient raises ``NonFiniteError``
naming the parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NonFiniteError
from .params import ParamStore

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers plus the shared step count."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_store(cls, store: ParamStore) -> "AdamState":
        state = cls()
        for name, t in store.items():
            state.m[name] = np.zeros_like(t.data)
            state.v[name] = np.zeros_like(t.data)
        return state


def adam_step(store: ParamStore, state: AdamState, lr: float, weight_decay: float) -> None:
    """One update over every parameter that received a gradient.

    Weight decay is decoupled from the moment estimates: parameters
    shrink by ``lr * weight_decay * p`` on top of the Adam step.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in store.items():
        if p.grad is None:
            continue
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + EPS)
        if weight_decay:
            p.data = p.data - lr * weight_decay * p.data
