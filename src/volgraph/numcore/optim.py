"""Adam with decoupled weight decay over a packed parameter store.

State lives per parameter store: moment vectors in the store's packed
layout and a shared step counter. ``adam_step`` gathers the gradients
currently attached to the tensors into one gradient vector, checks it
once, and updates parameters and moments in blocks of ``BLOCK`` scalars,
so a step costs a few numpy calls per block rather than per parameter
and its temporaries stay small on large models. Every operation is
elementwise, so the numbers are those of the same rule run array by
array. The moment decays and the denominator's epsilon are Adam's usual
constants. A NaN or an infinity in a gradient raises ``NonFiniteError``
naming the first such parameter, before anything is updated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, NonFiniteError
from .params import ParamStore

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
BLOCK = 8192  # scalars per update block: 64 kB temporaries, cache-resident


@dataclass
class AdamState:
    """First/second moment vectors and a gradient vector, each in the store's
    packed layout; ``grad_views`` holds one view of ``grad`` per parameter,
    in store order. ``step`` is the shared step count."""

    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    grad_views: list
    step: int = 0

    @classmethod
    def for_store(cls, store: ParamStore) -> "AdamState":
        if store.vector is None:
            raise ConfigError("Adam needs a packed parameter store; call pack() first")
        grad = store.zeros()
        return cls(store.zeros(), store.zeros(), grad, store.views(grad))


def adam_step(store: ParamStore, state: AdamState, lr: float, weight_decay: float) -> None:
    """One update over every parameter that received a gradient.

    Weight decay is decoupled from the moment estimates: parameters
    shrink by ``lr * weight_decay * p`` on top of the Adam step. A
    parameter whose ``grad`` is None keeps its data and moments; the
    update runs over each maximal run of parameters that have one.
    """
    missing = []
    for i, ((_, p), dst) in enumerate(zip(store.items(), state.grad_views)):
        if p.grad is None:
            missing.append(i)
            dst.fill(0.0)
        else:
            dst[...] = p.grad
    if not np.isfinite(state.grad).all():
        bad = int(np.flatnonzero(~np.isfinite(state.grad))[0])
        index = int(np.searchsorted(store.offsets, bad, side="right")) - 1
        name = [name for name, _ in store.items()][index]
        raise NonFiniteError(f"non-finite gradient for {name}")

    offsets = store.offsets
    runs = []  # [start, end) of each maximal run of parameters with a gradient
    first = 0
    for i in missing + [len(offsets) - 1]:
        if i > first:
            runs.append((offsets[first], offsets[i]))
        first = i + 1

    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    decay = lr * weight_decay
    buf1, buf2 = np.empty(min(BLOCK, offsets[-1])), np.empty(min(BLOCK, offsets[-1]))
    for start, end in runs:
        for lo in range(start, end, BLOCK):
            hi = min(lo + BLOCK, end)
            g, m, v, p = (x[lo:hi] for x in (state.grad, state.m, state.v, store.vector))
            a, b = buf1[: hi - lo], buf2[: hi - lo]
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=a)
            m += a
            v *= BETA2
            np.multiply(g, g, out=a)
            a *= 1.0 - BETA2
            v += a
            np.divide(v, bc2, out=a)  # v̂
            np.sqrt(a, out=a)
            a += EPS
            np.divide(m, bc1, out=b)  # m̂
            b *= lr
            b /= a
            p -= b
            if weight_decay:
                np.multiply(p, decay, out=b)
                p -= b
