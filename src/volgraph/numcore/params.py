"""Named parameter collections with seeded initialization.

Parameters live in insertion order inside a :class:`ParamStore`; the
order is what makes optimizer state, checkpoints and gradient checks
line up across runs.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .tensor import Tensor


def uniform_init(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    """Draw uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) entries."""
    if fan_in < 1:
        raise ConfigError(f"fan_in must be positive, got {fan_in}")
    bound = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-bound, bound, size=shape)


class ParamStore:
    """Ordered mapping of dotted names to trainable tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        t = Tensor(value, requires_grad=True)
        self._params[name] = t
        return t

    def linear(self, rng: np.random.Generator, name: str, d_in: int, d_out: int) -> tuple:
        """Weight (d_out, d_in) plus bias (d_out,), both fan-in scaled."""
        w = self.add(f"{name}.w", uniform_init(rng, (d_out, d_in), d_in))
        b = self.add(f"{name}.b", uniform_init(rng, (d_out,), d_in))
        return w, b

    def layer_norm(self, name: str, d: int) -> tuple:
        gamma = self.add(f"{name}.gamma", np.ones(d))
        beta = self.add(f"{name}.beta", np.zeros(d))
        return gamma, beta

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state_arrays(self, arrays: dict) -> None:
        missing = [n for n in self._params if n not in arrays]
        extra = [n for n in arrays if n not in self._params]
        if missing or extra:
            raise ConfigError(
                f"parameter mismatch: missing={missing[:3]} extra={extra[:3]}"
            )
        for name, t in self._params.items():
            arr = np.asarray(arrays[name])
            if arr.dtype.kind not in "iuf":
                raise ConfigError(f"{name} does not hold real numbers (dtype {arr.dtype})")
            arr = arr.astype(t.data.dtype)
            if not np.isfinite(arr).all():
                raise ConfigError(f"{name} holds a NaN or an infinity")
            if arr.shape != t.data.shape:
                raise ConfigError(
                    f"shape mismatch for {name}: have {t.data.shape}, loading {arr.shape}"
                )
            t.data = arr
