"""Named parameter collections with seeded initialization.

Parameters live in insertion order inside a :class:`ParamStore`; the
order is what makes optimizer state, checkpoints and gradient checks
line up across runs.

Once registration ends, :meth:`ParamStore.pack` moves every parameter
into one float64 vector: each parameter's ``data`` becomes a
C-contiguous view of it at an offset rounded up to ``ALIGN`` scalars
(64 bytes), and the pad entries between parameters hold zeros. After
packing, ``add`` raises ``ConfigError``. Code that changes a packed
parameter writes into its ``data`` in place; rebinding ``data`` would
detach the parameter from the vector that the optimizer updates.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .tensor import Tensor

ALIGN = 8  # scalars per 64-byte line; every packed parameter starts on one


def uniform_init(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    """Draw uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) entries."""
    if fan_in < 1:
        raise ConfigError(f"fan_in must be positive, got {fan_in}")
    bound = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-bound, bound, size=shape)


class ParamStore:
    """Ordered mapping of dotted names to trainable tensors.

    After :meth:`pack`, ``vector`` is the one float64 array that holds
    every parameter, ``offsets[i]`` is where the i-th parameter starts in
    it and ``offsets[-1]`` is its length; before, ``vector`` is None.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self.vector: np.ndarray | None = None
        self.offsets: tuple = ()

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if self.vector is not None:
            raise ConfigError(f"cannot add {name!r}: the parameter store is already packed")
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

    def pack(self) -> None:
        """End registration: copy every parameter into one vector and view it from there."""
        starts = [0]
        for t in self._params.values():
            starts.append(starts[-1] + -(-t.data.size // ALIGN) * ALIGN)
        self.offsets = tuple(starts)
        self.vector = self.zeros()
        for t, view in zip(self._params.values(), self.views(self.vector)):
            view[...] = t.data
            t.data = view

    def zeros(self) -> np.ndarray:
        """A zero vector of the packed layout's length, starting on a 64-byte line."""
        n = self.offsets[-1]
        buf = np.zeros(n + ALIGN)
        start = (-buf.ctypes.data % (8 * ALIGN)) // 8
        return buf[start:start + n]

    def views(self, vector: np.ndarray) -> list:
        """Each parameter's (offset, shape) window of a vector in the packed layout."""
        return [
            vector[o:o + t.data.size].reshape(t.data.shape)
            for o, t in zip(self.offsets, self._params.values())
        ]

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state_arrays(self, arrays: dict) -> None:
        """Check every array, then write each into its parameter's ``data`` in place."""
        missing = [n for n in self._params if n not in arrays]
        extra = [n for n in arrays if n not in self._params]
        if missing or extra:
            raise ConfigError(
                f"parameter mismatch: missing={missing[:3]} extra={extra[:3]}"
            )
        checked = []
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
            checked.append(arr)
        for t, arr in zip(self._params.values(), checked):
            t.data[...] = arr
