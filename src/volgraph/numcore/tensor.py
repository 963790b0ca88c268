"""Reverse-mode automatic differentiation over dense numpy arrays.

A :class:`Tensor` wraps one ndarray plus an optional tape node. The
generic ops are only those the model runs: ``concat`` and the row gather
``take``; ``Tensor`` has no arithmetic operators. ``layers`` adds the
fused ``transformer_encoder_layer`` op; ``dialogue._pack_calls``,
``market.run_market_timeline``, ``gnn.gat_layer``,
``pipeline.model.window_head`` and ``pipeline.masked_mse_tensor`` are
fused ops of the model itself, each built with ``_make``. ``backward()``
walks the tape once and accumulates gradients into every leaf created
with ``requires_grad=True``.

Segment reductions (``_segment_reduce``: the backward of ``take`` and
the segment sums of the fused ops) stably sort rows by destination and
reduce each run with ``ufunc.reduceat``: every destination reduces its
own rows in their original order, so its result is bitwise independent
of the rows that go elsewhere. ``_segment_softmax`` and
``_segment_softmax_grad`` are the numpy forward and backward of a
softmax within segments, shared by the market pooling and the graph
attention.

Every tensor holds float64: other inputs are converted on construction.
Every tensor is checked to be finite when it is created: a NaN or an
infinity raises ``NonFiniteError`` (a ``FloatingPointError``) at the op
that produced it, and ``_make`` names that op in the message.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteError, ShapeError

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


class no_grad:
    """Context manager that disables tape construction inside its block."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """Dense n-dimensional array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_needs")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward_fn = _backward
        self._needs = self.requires_grad or any(p._needs for p in _parents)
        if not np.isfinite(self.data).all():
            raise NonFiniteError("tensor holds non-finite values")

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``.grad``; ``self`` is scalar."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar output, got shape {self.shape}")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p._needs and id(p) not in seen:
                    stack.append((p, False))

        flows: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = flows.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            if node._backward_fn is None:
                continue
            for parent, pg in zip(node._parents, node._backward_fn(g)):
                if pg is None or not parent._needs:
                    continue
                pid = id(parent)
                if pid in flows:
                    flows[pid] = flows[pid] + pg
                else:
                    flows[pid] = pg


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _make(data, parents, backward) -> Tensor:
    """The op's output; a NaN or an infinity in it raises ``NonFiniteError`` naming the op.

    The op's name is that of the function that defined ``backward``.
    """
    try:
        if _GRAD_ENABLED and any(p._needs for p in parents):
            return Tensor(data, _parents=tuple(parents), _backward=backward)
        return Tensor(data)
    except NonFiniteError as e:
        op = backward.__qualname__.split(".<locals>")[0]
        raise NonFiniteError(f"{op} produced non-finite values") from e


def concat(parts: list, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(parts))
        )

    return _make(out, tuple(parts), backward)


def _segment_reduce(ufunc, values: np.ndarray, seg: np.ndarray, num_segments: int, fill):
    """Reduce rows of ``values`` into ``num_segments`` buckets along axis 0.

    Rows are stably sorted by segment and each non-empty run is reduced
    with ``ufunc.reduceat``, so a segment's result depends only on its own
    rows, taken in their original order. Empty segments hold ``fill``.
    """
    out = np.full((num_segments,) + values.shape[1:], fill, dtype=values.dtype)
    if seg.size == 0:
        return out
    if seg.min() < 0:
        raise IndexError(f"negative segment id {seg.min()}")
    counts = np.bincount(seg, minlength=num_segments)
    if counts.size > num_segments:
        raise IndexError(f"segment id {seg.max()} out of range for {num_segments} segments")
    if counts.max() == 1:  # a plain scatter, no reduction
        out[seg] = values
        return out
    if np.any(seg[1:] < seg[:-1]):
        values = values[np.argsort(seg, kind="stable")]
    present = np.flatnonzero(counts)
    starts = np.cumsum(counts)[present] - counts[present]
    out[present] = ufunc.reduceat(values, starts, axis=0)
    return out


def _segment_softmax(scores: np.ndarray, seg: np.ndarray, num_segments: int) -> np.ndarray:
    """Softmax of the flat ``scores`` within each segment.

    Each score is shifted by its segment's maximum, exponentiated and
    divided by its segment's ``_segment_reduce`` sum, so every weight
    depends only on the scores of its own segment.
    """
    shift = _segment_reduce(np.maximum, scores, seg, num_segments, -np.inf)
    e = np.exp(scores - shift[seg])
    return e / _segment_reduce(np.add, e, seg, num_segments, 0.0)[seg]


def _segment_softmax_grad(g: np.ndarray, w: np.ndarray, seg: np.ndarray, num_segments: int):
    """Score gradient of ``w = _segment_softmax(scores)`` for weight gradient ``g``.

    Per segment, w·(g − Σ g·w).
    """
    return w * (g - _segment_reduce(np.add, g * w, seg, num_segments, 0.0)[seg])


def take(a, indices) -> Tensor:
    """Gather rows by integer index."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    out = np.take(a.data, idx, axis=0)
    n = a.shape[0]

    def backward(g):
        flat = idx.ravel() % max(n, 1)  # the forward checked the range; wrap negatives
        rows = g.reshape((flat.size,) + a.shape[1:])
        return (_segment_reduce(np.add, rows, flat, n, 0.0),)

    return _make(out, (a,), backward)
