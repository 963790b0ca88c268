"""Generic tape ops and the op-by-op chains that the library's fused ops replace.

The broadcasting arithmetic, ``matmul``, ``swapaxes``, the reductions and
the pointwise ``exp``/``tanh``/``sigmoid`` are tape ops built with
``_make``. The model runs none of them: it runs fused ops with
hand-written backwards. They stay here as the references those fused ops
are checked against, with the arithmetic they had as library ops.

Each ``*_chain`` function builds the same numpy operations as a fused
op, in the same order, from per-op tape nodes, so the fused op must match
its forward bitwise and its gradients to rounding. The segment and
LeakyReLU ops are kept here as tape ops too; the library runs them only
inside the fused ops.
"""

from __future__ import annotations

import numpy as np

import volgraph.numcore as nc
from volgraph.errors import ShapeError
from volgraph.gnn import LEAKY_SLOPE
from volgraph.numcore.tensor import Tensor, _make, _segment_reduce, as_tensor


def _sum_to_shape(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Undo numpy broadcasting: reduce ``g`` back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ts) in enumerate(zip(g.shape, shape)) if ts == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        return _sum_to_shape(g, a.shape), _sum_to_shape(g, b.shape)

    return _make(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g):
        return _sum_to_shape(g, a.shape), _sum_to_shape(-g, b.shape)

    return _make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        return _sum_to_shape(g * b.data, a.shape), _sum_to_shape(g * a.data, b.shape)

    return _make(out, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def backward(g):
        ga = _sum_to_shape(g / b.data, a.shape)
        gb = _sum_to_shape(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _make(out, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch broadcasting; operands must be >= 2-D."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(g):
        ga = _sum_to_shape(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _sum_to_shape(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _make(out, (a, b), backward)


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    a = as_tensor(a)
    out = np.swapaxes(a.data, axis1, axis2)

    def backward(g):
        return (np.swapaxes(g, axis1, axis2),)

    return _make(out, (a,), backward)



def _expand_reduced(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(shape)), shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(a % len(shape) for a in axes)
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def backward(g):
        return (_expand_reduced(g, shape, axis, keepdims).copy(),)

    return _make(out, (a,), backward)


def mean_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.shape
    count = a.data.size if axis is None else np.prod(
        [shape[ax % len(shape)] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def backward(g):
        return (_expand_reduced(g, shape, axis, keepdims) / count,)

    return _make(out, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return _make(out, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out * out),)

    return _make(out, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # 0.5*(1+tanh(x/2)) avoids overflow on large negative inputs
    out = 0.5 * (1.0 + np.tanh(0.5 * a.data))

    def backward(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), backward)


def segment_sum(a, seg, num_segments):
    seg = np.asarray(seg, dtype=np.intp)
    out = _segment_reduce(np.add, a.data, seg, num_segments, 0.0)
    return _make(out, (a,), lambda g: (np.take(g, seg, axis=0),))


def leaky_relu(a, slope=LEAKY_SLOPE):
    out = np.where(a.data > 0.0, a.data, slope * a.data)
    return _make(out, (a,), lambda g: (g * np.where(a.data > 0.0, 1.0, slope),))


def segment_softmax(scores, seg, num_segments):
    seg = np.asarray(seg, dtype=np.intp)
    shift = _segment_reduce(np.maximum, scores.data, seg, num_segments, -np.inf)
    e = exp(sub(scores, nc.Tensor(shift[seg])))
    return div(e, nc.take(segment_sum(e, seg, num_segments), seg))


def market_attention_chain(embeddings, node_group, n_dates, params):
    """Keys, scaled scores, segment softmax, weighted segment sum; returns (pooled, β)."""
    n, d = embeddings.shape
    keys = nc.linear(embeddings, params.w_k)
    scores = div(matmul(keys, nc.reshape(params.w_q, (d, 1))), float(np.sqrt(d)))
    beta = segment_softmax(nc.reshape(scores, (n,)), node_group, n_dates)
    pooled = segment_sum(mul(nc.reshape(beta, (n, 1)), embeddings), node_group, n_dates)
    return pooled, beta


def gat_layer_chain(v, m_prime_nodes, arrays, params):
    """Edge scores, segment softmax, scaled messages, segment sum, maps; returns (out, γ)."""
    d = v.shape[1]
    proj = matmul(swapaxes(params.attn_edge, 0, 1), params.attn_pair)
    recv = nc.linear(v, nc.take(proj, np.arange(d), axis=1))
    send = nc.linear(v, nc.take(proj, np.arange(d, 2 * d), axis=1))
    per_feature = add(nc.take(recv, arrays.dst), nc.take(send, arrays.src))
    scores = sum_(mul(nc.Tensor(arrays.edge_feat), per_feature), axis=1)
    gamma = segment_softmax(leaky_relu(scores), arrays.dst, arrays.n_nodes)
    g = add(v, m_prime_nodes)
    coef = nc.reshape(div(gamma, nc.Tensor(arrays.dtilde)), (gamma.shape[0], 1))
    agg = segment_sum(mul(coef, nc.take(g, arrays.src)), arrays.dst, arrays.n_nodes)
    out = add(nc.linear(agg, params.w0), nc.linear(g, params.w1_self))
    if params.activation == "relu":
        out = nc.relu(out)
    return out, gamma


def masked_mse_chain(preds, labels, mask):
    """Per window: gather the masked rows, subtract, square, mean; then the
    window terms summed in order and scaled by 1/len(preds)."""
    idx = np.flatnonzero(mask)
    total = None
    for tau, pred in preds.items():
        diff = sub(nc.take(pred, idx), nc.Tensor(labels[tau][idx]))
        term = mean_(mul(diff, diff))
        total = term if total is None else add(total, term)
    return mul(total, 1.0 / len(preds))
