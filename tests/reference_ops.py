"""Generic tape ops and the op-by-op chains that the library's fused ops replace.

The broadcasting arithmetic, ``matmul``, ``swapaxes``, ``reshape``, the
column gather ``take_cols``, the reductions, the pointwise
``exp``/``tanh``/``sigmoid``/``relu`` and the affine map ``linear`` are
tape ops built with ``_make``. The model runs none of them: it runs fused
ops with hand-written backwards. They stay here as the references those
fused ops are checked against, with the arithmetic they had as library
ops.

Each ``*_chain`` function builds the same numpy operations as a fused
op, in the same order, from per-op tape nodes, so the fused op must match
its forward bitwise and its gradients to rounding. The segment, pair
scatter and LeakyReLU ops are kept here as tape ops too; the library
runs them only inside the fused ops.

``adam_step_per_array`` is the Adam rule as it ran before the parameters
were packed into one vector: about ten numpy calls per parameter array.
``numcore.adam_step`` must match it bitwise.
"""

from __future__ import annotations

import numpy as np

import volgraph.numcore as nc
from volgraph.errors import NonFiniteError, ShapeError
from volgraph.gnn import LEAKY_SLOPE, SENDER_BLOCK
from volgraph.numcore.layers import _affine, _affine_grads, _lead_sum
from volgraph.numcore.optim import BETA1, BETA2, EPS
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


def reshape(a, *shape) -> Tensor:
    a = as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = a.data.reshape(shape)
    orig = a.shape

    def backward(g):
        return (g.reshape(orig),)

    return _make(out, (a,), backward)


def take_cols(a, indices) -> Tensor:
    """Gather the columns ``indices`` of a 2-D tensor."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)

    def backward(g):
        ga = np.zeros(a.shape)
        np.add.at(ga, (slice(None), idx), g)
        return (ga,)

    return _make(np.take(a.data, idx, axis=1), (a,), backward)


def linear(x, w, b=None) -> Tensor:
    """x @ w.T (+ b), weight layout (d_out, d_in); ``x`` is (..., d_in) with
    at least two axes, its rows formed by the library's ``_affine``, and the
    weight gradient sums over every leading axis."""
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: input {x.shape} does not fit weight {w.shape}")
    rows = x.data.reshape(-1, x.shape[-1])
    if b is None:
        out = _affine(rows, w.data, None).reshape(*x.shape[:-1], -1)
        return _make(out, (x, w), lambda g: _affine_grads(g, x.data, w.data))
    b = as_tensor(b)
    out = _affine(rows, w.data, b.data).reshape(*x.shape[:-1], -1)
    return _make(out, (x, w, b), lambda g: (*_affine_grads(g, x.data, w.data), _lead_sum(g)))


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


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def backward(g):
        return (g * (a.data > 0.0),)

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
    """Keys, scores (a ``linear`` map of the keys with w_q as its one weight
    row), scaling, segment softmax, weighted segment sum; returns (pooled, β)."""
    n, d = embeddings.shape
    keys = linear(embeddings, params.w_k)
    scores = div(linear(keys, reshape(params.w_q, (1, d))), float(np.sqrt(d)))
    beta = segment_softmax(reshape(scores, (n,)), node_group, n_dates)
    pooled = segment_sum(mul(reshape(beta, (n, 1)), embeddings), node_group, n_dates)
    return pooled, beta


def reference_scan(xz, xr, xh, gaps, w_d, u_z, u_r, u_h):
    """The recurrence that ``market.gru_scan`` runs, built op for op from per-date tensors."""
    deltas = sigmoid(div(w_d, np.asarray(gaps, dtype=np.float64) + 1))
    uz, ur, uh = (swapaxes(u, 0, 1) for u in (u_z, u_r, u_h))
    a = nc.Tensor(np.zeros((1, xz.shape[1])))
    states = []
    for t in range(xz.shape[0]):
        row = [t]
        z = sigmoid(add(nc.take(xz, row), matmul(a, uz)))
        r = sigmoid(add(nc.take(xr, row), matmul(a, ur)))
        gated = mul(mul(nc.take(deltas, row), r), a)
        a_tilde = tanh(add(nc.take(xh, row), matmul(gated, uh)))
        a = add(a, mul(z, sub(a_tilde, a)))
        states.append(a)
    return nc.concat(states, axis=0)


def market_timeline_chain(date_gaps, embeddings, node_group, params):
    """Pooling, the three input maps, the scan, the output map and the gather of
    each call's date row; returns (m′ rows, β)."""
    p = params
    pooled, beta = market_attention_chain(embeddings, node_group, len(date_gaps), p)
    xz, xr, xh = (linear(pooled, w, b) for w, b in ((p.w_z, p.b_z), (p.w_r, p.b_r), (p.w_h, p.b_h)))
    hidden = reference_scan(xz, xr, xh, date_gaps, p.w_d, p.u_z, p.u_r, p.u_h)
    return nc.take(linear(hidden, p.w_a, p.b_a), node_group), beta


def window_head_chain(v, w1, b1, w2, b2):
    """Hidden map, ReLU, output map, reshape to (N,)."""
    return reshape(linear(relu(linear(v, w1, b1)), w2, b2), (v.shape[0],))


def scatter_pairs(values, index, rows, cols):
    """The (rows, cols) matrix whose flat entry ``index[e]`` sums ``values[e]``, in order."""
    out = np.bincount(index, values.data, rows * cols).reshape(rows, cols)
    return _make(out, (values,), lambda g: (np.take(g.reshape(-1), index),))


def gat_layer_chain(v, m_prime_nodes, arrays, params, with_relu):
    """Edge scores, segment softmax, the coefficient matrix C, the message sum as a
    ``linear`` map per block of ``SENDER_BLOCK`` sender columns added in block order,
    the two maps; returns (out, γ)."""
    d = v.shape[1]
    proj = matmul(swapaxes(params.attn_edge, 0, 1), params.attn_pair)
    recv = linear(v, take_cols(proj, np.arange(d)))
    send = linear(v, take_cols(proj, np.arange(d, 2 * d)))
    per_feature = add(nc.take(recv, arrays.dst), nc.take(send, arrays.src))
    scores = sum_(mul(nc.Tensor(arrays.edge_feat), per_feature), axis=1)
    gamma = segment_softmax(leaky_relu(scores), arrays.dst, arrays.n_nodes)
    g = add(v, m_prime_nodes)
    n, k = arrays.n_nodes, arrays.n_cols
    coef = scatter_pairs(div(gamma, nc.Tensor(arrays.dtilde)), arrays.pair_index, n, k)
    g_pad = nc.concat([g, nc.Tensor(np.zeros((k - n, d)))])
    agg = None
    for lo in range(0, k, SENDER_BLOCK):
        cols = np.arange(lo, lo + SENDER_BLOCK)
        block = linear(take_cols(coef, cols), swapaxes(nc.take(g_pad, cols), 0, 1))
        agg = block if agg is None else add(agg, block)
    out = add(linear(agg, params.w0), linear(g, params.w1_self))
    if with_relu:
        out = relu(out)
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


def adam_step_per_array(params: dict, state: dict, lr: float, weight_decay: float) -> None:
    """One Adam step, array by array, over ``params`` (name -> Tensor).

    ``state`` holds the moment dicts ``"m"`` and ``"v"`` (name -> array,
    updated in place) and the step count ``"step"``. Each parameter's
    ``data`` is rebound to its new value; one whose ``grad`` is None is
    skipped. A non-finite gradient raises after the parameters before it
    were updated.
    """
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for {name}")
        m = state["m"][name]
        v = state["v"][name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + EPS)
        if weight_decay:
            p.data = p.data - lr * weight_decay * p.data
