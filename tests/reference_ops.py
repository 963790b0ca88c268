"""The op-by-op tape chains that the fused market pooling and GAT layer replace.

Each function builds the same numpy operations, in the same order, from
per-op tape nodes, so the fused ops must match their forwards bitwise and
their gradients to rounding. The segment and LeakyReLU ops are kept here
as tape ops built with ``_make``; the library runs them only inside the
fused ops.
"""

from __future__ import annotations

import numpy as np

import volgraph.numcore as nc
from volgraph.gnn import LEAKY_SLOPE
from volgraph.numcore.tensor import _make, _segment_reduce


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
    e = nc.exp(nc.sub(scores, nc.Tensor(shift[seg])))
    return nc.div(e, nc.take(segment_sum(e, seg, num_segments), seg))


def market_attention_chain(embeddings, node_group, n_dates, params):
    """Keys, scaled scores, segment softmax, weighted segment sum; returns (pooled, β)."""
    n, d = embeddings.shape
    keys = nc.linear(embeddings, params.w_k)
    scores = nc.div(nc.matmul(keys, nc.reshape(params.w_q, (d, 1))), float(np.sqrt(d)))
    beta = segment_softmax(nc.reshape(scores, (n,)), node_group, n_dates)
    pooled = segment_sum(nc.mul(nc.reshape(beta, (n, 1)), embeddings), node_group, n_dates)
    return pooled, beta


def gat_layer_chain(v, m_prime_nodes, arrays, params):
    """Edge scores, segment softmax, scaled messages, segment sum, maps; returns (out, γ)."""
    d = v.shape[1]
    proj = nc.matmul(nc.swapaxes(params.attn_edge, 0, 1), params.attn_pair)
    recv = nc.linear(v, nc.take(proj, np.arange(d), axis=1))
    send = nc.linear(v, nc.take(proj, np.arange(d, 2 * d), axis=1))
    per_feature = nc.add(nc.take(recv, arrays.dst), nc.take(send, arrays.src))
    scores = nc.sum_(nc.mul(nc.Tensor(arrays.edge_feat), per_feature), axis=1)
    gamma = segment_softmax(leaky_relu(scores), arrays.dst, arrays.n_nodes)
    g = nc.add(v, m_prime_nodes)
    coef = nc.reshape(nc.div(gamma, nc.Tensor(arrays.dtilde)), (gamma.shape[0], 1))
    agg = segment_sum(nc.mul(coef, nc.take(g, arrays.src)), arrays.dst, arrays.n_nodes)
    out = nc.add(nc.linear(agg, params.w0), nc.linear(g, params.w1_self))
    if params.activation == "relu":
        out = nc.relu(out)
    return out, gamma
