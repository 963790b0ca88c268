"""Company network encoder: edge-featured graph attention layers.

Each layer first recomputes market states from the current node
embeddings (fresh market parameters per layer), adds them to the node
embeddings (g = v + m'), then aggregates in-neighbor messages weighted
by attention over the in-neighborhood and damped by a symmetric degree
normalization. Edges only point forward in time, so stacking any number
of layers keeps strictly-earlier nodes unaffected by later ones.

A layer is two tape ops with hand-written backwards: the market stage
(``market.run_market_timeline``, which hands each node its date's m′
row) and ``gat_layer``. The GAT's edge softmax is the numpy
segment-softmax kernel that the market pooling shares. Its message sum
is a product with the quarter's (N, K) coefficient matrix C, C[i, j] the
sum of γ/d̃ over the edges j→i and K the node count rounded up to
``SENDER_BLOCK``: ``_affine`` products over fixed 64-column blocks of C
against the matching 64-row blocks of the zero-padded g, added in block
order. A node's row then sums the same blocks in the same order whatever
later nodes the quarter holds, so an earlier node's embedding does not
change when later calls are added. No per-edge row of d numbers is
formed in either direction: the tape keeps C, N·K floats per layer where
a gather of sender rows kept E·d, so C is the smaller once the mean
in-degree exceeds about N/d (the benchmark's quarters have N = 20, 70
and 12; at N = 1000, C is 8 MB per layer). The diagnostics keep, per
layer, the attention γ per edge, the market pooling weight β per node
and the decay δ per date.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .graphbuild import QuarterGraph
from .market import MarketParams, run_market_timeline
from .numcore import ParamStore, Tensor, uniform_init
from .numcore.layers import _affine, _affine_grads
from .numcore.tensor import _make, _segment_reduce, _segment_softmax, _segment_softmax_grad

LEAKY_SLOPE = 0.01
EDGE_FEATURE_DIM = 2  # [temporal_weight, similarity]

# Sender columns per product of the message sum. The width is fixed, not
# tuned: a node's row must go through products of one shape whatever the
# quarter's node count. A plain C @ g, one product over all N senders,
# changed 6 of the 4800 prediction values of criterion 3's two date-prefix
# tests under OpenBLAS 0.3.31's Haswell kernels; the blocked sum changes
# none under its SkylakeX, Haswell or Sandybridge kernels.
SENDER_BLOCK = 64


@dataclass
class GraphArrays:
    """Flat edge-list view of a QuarterGraph, ready for vectorized layers.

    Edges keep the (dst, src) order of the graph's ``EdgeTable``, which
    fixes the accumulation order of every segment reduction and of the
    coefficient scatter — a prerequisite for bitwise-reproducible forward
    passes.
    """

    n_nodes: int
    n_cols: int  # K: n_nodes rounded up to whole SENDER_BLOCKs, the width of C
    src: np.ndarray  # (E,)
    dst: np.ndarray  # (E,)
    pair_index: np.ndarray  # (E,) dst·K + src, each edge's entry of the flat (N, K) matrix C
    src_order: np.ndarray  # (E,) the edges stably sorted by sender, for sums over senders
    edge_feat: np.ndarray  # (E, 2)
    dtilde: np.ndarray  # (E,) sqrt(deg~(dst) * deg~(src))
    node_group: np.ndarray  # (N,) date index of each node
    date_gaps: list  # per date, days since previous date
    dates: list  # per date, the datetime.date, increasing

    @classmethod
    def from_graph(cls, graph: QuarterGraph) -> "GraphArrays":
        n = graph.n_nodes
        e = graph.edges  # already sorted by (dst, src)
        # deg~ counts the node's non-self in-edges plus one for its self-loop
        deg = 1.0 + np.bincount(e.dst[e.src != e.dst], minlength=n)
        dtilde = np.sqrt(deg[e.dst] * deg[e.src])
        days, node_group = np.unique(graph.days, return_inverse=True)
        n_cols = -(-n // SENDER_BLOCK) * SENDER_BLOCK
        return cls(
            n_nodes=n,
            n_cols=n_cols,
            src=e.src,
            dst=e.dst,
            pair_index=e.dst * n_cols + e.src,
            src_order=np.argsort(e.src, kind="stable"),
            edge_feat=np.column_stack([e.temporal_weight, e.similarity]),
            dtilde=dtilde,
            node_group=node_group,
            date_gaps=np.diff(days, prepend=days[:1]).tolist(),
            dates=[dt.date.fromordinal(d) for d in days.tolist()],
        )


@dataclass
class GATLayerParams:
    w0: Tensor  # message weight
    w1_self: Tensor  # self path weight
    attn_pair: Tensor  # (d, 2d): projects v_i ⊕ v_j
    attn_edge: Tensor  # (d, 2): projects the edge feature

    @classmethod
    def init(
        cls, store: ParamStore, rng: np.random.Generator, d: int, prefix: str
    ) -> "GATLayerParams":
        return cls(
            w0=store.add(f"{prefix}.w0", uniform_init(rng, (d, d), d)),
            w1_self=store.add(f"{prefix}.w1_self", uniform_init(rng, (d, d), d)),
            attn_pair=store.add(f"{prefix}.attn_pair", uniform_init(rng, (d, 2 * d), 2 * d)),
            attn_edge=store.add(
                f"{prefix}.attn_edge", uniform_init(rng, (d, EDGE_FEATURE_DIM), EDGE_FEATURE_DIM)
            ),
        )


def edge_attention(
    v: np.ndarray, arrays: GraphArrays, proj: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Attention weight per edge, softmax-normalized over each in-neighborhood.

    The raw score of edge j→i is the inner product between the projected
    receiver⊕sender pair W_p (v_i ⊕ v_j) and the projected edge feature
    W_e f_ij; its weight is the softmax of LeakyReLU(score) over the
    in-edges of i. With W_r, W_s the receiver and sender column halves of
    W_p, that product is Σ_c f_ij,c ((W_eᵀ W_r v_i)_c + (W_eᵀ W_s v_j)_c),
    so with ``proj`` = W_eᵀ W_p, (2, 2d), the d-wide products run once per
    node and each edge only mixes two numbers per feature.

    A numpy helper of ``gat_layer``: returns the (E,) weights and the (E,)
    raw scores, whose signs set the LeakyReLU slope in the backward.
    """
    d = v.shape[1]
    recv = _affine(v, np.take(proj, np.arange(d), axis=1), None)  # (N, 2)
    send = _affine(v, np.take(proj, np.arange(d, 2 * d), axis=1), None)  # (N, 2)
    per_feature = np.take(recv, arrays.dst, axis=0) + np.take(send, arrays.src, axis=0)
    scores = (arrays.edge_feat * per_feature).sum(axis=1)
    leaky = np.where(scores > 0.0, scores, LEAKY_SLOPE * scores)
    return _segment_softmax(leaky, arrays.dst, arrays.n_nodes), scores


def gat_layer(
    v: Tensor,
    m_prime_nodes: Tensor,
    arrays: GraphArrays,
    params: GATLayerParams,
    relu: bool,
) -> tuple[Tensor, np.ndarray]:
    """One message-passing step over g = v + m', as one tape op.

    Node i receives Σ_j γ_ji / d̃_ji · g_j over its in-edges j→i, with γ
    from ``edge_attention`` on v alone, and returns w0 · that sum +
    w1_self · g_i, through a ReLU when ``relu``. Returns the new
    embeddings and a copy of the per-edge attention weights for
    inspection/export.

    The node's parents are ``v``, ``m_prime_nodes``, ``w0``, ``w1_self``,
    ``attn_pair`` and ``attn_edge``. The forward runs the numpy ops of
    the op-by-op chain (edge scores, segment softmax, the coefficient
    scatter, the blocked message sum, the two maps, ReLU) in that chain's
    order, so its output is bitwise equal to the chain's. Repeated
    (dst, src) pairs add into one entry of C in edge order. The backward
    keeps g, C, the aggregate, γ and the raw scores: g's gradient gains
    Cᵀ ∂agg, and an edge's γ gains (∂agg gᵀ)[dst, src] / d̃.
    """
    if v.shape != m_prime_nodes.shape:
        raise ShapeError(f"market states {m_prime_nodes.shape} misaligned with nodes {v.shape}")
    n, k, src, dst = arrays.n_nodes, arrays.n_cols, arrays.src, arrays.dst
    w0, w1, pair, edge = (t.data for t in (params.w0, params.w1_self, params.attn_pair,
                                           params.attn_edge))
    d = v.shape[1]
    proj = np.swapaxes(edge, 0, 1) @ pair  # (2, 2d)
    gamma, scores = edge_attention(v.data, arrays, proj)
    g = v.data + m_prime_nodes.data
    coef = np.bincount(arrays.pair_index, gamma / arrays.dtilde, n * k).reshape(n, k)  # C
    g_pad = np.zeros((k, d))
    g_pad[:n] = g
    agg = _affine(coef[:, :SENDER_BLOCK], g_pad[:SENDER_BLOCK].T, None)  # (N, d)
    for lo in range(SENDER_BLOCK, k, SENDER_BLOCK):
        agg += _affine(coef[:, lo:lo + SENDER_BLOCK], g_pad[lo:lo + SENDER_BLOCK].T, None)
    out = _affine(agg, w0, None)
    out += _affine(g, w1, None)
    if relu:
        np.maximum(out, 0.0, out=out)

    def backward(grad):
        if relu:
            grad = grad * (out > 0.0)
        g_agg, g_w0 = _affine_grads(grad, agg, w0)
        g_g, g_w1 = _affine_grads(grad, g, w1)
        g_g += coef[:, :n].T @ g_agg
        g_gamma = (g_agg @ g.T)[dst, src] / arrays.dtilde
        g_scores = _segment_softmax_grad(g_gamma, gamma, dst, n)
        g_scores *= np.where(scores > 0.0, 1.0, LEAKY_SLOPE)
        g_feat = g_scores.reshape(-1, 1) * arrays.edge_feat  # (E, 2)
        # the receiver and sender halves of proj, each an (N, 2) map of v
        g_v_recv, g_wr = _affine_grads(
            _segment_reduce(np.add, g_feat, dst, n, 0.0), v.data, proj[:, :d]
        )
        g_v_send, g_ws = _affine_grads(
            _segment_reduce(np.add, g_feat, src, n, 0.0, arrays.src_order), v.data, proj[:, d:]
        )
        g_proj = np.concatenate([g_wr, g_ws], axis=1)
        g_v = g_g + g_v_recv
        g_v += g_v_send
        return g_v, g_g, g_w0, g_w1, edge @ g_proj, np.swapaxes(g_proj @ pair.T, 0, 1)

    parents = (v, m_prime_nodes, params.w0, params.w1_self, params.attn_pair, params.attn_edge)
    return _make(out, parents, backward), gamma.copy()


@dataclass
class NetworkDiagnostics:
    """Per-layer attention weights and market internals, numpy copies."""

    gamma: list = field(default_factory=list)  # per layer, (E,)
    beta: list = field(default_factory=list)  # per layer, (N,) in node order
    delta: list = field(default_factory=list)  # per layer, (T,) in date order


def company_network_encoder(
    v0: Tensor,
    arrays: GraphArrays,
    layers: list[tuple[MarketParams, GATLayerParams]],
) -> tuple[Tensor, NetworkDiagnostics]:
    """Alternate market and network encoding, one (market, GAT) pair per layer.

    A ReLU follows every GAT step but the last.
    """
    diag = NetworkDiagnostics()
    v = v0
    for layer, (mp, gp) in enumerate(layers):
        m_prime, beta, delta = run_market_timeline(arrays.date_gaps, v, arrays.node_group, mp)
        v, gamma = gat_layer(v, m_prime, arrays, gp, relu=layer < len(layers) - 1)
        diag.gamma.append(gamma)
        diag.beta.append(beta)
        diag.delta.append(delta)
    return v, diag


def attention_export_rows(arrays: GraphArrays, diag: NetworkDiagnostics) -> list[tuple]:
    """(layer, src, dst, gamma, gamma_over_dtilde) rows across all layers."""
    rows = []
    for layer, gamma in enumerate(diag.gamma):
        over = gamma / arrays.dtilde
        for e in range(len(arrays.src)):
            rows.append(
                (layer, int(arrays.src[e]), int(arrays.dst[e]), float(gamma[e]), float(over[e]))
            )
    return rows


def market_export_rows(arrays: GraphArrays, diag: NetworkDiagnostics) -> list[tuple]:
    """(layer, date, node, beta, delta) rows across all layers, dates in order.

    ``beta`` is the node's pooling weight among its date's calls and
    ``delta`` the date's decay coefficient, repeated on each of its rows.
    A date's rows are in node order.
    """
    nodes = np.argsort(arrays.node_group, kind="stable").tolist()
    groups = arrays.node_group[nodes].tolist()
    days = [d.isoformat() for d in arrays.dates]
    rows = []
    for layer, (beta, delta) in enumerate(zip(diag.beta, diag.delta)):
        rows.extend(
            (layer, days[g], n, float(beta[n]), float(delta[g])) for n, g in zip(nodes, groups)
        )
    return rows
