"""Company network encoder: edge-featured graph attention layers.

Each layer first recomputes market states from the current node
embeddings (fresh market parameters per layer), adds them to the node
embeddings (g = v + m'), then aggregates in-neighbor messages weighted
by attention over the in-neighborhood and damped by a symmetric degree
normalization. Edges only point forward in time, so stacking any number
of layers keeps strictly-earlier nodes unaffected by later ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .graphbuild import QuarterGraph, date_groups
from .market import MarketParams, run_market_timeline
from .numcore import (
    ParamStore,
    Tensor,
    add,
    div,
    leaky_relu,
    linear,
    matmul,
    mul,
    relu,
    reshape,
    segment_softmax,
    segment_sum,
    sum_,
    swapaxes,
    take,
    uniform_init,
)

LEAKY_SLOPE = 0.01
EDGE_FEATURE_DIM = 2  # [temporal_weight, similarity]


@dataclass
class GraphArrays:
    """Flat edge-list view of a QuarterGraph, ready for vectorized layers.

    Edges keep the (dst, src) order of the graph's ``EdgeTable``, which
    fixes the accumulation order of every segment reduction — a
    prerequisite for bitwise-reproducible forward passes.
    """

    n_nodes: int
    src: np.ndarray  # (E,)
    dst: np.ndarray  # (E,)
    edge_feat: np.ndarray  # (E, 2)
    dtilde: np.ndarray  # (E,) sqrt(deg~(dst) * deg~(src))
    node_group: np.ndarray  # (N,) date index of each node
    date_gaps: list  # per date, days since previous date
    dates: list

    @classmethod
    def from_graph(cls, graph: QuarterGraph) -> "GraphArrays":
        n = graph.n_nodes
        e = graph.edges  # already sorted by (dst, src)
        # deg~ counts the node's non-self in-edges plus one for its self-loop
        deg = 1.0 + np.bincount(e.dst[e.src != e.dst], minlength=n)
        dtilde = np.sqrt(deg[e.dst] * deg[e.src])

        groups = date_groups(graph)
        node_group = np.empty(n, dtype=np.intp)
        gaps = []
        prev = None
        for gi, (date, members) in enumerate(groups):
            node_group[members] = gi
            gaps.append(0 if prev is None else (date - prev).days)
            prev = date
        return cls(
            n_nodes=n,
            src=e.src,
            dst=e.dst,
            edge_feat=np.column_stack([e.temporal_weight, e.similarity]),
            dtilde=dtilde,
            node_group=node_group,
            date_gaps=gaps,
            dates=[d for d, _ in groups],
        )


@dataclass
class GATLayerParams:
    w0: Tensor  # message weight
    w1_self: Tensor  # self path weight
    attn_pair: Tensor  # (d, 2d): projects v_i ⊕ v_j
    attn_edge: Tensor  # (d, 2): projects the edge feature
    activation: str = "relu"

    @classmethod
    def init(
        cls,
        store: ParamStore,
        rng: np.random.Generator,
        d: int,
        prefix: str,
        activation: str = "relu",
    ) -> "GATLayerParams":
        if activation not in ("relu", "identity"):
            raise ConfigError(f"unknown activation {activation!r}")
        return cls(
            w0=store.add(f"{prefix}.w0", uniform_init(rng, (d, d), d)),
            w1_self=store.add(f"{prefix}.w1_self", uniform_init(rng, (d, d), d)),
            attn_pair=store.add(f"{prefix}.attn_pair", uniform_init(rng, (d, 2 * d), 2 * d)),
            attn_edge=store.add(
                f"{prefix}.attn_edge", uniform_init(rng, (d, EDGE_FEATURE_DIM), EDGE_FEATURE_DIM)
            ),
            activation=activation,
        )


def edge_attention(v: Tensor, arrays: GraphArrays, params: GATLayerParams) -> Tensor:
    """Attention weight per edge, softmax-normalized over each in-neighborhood.

    The raw score of edge j→i is LeakyReLU of the inner product between
    the projected receiver⊕sender pair W_p (v_i ⊕ v_j) and the projected
    edge feature W_e f_ij. With W_r, W_s the receiver and sender column
    halves of W_p, that product is Σ_c f_ij,c ((W_eᵀ W_r v_i)_c +
    (W_eᵀ W_s v_j)_c), so the d-wide products run once per node and
    each edge only mixes two numbers per feature.
    """
    d = v.shape[1]
    proj = matmul(swapaxes(params.attn_edge, 0, 1), params.attn_pair)  # (2, 2d)
    recv = linear(v, take(proj, np.arange(d), axis=1))  # (N, 2)
    send = linear(v, take(proj, np.arange(d, 2 * d), axis=1))  # (N, 2)
    per_feature = add(take(recv, arrays.dst), take(send, arrays.src))  # (E, 2)
    scores = sum_(mul(Tensor(arrays.edge_feat), per_feature), axis=1)
    return segment_softmax(leaky_relu(scores, LEAKY_SLOPE), arrays.dst, arrays.n_nodes)


def gat_layer(
    v: Tensor,
    m_prime_nodes: Tensor,
    arrays: GraphArrays,
    params: GATLayerParams,
) -> tuple[Tensor, np.ndarray]:
    """One message-passing step over g = v + m'.

    Returns the new embeddings and a detached copy of the per-edge
    attention weights for inspection/export.
    """
    if v.shape != m_prime_nodes.shape:
        raise ShapeError(f"market states {m_prime_nodes.shape} misaligned with nodes {v.shape}")
    gamma = edge_attention(v, arrays, params)
    g = add(v, m_prime_nodes)
    coef = reshape(div(gamma, Tensor(arrays.dtilde)), (gamma.shape[0], 1))
    messages = mul(coef, take(g, arrays.src))  # (E, d)
    agg = segment_sum(messages, arrays.dst, arrays.n_nodes)  # (N, d)
    out = add(linear(agg, params.w0), linear(g, params.w1_self))
    if params.activation == "relu":
        out = relu(out)
    return out, gamma.data.copy()


@dataclass
class NetworkDiagnostics:
    """Per-layer attention weights and market internals, numpy copies."""

    gamma: list = field(default_factory=list)  # per layer, (E,)
    beta: list = field(default_factory=list)  # per layer, list of per-date arrays
    delta: list = field(default_factory=list)  # per layer, list of per-date floats


def company_network_encoder(
    v0: Tensor,
    arrays: GraphArrays,
    market_params: list[MarketParams],
    gat_params: list[GATLayerParams],
) -> tuple[Tensor, NetworkDiagnostics]:
    """Alternate market and network encoding for L layers."""
    if len(market_params) != len(gat_params):
        raise ConfigError("need one market parameter set per GAT layer")
    if not gat_params:
        raise ConfigError("at least one layer required")
    diag = NetworkDiagnostics()
    v = v0
    for mp, gp in zip(market_params, gat_params):
        timeline = run_market_timeline(arrays.date_gaps, v, arrays.node_group, mp)
        m_nodes = take(timeline.outputs, arrays.node_group)  # (N, d)
        v, gamma = gat_layer(v, m_nodes, arrays, gp)
        diag.gamma.append(gamma)
        diag.beta.append(timeline.betas)
        diag.delta.append(timeline.deltas)
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
