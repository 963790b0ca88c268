"""Reusable neural building blocks, each core a single tape node.

``linear`` is an affine map and ``attention`` is scaled dot-product
attention; both have hand-written backwards. ``transformer_encoder_layer``
assembles them into one post-norm encoder layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from . import tensor as T
from .params import ParamStore
from .tensor import Tensor


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w.T (+ b) as one tape node. Weight layout is (d_out, d_in).

    ``x`` is (..., d_in) with at least two axes; the weight gradient sums
    over every leading axis of ``x`` at once.
    """
    x, w = T.as_tensor(x), T.as_tensor(w)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: input {x.shape} does not fit weight {w.shape}")
    out = x.data @ w.data.T
    parents = (x, w)
    if b is not None:
        b = T.as_tensor(b)
        out = out + b.data
        parents = (x, w, b)

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = g @ w.data
        gw = g2.T @ x.data.reshape(-1, x.shape[-1])
        if b is None:
            return gx, gw
        return gx, gw, T._sum_to_shape(g, b.shape)

    return T._make(out, parents, backward)


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q @ kᵀ / √dh) @ v over the last two axes, as one tape node.

    ``q`` is (..., m, dh), ``k`` is (..., n, dh) and ``v`` is (..., n, dv),
    all with the same leading axes; the result is (..., m, dv). The
    weights P are formed in place in one (..., m, n) buffer by the same
    numpy ops, in the same order, as an op-by-op tape of ``matmul``,
    ``div``, a max-shifted softmax and ``matmul``, so the output is
    bitwise equal to that chain's. P is the only array the backward
    keeps: it forms dS = P·(dP − Σ dP·P) / √dh and gets each of dq, dk
    and dv with one matmul.
    """
    q, k, v = T.as_tensor(q), T.as_tensor(k), T.as_tensor(v)
    if not (
        q.ndim == k.ndim == v.ndim >= 2
        and q.shape[:-2] == k.shape[:-2] == v.shape[:-2]
        and q.shape[-1] == k.shape[-1]
        and k.shape[-2] == v.shape[-2]
    ):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape} and v {v.shape} do not agree")
    scale = float(np.sqrt(q.shape[-1]))
    p = q.data @ np.swapaxes(k.data, -1, -2)
    p /= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = p @ v.data

    def backward(g):
        gv = np.swapaxes(p, -1, -2) @ g
        ds = g @ np.swapaxes(v.data, -1, -2)  # dP, turned into dS in place
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds /= scale
        gq = ds @ k.data
        # (qᵀ dS)ᵀ, not dSᵀ q: the two round differently, and this one is
        # the product an op-by-op tape forms, so training stays bitwise equal
        gk = np.swapaxes(np.swapaxes(q.data, -1, -2) @ ds, -1, -2)
        return gq, gk, gv

    return T._make(out, (q, k, v), backward)


@dataclass
class TransformerLayerParams:
    """One post-norm encoder layer: self-attention then a two-layer MLP."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ff1_w: Tensor
    ff1_b: Tensor
    ff2_w: Tensor
    ff2_b: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor

    @classmethod
    def init(
        cls,
        store: ParamStore,
        rng: np.random.Generator,
        prefix: str,
        d: int,
        d_ff: int | None = None,
    ) -> "TransformerLayerParams":
        d_ff = 4 * d if d_ff is None else d_ff
        wq, bq = store.linear(rng, f"{prefix}.attn.q", d, d)
        wk, bk = store.linear(rng, f"{prefix}.attn.k", d, d)
        wv, bv = store.linear(rng, f"{prefix}.attn.v", d, d)
        wo, bo = store.linear(rng, f"{prefix}.attn.out", d, d)
        ff1_w, ff1_b = store.linear(rng, f"{prefix}.ff1", d, d_ff)
        ff2_w, ff2_b = store.linear(rng, f"{prefix}.ff2", d_ff, d)
        ln1_gamma, ln1_beta = store.layer_norm(f"{prefix}.ln1", d)
        ln2_gamma, ln2_beta = store.layer_norm(f"{prefix}.ln2", d)
        return cls(
            wq, bq, wk, bk, wv, bv, wo, bo,
            ff1_w, ff1_b, ff2_w, ff2_b,
            ln1_gamma, ln1_beta, ln2_gamma, ln2_beta,
        )


def transformer_encoder_layer(
    x: Tensor, p: TransformerLayerParams, n_heads: int, queries: Tensor | None = None
) -> Tensor:
    """Self-attention + feed-forward with residuals and post-layer-norm.

    ``x`` is a (batch, seq, d) block of equal-length sequences; no padding
    or masking is involved, which keeps every batch element's result
    independent of its batchmates.

    Keys and values always come from every row of ``x``. ``queries``, a
    (batch, m, d) block, picks which rows are computed: the attention
    output, the residual, both layer norms and the feed-forward block run
    on those m rows only, and the result is (batch, m, d). Passing the
    rows of ``x`` at some positions gives exactly those positions' rows of
    the full layer; the default computes every row.
    """
    b, s, d = x.shape
    if d % n_heads != 0:
        raise ShapeError(f"model width {d} not divisible by {n_heads} heads")
    if queries is None:
        queries = x
    elif queries.ndim != 3 or queries.shape[0] != b or queries.shape[2] != d:
        raise ShapeError(f"queries {queries.shape} do not match keys/values {x.shape}")
    m = queries.shape[1]
    dh = d // n_heads

    def split_heads(t: Tensor) -> Tensor:
        return T.swapaxes(T.reshape(t, (b, t.shape[1], n_heads, dh)), 1, 2)

    q = split_heads(linear(queries, p.wq, p.bq))
    k = split_heads(linear(x, p.wk, p.bk))
    v = split_heads(linear(x, p.wv, p.bv))

    ctx = T.reshape(T.swapaxes(attention(q, k, v), 1, 2), (b, m, d))

    h = T.layer_norm(T.add(queries, linear(ctx, p.wo, p.bo)), p.ln1_gamma, p.ln1_beta)
    ff = linear(T.relu(linear(h, p.ff1_w, p.ff1_b)), p.ff2_w, p.ff2_b)
    return T.layer_norm(T.add(h, ff), p.ln2_gamma, p.ln2_beta)
