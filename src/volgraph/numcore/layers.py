"""The transformer encoder layer as a single tape node, and its numpy kernels.

``transformer_encoder_layer`` is one post-norm encoder layer (multi-head
self-attention, residual, layer norm, a two-layer ReLU MLP, residual,
layer norm) with a hand-written backward. Its numpy kernels (the affine
maps and their gradients, the softmax weights, layer norm) are plain
helpers here, not tape ops; the dialogue projection, the market stage,
the GAT and the heads use the affine pair too.

The layer takes sequences of any lengths packed back to back as one
(R, d) block, the "varlen" layout of FlashAttention-2 (Dao, 2023): the
row-wise work runs once over all R rows as 2-D products, and only the
attention core runs per group of equal-length sequences. Every forward
product of the model, here and in the dialogue, market, graph and head
stages, is ``_affine``: the outputs padded to whole 8-column panels and
the rows run as gemm calls of one fixed (_TILE_ROWS, K) shape, so a row's
result depends neither on the row count nor on its position. Checked on
OpenBLAS 0.3.31 with its SkylakeX, Haswell and Sandybridge kernels; the
tests that encode calls alone and packed, and a quarter's date prefixes
against the whole quarter, are the check on any other.

The attention core runs over query tiles, as in FlashAttention-2: a
length group's queries go in tiles of at most ``_QUERY_TILE`` rows, each
against all of the group's keys, so the largest score block the layer
forms is one tile's (b, H, t, n). The softmax is normalized after the
value product: the queries are scaled by 1/√dh before the score product,
the tile's block holds only exp(s − rowmax), and the (t, dh) context is
divided by the row sums, so no division pass runs over the scores. The
backward keeps no score block: it re-forms each tile's from q, k and the
row max its forward kept.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import ShapeError
from . import tensor as T
from .params import ParamStore, uniform_init
from .tensor import Tensor

_LN_EPS = 1e-5


# Measured on OpenBLAS 0.3.31 (scipy-openblas) with its SkylakeX, Haswell
# and Sandybridge kernels, at 1 and 2 threads, over random shapes and row
# ranges: a row of a gemm call over whole 8-column panels of outputs goes
# through the same arithmetic as the row at any position of another call
# of the same shape. No BLAS promises it. Of tiles of 16 to 152 rows, 64
# scored the benchmark's quarters fastest (2-CPU x86-64, one BLAS thread).
_PANEL = 8
_TILE_ROWS = 64

# Query rows per sequence in one tile of the attention core; a tile's
# (b, H, t, n) score block is the largest the layer forms. One layer of
# the long-calls shape (d = 64, 8 heads, chunks of 51- to 295-row calls)
# ran forward and backward in 63-70 ms at 32 rows and 68-76 ms at 64
# (2-CPU x86-64, one BLAS thread), and the long-calls benchmark's peak RSS
# read 107-108 MB at 32 and 109-110 MB at 64.
_QUERY_TILE = 32


def _affine(a: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """a @ wᵀ (+ b) for (M, K) rows; a row's result depends on neither M nor its position.

    The weight is padded with zero rows to whole 8-column panels, and the
    rows run as gemm calls of one (_TILE_ROWS, K) shape: the whole tiles as
    one batched product over a view of ``a``, the last partial tile padded
    with zero rows, both written into one output. The bias is added in place.
    """
    m, k = a.shape
    n = w.shape[0]
    cols = -(-n // _PANEL) * _PANEL
    if cols != n:
        w = np.concatenate([w, np.zeros((cols - n, k))])
    full = m - m % _TILE_ROWS
    out = np.empty((m, cols))
    if full:
        np.matmul(a[:full].reshape(-1, _TILE_ROWS, k), w.T,
                  out=out[:full].reshape(-1, _TILE_ROWS, cols))
    if full < m:
        last = np.zeros((_TILE_ROWS, k))
        last[: m - full] = a[full:]
        out[full:] = (last @ w.T)[: m - full]
    if cols != n:
        out = out[:, :n].copy()
    if b is not None:
        out += b
    return out


def _affine_grads(g: np.ndarray, a: np.ndarray, w: np.ndarray) -> tuple:
    """Input and weight gradients of ``a @ wᵀ`` for output gradient ``g``."""
    return g @ w, g.reshape(-1, g.shape[-1]).T @ a.reshape(-1, a.shape[-1])


def _lead_sum(g: np.ndarray) -> np.ndarray:
    """Sum over every axis but the last: the gradient of a broadcast bias."""
    return g.sum(axis=tuple(range(g.ndim - 1)))


def _attention_weights(q: np.ndarray, k: np.ndarray, rowmax: np.ndarray | None = None) -> tuple:
    """Unnormalized softmax weights of the scores q @ kᵀ, formed in place in one buffer.

    Returns (e, m): with s = q @ kᵀ, m = rowmax(s) and e = exp(s − m), so
    softmax(s) = e / l for e's row sums l. ``q`` arrives already scaled by
    1/√dh; the caller divides the value product e @ v by l, not e itself.
    Given the ``rowmax`` m of an earlier call on the same q and k, the
    scores are shifted by it, and e comes out bitwise as that call's.
    """
    e = q @ np.swapaxes(k, -1, -2)
    if rowmax is None:
        rowmax = e.max(axis=-1, keepdims=True)
    e -= rowmax
    np.exp(e, out=e)
    return e, rowmax


def _layer_norm(a: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> tuple:
    """Normalize the last axis of ``a`` in place, then scale and shift.

    Returns (output, x̂, 1/σ); ``a`` is overwritten by x̂. a − μ is formed
    once, with μ and σ² rounded as ``np.mean`` and ``np.var`` round them
    (a sum over the axis divided by its length; for σ², of (a − μ)²), so
    the output is bitwise equal to ``(a - a.mean()) / sqrt(a.var() + eps)``
    scaled and shifted.
    """
    n = a.shape[-1]
    a -= a.sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt((a * a).sum(axis=-1, keepdims=True) / n + _LN_EPS)
    a *= inv
    out = a * gamma
    out += beta
    return out, a, inv


def _layer_norm_grads(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma: np.ndarray):
    """Input, gamma and beta gradients of ``_layer_norm`` for output gradient ``g``."""
    gxhat = g * gamma
    m1 = gxhat.mean(axis=-1, keepdims=True)
    m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
    ga = (gxhat - m1 - xhat * m2) * inv
    return ga, _lead_sum(g * xhat), _lead_sum(g)


@dataclass
class TransformerLayerParams:
    """One post-norm encoder layer: self-attention then a two-layer MLP 4·d wide."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
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
    ) -> "TransformerLayerParams":
        wq, bq = store.linear(rng, f"{prefix}.attn.q", d, d)
        # no key bias (the softmax cancels q·b); its draw is kept, so the
        # later parameters initialize as they did with it
        wk = store.add(f"{prefix}.attn.k.w", uniform_init(rng, (d, d), d))
        uniform_init(rng, (d,), d)
        wv, bv = store.linear(rng, f"{prefix}.attn.v", d, d)
        wo, bo = store.linear(rng, f"{prefix}.attn.out", d, d)
        ff1_w, ff1_b = store.linear(rng, f"{prefix}.ff1", d, 4 * d)
        ff2_w, ff2_b = store.linear(rng, f"{prefix}.ff2", 4 * d, d)
        ln1_gamma, ln1_beta = store.layer_norm(f"{prefix}.ln1", d)
        ln2_gamma, ln2_beta = store.layer_norm(f"{prefix}.ln2", d)
        return cls(
            wq, bq, wk, wv, bv, wo, bo,
            ff1_w, ff1_b, ff2_w, ff2_b,
            ln1_gamma, ln1_beta, ln2_gamma, ln2_beta,
        )


_LAYER_FIELDS = tuple(f.name for f in fields(TransformerLayerParams))


def transformer_encoder_layer(
    x: Tensor,
    p: TransformerLayerParams,
    n_heads: int,
    lengths: np.ndarray,
    cls_only: bool = False,
) -> Tensor:
    """Self-attention + feed-forward with residuals and post-layer-norm, one tape node.

    ``x`` is (R, d): sequences packed back to back, ``lengths[i]`` rows for
    sequence i, with sum(lengths) == R. Each row attends only to the rows
    of its own sequence, so no padding or masking is involved. A run of
    equal consecutive lengths is one length group: its attention core runs
    over query tiles of at most ``_QUERY_TILE`` rows per sequence, each a
    (b, H, t, n) block against all n keys, and every other part of the
    layer (the Q/K/V and output maps, both layer norms, the feed-forward
    block) runs once over all rows as 2-D products (``_affine``). The tiles
    depend only on a sequence's own length, so a row's result is bitwise
    independent of the other sequences packed with it.

    Keys and values always come from every row. With ``cls_only`` the
    first row of each sequence is its only query: the attention output,
    the residual, both norms and the feed-forward block run on those rows
    only, and the result is (len(lengths), d), one row per sequence. Each
    equals that row of the full layer; by default every row is computed
    and the result is (R, d).

    The node's parents are ``x`` and the 15 ``TransformerLayerParams``
    tensors in field order. The forward runs the numpy ops of an
    op-by-op tape (separate Q/K/V maps, the query map divided by √dh,
    head split, per query tile the unnormalized softmax weights e and
    their row sums l and e @ v divided by l, head merge, output map,
    residual, norm, MLP, residual, norm) in that tape's order over the
    same padded products, so its output is bitwise equal to the chain's.
    The backward keeps the q, k and v rows, the merged context c, each
    query tile's (b, H, t, 1) row max and row sum l, both norms' x̂ and
    1/σ, the first norm's output and the ReLU output: O(R·d) entries, no
    score block. Per tile it re-forms e from q, k and the kept row max, and
    takes the softmax correction from the context (FlashAttention-2): with
    g′ = gc / l, gv += eᵀ g′ and dS = (g′ vᵀ − rowsum(g′ ∘ c)) ∘ e.
    """
    x = T.as_tensor(x)
    params = tuple(getattr(p, name) for name in _LAYER_FIELDS)
    if x.ndim != 2 or x.shape[1] != p.wq.shape[1]:
        raise ShapeError(f"layer input {x.shape} does not fit model width {p.wq.shape[1]}")
    d = x.shape[1]
    if d % n_heads != 0:
        raise ShapeError(f"model width {d} not divisible by {n_heads} heads")
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 1 or lengths.sum() != x.shape[0]:
        raise ShapeError(f"sequence lengths {lengths.tolist()} do not pack {x.shape[0]} rows")
    rows = np.cumsum(lengths) - lengths if cls_only else None
    qin = x.data if rows is None else x.data[rows]
    (wq, bq, wk, wv, bv, wo, bo,
     ff1_w, ff1_b, ff2_w, ff2_b, ln1_g, ln1_b, ln2_g, ln2_b) = (t.data for t in params)
    dh = d // n_heads
    scale = float(np.sqrt(dh))
    # per length group: its key/value rows and its query rows, b sequences
    # of n rows, m queries each
    cuts = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), len(lengths)]
    blocks, kv_at, q_at = [], 0, 0
    for first, end in zip(cuts, cuts[1:]):
        b, n = end - first, int(lengths[first])
        m = 1 if cls_only else n
        blocks.append((slice(kv_at, kv_at + b * n), slice(q_at, q_at + b * m), b, n, m))
        kv_at, q_at = kv_at + b * n, q_at + b * m

    def split_heads(t: np.ndarray, b: int, n: int) -> np.ndarray:  # (b·n, d) -> (b, H, n, dh)
        return np.swapaxes(t.reshape(b, n, n_heads, dh), 1, 2)

    def merge_heads(t: np.ndarray) -> np.ndarray:  # (b, H, n, dh) -> (b·n, d)
        return np.swapaxes(t, 1, 2).reshape(-1, d)

    q = _affine(qin, wq, bq)
    q /= scale
    k = _affine(x.data, wk, None)
    v = _affine(x.data, wv, bv)
    ctx = np.empty_like(q)
    # per length group: views of its k and v heads, and per query tile
    # views of its q and context heads, its row max and its row sum
    cores = []
    for kv, qs, b, n, m in blocks:
        qh, kh, vh = split_heads(q[qs], b, m), split_heads(k[kv], b, n), split_heads(v[kv], b, n)
        ch = split_heads(ctx[qs], b, m)
        tiles = []
        for t in range(0, m, _QUERY_TILE):
            qt, ct = qh[:, :, t : t + _QUERY_TILE], ch[:, :, t : t + _QUERY_TILE]
            e, rowmax = _attention_weights(qt, kh)
            rowsum = e.sum(axis=-1, keepdims=True)
            c = e @ vh
            c /= rowsum
            ct[...] = c  # into ctx, through the view
            tiles.append((qt, ct, rowmax, rowsum))
        cores.append((kh, vh, tiles))
    a1 = _affine(ctx, wo, bo)
    a1 += qin
    h, xhat1, inv1 = _layer_norm(a1, ln1_g, ln1_b)
    r = _affine(h, ff1_w, ff1_b)
    np.maximum(r, 0.0, out=r)
    a2 = _affine(r, ff2_w, ff2_b)
    a2 += h
    out, xhat2, inv2 = _layer_norm(a2, ln2_g, ln2_b)

    def backward(g):
        ga2, gln2_g, gln2_b = _layer_norm_grads(g, xhat2, inv2, ln2_g)
        gr, gff2_w = _affine_grads(ga2, r, ff2_w)
        gr *= r > 0.0
        gh, gff1_w = _affine_grads(gr, h, ff1_w)
        gh += ga2
        ga1, gln1_g, gln1_b = _layer_norm_grads(gh, xhat1, inv1, ln1_g)
        gctx, gwo = _affine_grads(ga1, ctx, wo)
        gbo = _lead_sum(ga1)  # before ga1 takes on the input gradients below
        gq, gk, gv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        for (kv, qs, b, n, m), (kh, vh, tiles) in zip(blocks, cores):
            gch = split_heads(gctx[qs], b, m)
            gqh = split_heads(gq[qs], b, m)  # the tiles write their query rows through it
            gvh = np.zeros((b, n_heads, n, dh))  # the tiles' eᵀ g′, summed
            gkt = np.zeros((b, n_heads, dh, n))  # the tiles' qᵀ dS, summed
            for t, (qt, ct, rowmax, rowsum) in zip(range(0, m, _QUERY_TILE), tiles):
                e, _ = _attention_weights(qt, kh, rowmax)
                gc = gch[:, :, t : t + _QUERY_TILE] / rowsum  # g′: the gradient of e @ v
                gvh += np.swapaxes(e, -1, -2) @ gc
                ds = gc @ np.swapaxes(vh, -1, -2)  # g′ vᵀ, turned into dS in place
                ds -= np.einsum("bhti,bhti->bht", gc, ct)[..., None]
                ds *= e
                np.matmul(ds, kh, out=gqh[:, :, t : t + _QUERY_TILE])
                # (qᵀ dS)ᵀ, not dSᵀ q: the two round differently, and this one is
                # the product an op-by-op tape forms
                gkt += np.swapaxes(qt, -1, -2) @ ds
            gv[kv] = merge_heads(gvh)
            gk[kv] = merge_heads(np.swapaxes(gkt, -1, -2))
        gq /= scale  # the scores' query is q / √dh
        gxq, gwq = _affine_grads(gq, qin, wq)
        gxk, gwk = _affine_grads(gk, x.data, wk)
        gxv, gwv = _affine_grads(gv, x.data, wv)
        # summed in the order an op-by-op tape adds them: residual, q, k, v
        ga1 += gxq
        if rows is None:
            ga1 += gxk
            ga1 += gxv
            gx = ga1
        else:
            gx = gxk
            gx += gxv
            gx[rows] += ga1
        return (
            gx, gwq, _lead_sum(gq), gwk, gwv, _lead_sum(gv), gwo, gbo,
            gff1_w, _lead_sum(gr), gff2_w, _lead_sum(ga2), gln1_g, gln1_b, gln2_g, gln2_b,
        )

    return T._make(out, (x, *params), backward)
