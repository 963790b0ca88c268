"""Encoder-layer invariants over packed sequences: shapes, batchmate
independence, equivariance, and full finite-difference passes over every
layer parameter; the layer, one tape op, against a plain-numpy replay and
an op-by-op tape reference that attend one sequence at a time."""

from __future__ import annotations

import types
from dataclasses import fields

import numpy as np
import pytest

import volgraph.numcore as nc
from volgraph.errors import ShapeError
from volgraph.numcore.layers import (
    _QUERY_TILE,
    _TILE_ROWS,
    TransformerLayerParams,
    _affine,
    _attention_weights,
    transformer_encoder_layer,
)
from volgraph.numcore.params import ParamStore
from volgraph.numcore.tensor import _make

import reference_ops as ro
from reference_ops import linear
from gradcheck import grad_check, n_scalars


def make_layer(rng, d=6):
    store = ParamStore()
    params = TransformerLayerParams.init(store, rng, "layer", d)
    return store, params


class TestLinear:
    def test_matches_numpy(self, rng):
        x = rng.normal(size=(5, 3))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        got = linear(nc.Tensor(x), nc.Tensor(w), nc.Tensor(b)).data
        np.testing.assert_allclose(got, x @ w.T + b, atol=1e-12)

    def test_bias_optional(self, rng):
        x = rng.normal(size=(2, 3))
        w = rng.normal(size=(4, 3))
        got = linear(nc.Tensor(x), nc.Tensor(w)).data
        np.testing.assert_allclose(got, x @ w.T, atol=1e-12)

    def test_zero_bias_changes_nothing(self, rng):
        # the bias is added in place into the product; a zero bias leaves
        # the output and every gradient bitwise as without one
        x = rng.normal(size=(2, 5, 3))
        w = rng.normal(size=(4, 3))
        g = rng.normal(size=(2, 5, 4))
        runs = []
        for bias in (None, nc.Tensor(np.zeros(4), requires_grad=True)):
            xt, wt = nc.Tensor(x, requires_grad=True), nc.Tensor(w, requires_grad=True)
            out = linear(xt, wt, bias)
            ro.sum_(ro.mul(out, nc.Tensor(g))).backward()
            runs.append((out.data, xt.grad, wt.grad))
        for got, want in zip(*runs):
            assert np.array_equal(got, want)

    def test_batched_input(self, rng):
        x = rng.normal(size=(2, 5, 3))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        got = linear(nc.Tensor(x), nc.Tensor(w), nc.Tensor(b)).data
        np.testing.assert_allclose(got, x @ w.T + b, atol=1e-12)


class TestPackedAffine:
    """``_affine``, the one product kernel of every forward row map."""

    @pytest.mark.parametrize(
        "k,n",
        # unpadded, these would be a gemv (N = 1), the small-matrix kernel
        # (K >= 32 and M·N <= 1200), and widths ending in a partial 8-column
        # panel, below and above 193
        [(8, 1), (31, 1), (64, 2), (768, 35), (64, 64), (64, 191), (8, 196), (32, 1204),
         (32, 1208)],
    )
    def test_rows_do_not_depend_on_row_count_or_position(self, rng, k, n, blas_build):
        w, b = rng.normal(size=(n, k)), rng.normal(size=n)
        a = rng.normal(size=(1300, k))
        full = _affine(a, w, b)
        np.testing.assert_allclose(full, a @ w.T + b, rtol=1e-12, atol=1e-12)
        assert np.array_equal(full, blocked_affine(a, w, b))
        r = _TILE_ROWS
        for m in (1, 2, 3, 6, 17, 71, 158, 600, r - 1, r, r + 1):
            for start in (0, 1, 3, 24, 1300 - m):
                got = _affine(a[start : start + m], w, b)
                assert np.array_equal(got, full[start : start + m]), (
                    f"{m} rows from row {start} of ({k} -> {n}) on {blas_build}"
                )
        # every prefix up to two tiles and one row: the rows a shorter
        # quarter or chunk keeps
        for m in range(1, 2 * r + 2):
            assert np.array_equal(_affine(a[:m], w, b), full[:m]), (
                f"the first {m} rows of ({k} -> {n}) on {blas_build}"
            )


PARAM_NAMES = tuple(f.name for f in fields(TransformerLayerParams))

# three length groups (two sequences of 5 rows, one of 7, two of 6), fewer
# rows than one tile, so every product pads its last tile
LENGTHS = np.array([5, 5, 7, 6, 6])

# sequences around and beyond one query tile: a row short of it, one whole
# tile, a row over, two tiles and part of a third; packed together, and
# each alone
TILE_LENGTHS = [_QUERY_TILE - 1, _QUERY_TILE, _QUERY_TILE + 1, 2 * _QUERY_TILE + 3]
TILE_PACKS = [TILE_LENGTHS] + [[n] for n in TILE_LENGTHS]
TILE_PACK_IDS = ["packed"] + [f"alone-{n}" for n in TILE_LENGTHS]


def starts(lengths):
    return np.cumsum(lengths) - lengths


def blocked_affine(a, weight, bias=None):
    """a @ wᵀ (+ b) by the tile rule: the weight padded with zero rows to whole
    8-column panels, the rows cut into tiles of ``_TILE_ROWS`` and the last
    tile padded with zero rows, one product per tile."""
    n, k = weight.shape
    panels = np.zeros((-(-n // 8) * 8, k))
    panels[:n] = weight
    out = []
    for start in range(0, len(a), _TILE_ROWS):
        rows = a[start : start + _TILE_ROWS]
        tile = np.zeros((_TILE_ROWS, k))
        tile[: len(rows)] = rows
        out.append((tile @ panels.T)[: len(rows), :n])
    out = np.concatenate(out)
    return out if bias is None else out + bias


def deferred_attention(q, k, v):
    """The layer's attention core: q / √dh, then per tile of ``_QUERY_TILE``
    query rows the max-shifted exponentials e of the scores against every
    key, and e @ v divided by e's row sums."""
    q = q / float(np.sqrt(q.shape[-1]))
    out = []
    for t in range(0, q.shape[-2], _QUERY_TILE):
        scores = q[..., t : t + _QUERY_TILE, :] @ np.swapaxes(k, -1, -2)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        out.append((e @ v) / e.sum(axis=-1, keepdims=True))
    return np.concatenate(out, axis=-2)


def textbook_attention(q, k, v):
    """softmax(q kᵀ / √dh) · v, the weights normalized before the value product."""
    scores = q @ np.swapaxes(k, -1, -2) / float(np.sqrt(q.shape[-1]))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True) @ v


def replay_layer(x, p, n_heads, lengths, cls_only=False, attention=deferred_attention):
    """The encoder layer as plain numpy, in the op order of an op-by-op tape.

    Separate Q/K/V maps over the packed rows, head split, ``attention``
    (by default the layer's own core, ``deferred_attention``) one sequence
    at a time, head merge, output map, residual, ``np.mean``/``np.var``
    layer norm, ReLU MLP, residual, layer norm. Every row-wise product is
    ``blocked_affine``.
    """
    w = {name: getattr(p, name).data for name in PARAM_NAMES}
    q_in = x[starts(lengths)] if cls_only else x
    d = x.shape[1]
    dh = d // n_heads

    def lin(a, weight, bias=None):
        return blocked_affine(a, w[weight], None if bias is None else w[bias])

    def split(t):  # (n, d) -> (1, H, n, dh)
        return np.swapaxes(t.reshape(1, len(t), n_heads, dh), 1, 2)

    def norm(a, i):
        xhat = (a - a.mean(axis=-1, keepdims=True)) * (
            1.0 / np.sqrt(a.var(axis=-1, keepdims=True) + 1e-5)
        )
        return xhat * w[f"ln{i}_gamma"] + w[f"ln{i}_beta"]

    q, k, v = lin(q_in, "wq", "bq"), lin(x, "wk"), lin(x, "wv", "bv")
    ctx = []
    for i, (start, n) in enumerate(zip(starts(lengths), lengths)):
        qs = slice(i, i + 1) if cls_only else slice(start, start + n)
        kv = slice(start, start + n)
        c = attention(split(q[qs]), split(k[kv]), split(v[kv]))
        ctx.append(np.swapaxes(c, 1, 2).reshape(-1, d))
    h = norm(q_in + lin(np.concatenate(ctx), "wo", "bo"), 1)
    ff = lin(np.maximum(lin(h, "ff1_w", "ff1_b"), 0.0), "ff2_w", "ff2_b")
    return norm(h + ff, 2)


def _rsqrt(t):
    """1/√t as a tape op, for the op-by-op reference layer norm."""
    out = 1.0 / np.sqrt(t.data)
    return _make(out, (t,), lambda g: (-0.5 * g * out**3,))


def reference_layer(x, p, n_heads, lengths, cls_only=False):
    """The encoder layer as an op-by-op tape of generic ``numcore`` ops,
    attending one sequence at a time."""
    q_in = nc.take(x, starts(lengths)) if cls_only else x
    d = x.shape[1]
    dh = d // n_heads

    def split(t):
        return ro.swapaxes(ro.reshape(t, (1, t.shape[0], n_heads, dh)), 1, 2)

    def norm(a, gamma, beta):
        c = ro.sub(a, ro.mean_(a, axis=-1, keepdims=True))
        var = ro.mean_(ro.mul(c, c), axis=-1, keepdims=True)
        return ro.add(ro.mul(ro.mul(c, _rsqrt(ro.add(var, 1e-5))), gamma), beta)

    q = ro.div(linear(q_in, p.wq, p.bq), float(np.sqrt(dh)))
    k, v = linear(x, p.wk), linear(x, p.wv, p.bv)
    ctx = []
    for i, (start, n) in enumerate(zip(starts(lengths), lengths)):
        qs = np.arange(i, i + 1) if cls_only else np.arange(start, start + n)
        kv = np.arange(start, start + n)
        qh, kh, vh = split(nc.take(q, qs)), split(nc.take(k, kv)), split(nc.take(v, kv))
        scores = ro.matmul(qh, ro.swapaxes(kh, -1, -2))
        e = ro.exp(ro.sub(scores, nc.Tensor(scores.data.max(axis=-1, keepdims=True))))
        c = ro.div(ro.matmul(e, vh), ro.sum_(e, axis=-1, keepdims=True))
        ctx.append(ro.reshape(ro.swapaxes(c, 1, 2), (len(qs), d)))
    h = norm(ro.add(q_in, linear(nc.concat(ctx), p.wo, p.bo)), p.ln1_gamma, p.ln1_beta)
    ff = linear(ro.relu(linear(h, p.ff1_w, p.ff1_b)), p.ff2_w, p.ff2_b)
    return norm(ro.add(h, ff), p.ln2_gamma, p.ln2_beta)


def layer_grads(fn, store, params, x, cls_only, w, lengths=LENGTHS):
    """Gradients of sum(fn(...) * w) for x and all 15 parameters."""
    store.zero_grad()
    xt = nc.Tensor(x, requires_grad=True)
    ro.sum_(ro.mul(fn(xt, params, 2, lengths, cls_only=cls_only), nc.Tensor(w))).backward()
    return [xt.grad] + [getattr(params, n).grad for n in PARAM_NAMES]


def shifted_logits(rng, params, lengths, cls_only, shift):
    """An input whose keys shift every query row's scores by up to ``shift``.

    A shift u of every key moves query row i's scores by q_i·u/√dh, the
    same for every key. The layer has no key bias, so the shift comes in
    through the input: column 0 of x is 1 on every row, the queries do not
    read it, and its key weights are u, scaled per head so that the
    largest shift is ``shift``. Returns x; ``params`` is changed in place.
    """
    x = rng.normal(size=(np.sum(lengths), 8))
    x[:, 0] = 1.0
    params.wq.data[:, 0] = 0.0
    n_heads, dh = 2, 4
    q_in = x[starts(lengths)] if cls_only else x
    q = q_in @ params.wq.data.T + params.bq.data
    u = rng.normal(size=8)
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        row_shifts = q[..., cols] @ u[cols] / np.sqrt(dh)
        u[cols] *= shift / row_shifts.flat[np.argmax(np.abs(row_shifts))]
    params.wk.data[:, 0] = u
    return x


def perturbed_layer(rng, d=8):
    """A layer whose norms and biases are off their init values."""
    store, params = make_layer(rng, d=d)
    for _, t in store.items():
        t.data += 0.1 * rng.normal(size=t.shape)
    return store, params


class TestAttention:
    """The encoder layer as one tape op: its self-attention block, residuals,
    norms and MLP against a plain-numpy replay and an op-by-op tape."""

    @pytest.mark.parametrize("m", [5, 1])  # every row, and the CLS query alone
    def test_forward_bitwise_equals_op_by_op_chain(self, rng, m):
        store, params = perturbed_layer(rng)
        x = rng.normal(size=(LENGTHS.sum(), 8))
        cls_only = m == 1
        want = replay_layer(x, params, 2, LENGTHS, cls_only)
        got = transformer_encoder_layer(nc.Tensor(x), params, 2, LENGTHS, cls_only=cls_only).data
        assert got.shape == ((len(LENGTHS) if cls_only else LENGTHS.sum()), 8)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [5, 1])
    @pytest.mark.parametrize("shift", [500.0, -500.0])
    def test_forward_matches_textbook_softmax_under_logit_shifts(self, rng, m, shift):
        # normalizing after the value product must stay within rounding of
        # softmax(q kᵀ/√dh)·v when every score row is shifted by up to ±500
        store, params = perturbed_layer(rng)
        cls_only = m == 1
        x = shifted_logits(rng, params, LENGTHS, cls_only, shift)
        want = replay_layer(x, params, 2, LENGTHS, cls_only, attention=textbook_attention)
        got = transformer_encoder_layer(nc.Tensor(x), params, 2, LENGTHS, cls_only=cls_only).data
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_weight_rows_sum_to_one(self, rng):
        # (b, H, m, n) heads: e's largest entry in each row is exactly 1, so
        # the row sums l lie in [1, n] and e / l is a softmax; the row max
        # is the scores', and handed back it re-forms e bitwise, as the
        # backward re-forms a query tile's weights
        q, k = rng.normal(size=(2, 3, 4, 5)) * 30, rng.normal(size=(2, 3, 7, 5))
        e, rowmax = _attention_weights(q, k)
        rowsum = e.sum(axis=-1, keepdims=True)
        assert e.shape == (2, 3, 4, 7) and rowmax.shape == (2, 3, 4, 1)
        assert np.array_equal(rowmax, (q @ np.swapaxes(k, -1, -2)).max(axis=-1, keepdims=True))
        assert np.array_equal(e.max(axis=-1), np.ones((2, 3, 4)))
        assert np.all((rowsum >= 1.0) & (rowsum <= 7.0))
        np.testing.assert_allclose((e / rowsum).sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        again, same_max = _attention_weights(q, k, rowmax)
        assert same_max is rowmax and np.array_equal(again, e)

    @pytest.mark.parametrize("m", [5, 1])
    def test_gradients_match_op_by_op_chain(self, rng, m):
        store, params = perturbed_layer(rng)
        x = rng.normal(size=(LENGTHS.sum(), 8))
        cls_only = m == 1
        w = rng.normal(size=((len(LENGTHS) if cls_only else LENGTHS.sum()), 8))
        want = layer_grads(reference_layer, store, params, x, cls_only, w)
        got = layer_grads(transformer_encoder_layer, store, params, x, cls_only, w)
        assert len(got) == 1 + 15
        for g, r in zip(got, want):
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        # x and all 15 parameters of the full layer over a chunk of three
        # length groups, whose feed-forward output map is a padded product;
        # the query form is checked in TestQueryRows
        store, params = perturbed_layer(rng, d=8)
        lengths = np.array([3, 3, 2, 4])
        x = store.add("x", rng.normal(size=(lengths.sum(), 8)))
        w = rng.normal(size=(lengths.sum(), 8))

        def loss():
            out = transformer_encoder_layer(x, params, 2, lengths)
            return ro.sum_(ro.mul(out, nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == n_scalars(store)

    def test_one_tape_node_per_call(self, rng):
        store, params = make_layer(rng, d=6)
        x = nc.Tensor(rng.normal(size=(7, 6)), requires_grad=True)
        weights = tuple(getattr(params, n) for n in PARAM_NAMES)
        for cls_only in (False, True):
            out = transformer_encoder_layer(x, params, 2, [4, 3], cls_only=cls_only)
            assert out._parents == (x, *weights) and out._backward_fn is not None

    def test_no_tape_node_under_no_grad(self, rng):
        store, params = make_layer(rng, d=6)
        x = nc.Tensor(rng.normal(size=(8, 6)), requires_grad=True)
        with nc.no_grad():
            out = transformer_encoder_layer(x, params, 2, [4, 4])
        assert out._parents == () and out._backward_fn is None

    @pytest.mark.parametrize(
        "shapes",
        [
            ((2, 5, 6), [5, 5], False),  # x is not (rows, d)
            ((9, 6), [5, 5], False),  # the lengths do not pack the rows
            ((10, 6), [[5, 5]], True),  # the lengths are not one per sequence
            ((10, 6), [10, 0], False),  # an empty sequence
            ((10, 4), [5, 5], False),  # x does not fit the parameters' width
            ((0, 6), [], True),  # no sequence
        ],
    )
    def test_disagreeing_shapes_raise(self, rng, shapes):
        store, params = make_layer(rng, d=6)
        x, lengths, cls_only = shapes
        with pytest.raises(ShapeError):
            transformer_encoder_layer(nc.Tensor(np.zeros(x)), params, 2, lengths,
                                      cls_only=cls_only)


class TestQueryTiles:
    """The attention core over more than one query tile: sequences around
    and beyond ``_QUERY_TILE`` rows, packed together and alone, with every
    row a query and with the CLS query alone."""

    @pytest.mark.parametrize("cls_only", [False, True], ids=["full", "cls"])
    @pytest.mark.parametrize("lengths", TILE_PACKS, ids=TILE_PACK_IDS)
    def test_forward_bitwise_equals_tiled_replay(self, rng, lengths, cls_only):
        store, params = perturbed_layer(rng)
        x = rng.normal(size=(sum(lengths), 8))
        want = replay_layer(x, params, 2, lengths, cls_only)
        got = transformer_encoder_layer(nc.Tensor(x), params, 2, lengths, cls_only=cls_only).data
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("cls_only", [False, True], ids=["full", "cls"])
    @pytest.mark.parametrize("lengths", TILE_PACKS, ids=TILE_PACK_IDS)
    def test_gradients_match_op_by_op_chain(self, rng, lengths, cls_only):
        # the op-by-op chain attends each whole sequence in one block and
        # keeps its weights; the layer re-forms them tile by tile
        store, params = perturbed_layer(rng)
        x = rng.normal(size=(sum(lengths), 8))
        w = rng.normal(size=((len(lengths) if cls_only else sum(lengths)), 8))
        want = layer_grads(reference_layer, store, params, x, cls_only, w, lengths)
        got = layer_grads(transformer_encoder_layer, store, params, x, cls_only, w, lengths)
        assert len(got) == 1 + 15
        for g, r in zip(got, want):
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cls_only", [False, True], ids=["full", "cls"])
    @pytest.mark.parametrize("shift", [500.0, -500.0])
    @pytest.mark.parametrize("lengths", TILE_PACKS, ids=TILE_PACK_IDS)
    def test_forward_matches_textbook_softmax_under_logit_shifts(self, rng, lengths, shift,
                                                                 cls_only):
        store, params = perturbed_layer(rng)
        x = shifted_logits(rng, params, lengths, cls_only, shift)
        want = replay_layer(x, params, 2, lengths, cls_only, attention=textbook_attention)
        got = transformer_encoder_layer(nc.Tensor(x), params, 2, lengths, cls_only=cls_only).data
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cls_only", [False, True], ids=["full", "cls"])
    def test_rows_do_not_depend_on_packing(self, rng, cls_only):
        # a sequence's tiles depend only on its own length, so its rows come
        # out bitwise the same alone and packed with the others
        store, params = make_layer(rng, d=8)
        x = rng.normal(size=(sum(TILE_LENGTHS), 8))
        packed = transformer_encoder_layer(nc.Tensor(x), params, 2, TILE_LENGTHS,
                                           cls_only=cls_only).data
        for i, (start, n) in enumerate(zip(starts(TILE_LENGTHS), TILE_LENGTHS)):
            alone = transformer_encoder_layer(nc.Tensor(x[start : start + n]), params, 2, [n],
                                              cls_only=cls_only).data
            rows = slice(i, i + 1) if cls_only else slice(start, start + n)
            assert np.array_equal(alone, packed[rows])

    def test_tape_holds_no_score_block(self, rng):
        # the backward keeps O(R·d) entries: no array its closure reaches
        # through cells, lists and tuples is larger than the (R, 4d)
        # feed-forward activation; one (1, 2, 300, 300) score block of the
        # 300-row sequence would hold 180,000 entries
        store, params = make_layer(rng, d=8)
        x = nc.Tensor(rng.normal(size=(300, 8)), requires_grad=True)
        out = transformer_encoder_layer(x, params, 2, [300])
        sizes, seen = [], set()
        stack = [cell.cell_contents for cell in out._backward_fn.__closure__]
        while stack:
            item = stack.pop()
            if id(item) in seen:
                continue
            seen.add(id(item))
            if isinstance(item, np.ndarray):
                sizes.append(item.size)
            elif isinstance(item, (list, tuple)):
                stack.extend(item)
            elif isinstance(item, types.FunctionType) and item.__closure__:
                stack.extend(cell.cell_contents for cell in item.__closure__)
        assert sizes and max(sizes) <= 300 * 4 * 8, max(sizes)


class TestTransformerLayer:
    def test_output_shape(self, rng):
        store, params = make_layer(rng, d=8)
        x = nc.Tensor(rng.normal(size=(15, 8)))
        out = transformer_encoder_layer(x, params, 2, [5, 5, 5])
        assert out.shape == (15, 8)

    def test_head_count_must_divide_width(self, rng):
        store, params = make_layer(rng, d=6)
        with pytest.raises(ShapeError):
            transformer_encoder_layer(nc.Tensor(rng.normal(size=(2, 6))), params, 4, [2])

    def test_batch_elements_are_independent_bitwise(self, rng):
        # no masking or sequence padding, and every packed product runs in
        # fixed-shape row tiles (unpadded, the 32-wide feed-forward block
        # would send its output map of up to 150 rows to OpenBLAS's
        # small-matrix kernel), so the rows packed around a sequence must
        # leave its output exactly unchanged
        # -- the backbone of the no-future-influence guarantee upstream
        store, params = make_layer(rng, d=8)
        keep = rng.normal(size=(4, 8))
        alone = transformer_encoder_layer(nc.Tensor(keep), params, 2, [4]).data
        for before, after in (([4, 4], []), ([], [2, 9, 4]), ([4, 7] * 12, [4, 1] * 30)):
            mates = [rng.normal(size=(n, 8)) * 10 for n in before + after]
            x = np.concatenate(mates[: len(before)] + [keep] + mates[len(before):])
            out = transformer_encoder_layer(nc.Tensor(x), params, 2, before + [4] + after).data
            assert np.array_equal(alone, out[sum(before) : sum(before) + 4])

    def test_permutation_equivariance_over_positions(self, rng):
        # the layer has no positional information of its own, so permuting
        # a sequence's rows permutes its outputs the same way
        store, params = make_layer(rng, d=6)
        x = rng.normal(size=(8, 6))
        perm = np.array([3, 0, 4, 1, 2, 5, 7, 6])  # within the sequences [5, 3]
        out = transformer_encoder_layer(nc.Tensor(x), params, 2, [5, 3]).data
        out_perm = transformer_encoder_layer(nc.Tensor(x[perm]), params, 2, [5, 3]).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    def test_output_rows_are_layer_normalized(self, rng):
        # post-norm: the final op is a layer norm with unit gamma at init
        store, params = make_layer(rng, d=8)
        x = nc.Tensor(rng.normal(size=(7, 8)) * 5)
        out = transformer_encoder_layer(x, params, 2, [3, 4]).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_gradients_match_finite_differences(self, rng):
        store, params = make_layer(rng, d=6)
        lengths = [3, 1, 3]
        x = rng.normal(size=(7, 6))
        w = rng.normal(size=(7, 6))

        def loss():
            out = transformer_encoder_layer(nc.Tensor(x), params, 2, lengths)
            return ro.sum_(ro.mul(out, nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == n_scalars(store)

    def test_attention_core_is_one_tape_node(self, rng):
        # attention, residuals, norms and the feed-forward block all sit
        # inside the layer's one node
        store, params = make_layer(rng, d=6)
        x = nc.Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        out = transformer_encoder_layer(x, params, 2, [3, 3])
        nodes, stack = set(), [out]
        while stack:
            t = stack.pop()
            if t._backward_fn is not None and id(t) not in nodes:
                nodes.add(id(t))
                stack.extend(t._parents)
        assert len(nodes) == 1

    def test_single_element_sequence(self, rng):
        # attention over one position is a no-op softmax; still well-defined
        store, params = make_layer(rng, d=4)
        out = transformer_encoder_layer(nc.Tensor(rng.normal(size=(2, 4))), params, 1, [1, 1])
        assert out.shape == (2, 4)
        assert np.all(np.isfinite(out.data))


class TestQueryRows:
    @pytest.mark.parametrize("b,s", [(4, 6), (3, 2), (1, 1)])
    def test_cls_query_matches_full_layer_row(self, rng, b, s):
        # K/V over every row, Q over row 0 only: the result is row 0 of the
        # full layer to rounding (s=2 is a CLS row plus one sentence). A
        # longer sequence follows the b sequences of s rows. At d = 3 no
        # product, the 12-wide feed-forward block's included, is a whole panel
        store, params = make_layer(rng, d=3)
        lengths = np.array([s] * b + [s + 3])
        x = rng.normal(size=(lengths.sum(), 3))
        full = transformer_encoder_layer(nc.Tensor(x), params, 3, lengths).data
        got = transformer_encoder_layer(nc.Tensor(x), params, 3, lengths, cls_only=True).data
        assert got.shape == (b + 1, 3)
        np.testing.assert_allclose(got, full[starts(lengths)], rtol=0, atol=1e-12)

    def test_query_batch_elements_are_independent_bitwise(self, rng):
        store, params = make_layer(rng, d=8)
        keep = rng.normal(size=(4, 8))
        mates = rng.normal(size=(15, 8)) * 10
        alone = transformer_encoder_layer(nc.Tensor(keep), params, 2, [4], cls_only=True).data
        packed = transformer_encoder_layer(
            nc.Tensor(np.concatenate([mates[:8], keep, mates[8:]])), params, 2, [4, 4, 4, 7],
            cls_only=True,
        ).data
        assert np.array_equal(alone[0], packed[2])

    def test_gradients_match_finite_differences(self, rng):
        # gradients reach every parameter and every row, through the keys
        # and values and through the query rows; three length groups, and
        # the feed-forward output map of the 4 query rows is padded
        store, params = make_layer(rng, d=8)
        lengths = np.array([3, 3, 2, 4])
        x = store.add("x", rng.normal(size=(lengths.sum(), 8)))
        w = rng.normal(size=(4, 8))

        def loss():
            out = transformer_encoder_layer(x, params, 2, lengths, cls_only=True)
            return ro.sum_(ro.mul(out, nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == n_scalars(store)
