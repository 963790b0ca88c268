"""Encoder-layer invariants: shapes, batch independence, equivariance,
and a full finite-difference pass over every layer parameter; the layer,
one tape op, against a plain-numpy replay and an op-by-op tape reference."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

import volgraph.numcore as nc
from volgraph.errors import ShapeError
from volgraph.numcore.layers import (
    TransformerLayerParams,
    _attention_weights,
    linear,
    transformer_encoder_layer,
)
from volgraph.numcore.params import ParamStore
from volgraph.numcore.tensor import _make

import reference_ops as ro
from gradcheck import grad_check, n_scalars


def make_layer(rng, d=6, d_ff=None):
    store = ParamStore()
    params = TransformerLayerParams.init(store, rng, "layer", d, d_ff=d_ff)
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


PARAM_NAMES = tuple(f.name for f in fields(TransformerLayerParams))


def deferred_attention(q, k, v):
    """The layer's attention core: q / √dh, the max-shifted exponentials e
    of the scores, e @ v divided by e's row sums."""
    scores = (q / float(np.sqrt(q.shape[-1]))) @ np.swapaxes(k, -1, -2)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return (e @ v) / e.sum(axis=-1, keepdims=True)


def textbook_attention(q, k, v):
    """softmax(q kᵀ / √dh) · v, the weights normalized before the value product."""
    scores = q @ np.swapaxes(k, -1, -2) / float(np.sqrt(q.shape[-1]))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True) @ v


def replay_layer(x, p, n_heads, queries=None, attention=deferred_attention):
    """The encoder layer as plain numpy, in the op order of an op-by-op tape.

    Separate Q/K/V maps, head split, ``attention`` (by default the layer's
    own core, ``deferred_attention``), head merge, output map, residual,
    ``np.mean``/``np.var`` layer norm, ReLU MLP, residual, layer norm.
    """
    w = {name: getattr(p, name).data for name in PARAM_NAMES}
    q_in = x if queries is None else queries
    b, _, d = x.shape
    m, dh = q_in.shape[1], d // n_heads

    def lin(a, weight, bias):
        return a @ w[weight].T + w[bias]

    def split(t):
        return np.swapaxes(t.reshape(b, t.shape[1], n_heads, dh), 1, 2)

    def norm(a, i):
        xhat = (a - a.mean(axis=-1, keepdims=True)) * (
            1.0 / np.sqrt(a.var(axis=-1, keepdims=True) + 1e-5)
        )
        return xhat * w[f"ln{i}_gamma"] + w[f"ln{i}_beta"]

    q, k, v = split(lin(q_in, "wq", "bq")), split(lin(x, "wk", "bk")), split(lin(x, "wv", "bv"))
    ctx = np.swapaxes(attention(q, k, v), 1, 2).reshape(b, m, d)
    h = norm(q_in + lin(ctx, "wo", "bo"), 1)
    ff = lin(np.maximum(lin(h, "ff1_w", "ff1_b"), 0.0), "ff2_w", "ff2_b")
    return norm(h + ff, 2)


def _rsqrt(t):
    """1/√t as a tape op, for the op-by-op reference layer norm."""
    out = 1.0 / np.sqrt(t.data)
    return _make(out, (t,), lambda g: (-0.5 * g * out**3,))


def reference_layer(x, p, n_heads, queries=None):
    """The encoder layer as an op-by-op tape of generic ``numcore`` ops."""
    q_in = x if queries is None else queries
    b, _, d = x.shape
    m, dh = q_in.shape[1], d // n_heads

    def split(t):
        return ro.swapaxes(nc.reshape(t, (b, t.shape[1], n_heads, dh)), 1, 2)

    def norm(a, gamma, beta):
        c = ro.sub(a, ro.mean_(a, axis=-1, keepdims=True))
        var = ro.mean_(ro.mul(c, c), axis=-1, keepdims=True)
        return ro.add(ro.mul(ro.mul(c, _rsqrt(ro.add(var, 1e-5))), gamma), beta)

    q = split(ro.div(linear(q_in, p.wq, p.bq), float(np.sqrt(dh))))
    k, v = split(linear(x, p.wk, p.bk)), split(linear(x, p.wv, p.bv))
    scores = ro.matmul(q, ro.swapaxes(k, -1, -2))
    e = ro.exp(ro.sub(scores, nc.Tensor(scores.data.max(axis=-1, keepdims=True))))
    ctx = ro.div(ro.matmul(e, v), ro.sum_(e, axis=-1, keepdims=True))
    ctx = nc.reshape(ro.swapaxes(ctx, 1, 2), (b, m, d))
    h = norm(ro.add(q_in, linear(ctx, p.wo, p.bo)), p.ln1_gamma, p.ln1_beta)
    ff = linear(nc.relu(linear(h, p.ff1_w, p.ff1_b)), p.ff2_w, p.ff2_b)
    return norm(ro.add(h, ff), p.ln2_gamma, p.ln2_beta)


def layer_inputs(rng, m, b=2, s=5, d=6):
    """(x, queries) arrays: every row (m == s) or the CLS row alone (m == 1)."""
    x = rng.normal(size=(b, s, d))
    return x, (None if m == s else x[:, :m].copy())


def layer_grads(fn, store, params, x, queries, w):
    """Gradients of sum(fn(...) * w) for x, queries (if any) and all 16 parameters."""
    store.zero_grad()
    xt = nc.Tensor(x, requires_grad=True)
    qt = None if queries is None else nc.Tensor(queries, requires_grad=True)
    ro.sum_(ro.mul(fn(xt, params, 3, queries=qt), nc.Tensor(w))).backward()
    leaves = [xt] + ([] if qt is None else [qt])
    return [t.grad for t in leaves] + [getattr(params, n).grad for n in PARAM_NAMES]


def perturbed_layer(rng, d=6, d_ff=10):
    """A layer whose norms and biases are off their init values."""
    store, params = make_layer(rng, d=d, d_ff=d_ff)
    for _, t in store.items():
        t.data += 0.1 * rng.normal(size=t.shape)
    return store, params


class TestAttention:
    """The encoder layer as one tape op: its self-attention block, residuals,
    norms and MLP against a plain-numpy replay and an op-by-op tape."""

    @pytest.mark.parametrize("m", [5, 1])  # every row, and the CLS query alone
    def test_forward_bitwise_equals_op_by_op_chain(self, rng, m):
        store, params = perturbed_layer(rng)
        x, queries = layer_inputs(rng, m)
        want = replay_layer(x, params, 3, queries)
        qt = None if queries is None else nc.Tensor(queries)
        got = transformer_encoder_layer(nc.Tensor(x), params, 3, queries=qt).data
        assert got.shape == (2, m, 6)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [5, 1])
    @pytest.mark.parametrize("shift", [500.0, -500.0])
    def test_forward_matches_textbook_softmax_under_logit_shifts(self, rng, m, shift):
        # a key bias u moves query row i's scores by q_i·u/√dh, the same for
        # every key; u is scaled per head so that the largest shift is ±500.
        # Normalizing after the value product must stay within rounding of
        # softmax(q kᵀ/√dh)·v.
        store, params = perturbed_layer(rng)
        x, queries = layer_inputs(rng, m)
        n_heads, dh = 3, 2
        q = (x if queries is None else queries) @ params.wq.data.T + params.bq.data
        u = rng.normal(size=6)
        for h in range(n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            row_shifts = q[..., cols] @ u[cols] / np.sqrt(dh)
            u[cols] *= shift / row_shifts.flat[np.argmax(np.abs(row_shifts))]
        params.bk.data += u
        want = replay_layer(x, params, n_heads, queries, attention=textbook_attention)
        qt = None if queries is None else nc.Tensor(queries)
        got = transformer_encoder_layer(nc.Tensor(x), params, n_heads, queries=qt).data
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_weight_rows_sum_to_one(self, rng):
        # (b, H, m, n) heads: e's largest entry in each row is exactly 1, so
        # the row sums l lie in [1, n] and e / l is a softmax
        q, k = rng.normal(size=(2, 3, 4, 5)) * 30, rng.normal(size=(2, 3, 7, 5))
        e, rowsum = _attention_weights(q, k)
        assert e.shape == (2, 3, 4, 7) and rowsum.shape == (2, 3, 4, 1)
        assert np.array_equal(e.max(axis=-1), np.ones((2, 3, 4)))
        assert np.all((rowsum >= 1.0) & (rowsum <= 7.0))
        np.testing.assert_allclose((e / rowsum).sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [5, 1])
    def test_gradients_match_op_by_op_chain(self, rng, m):
        store, params = perturbed_layer(rng)
        x, queries = layer_inputs(rng, m)
        w = rng.normal(size=(2, m, 6))
        want = layer_grads(reference_layer, store, params, x, queries, w)
        got = layer_grads(transformer_encoder_layer, store, params, x, queries, w)
        assert len(got) == (1 if queries is None else 2) + 16
        for g, r in zip(got, want):
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        # x and all 16 parameters of the full layer; the query form is
        # checked in TestQueryRows
        store, params = perturbed_layer(rng, d=6, d_ff=8)
        x = store.add("x", rng.normal(size=(2, 3, 6)))
        w = rng.normal(size=(2, 3, 6))

        def loss():
            return ro.sum_(ro.mul(transformer_encoder_layer(x, params, n_heads=2), nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == n_scalars(store)

    def test_one_tape_node_per_call(self, rng):
        store, params = make_layer(rng, d=6)
        x = nc.Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
        q = nc.Tensor(rng.normal(size=(2, 1, 6)), requires_grad=True)
        weights = tuple(getattr(params, n) for n in PARAM_NAMES)
        full = transformer_encoder_layer(x, params, n_heads=2)
        assert full._parents == (x, *weights) and full._backward_fn is not None
        cls = transformer_encoder_layer(x, params, n_heads=2, queries=q)
        assert cls._parents == (x, q, *weights) and cls._backward_fn is not None

    def test_no_tape_node_under_no_grad(self, rng):
        store, params = make_layer(rng, d=6)
        x = nc.Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
        with nc.no_grad():
            out = transformer_encoder_layer(x, params, n_heads=2)
        assert out._parents == () and out._backward_fn is None

    @pytest.mark.parametrize(
        "shapes",
        [
            ((5, 6), None),  # x is not (batch, seq, d)
            ((2, 5, 6), (3, 1, 6)),  # batch sizes differ
            ((2, 5, 6), (2, 1, 4)),  # query and key widths differ
            ((2, 5, 6), (1, 6)),  # ranks differ
            ((2, 5, 4), None),  # x does not fit the parameters' width
        ],
    )
    def test_disagreeing_shapes_raise(self, rng, shapes):
        store, params = make_layer(rng, d=6)
        x, q = shapes
        queries = None if q is None else nc.Tensor(np.zeros(q))
        with pytest.raises(ShapeError):
            transformer_encoder_layer(nc.Tensor(np.zeros(x)), params, 2, queries=queries)


class TestTransformerLayer:
    def test_output_shape(self, rng):
        store, params = make_layer(rng, d=8)
        x = nc.Tensor(rng.normal(size=(3, 5, 8)))
        out = transformer_encoder_layer(x, params, n_heads=2)
        assert out.shape == (3, 5, 8)

    def test_head_count_must_divide_width(self, rng):
        store, params = make_layer(rng, d=6)
        with pytest.raises(ShapeError):
            transformer_encoder_layer(nc.Tensor(rng.normal(size=(1, 2, 6))), params, n_heads=4)

    def test_batch_elements_are_independent_bitwise(self, rng):
        # no masking/padding anywhere, so swapping batchmates must leave a
        # row's output exactly unchanged -- the backbone of the
        # no-future-influence guarantee upstream
        store, params = make_layer(rng, d=6)
        keep = rng.normal(size=(1, 4, 6))
        mates_a = rng.normal(size=(2, 4, 6))
        mates_b = rng.normal(size=(5, 4, 6)) * 10
        alone = transformer_encoder_layer(nc.Tensor(keep), params, n_heads=3).data
        with_a = transformer_encoder_layer(
            nc.Tensor(np.concatenate([keep, mates_a])), params, n_heads=3
        ).data
        with_b = transformer_encoder_layer(
            nc.Tensor(np.concatenate([keep, mates_b])), params, n_heads=3
        ).data
        assert np.array_equal(alone[0], with_a[0])
        assert np.array_equal(alone[0], with_b[0])

    def test_permutation_equivariance_over_positions(self, rng):
        # the layer has no positional information of its own, so permuting
        # sequence positions permutes outputs the same way
        store, params = make_layer(rng, d=6)
        x = rng.normal(size=(1, 5, 6))
        perm = np.array([3, 0, 4, 1, 2])
        out = transformer_encoder_layer(nc.Tensor(x), params, n_heads=2).data
        out_perm = transformer_encoder_layer(nc.Tensor(x[:, perm]), params, n_heads=2).data
        np.testing.assert_allclose(out_perm, out[:, perm], atol=1e-12)

    def test_output_rows_are_layer_normalized(self, rng):
        # post-norm: the final op is a layer norm with unit gamma at init
        store, params = make_layer(rng, d=8)
        x = nc.Tensor(rng.normal(size=(2, 3, 8)) * 5)
        out = transformer_encoder_layer(x, params, n_heads=2).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)

    def test_gradients_match_finite_differences(self, rng):
        store, params = make_layer(rng, d=6, d_ff=8)
        x = rng.normal(size=(2, 3, 6))
        w = rng.normal(size=(2, 3, 6))

        def loss():
            out = transformer_encoder_layer(nc.Tensor(x), params, n_heads=2)
            return ro.sum_(ro.mul(out, nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == n_scalars(store)

    def test_attention_core_is_one_tape_node(self, rng):
        # attention, residuals, norms and the feed-forward block all sit
        # inside the layer's one node
        store, params = make_layer(rng, d=6)
        x = nc.Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        out = transformer_encoder_layer(x, params, n_heads=2)
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
        out = transformer_encoder_layer(nc.Tensor(rng.normal(size=(2, 1, 4))), params, n_heads=1)
        assert out.shape == (2, 1, 4)
        assert np.all(np.isfinite(out.data))


class TestQueryRows:
    @pytest.mark.parametrize("b,s", [(4, 6), (3, 2), (1, 1)])
    def test_cls_query_matches_full_layer_row(self, rng, b, s):
        # K/V over every row, Q over row 0 only: the result is row 0 of the
        # full layer to rounding (s=2 is a CLS row plus one sentence)
        store, params = make_layer(rng, d=8, d_ff=12)
        x = rng.normal(size=(b, s, 8))
        full = transformer_encoder_layer(nc.Tensor(x), params, n_heads=2).data
        got = transformer_encoder_layer(
            nc.Tensor(x), params, n_heads=2, queries=nc.Tensor(x[:, :1])
        ).data
        assert got.shape == (b, 1, 8)
        np.testing.assert_allclose(got, full[:, :1], rtol=0, atol=1e-12)

    def test_any_query_rows_match_their_full_rows(self, rng):
        store, params = make_layer(rng, d=6)
        x = rng.normal(size=(2, 5, 6))
        rows = np.array([4, 1])
        full = transformer_encoder_layer(nc.Tensor(x), params, n_heads=3).data
        got = transformer_encoder_layer(
            nc.Tensor(x), params, n_heads=3, queries=nc.Tensor(x[:, rows])
        ).data
        np.testing.assert_allclose(got, full[:, rows], rtol=0, atol=1e-12)

    def test_query_batch_elements_are_independent_bitwise(self, rng):
        store, params = make_layer(rng, d=6)
        keep = rng.normal(size=(1, 4, 6))
        mates = rng.normal(size=(3, 4, 6)) * 10
        both = np.concatenate([keep, mates])
        alone = transformer_encoder_layer(
            nc.Tensor(keep), params, n_heads=3, queries=nc.Tensor(keep[:, :1])
        ).data
        batched = transformer_encoder_layer(
            nc.Tensor(both), params, n_heads=3, queries=nc.Tensor(both[:, :1])
        ).data
        assert np.array_equal(alone[0], batched[0])

    def test_mismatched_queries_raise(self, rng):
        store, params = make_layer(rng, d=6)
        x = nc.Tensor(rng.normal(size=(2, 3, 6)))
        with pytest.raises(ShapeError):
            transformer_encoder_layer(x, params, n_heads=2, queries=nc.Tensor(np.zeros((1, 1, 6))))

    def test_gradients_match_finite_differences(self, rng):
        # gradients reach every parameter and both the key/value block and
        # the query rows
        store, params = make_layer(rng, d=6, d_ff=8)
        x = store.add("x", rng.normal(size=(2, 3, 6)))
        q = store.add("q", rng.normal(size=(2, 1, 6)))
        w = rng.normal(size=(2, 1, 6))

        def loss():
            out = transformer_encoder_layer(x, params, n_heads=2, queries=q)
            return ro.sum_(ro.mul(out, nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == n_scalars(store)
