"""Encoder-layer invariants: shapes, batch independence, equivariance,
and a full finite-difference pass over every layer parameter; the fused
attention op against an op-by-op tape reference."""

from __future__ import annotations

import numpy as np
import pytest

import volgraph.numcore as nc
from volgraph.errors import ShapeError
from volgraph.numcore.gradcheck import grad_check
from volgraph.numcore.layers import (
    TransformerLayerParams,
    attention,
    linear,
    transformer_encoder_layer,
)
from volgraph.numcore.params import ParamStore


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

    def test_batched_input(self, rng):
        x = rng.normal(size=(2, 5, 3))
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        got = linear(nc.Tensor(x), nc.Tensor(w), nc.Tensor(b)).data
        np.testing.assert_allclose(got, x @ w.T + b, atol=1e-12)


def reference_attention(q, k, v):
    """The op-by-op tape chain that ``attention`` fuses, with a detached max shift."""
    scores = nc.div(nc.matmul(q, nc.swapaxes(k, -1, -2)), float(np.sqrt(q.shape[-1])))
    e = nc.exp(nc.sub(scores, nc.Tensor(scores.data.max(axis=-1, keepdims=True))))
    return nc.matmul(nc.div(e, nc.sum_(e, axis=-1, keepdims=True)), v)


def qkv(rng, lead=(2, 3), m=5, n=7, dh=4, dv=6):
    return (
        rng.normal(size=lead + (m, dh)),
        rng.normal(size=lead + (n, dh)),
        rng.normal(size=lead + (n, dv)),
    )


def attention_grads(fn, arrays, w):
    leaves = [nc.Tensor(a, requires_grad=True) for a in arrays]
    nc.sum_(nc.mul(fn(*leaves), nc.Tensor(w))).backward()
    return [t.grad for t in leaves]


class TestAttention:
    @pytest.mark.parametrize("m", [5, 1])  # every row, and the CLS query alone
    def test_forward_bitwise_equals_op_by_op_chain(self, rng, m):
        arrays = qkv(rng, m=m)
        want = reference_attention(*map(nc.Tensor, arrays)).data
        got = attention(*map(nc.Tensor, arrays)).data
        assert got.shape == arrays[0].shape[:-1] + (arrays[2].shape[-1],)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [5, 1])
    def test_gradients_match_op_by_op_chain(self, rng, m):
        arrays = qkv(rng, m=m)
        w = rng.normal(size=arrays[0].shape[:-1] + (arrays[2].shape[-1],))
        want = attention_grads(reference_attention, arrays, w)
        got = attention_grads(attention, arrays, w)
        for g, r in zip(got, want):
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        store = ParamStore()
        q, k, v = (store.add(name, a) for name, a in zip("qkv", qkv(rng, lead=(2,), m=3, n=4)))
        w = rng.normal(size=(2, 3, 6))

        def loss():
            return nc.sum_(nc.mul(attention(q, k, v), nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-6)
        assert report.passed, report.summary()
        assert report.n_checked == store.n_scalars()

    def test_one_tape_node_per_call(self, rng):
        q, k, v = (nc.Tensor(a, requires_grad=True) for a in qkv(rng))
        out = attention(q, k, v)
        assert out._parents == (q, k, v) and out._backward_fn is not None

    def test_no_tape_node_under_no_grad(self, rng):
        q, k, v = (nc.Tensor(a, requires_grad=True) for a in qkv(rng))
        with nc.no_grad():
            out = attention(q, k, v)
        assert out._parents == () and out._backward_fn is None

    @pytest.mark.parametrize(
        "shapes",
        [
            ((2, 5, 4), (2, 7, 3), (2, 7, 6)),  # q and k widths differ
            ((2, 5, 4), (2, 7, 4), (2, 6, 6)),  # k and v lengths differ
            ((2, 5, 4), (3, 7, 4), (3, 7, 6)),  # leading axes differ
            ((2, 5, 4), (2, 7, 4), (7, 6)),  # ranks differ
            ((4,), (4,), (4,)),  # fewer than two axes
        ],
    )
    def test_disagreeing_shapes_raise(self, shapes):
        with pytest.raises(ShapeError):
            attention(*(nc.Tensor(np.zeros(s)) for s in shapes))


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
            return nc.sum_(nc.mul(out, nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == store.n_scalars()

    def test_attention_core_is_one_tape_node(self, rng):
        # q, k and v projections, split heads, the fused core, merged heads,
        # output projection, residual and norm, feed-forward, residual and norm
        store, params = make_layer(rng, d=6)
        x = nc.Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        out = transformer_encoder_layer(x, params, n_heads=2)
        nodes, stack = set(), [out]
        while stack:
            t = stack.pop()
            if t._backward_fn is not None and id(t) not in nodes:
                nodes.add(id(t))
                stack.extend(t._parents)
        assert len(nodes) == 3 * 3 + 1 + 2 + 1 + 2 + 3 + 2

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
            return nc.sum_(nc.mul(out, nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == store.n_scalars()
