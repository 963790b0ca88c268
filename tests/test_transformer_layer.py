"""Encoder-layer invariants: shapes, batch independence, equivariance,
and a full finite-difference pass over every layer parameter."""

from __future__ import annotations

import numpy as np
import pytest

import volgraph.numcore as nc
from volgraph.errors import ShapeError
from volgraph.numcore.gradcheck import grad_check
from volgraph.numcore.layers import TransformerLayerParams, linear, transformer_encoder_layer
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
