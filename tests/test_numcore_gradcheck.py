"""The finite-difference checker itself: it must pass correct gradients
and, just as importantly, fail deliberately broken ones."""

from __future__ import annotations

import numpy as np

import volgraph.numcore as nc
from volgraph.numcore.params import ParamStore

import reference_ops as ro
from gradcheck import grad_check, n_scalars


def mlp_store(rng):
    store = ParamStore()
    store.linear(rng, "fc1", d_in=4, d_out=3)
    store.linear(rng, "fc2", d_in=3, d_out=1)
    return store


def mlp_loss(store, x, y):
    h = ro.tanh(ro.linear(nc.Tensor(x), store["fc1.w"], store["fc1.b"]))
    pred = ro.linear(h, store["fc2.w"], store["fc2.b"])
    err = ro.sub(pred, nc.Tensor(y))
    return ro.mean_(ro.mul(err, err))


class TestGradCheck:
    def test_passes_correct_gradients(self, rng):
        store = mlp_store(rng)
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=(6, 1))
        report = grad_check(lambda: mlp_loss(store, x, y), store)
        assert report.passed, report.summary()
        assert report.max_rel_error < 1e-5
        assert report.n_checked == n_scalars(store)
        assert set(report.per_param) == {n for n, _ in store.items()}
        assert "PASS" in report.summary()

    def test_flags_detached_gradient(self, rng):
        # loss treats w as a constant on one side of the product, so the
        # tape reports w where the true gradient is 2w -- must FAIL
        store = ParamStore()
        w = store.add("w", rng.normal(size=3) + 1.0)

        def broken_loss():
            return ro.sum_(ro.mul(w, nc.Tensor(w.data.copy())))

        report = grad_check(broken_loss, store)
        assert not report.passed
        assert report.worst_param == "w"
        assert report.max_rel_error > 0.3
        assert "FAIL" in report.summary()

    def test_param_names_subsets_the_check(self, rng):
        store = mlp_store(rng)
        x = rng.normal(size=(2, 4))
        y = rng.normal(size=(2, 1))
        report = grad_check(lambda: mlp_loss(store, x, y), store, param_names=["fc2.b"])
        assert report.n_checked == 1
        assert list(report.per_param) == ["fc2.b"]

    def test_restores_values_and_dtype(self, rng):
        store = mlp_store(rng)
        before = {n: t.data.copy() for n, t in store.items()}
        x = rng.normal(size=(3, 4))
        y = rng.normal(size=(3, 1))
        report = grad_check(lambda: mlp_loss(store, x, y), store)
        assert report.passed, report.summary()
        for name, t in store.items():
            np.testing.assert_array_equal(t.data, before[name])
            assert t.grad is None

    def test_zero_gradient_param_is_fine(self, rng):
        # a parameter that never enters the loss has zero analytic and
        # zero numeric gradient; the floor keeps 0 vs 0 from dividing
        store = ParamStore()
        used = store.add("used", rng.normal(size=2))
        store.add("unused", rng.normal(size=2))
        report = grad_check(lambda: ro.sum_(ro.mul(used, used)), store)
        assert report.passed, report.summary()
        assert report.per_param["unused"] == 0.0
