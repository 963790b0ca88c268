"""Adam update rule vs an independent reference implementation."""

from __future__ import annotations

import numpy as np
import pytest

import volgraph.numcore as nc
from volgraph.errors import ConfigError, NonFiniteError
from volgraph.numcore.optim import AdamState, adam_step
from volgraph.numcore.params import ParamStore

from gradcheck import n_scalars


def reference_adam(p0, grads, lr, wd=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
    """Recompute the whole trajectory in plain numpy."""
    p = p0.astype(np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
        if wd:
            p = p - lr * wd * p
    return p


def make_store(arrays):
    store = ParamStore()
    for name, a in arrays.items():
        store.add(name, a.copy())
    return store


class TestAdamStep:
    def test_matches_reference_trajectory(self, rng):
        p0 = rng.normal(size=(4, 3))
        grads = [rng.normal(size=(4, 3)) for _ in range(25)]
        store = make_store({"w": p0})
        state = AdamState.for_store(store)
        for g in grads:
            store["w"].grad = g.copy()
            adam_step(store, state, lr=0.01, weight_decay=0.0)
        want = reference_adam(p0, grads, lr=0.01)
        np.testing.assert_allclose(store["w"].data, want, atol=1e-14)
        assert state.step == 25

    def test_matches_reference_with_weight_decay(self, rng):
        p0 = rng.normal(size=(6,))
        grads = [rng.normal(size=(6,)) for _ in range(10)]
        store = make_store({"w": p0})
        state = AdamState.for_store(store)
        for g in grads:
            store["w"].grad = g.copy()
            adam_step(store, state, lr=0.05, weight_decay=0.1)
        want = reference_adam(p0, grads, lr=0.05, wd=0.1)
        np.testing.assert_allclose(store["w"].data, want, atol=1e-14)

    def test_first_step_size_is_roughly_lr(self, rng):
        # bias correction makes the very first step ~lr * sign(g)
        g = rng.normal(size=8)
        store = make_store({"w": np.zeros(8)})
        store["w"].grad = g
        adam_step(store, AdamState.for_store(store), lr=0.1, weight_decay=0.0)
        np.testing.assert_allclose(store["w"].data, -0.1 * np.sign(g), rtol=1e-6)

    def test_skips_params_without_grad(self, rng):
        store = make_store({"a": rng.normal(size=3), "b": rng.normal(size=3)})
        before_b = store["b"].data.copy()
        store["a"].grad = np.ones(3)
        adam_step(store, AdamState.for_store(store), lr=0.1, weight_decay=0.0)
        assert not np.array_equal(store["a"].data, before_b)
        np.testing.assert_array_equal(store["b"].data, before_b)

    def test_rejects_non_finite_grad(self):
        store = make_store({"w": np.zeros(2)})
        store["w"].grad = np.array([1.0, np.nan])
        with pytest.raises(NonFiniteError, match="non-finite gradient for w"):
            adam_step(store, AdamState.for_store(store), lr=0.1, weight_decay=0.0)

    def test_converges_on_quadratic(self):
        # minimize (w - 3)^2 elementwise
        target = 3.0
        store = make_store({"w": np.zeros(5)})
        state = AdamState.for_store(store)
        w = store["w"]
        for _ in range(800):
            w.grad = 2.0 * (w.data - target)
            adam_step(store, state, lr=0.05, weight_decay=0.0)
        np.testing.assert_allclose(w.data, target, atol=1e-3)

    def test_weight_decay_shrinks_unused_direction(self, rng):
        # zero gradient everywhere: pure decay, p_t = p_0 * (1 - lr*wd)^t
        p0 = rng.normal(size=4)
        store = make_store({"w": p0})
        state = AdamState.for_store(store)
        for _ in range(10):
            store["w"].grad = np.zeros(4)
            adam_step(store, state, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(store["w"].data, p0 * 0.95**10, atol=1e-12)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = make_store({"w": np.zeros(2)})
        with pytest.raises(ConfigError):
            store.add("w", np.zeros(2))

    def test_linear_shapes_and_init_range(self, rng):
        store = ParamStore()
        w, b = store.linear(rng, "fc", d_in=10, d_out=4)
        assert w.shape == (4, 10)
        assert b.shape == (4,)
        bound = 1.0 / np.sqrt(10)
        assert np.all(np.abs(w.data) <= bound)
        assert np.all(np.abs(b.data) <= bound)

    def test_layer_norm_init(self, rng):
        store = ParamStore()
        gamma, beta = store.layer_norm("ln", 6)
        np.testing.assert_array_equal(gamma.data, np.ones(6))
        np.testing.assert_array_equal(beta.data, np.zeros(6))

    def test_zero_grad_clears_all(self, rng):
        store = make_store({"a": rng.normal(size=2), "b": rng.normal(size=3)})
        for _, t in store.items():
            t.grad = np.ones_like(t.data)
        store.zero_grad()
        assert all(t.grad is None for _, t in store.items())

    def test_state_arrays_round_trip_bitwise(self, rng):
        store = make_store({"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)})
        blob = store.state_arrays()
        other = make_store({"a": np.zeros((2, 3)), "b": np.zeros(4)})
        other.load_state_arrays(blob)
        for name in ("a", "b"):
            np.testing.assert_array_equal(
                other[name].data, store[name].data
            )

    def test_load_rejects_shape_mismatch(self, rng):
        store = make_store({"a": np.zeros((2, 3))})
        with pytest.raises(ConfigError):
            store.load_state_arrays({"a": np.zeros((3, 2))})

    def test_load_rejects_missing_param(self):
        store = make_store({"a": np.zeros(2)})
        with pytest.raises(ConfigError):
            store.load_state_arrays({})

    def test_n_scalars(self, rng):
        store = make_store({"a": np.zeros((2, 3)), "b": np.zeros(4)})
        assert n_scalars(store) == 10

    def test_uniform_init_respects_fan_in(self, rng):
        samples = nc.uniform_init(rng, (2000,), fan_in=25)
        bound = 1.0 / 5.0
        assert np.all(np.abs(samples) <= bound)
        # spread should look uniform, not degenerate
        assert samples.std() > bound / 3
