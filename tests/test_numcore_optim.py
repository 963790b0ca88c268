"""Adam update rule vs independent reference implementations, and the
packed layout of a parameter store."""

from __future__ import annotations

import numpy as np
import pytest

import volgraph.numcore as nc
from volgraph.dataio import SyntheticConfig, build_quarter_datasets, gen_synthetic
from volgraph.errors import ConfigError, NonFiniteError
from volgraph.graphbuild import build_quarter_graph
from volgraph.numcore.optim import BLOCK, AdamState, adam_step
from volgraph.numcore.params import ALIGN, ParamStore
from volgraph.pipeline import ModelConfig, VolatilityModel, prepare_quarter
from volgraph.pipeline.model import masked_mse_tensor

from conftest import assert_packed, pad_mask, small_model
from gradcheck import n_scalars
from reference_ops import adam_step_per_array


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
    store.pack()
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
        store = ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ConfigError, match="duplicate"):
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


class TestPackedStore:
    def test_layout(self, rng):
        arrays = {"a": rng.normal(size=3), "b": rng.normal(size=(2, 5)),
                  "c": rng.normal(size=8), "d": rng.normal(size=1)}
        store = make_store(arrays)
        assert store.offsets == (0, 8, 24, 32, 40)
        assert store.vector.ctypes.data % (8 * ALIGN) == 0
        assert_packed(store, {name: a.shape for name, a in arrays.items()})
        for name, a in arrays.items():
            assert store[name].data.tobytes() == a.tobytes()

    def test_add_after_pack_refused(self):
        store = make_store({"w": np.zeros(2)})
        with pytest.raises(ConfigError, match="already packed"):
            store.add("late", np.zeros(2))

    def test_adam_needs_a_packed_store(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ConfigError, match="packed"):
            AdamState.for_store(store)

    def test_load_state_arrays_writes_in_place(self, rng):
        store = make_store({"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)})
        blob = {"a": rng.normal(size=(2, 3)), "b": np.arange(4)}
        store.load_state_arrays(blob)
        assert_packed(store, {"a": (2, 3), "b": (4,)})
        assert store["a"].data.tobytes() == blob["a"].tobytes()
        assert store["b"].data.tobytes() == np.arange(4.0).tobytes()

    def test_failed_load_changes_nothing(self, rng):
        store = make_store({"a": rng.normal(size=3), "b": rng.normal(size=2)})
        before = store.vector.copy()
        with pytest.raises(ConfigError, match="b holds a NaN"):
            store.load_state_arrays({"a": np.zeros(3), "b": np.array([0.0, np.nan])})
        assert store.vector.tobytes() == before.tobytes()


def _reference_of(store):
    """Independent copies of ``store``'s parameters and fresh per-array Adam state."""
    params = {name: nc.Tensor(t.data.copy(), requires_grad=True) for name, t in store.items()}
    zeros = lambda: {name: np.zeros_like(t.data) for name, t in store.items()}
    return params, {"m": zeros(), "v": zeros(), "step": 0}


def _assert_bitwise(store, state, ref, ref_state):
    for (name, t), m, v in zip(store.items(), store.views(state.m), store.views(state.v)):
        assert t.data.tobytes() == ref[name].data.tobytes(), name
        assert m.tobytes() == ref_state["m"][name].tobytes(), name
        assert v.tobytes() == ref_state["v"][name].tobytes(), name
    assert state.step == ref_state["step"]
    pads = pad_mask(store)
    assert not (store.vector[pads].any() or state.m[pads].any() or state.v[pads].any())


@pytest.fixture(scope="module")
def small_model_quarter():
    """The benchmark's ``small`` model config and one labeled quarter it fits."""
    config = ModelConfig(**small_model())
    corpus = gen_synthetic(SyntheticConfig(n_companies=8, n_quarters=4, d_s=config.d_s), seed=5)
    ds = build_quarter_datasets(corpus.transcripts, corpus.prices)[0]
    graph = build_quarter_graph(ds.calls, corpus.relations, ds.quarter, labels=ds.labels)
    return config, prepare_quarter(graph, ds)


class TestAgainstPerArrayRule:
    """``adam_step`` over the packed vector is bitwise the per-array rule it replaced."""

    LR = 0.01
    WEIGHT_DECAY = 0.05

    def _steps(self, small_model_quarter, no_grad=None, nan_at=None):
        """Five real training steps of the ``small`` model, checked after each one.

        ``no_grad`` names a parameter whose gradient is dropped at every step;
        ``nan_at`` a parameter whose gradient gets a NaN in its first entry at
        the last step, when the last parameter's gradient also gets an infinity.
        """
        config, prepared = small_model_quarter
        model = VolatilityModel(config)
        store = model.store
        ref, ref_state = _reference_of(store)
        state = AdamState.for_store(store)
        for step in range(1, 6):
            store.zero_grad()
            preds, _, _ = model.forward(prepared)
            masked_mse_tensor(preds, prepared.labels, prepared.mask).backward()
            assert all(t.grad is not None for _, t in store.items())
            if no_grad is not None:
                store[no_grad].grad = None
            if nan_at is not None and step == 5:
                store[nan_at].grad.flat[0] = np.nan
                list(store.items())[-1][1].grad.flat[-1] = np.inf
            for name, t in store.items():
                ref[name].grad = None if t.grad is None else t.grad.copy()
            if nan_at is not None and step == 5:
                return store, state, ref, ref_state
            adam_step(store, state, self.LR, self.WEIGHT_DECAY)
            adam_step_per_array(ref, ref_state, self.LR, self.WEIGHT_DECAY)
            _assert_bitwise(store, state, ref, ref_state)
        return store, state, ref, ref_state

    @staticmethod
    def _middle(store):
        names = [name for name, _ in store.items()]
        return names[len(names) // 2]

    def test_every_parameter_has_a_gradient(self, small_model_quarter):
        store, _, _, _ = self._steps(small_model_quarter)
        assert n_scalars(store) == 3021

    def test_a_parameter_in_the_middle_has_none(self, small_model_quarter):
        model = VolatilityModel(small_model_quarter[0])
        middle = self._middle(model.store)
        store, _, _, _ = self._steps(small_model_quarter, no_grad=middle)
        assert store[middle].data.tobytes() == model.store[middle].data.tobytes()

    def test_nan_names_its_parameter_and_changes_nothing(self, small_model_quarter):
        model = VolatilityModel(small_model_quarter[0])
        middle = self._middle(model.store)
        store, state, ref, ref_state = self._steps(small_model_quarter, nan_at=middle)
        message = f"non-finite gradient for {middle}$"
        with pytest.raises(NonFiniteError, match=message):
            adam_step(store, state, self.LR, self.WEIGHT_DECAY)
        _assert_bitwise(store, state, ref, ref_state)
        # the per-array rule raised the same error, after updating the arrays before it
        with pytest.raises(NonFiniteError, match=message):
            adam_step_per_array(ref, ref_state, self.LR, self.WEIGHT_DECAY)

    def test_several_blocks_with_a_gap(self, rng):
        # 17,201 scalars: three blocks, with the gradless b across the first boundary
        shapes = {"a": (5000,), "b": (40, 80), "c": (6001,), "d": (30, 100)}
        store = make_store({name: rng.normal(size=shape) for name, shape in shapes.items()})
        assert store.offsets[1] < BLOCK < store.offsets[2] and store.offsets[4] > 2 * BLOCK
        ref, ref_state = _reference_of(store)
        state = AdamState.for_store(store)
        for step in range(5):
            for name, t in store.items():
                t.grad = None if name == "b" else rng.normal(size=shapes[name]) * 10.0**step
                ref[name].grad = None if t.grad is None else t.grad.copy()
            adam_step(store, state, self.LR, self.WEIGHT_DECAY)
            adam_step_per_array(ref, ref_state, self.LR, self.WEIGHT_DECAY)
            _assert_bitwise(store, state, ref, ref_state)
