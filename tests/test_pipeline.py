"""Training loop, metrics, transductive masks, and checkpoint round-trips."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import volgraph.numcore as nc
from volgraph.dataio import build_quarter_datasets, gen_synthetic, SyntheticConfig
from volgraph.dataio.datasets import TAUS
from volgraph.dataio.volatility import window_targets
from volgraph.errors import (
    ConfigError,
    GraphConstructionError,
    InsufficientDataError,
    NonFiniteError,
    ShapeError,
    TrainingDivergedError,
)
from volgraph.graphbuild import build_quarter_graph
from volgraph.pipeline import (
    MetricsReport,
    ModelConfig,
    VolatilityModel,
    build_models,
    build_report,
    by_scope,
    evaluate,
    fine_tune,
    load_checkpoint,
    predict_windows,
    prepare_quarter,
    save_checkpoint,
    train,
    transductive_split,
)
from volgraph.pipeline.metrics import mean_mse, mse, r_squared
from volgraph.numcore.params import ParamStore
from volgraph.pipeline.model import masked_mse_tensor, window_head
from volgraph.pipeline import training
from volgraph.pipeline.training import TrainHistory, _quarter_loss, _validation_mse

import reference_ops as ro
from conftest import tiny_config
from gradcheck import grad_check, n_scalars
from reference_ops import masked_mse_chain, window_head_chain


def make_prepared(corpus, datasets):
    """One PreparedQuarter per quarter, labels and baselines attached."""
    out = []
    for ds in datasets:
        graph = build_quarter_graph(ds.calls, corpus.relations, ds.quarter, labels=ds.labels)
        out.append(prepare_quarter(graph, ds))
    return out


@pytest.fixture(scope="module")
def pipeline_corpus():
    return gen_synthetic(SyntheticConfig(n_companies=12, n_quarters=4, d_s=8), seed=5)


@pytest.fixture(scope="module")
def prepared_quarters(pipeline_corpus):
    datasets = build_quarter_datasets(pipeline_corpus.transcripts, pipeline_corpus.prices)
    return make_prepared(pipeline_corpus, datasets)


class TestMetrics:
    def test_mse_hand_case(self):
        # errors 1, -1, 2 -> (1 + 1 + 4) / 3
        assert mse([1.0, 2.0, 5.0], [0.0, 3.0, 3.0]) == pytest.approx(2.0, abs=1e-15)

    def test_mse_perfect(self):
        assert mse([0.5, -0.5], [0.5, -0.5]) == 0.0

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse([1.0, 2.0], [1.0])

    def test_mse_empty(self):
        with pytest.raises(ShapeError):
            mse([], [])

    def test_mse_matches_numpy(self, rng):
        a, b = rng.normal(size=100), rng.normal(size=100)
        assert mse(a, b) == pytest.approx(float(np.mean((a - b) ** 2)), rel=1e-15)

    def test_r_squared_hand_cases(self):
        assert r_squared(0.5, 1.0) == pytest.approx(0.5)
        assert r_squared(1.0, 1.0) == 0.0
        assert r_squared(2.0, 1.0) == pytest.approx(-1.0)  # worse than baseline

    def test_r_squared_zero_baseline(self):
        with pytest.raises(ConfigError):
            r_squared(0.1, 0.0)

    def test_mean_mse_is_arithmetic_mean(self):
        per = {3: 0.3, 7: 0.6, 15: 0.9}
        assert mean_mse(per) == pytest.approx(0.6, abs=1e-15)

    def test_mean_mse_missing_window(self):
        # the mean covers the windows given; no window at all has no mean
        assert mean_mse({7: 0.3, 3: 0.1}) == pytest.approx(0.2, abs=1e-15)
        with pytest.raises(ConfigError):
            mean_mse({})

    def test_build_report_missing_window(self, rng):
        arrays = {t: rng.normal(size=5) for t in (3, 7)}
        short = {3: arrays[3]}
        for preds, labels, base in (
            (arrays, arrays, short),
            (arrays, short, arrays),
            (short, arrays, arrays),
        ):
            with pytest.raises(ConfigError, match="windows differ"):
                build_report(preds, labels, base)

    def test_single_window_report(self, rng):
        labels = {7: rng.normal(size=6)}
        model_rep, base_rep = build_report({7: labels[7] + 0.1}, labels, {7: labels[7] + 1.0})
        d = model_rep.to_dict()
        assert list(d) == ["mse_mean", "mse_7", "r2_7", "n_samples"]
        assert d["mse_mean"] == d["mse_7"] == pytest.approx(0.01)
        assert d["r2_7"] == pytest.approx(0.99)
        assert d["n_samples"] == {"7": 6}
        assert base_rep.to_dict()["r2_7"] == 0.0

    def test_report_to_dict_layout(self):
        rep = MetricsReport(
            mse_per_tau={3: 0.1, 7: 0.2, 15: 0.3},
            r2_per_tau={3: 0.5, 7: 0.4, 15: 0.3},
            n_samples={3: 10, 7: 10, 15: 9},
        )
        d = rep.to_dict()
        assert d["mse_mean"] == pytest.approx(0.2)
        assert [d[f"mse_{t}"] for t in TAUS] == [0.1, 0.2, 0.3]
        assert [d[f"r2_{t}"] for t in TAUS] == [0.5, 0.4, 0.3]
        assert d["n_samples"] == {"3": 10, "7": 10, "15": 9}

    def test_build_report_consistency(self, rng):
        labels = {t: rng.normal(size=30) for t in TAUS}
        preds = {t: labels[t] + 0.1 * rng.normal(size=30) for t in TAUS}
        base = {t: labels[t] + rng.normal(size=30) for t in TAUS}
        model_rep, base_rep = build_report(preds, labels, base)
        for t in TAUS:
            assert model_rep.mse_per_tau[t] == pytest.approx(mse(preds[t], labels[t]))
            assert base_rep.mse_per_tau[t] == pytest.approx(mse(base[t], labels[t]))
            expected_r2 = 1.0 - model_rep.mse_per_tau[t] / base_rep.mse_per_tau[t]
            assert model_rep.r2_per_tau[t] == pytest.approx(expected_r2)
            assert base_rep.r2_per_tau[t] == 0.0
            assert model_rep.n_samples[t] == 30
        # the close predictor should beat the noisy baseline
        assert model_rep.mean_mse < base_rep.mean_mse


class TestTrainHistory:
    def test_patience_trace(self):
        # val curve: improves at epochs 1 and 2, then flat for 10 epochs.
        # strict comparison means "equal" never resets patience.
        history = TrainHistory()
        curve = [1.0, 0.9] + [0.9] * 10
        snapshots = []
        stopped = None
        for epoch, v in enumerate(curve, start=1):
            history.observe(epoch, v, lambda e=epoch: {"epoch": e})
            if history.best_epoch == epoch:
                snapshots.append(epoch)
            if epoch - history.best_epoch >= 10:
                stopped = epoch
                break
        assert stopped == history.stopped_epoch == 12
        assert snapshots == [1, 2]
        assert history.best_snapshot == {"epoch": 2}
        assert history.best_val_mse == 0.9

    def test_improvement_resets_patience(self):
        history = TrainHistory()
        for epoch, v in enumerate([1.0, 1.1, 1.2, 0.5], start=1):
            history.observe(epoch, v, lambda: None)
        assert history.best_epoch == history.stopped_epoch == 4
        assert history.best_val_mse == 0.5

    def test_snapshot_fn_called_only_on_improvement(self):
        calls = []
        history = TrainHistory()
        history.observe(1, 1.0, lambda: calls.append(1))
        history.observe(2, 2.0, lambda: calls.append(2))
        history.observe(3, 2.0, lambda: calls.append(3))
        assert calls == [1]


def scripted_validation(monkeypatch, curve):
    """Make ``_validation_mse`` return ``curve`` call by call; returns the params seen per call."""
    seen = []

    def scripted(model, quarters, masks):
        seen.append(model.store.state_arrays())
        return curve[len(seen) - 1]

    monkeypatch.setattr(training, "_validation_mse", scripted)
    return seen


def assert_params_equal(model, want):
    got = model.store.state_arrays()
    assert list(got) == list(want)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


class TestEarlyStopping:
    """Patience, ties and snapshot restore, driven through ``_fit`` by a scripted curve."""

    @pytest.mark.parametrize(
        "curve, max_epochs, patience, stopped, best",
        [
            ([1.0, 0.8, 0.9, 0.85, 0.7, 0.75, 0.75, 0.75, 0.1], 20, 3, 8, 5),
            # an equal MSE does not reset patience: the best stays epoch 2
            ([1.0, 0.5, 0.5, 0.5, 0.5], 20, 2, 4, 2),
            ([1.0, 0.9, 0.8, 0.1], 3, 2, 3, 3),
        ],
        ids=["turns", "tie", "max-epochs"],
    )
    def test_train(self, prepared_quarters, monkeypatch, curve, max_epochs, patience, stopped,
                   best):
        config = tiny_config(max_epochs=max_epochs, patience=patience)
        model = VolatilityModel(config, (3,))
        seen = scripted_validation(monkeypatch, curve)
        history = train(model, prepared_quarters[:2], prepared_quarters[2:3], config)
        assert history.stopped_epoch == stopped == len(seen)
        assert history.best_epoch == best
        assert history.best_val_mse == curve[best - 1]
        assert history.val_mse == curve[:stopped]
        assert len(history.train_loss) == stopped
        assert_params_equal(model, seen[best - 1])

    @pytest.mark.parametrize(
        "curve, stopped, best",
        [
            # epoch 0 is the pretrained model; the tie at epoch 2 does not reset patience
            ([0.5, 0.6, 0.5, 0.4], 2, 0),
            ([1.0, 0.9, 0.95, 0.95, 0.1], 3, 1),
        ],
        ids=["baseline-kept", "improves"],
    )
    def test_fine_tune(self, prepared_quarters, monkeypatch, curve, stopped, best):
        config = tiny_config(max_epochs=20, patience=2)
        model = VolatilityModel(config, (3,))
        p = prepared_quarters[0]
        seen = scripted_validation(monkeypatch, curve)
        history = fine_tune(model, p, transductive_split(p.graph, (7, 1, 2)), config)
        assert history.stopped_epoch == stopped == len(seen) - 1
        assert history.best_epoch == best
        assert history.best_val_mse == curve[best]
        assert history.val_mse == curve[1 : stopped + 1]
        assert len(history.train_loss) == stopped
        assert_params_equal(model, seen[best])

    def test_non_finite_gradient_is_divergence(self, prepared_quarters, monkeypatch):
        # the forward stays finite; the first step's gradient of one parameter is not
        adam_step = training.adam_step

        def poisoned_step(store, state, lr, weight_decay):
            _, t = next(iter(store.items()))
            t.grad[...] = np.nan
            adam_step(store, state, lr, weight_decay)

        monkeypatch.setattr(training, "adam_step", poisoned_step)
        config = tiny_config()
        model = VolatilityModel(config, (3,))
        with pytest.raises(TrainingDivergedError) as info:
            train(model, prepared_quarters[:2], prepared_quarters[2:3], config)
        first = next(iter(model.store.items()))[0]
        assert str(info.value) == f"training diverged at epoch 1: non-finite gradient for {first}"
        assert isinstance(info.value.__cause__, NonFiniteError)


class TestValidationMse:
    def test_pools_across_quarters(self, prepared_quarters):
        # oracle: concatenate per-node squared errors by hand
        model = VolatilityModel(tiny_config(), (3,))
        quarters = prepared_quarters[:2]
        masks = [p.mask for p in quarters]
        got = _validation_mse(model, quarters, masks)
        sq, n = 0.0, 0
        for p in quarters:
            preds = model.predict(p)
            idx = np.flatnonzero(p.mask)
            sq += float(np.sum((preds[3][idx] - p.labels[3][idx]) ** 2))
            n += idx.size
        assert got == pytest.approx(sq / n, rel=1e-12)

    def test_no_labeled_nodes_raises(self, prepared_quarters):
        model = VolatilityModel(tiny_config(), (3,))
        p = prepared_quarters[0]
        empty = np.zeros(p.graph.n_nodes, dtype=bool)
        with pytest.raises(InsufficientDataError):
            _validation_mse(model, [p], [empty])

    def test_masked_mse_tensor_matches_metric(self, prepared_quarters):
        p = prepared_quarters[0]
        idx = np.flatnonzero(p.mask)
        for taus in ((3,), TAUS):
            model = VolatilityModel(tiny_config(), taus)
            preds, _, _ = model.forward(p)
            t = masked_mse_tensor(preds, p.labels, p.mask)
            want = np.mean([mse(preds[tau].data[idx], p.labels[tau][idx]) for tau in taus])
            assert t.item() == pytest.approx(want, rel=1e-12)
            # value and gradients bitwise equal to the per-window chain it replaces
            leaves = {tau: nc.Tensor(preds[tau].data, requires_grad=True) for tau in taus}
            masked_mse_tensor(leaves, p.labels, p.mask).backward()
            got = {tau: leaf.grad for tau, leaf in leaves.items()}
            for leaf in leaves.values():
                leaf.grad = None
            chain = masked_mse_chain(leaves, p.labels, p.mask)
            chain.backward()
            assert t.item() == chain.item()
            for tau, leaf in leaves.items():
                assert np.array_equal(got[tau], leaf.grad), tau

    def test_masked_mse_empty_mask(self, prepared_quarters):
        model = VolatilityModel(tiny_config(), TAUS)
        p = prepared_quarters[0]
        preds, _, _ = model.forward(p)
        with pytest.raises(ShapeError):
            masked_mse_tensor(preds, p.labels, np.zeros(p.graph.n_nodes, dtype=bool))

    def test_loss_is_one_tape_node_above_the_heads(self, prepared_quarters):
        model = VolatilityModel(tiny_config(), TAUS)
        p = prepared_quarters[0]
        preds, _, _ = model.forward(p)
        loss = _quarter_loss(model, p, p.mask)
        assert len(loss._parents) == len(TAUS)
        assert tape_nodes([loss]) == tape_nodes(list(preds.values())) + 1


def tape_nodes(roots) -> int:
    """Op nodes (not leaves) reachable from ``roots``."""
    nodes, stack, seen = 0, list(roots), set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += node._backward_fn is not None
        stack.extend(node._parents)
    return nodes


class TestWindowHead:
    """``window_head`` as one tape node against the op-by-op chain it replaces."""

    def leaves(self, rng, n=9, d=6, hidden=5):
        store = ParamStore()
        v = store.add("v", rng.normal(size=(n, d)))
        w1, b1 = store.linear(rng, "hidden", d, hidden)
        w2, b2 = store.linear(rng, "out", hidden, 1)
        return store, (v, w1, b1, w2, b2)

    def test_one_tape_node_per_window(self, prepared_quarters):
        model = VolatilityModel(tiny_config(), TAUS)
        preds, v_final, _ = model.forward(prepared_quarters[0])
        for tau, pred in preds.items():
            assert pred._parents == (v_final, *model.heads[tau])
            assert pred.shape == (prepared_quarters[0].graph.n_nodes,)
        assert tape_nodes(list(preds.values())) == tape_nodes([v_final]) + len(TAUS)

    def test_no_tape_under_no_grad(self, rng):
        _, args = self.leaves(rng)
        with nc.no_grad():
            out = window_head(*args)
        assert out._parents == () and out._backward_fn is None

    def test_forward_bitwise_equal_to_op_chain(self, rng):
        _, args = self.leaves(rng)
        assert np.array_equal(window_head(*args).data, window_head_chain(*args).data)

    def test_gradients_match_op_chain(self, rng):
        store, args = self.leaves(rng)
        w = nc.Tensor(rng.normal(size=args[0].shape[0]))
        ro.sum_(ro.mul(window_head(*args), w)).backward()
        got = {name: t.grad for name, t in store.items()}
        store.zero_grad()
        ro.sum_(ro.mul(window_head_chain(*args), w)).backward()
        for name, g in got.items():
            np.testing.assert_allclose(g, store[name].grad, rtol=0, atol=1e-12, err_msg=name)

    def test_gradcheck_input_and_params(self, rng):
        store, args = self.leaves(rng)
        w = nc.Tensor(rng.normal(size=args[0].shape[0]))
        report = grad_check(lambda: ro.sum_(ro.mul(window_head(*args), w)), store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == n_scalars(store)


class TestTrain:
    def test_loss_decreases_and_history_shapes(self, prepared_quarters):
        config = tiny_config(max_epochs=8)
        model = VolatilityModel(config, (3,))
        history = train(model, prepared_quarters[:2], prepared_quarters[2:3], config)
        assert history.stopped_epoch == len(history.train_loss) == len(history.val_mse)
        assert history.train_loss[-1] < history.train_loss[0]
        assert history.best_epoch >= 1
        assert history.best_val_mse == min(history.val_mse)

    def test_deterministic_given_seed(self, prepared_quarters):
        config = tiny_config(max_epochs=4)
        histories, finals = [], []
        for _ in range(2):
            model = VolatilityModel(config, (3,))
            histories.append(train(model, prepared_quarters[:2], prepared_quarters[2:3], config))
            finals.append(model.store.state_arrays())
        assert histories[0].to_dict() == histories[1].to_dict()
        for name in finals[0]:
            assert np.array_equal(finals[0][name], finals[1][name])

    def test_restores_best_snapshot(self, prepared_quarters):
        # run long enough that the val curve can turn; params after train()
        # must equal the snapshot at best_epoch, not the last epoch's.
        config = tiny_config(max_epochs=30, patience=3)
        model = VolatilityModel(config, (3,))
        snaps = {}
        history = train(model, prepared_quarters[:2], prepared_quarters[2:3], config)
        # retrain with identical config and capture every epoch's params
        model2 = VolatilityModel(config, (3,))
        history2 = TrainHistory()
        from volgraph.numcore import AdamState, adam_step

        label_means = {
            3: float(
                np.concatenate(
                    [p.labels[3][p.mask] for p in prepared_quarters[:2]]
                ).mean()
            )
        }
        model2.warm_start_output_bias(label_means)
        adam = AdamState.for_store(model2.store)
        for epoch in range(1, config.max_epochs + 1):
            for p in prepared_quarters[:2]:
                model2.store.zero_grad()
                loss = _quarter_loss(model2, p, p.mask)
                loss.backward()
                adam_step(model2.store, adam, lr=config.lr, weight_decay=config.weight_decay)
            val = _validation_mse(model2, prepared_quarters[2:3], [prepared_quarters[2].mask])
            snaps[epoch] = model2.store.state_arrays()
            history2.observe(epoch, val, lambda: None)
            if epoch - history2.best_epoch >= config.patience:
                break
        want = snaps[history.best_epoch]
        got = model.store.state_arrays()
        for name in want:
            assert np.array_equal(want[name], got[name]), name

    def test_val_mse_better_than_untrained(self, prepared_quarters):
        config = tiny_config(max_epochs=10)
        model = VolatilityModel(config, (7,))
        before = _validation_mse(model, prepared_quarters[2:3], [prepared_quarters[2].mask])
        train(model, prepared_quarters[:2], prepared_quarters[2:3], config)
        after = _validation_mse(model, prepared_quarters[2:3], [prepared_quarters[2].mask])
        assert after < before

    def test_empty_split_rejected(self, prepared_quarters):
        model = VolatilityModel(tiny_config(), (3,))
        with pytest.raises(ConfigError):
            train(model, [], prepared_quarters[:1], tiny_config())
        with pytest.raises(ConfigError):
            train(model, prepared_quarters[:1], [], tiny_config())

    def test_warm_start_sets_bias(self, prepared_quarters):
        model = VolatilityModel(tiny_config(), (3, 7))
        model.warm_start_output_bias({3: -4.25, 7: -3.5})
        assert float(model.heads[3][3].data[0]) == -4.25
        assert float(model.heads[7][3].data[0]) == -3.5


class TestFineTune:
    def _masks(self, prepared):
        return transductive_split(prepared.graph, (7, 1, 2))

    def test_fine_tune_improves_val(self, prepared_quarters):
        config = tiny_config(max_epochs=25, patience=5)
        model = VolatilityModel(config, (3,))
        p = prepared_quarters[0]
        masks = self._masks(p)
        base = _validation_mse(model, [p], [masks["val"] & p.mask])
        history = fine_tune(model, p, masks, config)
        assert history.best_val_mse <= base
        final = _validation_mse(model, [p], [masks["val"] & p.mask])
        assert final == pytest.approx(history.best_val_mse, rel=1e-12)

    def test_epoch_zero_is_the_initial_baseline(self, prepared_quarters):
        # best_val_mse can never exceed the pretrained validation MSE
        config = tiny_config(max_epochs=3)
        model = VolatilityModel(config, (3,))
        p = prepared_quarters[0]
        masks = self._masks(p)
        base = _validation_mse(model, [p], [masks["val"] & p.mask])
        history = fine_tune(model, p, masks, config)
        assert history.best_val_mse <= base

    def test_empty_masks_rejected(self, prepared_quarters):
        model = VolatilityModel(tiny_config(), (3,))
        p = prepared_quarters[0]
        n = p.graph.n_nodes
        masks = {"train": np.zeros(n, dtype=bool), "val": np.ones(n, dtype=bool)}
        with pytest.raises(InsufficientDataError):
            fine_tune(model, p, masks, tiny_config())


class TestEvaluate:
    def test_matches_manual_concatenation(self, prepared_quarters):
        config = tiny_config()
        models = {tau: VolatilityModel(config, (tau,)) for tau in TAUS}
        quarters = prepared_quarters[:2]
        model_rep, base_rep = evaluate(models, quarters)
        preds = {t: [] for t in TAUS}
        labels = {t: [] for t in TAUS}
        base = {t: [] for t in TAUS}
        for p in quarters:
            idx = np.flatnonzero(p.mask)
            for tau in TAUS:
                preds[tau].append(models[tau].predict(p)[tau][idx])
                labels[tau].append(p.labels[tau][idx])
                base[tau].append(p.v_past[tau][idx])
        for tau in TAUS:
            want = mse(np.concatenate(preds[tau]), np.concatenate(labels[tau]))
            assert model_rep.mse_per_tau[tau] == pytest.approx(want, rel=1e-12)
            want_base = mse(np.concatenate(base[tau]), np.concatenate(labels[tau]))
            assert base_rep.mse_per_tau[tau] == pytest.approx(want_base, rel=1e-12)

    def test_shared_model_forward_runs_once_per_quarter(self, prepared_quarters):
        # joint heads: the same model serves every window; predictions must
        # agree with the separate-call route
        config = tiny_config(joint_heads=True)
        joint = VolatilityModel(config, TAUS)
        models = {tau: joint for tau in TAUS}
        model_rep, _ = evaluate(models, prepared_quarters[:1])
        p = prepared_quarters[0]
        idx = np.flatnonzero(p.mask)
        direct = joint.predict(p)
        for tau in TAUS:
            want = mse(direct[tau][idx], p.labels[tau][idx])
            assert model_rep.mse_per_tau[tau] == pytest.approx(want, rel=1e-12)

    def test_no_labeled_nodes_raise(self, prepared_quarters):
        models = {tau: VolatilityModel(tiny_config(), (tau,)) for tau in TAUS}
        with pytest.raises(InsufficientDataError, match="no labeled nodes"):
            evaluate(models, [])
        p = prepared_quarters[0]
        unlabeled = dataclasses.replace(p, mask=np.zeros_like(p.mask))
        with pytest.raises(InsufficientDataError, match="no labeled nodes"):
            evaluate(models, [unlabeled])

    def test_requires_baseline(self, prepared_quarters):
        p = prepared_quarters[0]
        stripped = prepare_quarter(p.graph)  # no dataset -> no v_past
        models = {tau: VolatilityModel(tiny_config(), (tau,)) for tau in TAUS}
        with pytest.raises(ConfigError):
            evaluate(models, [stripped])

    def test_extra_mask_restricts_sample(self, prepared_quarters):
        config = tiny_config()
        models = {tau: VolatilityModel(config, (tau,)) for tau in TAUS}
        p = prepared_quarters[0]
        sub = p.mask.copy()
        keep = np.flatnonzero(sub)[: max(1, p.n_labeled // 2)]
        sub[:] = False
        sub[keep] = True
        rep, _ = evaluate(models, [dataclasses.replace(p, mask=sub)])
        assert all(rep.n_samples[t] == len(keep) for t in TAUS)


class TestWindowLayout:
    def test_separate_and_joint_layouts(self):
        separate = build_models(tiny_config())
        assert [(m.scope, m.taus) for m in separate.values()] == [
            ("tau3", (3,)), ("tau7", (7,)), ("tau15", (15,))
        ]
        assert list(by_scope(separate)) == ["tau3", "tau7", "tau15"]
        joint = build_models(tiny_config(joint_heads=True))
        assert list(joint) == list(TAUS)
        assert by_scope(joint) == {"joint": joint[3]} and joint[3].taus == TAUS

    def test_predict_windows_runs_each_model_once(self, prepared_quarters, monkeypatch):
        models = build_models(tiny_config(joint_heads=True))
        p = prepared_quarters[0]
        want = models[3].predict(p)
        runs = []
        real = VolatilityModel.predict
        monkeypatch.setattr(VolatilityModel, "predict", lambda m, q: runs.append(m) or real(m, q))
        got = predict_windows(models, p)
        assert len(runs) == 1
        assert list(got) == list(TAUS)
        assert all(np.array_equal(got[t], want[t]) for t in TAUS)


class TestTransductiveSplit:
    def test_partition_and_counts(self, prepared_quarters):
        graph = prepared_quarters[0].graph
        masks = transductive_split(graph, (7, 1, 2))
        n = graph.n_nodes
        union = masks["train"] | masks["val"] | masks["test"]
        assert union.all()
        assert not (masks["train"] & masks["val"]).any()
        assert not (masks["train"] & masks["test"]).any()
        assert not (masks["val"] & masks["test"]).any()
        assert masks["train"].sum() == n * 7 // 10
        assert masks["val"].sum() == n * 1 // 10

    def test_chronological_order(self, prepared_quarters):
        graph = prepared_quarters[0].graph
        masks = transductive_split(graph, (7, 1, 2))
        dates = [c.call_date for c in graph.calls]
        latest_train = max(dates[i] for i in np.flatnonzero(masks["train"]))
        earliest_test = min(dates[i] for i in np.flatnonzero(masks["test"]))
        assert latest_train <= earliest_test

    def test_custom_ratios(self, prepared_quarters):
        graph = prepared_quarters[0].graph
        masks = transductive_split(graph, ratios=(1, 1, 2))
        n = graph.n_nodes
        assert masks["train"].sum() == n // 4
        assert masks["val"].sum() == n // 4

    def test_too_few_nodes(self, prepared_quarters):
        class Stub:
            n_nodes = 5
            nodes = []

        with pytest.raises(InsufficientDataError):
            transductive_split(Stub(), (7, 1, 2))

    def test_bad_ratios(self, prepared_quarters):
        graph = prepared_quarters[0].graph
        with pytest.raises(InsufficientDataError):
            transductive_split(graph, ratios=(1, 0, 1))
        with pytest.raises(InsufficientDataError):
            transductive_split(graph, ratios=(1, 1))


class TestCheckpoint:
    def test_round_trip_separate_models(self, tmp_path, prepared_quarters):
        config = tiny_config()
        models = {tau: VolatilityModel(config, (tau,)) for tau in TAUS}
        # nudge params so we are not just reloading the seeded init
        for m in models.values():
            for _, t in m.store.items():
                t.data = t.data + 0.01
        path = tmp_path / "model.npz"
        save_checkpoint(path, models, config)
        loaded, loaded_config = load_checkpoint(path)
        assert loaded_config.to_dict() == config.to_dict()
        p = prepared_quarters[0]
        for tau in TAUS:
            want = models[tau].predict(p)[tau]
            got = loaded[tau].predict(p)[tau]
            assert np.array_equal(want, got)

    def test_round_trip_joint_model(self, tmp_path, prepared_quarters):
        config = tiny_config(joint_heads=True)
        joint = VolatilityModel(config, TAUS)
        models = {tau: joint for tau in TAUS}
        path = tmp_path / "joint.npz"
        save_checkpoint(path, models, config)
        loaded, _ = load_checkpoint(path)
        # all windows share one instance after reload too
        assert len({id(m) for m in loaded.values()}) == 1
        p = prepared_quarters[0]
        want = joint.predict(p)
        got = loaded[3].predict(p)
        for tau in TAUS:
            assert np.array_equal(want[tau], got[tau])

    def test_checkpoint_of_an_earlier_version_matches_a_fresh_build(self):
        """``data/checkpoint-format2.npz`` was written at commit d4ff5a7 by
        ``save_checkpoint(path, build_models(config), config)``, with three
        separate window models, and its zip members were then recompressed
        with deflate (``np.load`` reads either). Its manifest holds
        ``"d_ff": null``. Building the models from its config must give its
        parameter names in its order and its arrays bitwise: a renamed,
        reordered or re-drawn parameter fails here."""
        path = Path(__file__).parent / "data" / "checkpoint-format2.npz"
        with np.load(path) as data:
            manifest = json.loads(str(data["__manifest__"]))
            saved = {key: data[key] for key in data.files if key != "__manifest__"}
        assert manifest["config"]["d_ff"] is None and manifest["config"]["joint_heads"] is False
        loaded, config = load_checkpoint(path)
        for models in (build_models(config), loaded):
            scopes = by_scope(models)
            assert list(scopes) == ["tau3", "tau7", "tau15"]
            arrays = {f"{scope}/{name}": t.data for scope, model in scopes.items()
                      for name, t in model.store.items()}
            assert list(arrays) == list(saved)
            for key, array in arrays.items():
                assert np.array_equal(array, saved[key]), key

    def test_scope_names(self, tmp_path):
        config = tiny_config()
        models = {tau: VolatilityModel(config, (tau,)) for tau in TAUS}
        path = tmp_path / "m.npz"
        save_checkpoint(path, models, config)
        with np.load(path) as data:
            manifest = json.loads(str(data["__manifest__"]))
        assert manifest["scopes"] == {"3": "tau3", "7": "tau7", "15": "tau15"}
        assert manifest["format"] == "volgraph-checkpoint/2"
        assert any(k.startswith("tau3/") for k in manifest["params"])

    def test_models_that_would_share_a_scope_are_refused(self, tmp_path):
        # per-window models under a joint config would all be scope "joint",
        # each overwriting the others' arrays
        config = tiny_config(joint_heads=True)
        models = {tau: VolatilityModel(config, (tau,)) for tau in TAUS}
        with pytest.raises(ConfigError, match="two distinct models share scope 'joint'"):
            save_checkpoint(tmp_path / "m.npz", models, config)
        separate = build_models(tiny_config())
        with pytest.raises(ConfigError, match="model tau3 was built from another config"):
            save_checkpoint(tmp_path / "m.npz", separate, config)
        assert list(tmp_path.iterdir()) == []

    # layouts load_checkpoint refuses: save refuses them too, and writes nothing
    def test_separate_model_under_windows_it_does_not_serve_is_refused(self, tmp_path):
        config = tiny_config()
        model = VolatilityModel(config)  # scope tau3, heads for every window
        message = r"window 3 needs a model serving \(3,\), got tau3 serving \(3, 7, 15\)"
        with pytest.raises(ConfigError, match=message):
            save_checkpoint(tmp_path / "m.npz", dict.fromkeys(TAUS, model), config)
        assert list(tmp_path.iterdir()) == []

    def test_model_under_a_window_outside_its_taus_is_refused(self, tmp_path):
        config = tiny_config()
        with pytest.raises(
            ConfigError, match=r"window 7 needs a model serving \(7,\), got tau3 serving \(3,\)"
        ):
            save_checkpoint(tmp_path / "m.npz", {7: VolatilityModel(config, (3,))}, config)
        assert list(tmp_path.iterdir()) == []

    def test_window_outside_config_taus_is_refused(self, tmp_path):
        config = tiny_config(taus=(3,))
        models = {3: VolatilityModel(config), 7: VolatilityModel(config, (7,))}
        with pytest.raises(ConfigError, match=r"window 7 is not a window of \(3,\)"):
            save_checkpoint(tmp_path / "m.npz", models, config)
        assert list(tmp_path.iterdir()) == []

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_bad_format_version(self, tmp_path):
        import json

        path = tmp_path / "old.npz"
        manifest = {"format": "volgraph-checkpoint/0", "config": {}, "scopes": {}}
        np.savez(path, __manifest__=np.array(json.dumps(manifest)))
        with pytest.raises(ConfigError):
            load_checkpoint(path)


    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        config = tiny_config()
        models = {tau: VolatilityModel(config, (tau,)) for tau in TAUS}
        path = tmp_path / "m.npz"
        save_checkpoint(path, models, config)
        before = path.read_bytes()

        def fail_partway(fh, **arrays):
            fh.write(before[: len(before) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", fail_partway)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, models, config)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.npz"]

    def test_path_is_used_as_given(self, tmp_path):
        # np.savez given a path without the .npz suffix would append one
        config = tiny_config()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {3: VolatilityModel(config, (3,))}, config)
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        assert list(load_checkpoint(path)[0]) == [3]

    def _corrupt(self, tmp_path, edit):
        # rewrite a saved checkpoint after ``edit`` changes its arrays/manifest
        import json

        config = tiny_config()
        path = tmp_path / "m.npz"
        save_checkpoint(path, {tau: VolatilityModel(config, (tau,)) for tau in TAUS}, config)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        manifest = json.loads(str(arrays["__manifest__"]))
        edit(arrays, manifest)
        arrays["__manifest__"] = np.array(json.dumps(manifest))
        np.savez(path, **arrays)
        return path

    def test_missing_parameter_array(self, tmp_path):
        path = self._corrupt(tmp_path, lambda arrays, _: arrays.pop("tau7/head.tau7.out.b"))
        with pytest.raises(ConfigError, match="head.tau7.out.b"):
            load_checkpoint(path)

    def test_unknown_manifest_config_key(self, tmp_path):
        path = self._corrupt(tmp_path, lambda _, manifest: manifest["config"].update(bogus=1))
        with pytest.raises(ConfigError, match="bogus"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["config", "scopes"])
    def test_manifest_missing_section(self, tmp_path, key):
        path = self._corrupt(tmp_path, lambda _, manifest: manifest.pop(key))
        with pytest.raises(ConfigError, match=f"m.npz: manifest lacks {key}"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda m: m["config"].update(d_hidden="8"), "'d_hidden'"),
            (lambda m: m["config"].update(lr="fast"), "'lr'"),
            (lambda m: m["config"].update(mlp_hidden="12"), "'mlp_hidden'"),
            (lambda m: m["config"].update(taus=5), "'taus'"),
            (lambda m: m.update(config=[1]), "config"),
            (lambda m: m.update(scopes=[1]), "scopes"),
            (lambda m: m.update(scopes={}), "scopes"),
            (lambda m: m["scopes"].update(x="tau3"), "'x'"),
            (lambda m: m["scopes"].update({"99": "tau3"}), "'99'"),
        ],
        ids=["int-as-string", "float-as-string", "mlp_hidden-as-string", "taus-as-int",
             "config-as-list", "scopes-as-list", "scopes-empty", "scope-key-not-a-window",
             "scope-key-not-a-config-window"],
    )
    def test_manifest_value_of_the_wrong_json_type(self, tmp_path, edit, key):
        path = self._corrupt(tmp_path, lambda _, manifest: edit(manifest))
        with pytest.raises(ConfigError, match=key):
            load_checkpoint(path)

    def test_manifest_scope_is_not_the_config_layout(self, tmp_path):
        path = self._corrupt(tmp_path, lambda _, manifest: manifest["scopes"].update({"7": "tau3"}))
        with pytest.raises(ConfigError, match="window 7 is in scope 'tau3', not 'tau7'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "payload", [b"not a model!", b"PK\x03\x04 truncated"], ids=["text", "zip"]
    )
    def test_not_a_zip_archive(self, tmp_path, payload):
        path = tmp_path / "junk.npz"
        path.write_bytes(payload)
        with pytest.raises(ConfigError, match="junk.npz"):
            load_checkpoint(path)

    def test_corrupt_array_bytes(self, tmp_path):
        path = self._corrupt(tmp_path, lambda arrays, manifest: None)
        raw = bytearray(path.read_bytes())
        for i in range(len(raw) // 3, len(raw) // 3 + 64):
            raw[i] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match="m.npz"):
            load_checkpoint(path)

    def test_retired_literal_norm_key_is_dropped(self, tmp_path):
        # manifests written before the key was retired carry it as False
        path = self._corrupt(
            tmp_path, lambda _, manifest: manifest["config"].update(literal_market_norm=False)
        )
        models, config = load_checkpoint(path)
        assert "literal_market_norm" not in config.to_dict()

    def test_retired_literal_norm_key_set_is_rejected(self, tmp_path):
        path = self._corrupt(
            tmp_path, lambda _, manifest: manifest["config"].update(literal_market_norm=True)
        )
        with pytest.raises(ConfigError, match="literal_market_norm"):
            load_checkpoint(path)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_retired_network_heads_key(self, tmp_path, heads):
        # manifests written before the key was retired carry it as 1
        path = self._corrupt(
            tmp_path, lambda _, manifest: manifest["config"].update(network_heads=heads)
        )
        if heads == 1:
            assert "network_heads" not in load_checkpoint(path)[1].to_dict()
        else:
            with pytest.raises(ConfigError, match="network_heads"):
                load_checkpoint(path)


class TestModelConfig:
    def test_round_trip(self):
        config = tiny_config(taus=(3, 7))
        again = ModelConfig.from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()
        assert again.taus == (3, 7)

    def test_validation_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            tiny_config(lr=0.0)
        with pytest.raises(ConfigError):
            tiny_config(d_hidden=0)
        with pytest.raises(ConfigError):
            tiny_config(taus=(4,))
        with pytest.raises(ConfigError):
            tiny_config(d_hidden=8, dialogue_heads=3)
        with pytest.raises(ConfigError, match="network_heads"):
            ModelConfig.from_dict({**tiny_config().to_dict(), "network_heads": 2})

    @pytest.mark.parametrize("name", ["lr", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_validation_rejects_non_finite_floats(self, name, value):
        with pytest.raises(ConfigError, match=name):
            tiny_config(**{name: value})

    def test_from_dict_rejects_unknown_keys(self):
        d = tiny_config().to_dict()
        d["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            ModelConfig.from_dict(d)

    def test_from_dict_drops_retired_key(self):
        d = tiny_config().to_dict()
        d["literal_market_norm"] = False
        assert ModelConfig.from_dict(d).to_dict() == tiny_config().to_dict()

    def test_prepared_quarter_label_alignment(self, pipeline_corpus, prepared_quarters):
        # each node's labels and baselines are window_targets' row of its call, bitwise
        for p in prepared_quarters:
            calls = p.graph.calls
            labels, v_past, reasons = window_targets(
                pipeline_corpus.prices,
                [c.company_id for c in calls],
                [c.call_date for c in calls],
                TAUS,
            )
            assert reasons == [None] * len(calls) and p.mask.all()
            for j, tau in enumerate(TAUS):
                assert p.labels[tau].tobytes() == labels[:, j].tobytes()
                assert p.v_past[tau].tobytes() == v_past[:, j].tobytes()

    def test_prepare_with_another_quarters_dataset_raises(self, pipeline_corpus):
        corpus = pipeline_corpus
        datasets = build_quarter_datasets(corpus.transcripts, corpus.prices)
        first, second = datasets[:2]
        graph = build_quarter_graph(first.calls, corpus.relations, first.quarter, first.labels)
        with pytest.raises(GraphConstructionError, match=f"the {second.quarter} dataset's calls"):
            prepare_quarter(graph, second)
        # the same calls out of node order do not match either
        shuffled = dataclasses.replace(first, calls=first.calls[::-1])
        with pytest.raises(GraphConstructionError, match="not the nodes"):
            prepare_quarter(graph, shuffled)
        assert prepare_quarter(graph, first).mask.all()
