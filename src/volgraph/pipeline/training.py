"""Training loops: inductive pretraining, transductive fine-tuning, evaluation.

One optimizer step per quarter graph, full-graph loss over labeled
nodes, early stopping on validation MSE with snapshot/restore of the
best parameters. One ``TrainHistory`` records a run: its per-epoch
losses, and the best epoch with its snapshot that patience counts from.
A NaN or an infinity in a forward value or a gradient ends the run as
``TrainingDivergedError``. Everything is deterministic given a seed: the
only randomness is the parameter initialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, InsufficientDataError, NonFiniteError, TrainingDivergedError
from ..numcore import AdamState, adam_step, no_grad
from .metrics import MetricsReport, build_report
from .model import ModelConfig, PreparedQuarter, VolatilityModel, masked_mse_tensor, predict_windows


@dataclass
class TrainHistory:
    train_loss: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0
    best_val_mse: float = float("inf")
    best_snapshot: dict | None = None

    def observe(self, epoch: int, val_mse: float, snapshot_fn) -> None:
        """Record that ``epoch`` ended; a strict improvement becomes the best epoch."""
        self.stopped_epoch = epoch
        if val_mse < self.best_val_mse:
            self.best_epoch = epoch
            self.best_val_mse = val_mse
            self.best_snapshot = snapshot_fn()

    def to_dict(self) -> dict:
        return {
            "train_loss": [float(x) for x in self.train_loss],
            "val_mse": [float(x) for x in self.val_mse],
            "stopped_epoch": self.stopped_epoch,
            "best_epoch": self.best_epoch,
            "best_val_mse": float(self.best_val_mse),
        }


def _quarter_loss(model: VolatilityModel, prepared: PreparedQuarter, mask: np.ndarray):
    preds, _, _ = model.forward(prepared)
    return masked_mse_tensor(preds, prepared.labels, mask)


def _validation_mse(model: VolatilityModel, quarters, masks) -> float:
    """Pooled per-sample MSE across quarters, averaged over the model's windows."""
    sq_sum = 0.0
    count = 0
    with no_grad():
        for prepared, mask in zip(quarters, masks):
            preds, _, _ = model.forward(prepared)
            idx = np.flatnonzero(mask)
            if idx.size == 0:
                continue
            for tau in model.taus:
                err = preds[tau].data[idx] - prepared.labels[tau][idx]
                sq_sum += float(np.sum(err * err))
                count += idx.size
    if count == 0:
        raise InsufficientDataError("validation split has no labeled nodes")
    return sq_sum / count


def _fit(
    model: VolatilityModel,
    steps: list[tuple[PreparedQuarter, np.ndarray]],
    val_quarters: list[PreparedQuarter],
    val_masks: list[np.ndarray],
    config: ModelConfig,
    history: TrainHistory,
) -> TrainHistory:
    """Early-stopped epochs of one Adam step per (quarter, mask) in ``steps``.

    A pair whose mask is empty is skipped but still counts in the epoch's
    mean train loss. A fresh optimizer starts the run; the epochs extend
    ``history``, whose best snapshot at the end, if any, is restored and
    dropped from it.
    """
    adam = AdamState.for_store(model.store)
    for epoch in range(1, config.max_epochs + 1):
        epoch_loss = 0.0
        try:
            for prepared, mask in steps:
                if not mask.any():
                    continue
                model.store.zero_grad()
                loss = _quarter_loss(model, prepared, mask)
                loss.backward()
                adam_step(model.store, adam, lr=config.lr, weight_decay=config.weight_decay)
                epoch_loss += loss.item()
            val_mse = _validation_mse(model, val_quarters, val_masks)
        except NonFiniteError as e:
            raise TrainingDivergedError(epoch, str(e)) from e
        history.train_loss.append(epoch_loss / len(steps))
        history.val_mse.append(val_mse)
        history.observe(epoch, val_mse, model.store.state_arrays)
        if epoch - history.best_epoch >= config.patience:
            break
    if history.best_snapshot is not None:
        model.store.load_state_arrays(history.best_snapshot)
        history.best_snapshot = None  # the model holds it now; keep no second copy alive
    return history


def train(
    model: VolatilityModel,
    train_quarters: list[PreparedQuarter],
    val_quarters: list[PreparedQuarter],
    config: ModelConfig,
) -> TrainHistory:
    """Early-stopped full-graph training; restores the best snapshot."""
    if not train_quarters or not val_quarters:
        raise ConfigError("train and validation splits must both be nonempty")
    train_masks = [p.mask for p in train_quarters]
    if not any(m.any() for m in train_masks):
        raise InsufficientDataError("no labeled training nodes")

    label_means = {
        tau: float(
            np.concatenate([p.labels[tau][m] for p, m in zip(train_quarters, train_masks)]).mean()
        )
        for tau in model.taus
    }
    model.warm_start_output_bias(label_means)
    return _fit(
        model,
        list(zip(train_quarters, train_masks)),
        val_quarters,
        [p.mask for p in val_quarters],
        config,
        TrainHistory(),
    )


def fine_tune(
    model: VolatilityModel,
    prepared: PreparedQuarter,
    masks: dict[str, np.ndarray],
    config: ModelConfig,
) -> TrainHistory:
    """Continue training on one masked graph with a fresh optimizer.

    The pretrained parameters are snapshotted with their validation MSE
    before any step, so a fine-tune that never improves restores them
    unchanged.
    """
    train_mask = masks["train"] & prepared.mask
    val_mask = masks["val"] & prepared.mask
    if not train_mask.any() or not val_mask.any():
        raise InsufficientDataError("fine-tune masks leave no labeled nodes")

    history = TrainHistory()
    history.observe(0, _validation_mse(model, [prepared], [val_mask]), model.store.state_arrays)
    return _fit(model, [(prepared, train_mask)], [prepared], [val_mask], config, history)


def evaluate(
    models: dict[int, VolatilityModel], quarters: list[PreparedQuarter]
) -> tuple[MetricsReport, MetricsReport]:
    """Model and baseline reports per window of ``models`` over the quarters' labeled nodes."""
    preds: dict[int, list] = {t: [] for t in models}
    labels: dict[int, list] = {t: [] for t in models}
    baseline: dict[int, list] = {t: [] for t in models}
    for prepared in quarters:
        if prepared.v_past is None:
            raise ConfigError("evaluation needs baseline values; prepare with a dataset")
        idx = np.flatnonzero(prepared.mask)
        if idx.size == 0:
            continue
        for tau, pred in predict_windows(models, prepared).items():
            preds[tau].append(pred[idx])
            labels[tau].append(prepared.labels[tau][idx])
            baseline[tau].append(prepared.v_past[tau][idx])
    if not any(labels.values()):
        raise InsufficientDataError("evaluation has no labeled nodes")
    cat = lambda d: {t: np.concatenate(v) for t, v in d.items()}
    return build_report(cat(preds), cat(labels), cat(baseline))
