"""Evaluation metrics: per-window MSE, their mean, and R² against the baseline.

A report covers the windows it is given, in window order; a checkpoint
trained for one window gets a one-window report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ShapeError


def mse(preds, labels) -> float:
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if preds.shape != labels.shape:
        raise ShapeError(f"preds {preds.shape} vs labels {labels.shape}")
    if preds.size == 0:
        raise ShapeError("MSE over zero samples")
    return float(np.mean((preds - labels) ** 2))


def r_squared(mse_model: float, mse_vpast: float) -> float:
    """Fraction of the baseline's error the model removes: 1 - MSE/MSE_vpast."""
    if mse_vpast <= 0.0:
        raise ConfigError(f"baseline MSE must be positive, got {mse_vpast}")
    return 1.0 - mse_model / mse_vpast


def mean_mse(per_tau: dict) -> float:
    """Arithmetic mean of the per-window MSEs, summed in window order."""
    if not per_tau:
        raise ConfigError("mean MSE needs at least one window")
    return float(sum(per_tau[t] for t in sorted(per_tau)) / len(per_tau))


@dataclass
class MetricsReport:
    """Per-window MSE, their arithmetic mean, R² vs baseline, sample counts."""

    mse_per_tau: dict
    r2_per_tau: dict
    n_samples: dict

    @property
    def mean_mse(self) -> float:
        return mean_mse(self.mse_per_tau)

    def to_dict(self) -> dict:
        taus = sorted(self.mse_per_tau)
        out = {"mse_mean": self.mean_mse}
        for tau in taus:
            out[f"mse_{tau}"] = self.mse_per_tau[tau]
        for tau in taus:
            out[f"r2_{tau}"] = self.r2_per_tau[tau]
        out["n_samples"] = {str(t): int(self.n_samples[t]) for t in taus}
        return out


def build_report(
    preds: dict[int, np.ndarray],
    labels: dict[int, np.ndarray],
    baseline: dict[int, np.ndarray],
) -> tuple[MetricsReport, MetricsReport]:
    """Model report and baseline report over one aligned sample set, per window of ``preds``."""
    taus = sorted(preds)
    if sorted(labels) != taus or sorted(baseline) != taus:
        windows = f"preds {taus}, labels {sorted(labels)}, baselines {sorted(baseline)}"
        raise ConfigError(f"report windows differ: {windows}")
    model_mse = {t: mse(preds[t], labels[t]) for t in taus}
    base_mse = {t: mse(baseline[t], labels[t]) for t in taus}
    n = {t: len(labels[t]) for t in taus}

    def report(errors: dict) -> MetricsReport:
        return MetricsReport(errors, {t: r_squared(errors[t], base_mse[t]) for t in taus}, n)

    return report(model_mse), report(base_mse)
