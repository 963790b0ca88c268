"""Finite-difference validation of analytic gradients.

``grad_check`` perturbs every scalar of every tracked parameter with a
central difference and compares against the gradient the tape produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from volgraph.numcore import ParamStore

_FLOOR = 1e-6


@dataclass
class GradCheckReport:
    """Worst-case relative error per parameter plus an overall verdict."""

    tol: float
    max_rel_error: float = 0.0
    worst_param: str = ""
    worst_index: tuple = ()
    per_param: dict = field(default_factory=dict)
    n_checked: int = 0

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"grad check {verdict}: {self.n_checked} scalars, "
            f"max rel err {self.max_rel_error:.3e} at {self.worst_param}{list(self.worst_index)} "
            f"(tol {self.tol:.1e})"
        )


def _rel_error(fd: float, an: float) -> float:
    denom = max(abs(fd), abs(an), _FLOOR)
    if max(abs(fd), abs(an)) < _FLOOR:
        return 0.0
    return abs(fd - an) / denom


def grad_check(
    loss_fn,
    store: ParamStore,
    h: float = 1e-5,
    tol: float = 1e-4,
    param_names=None,
) -> GradCheckReport:
    """Compare tape gradients of ``loss_fn()`` against central differences.

    ``loss_fn`` must evaluate the scalar loss from the store's current
    parameter values and may be called repeatedly. Every element of every
    parameter is perturbed, so keep the store small.
    """
    names = list(param_names) if param_names is not None else [n for n, _ in store.items()]

    store.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {
        name: (store[name].grad.copy() if store[name].grad is not None
               else np.zeros_like(store[name].data))
        for name in names
    }

    report = GradCheckReport(tol=tol)
    for name in names:
        p = store[name]
        base = p.data.copy()
        worst = 0.0
        it = np.nditer(base, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            p.data = base.copy()
            p.data[idx] = base[idx] + h
            up = loss_fn().item()
            p.data = base.copy()
            p.data[idx] = base[idx] - h
            down = loss_fn().item()
            p.data = base
            fd = (up - down) / (2.0 * h)
            err = _rel_error(fd, float(analytic[name][idx]))
            report.n_checked += 1
            if err > worst:
                worst = err
            if err > report.max_rel_error:
                report.max_rel_error = err
                report.worst_param = name
                report.worst_index = idx
            it.iternext()
        report.per_param[name] = worst

    store.zero_grad()
    return report


def n_scalars(store: ParamStore) -> int:
    """Number of trainable scalars in ``store``, the count a full ``grad_check`` covers."""
    return sum(t.data.size for _, t in store.items())
