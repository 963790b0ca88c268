"""Labels and trailing baselines from adjusted close series.

:func:`window_targets` computes both for many calls at once. A call is
anchored at trading day t, its first trading day on or after the call
date. Every window counts trading days, never calendar days: the label
covers returns t+1..t+tau and the trailing baseline covers t-tau..t-1.
A window of n returns has dispersion sqrt(sum((r - mean)^2) / (n - 1)).

The regression target is the natural log of volatility, floored at 1e-8
so an all-equal window maps to a finite value.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from .records import PriceSeries

LOG_FLOOR = 1e-8

# date ordinals stay below this, so (series, ordinal) packs into one int64 key
_SPAN = dt.date.max.toordinal() + 1


def window_targets(
    prices: list[PriceSeries], company_ids: list[str], call_dates: list[dt.date], taus
) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """Log-volatility labels and trailing baselines of many calls at once.

    Returns (n, len(taus)) label and baseline matrices, column j for
    ``taus[j]``, and one reason per call. A reason is None when every
    window exists; otherwise it is "no price series" or names the first
    of anchor, label τ1, baseline τ1, label τ2, ... that does not fit the
    series, and the call's rows hold NaN. Each τ must be at least 2. Each
    window is one row of an (n, τ) matrix gathered from the series'
    ``returns`` and reduced along axis 1.
    """
    series_of = {p.company_id: k for k, p in enumerate(prices)}  # the last series of an id wins
    n, n_taus = len(company_ids), len(taus)
    code = np.array([series_of.get(c, -1) for c in company_ids], dtype=np.int64)
    labels = np.full((n, n_taus), np.nan)
    past = np.full((n, n_taus), np.nan)
    reasons: list[str | None] = ["no price series"] * n
    priced = np.flatnonzero(code >= 0)
    if not priced.size:
        return labels, past, reasons

    # every series' days as one sorted key column, and day i's return at the
    # same flat row (NaN at each series' first day, which has no return)
    lengths = np.array([len(p) for p in prices], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    keys = np.concatenate([k * _SPAN + p.days for k, p in enumerate(prices)])
    # (an empty series adds no rows; the leading empty array keeps the list non-empty)
    slots = (x for p in prices if len(p) for x in (np.full(1, np.nan), p.returns))
    flat = np.concatenate([np.empty(0), *slots])

    code = code[priced]
    ordinal = np.array([call_dates[k].toordinal() for k in priced], dtype=np.int64)
    anchor = np.searchsorted(keys, code * _SPAN + ordinal) - starts[code]
    length = lengths[code]
    # the checks in the order the reasons name them; the first that fails wins
    failed = [anchor >= length]
    for tau in taus:
        failed += [anchor + tau >= length, anchor - tau < 1]
    failed = np.stack(failed, axis=1)
    ok = ~failed.any(axis=1)
    for k in priced[ok].tolist():
        reasons[k] = None
    for i in np.flatnonzero(~ok).tolist():
        k, check, t = int(priced[i]), int(np.argmax(failed[i])), int(anchor[i])
        tau = taus[(check - 1) // 2]  # check 2j+1 is label taus[j], 2j+2 its baseline
        if check == 0:
            reasons[k] = f"{company_ids[k]}: no trading day on or after {call_dates[k]}"
        elif check % 2:
            reasons[k] = (
                f"{company_ids[k]}: needs trading days through index {t + tau}, "
                f"series ends at {int(length[i]) - 1}"
            )
        else:
            reasons[k] = f"{company_ids[k]}: trailing window needs index {t - tau - 1} >= 0"
    keep = priced[ok]
    day = (starts[code] + anchor)[ok]
    for j, tau in enumerate(taus):
        labels[keep, j] = _log_volatility_rows(flat[day[:, None] + np.arange(1, tau + 1)])
        past[keep, j] = _log_volatility_rows(flat[day[:, None] + np.arange(-tau, 0)])
    return labels, past, reasons


def _log_volatility_rows(r: np.ndarray) -> np.ndarray:
    """Floored log-dispersion, divisor τ - 1, of each row of an (n, τ) return matrix."""
    vol = np.sqrt(np.sum((r - r.mean(axis=1, keepdims=True)) ** 2, axis=1) / (r.shape[1] - 1))
    return np.log(np.maximum(vol, LOG_FLOOR))
