"""Return and volatility arithmetic on adjusted close series.

Two windowing conventions coexist deliberately:

* :func:`volatility` anchors at a day index — the window [t, t+tau]
  holds tau+1 return terms and the divisor is tau.
* Labels and the trailing baseline use :func:`windowed_volatility` over
  explicit index bounds, keeping the same "terms minus one" divisor.

Every window counts trading days, never calendar days: the label of a
call anchored at trading day t covers returns t+1..t+tau and its
trailing baseline covers t-tau..t-1.

The regression target is the natural log of volatility, floored at 1e-8
so an all-equal window maps to a finite value.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from ..errors import InsufficientDataError
from .records import PriceSeries

LOG_FLOOR = 1e-8


def returns_slice(series: PriceSeries, a: int, b: int) -> np.ndarray:
    """Returns for trading-day indices a..b inclusive."""
    if a < 1 or b >= len(series) or a > b:
        raise InsufficientDataError(
            f"{series.company_id}: return window [{a},{b}] outside series of length {len(series)}"
        )
    closes = series.closes
    return closes[a : b + 1] / closes[a - 1 : b] - 1.0


def volatility(series: PriceSeries, t: int, tau: int) -> float:
    """Dispersion of the tau+1 returns at indices t..t+tau, divisor tau."""
    if tau < 1:
        raise InsufficientDataError(f"window length tau={tau} must be >= 1")
    r = returns_slice(series, t, t + tau)
    return float(np.sqrt(np.sum((r - r.mean()) ** 2) / tau))


def windowed_volatility(series: PriceSeries, a: int, b: int) -> float:
    """Dispersion of returns at indices a..b inclusive, divisor (b-a)."""
    if b <= a:
        raise InsufficientDataError(f"window [{a},{b}] needs at least two returns")
    r = returns_slice(series, a, b)
    return float(np.sqrt(np.sum((r - r.mean()) ** 2) / (b - a)))


def log_volatility(vol: float) -> float:
    return float(np.log(max(vol, LOG_FLOOR)))


def anchor_index(series: PriceSeries, call_date: dt.date) -> int:
    """Trading-day index t for a call: first trading day on/after the call."""
    return series.index_on_or_after(call_date)


def label(series: PriceSeries, call_date: dt.date, tau: int) -> float:
    """Log-volatility of the window starting the day after the call's anchor day.

    The window holds the returns at trading-day indices [t+1, t+tau].
    """
    t = anchor_index(series, call_date)
    if t + tau >= len(series):
        raise InsufficientDataError(
            f"{series.company_id}: needs trading days through index {t + tau}, "
            f"series ends at {len(series) - 1}"
        )
    return log_volatility(windowed_volatility(series, t + 1, t + tau))


def v_past_prediction(series: PriceSeries, call_date: dt.date, tau: int) -> float:
    """Log-volatility of the trailing window ending the day before the anchor day.

    The window holds the returns at trading-day indices [t-tau, t-1].
    """
    t = anchor_index(series, call_date)
    if t - tau < 1:
        raise InsufficientDataError(
            f"{series.company_id}: trailing window needs index {t - tau - 1} >= 0"
        )
    return log_volatility(windowed_volatility(series, t - tau, t - 1))
