"""Labels and trailing baselines one call and one window at a time.

``window_targets`` computes every label and baseline of many calls as
gathers over one flat return column. This reference anchors one call by a
sorted search of its own series, slices one window of returns and reduces
it with scalar numpy, raising ``InsufficientDataError`` where a window
does not fit. ``window_targets`` must match its values bitwise and its
error messages string for string.

Every window counts trading days: the label of a call anchored at trading
day t covers returns t+1..t+tau and its trailing baseline covers
t-tau..t-1. A window of returns a..b has divisor b - a.
"""

from __future__ import annotations

import datetime as dt

import numpy as np

from volgraph.dataio.records import PriceSeries
from volgraph.dataio.volatility import LOG_FLOOR
from volgraph.errors import InsufficientDataError


def returns_slice(series: PriceSeries, a: int, b: int) -> np.ndarray:
    """Returns for trading-day indices a..b inclusive."""
    if a < 1 or b >= len(series) or a > b:
        raise InsufficientDataError(
            f"{series.company_id}: return window [{a},{b}] outside series of length {len(series)}"
        )
    return series.returns[a - 1 : b]


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
    i = int(np.searchsorted(series.days, call_date.toordinal()))
    if i >= len(series):
        raise InsufficientDataError(
            f"{series.company_id}: no trading day on or after {call_date}"
        )
    return i


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
