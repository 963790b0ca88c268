"""Return/volatility arithmetic against brute-force recomputation.

The oracle below recomputes everything from raw closes with explicit
loops -- no shared code with the implementation under test. The scalar
functions of ``reference_volatility`` are checked against it, and
``window_targets`` against them, bitwise.
"""

from __future__ import annotations

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_volatility import (
    anchor_index,
    label,
    log_volatility,
    returns_slice,
    v_past_prediction,
    windowed_volatility,
)
from volgraph.dataio.records import PriceSeries
from volgraph.dataio.volatility import LOG_FLOOR, window_targets
from volgraph.errors import InsufficientDataError, ParseError


def series_from_closes(closes, start=dt.date(2015, 1, 5)) -> PriceSeries:
    dates = []
    d = start
    while len(dates) < len(closes):
        if d.weekday() < 5:
            dates.append(d)
        d += dt.timedelta(days=1)
    return PriceSeries("TST", tuple(dates), np.asarray(closes, dtype=np.float64))


# -- brute-force oracle --------------------------------------------------------------


def oracle_return(closes, t):
    return closes[t] / closes[t - 1] - 1.0


def oracle_vol(closes, first, last):
    """Loop-based dispersion of returns at indices first..last, divisor n-1."""
    rets = [oracle_return(closes, i) for i in range(first, last + 1)]
    mean = sum(rets) / len(rets)
    acc = 0.0
    for r in rets:
        acc += (r - mean) ** 2
    return math.sqrt(acc / (len(rets) - 1))


def random_series(rng, n=None):
    n = n or int(rng.integers(10, 60))
    closes = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.03, size=n)))
    return series_from_closes(closes)


class TestOracleEquivalence:
    def test_windowed_volatility_matches_oracle(self, rng):
        for _ in range(200):
            s = random_series(rng)
            closes = list(s.closes)
            a = int(rng.integers(1, len(s) - 2))
            b = int(rng.integers(a + 1, len(s)))
            want = oracle_vol(closes, a, b)
            assert windowed_volatility(s, a, b) == pytest.approx(want, abs=1e-12)

    def test_hand_arithmetic_two_returns(self):
        # closes 100, 101, 99.99: returns 0.01 and -0.01009900990099...
        s = series_from_closes([100.0, 101.0, 99.99])
        r = returns_slice(s, 1, 2)
        np.testing.assert_allclose(r, [0.01, 99.99 / 101.0 - 1.0], atol=1e-15)
        mean = (r[0] + r[1]) / 2
        want = math.sqrt((r[0] - mean) ** 2 + (r[1] - mean) ** 2)
        assert windowed_volatility(s, 1, 2) == pytest.approx(want, abs=1e-15)

    def test_hand_arithmetic_alternating_tau3(self):
        # returns +2%, -2%, +2%, -2%: mean 0, each deviation 0.02,
        # vol = sqrt(4 * 4e-4 / 3)
        closes = [100.0]
        for i in range(4):
            closes.append(closes[-1] * (1.02 if i % 2 == 0 else 0.98))
        s = series_from_closes(closes)
        r = returns_slice(s, 1, 4)
        np.testing.assert_allclose(r, [0.02, -0.02, 0.02, -0.02], atol=1e-12)
        assert windowed_volatility(s, 1, 4) == pytest.approx(math.sqrt(4 * 4e-4 / 3), abs=1e-12)


class TestInvariants:
    def test_zero_variance_price_series(self):
        # constant closes: every return is 0, dispersion exactly 0
        s = series_from_closes([42.0] * 12)
        assert windowed_volatility(s, 1, 6) == 0.0
        assert windowed_volatility(s, 2, 8) == 0.0
        assert log_volatility(0.0) == math.log(LOG_FLOOR)

    def test_constant_growth_is_zero_variance(self):
        # geometric series: identical returns, zero dispersion (exactly,
        # up to float division) -- checks the mean-centering
        closes = [100.0 * 1.01**i for i in range(10)]
        s = series_from_closes(closes)
        assert windowed_volatility(s, 1, 5) == pytest.approx(0.0, abs=1e-13)

    def test_price_scaling_invariance_exact(self, rng):
        # returns are ratios, so scaling all closes by 2 changes nothing
        closes = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=20)))
        a = series_from_closes(closes)
        b = series_from_closes(closes * 2.0)
        for tau in (1, 3, 7):
            assert windowed_volatility(a, 2, 2 + tau) == windowed_volatility(b, 2, 2 + tau)

    def test_volatility_is_nonnegative(self, rng):
        for _ in range(50):
            s = random_series(rng)
            assert windowed_volatility(s, 1, 4) >= 0.0

    @given(st.integers(2, 30), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_windowed_vol_matches_numpy_std(self, n, seed):
        rng = np.random.default_rng(seed)
        closes = 10.0 * np.exp(np.cumsum(rng.normal(0, 0.05, size=n + 1)))
        s = series_from_closes(closes)
        r = closes[1:] / closes[:-1] - 1.0
        want = float(np.std(r, ddof=1)) if n > 1 else 0.0
        assert windowed_volatility(s, 1, n) == pytest.approx(want, abs=1e-12)


class TestAnchorsAndLabels:
    def build(self):
        # Mon 2015-01-05 .. Fri 2015-01-16, ten trading days
        closes = [100, 102, 101, 105, 103, 104, 108, 107, 109, 110]
        return series_from_closes([float(c) for c in closes])

    def test_anchor_on_trading_day(self):
        s = self.build()
        assert anchor_index(s, dt.date(2015, 1, 7)) == 2

    def test_anchor_rolls_weekend_forward(self):
        s = self.build()
        # Saturday the 10th anchors to Monday the 12th (index 5)
        assert anchor_index(s, dt.date(2015, 1, 10)) == 5

    def test_anchor_after_series_end_raises(self):
        s = self.build()
        with pytest.raises(InsufficientDataError):
            anchor_index(s, dt.date(2015, 2, 1))

    def test_label_window_excludes_anchor_day(self):
        # label over [t+1, t+tau]: the anchor day's own return must not leak in
        s = self.build()
        t = anchor_index(s, dt.date(2015, 1, 7))
        want = math.log(oracle_vol(list(s.closes), t + 1, t + 3))
        assert label(s, dt.date(2015, 1, 7), 3) == pytest.approx(want, abs=1e-12)

    def test_v_past_window_ends_before_anchor(self):
        s = self.build()
        t = anchor_index(s, dt.date(2015, 1, 13))  # index 6
        want = math.log(oracle_vol(list(s.closes), t - 3, t - 1))
        assert v_past_prediction(s, dt.date(2015, 1, 13), 3) == pytest.approx(
            want, abs=1e-12
        )

    def test_label_needs_enough_future_days(self):
        s = self.build()
        with pytest.raises(InsufficientDataError):
            label(s, dt.date(2015, 1, 15), 7)

    def test_v_past_needs_enough_history(self):
        s = self.build()
        with pytest.raises(InsufficientDataError):
            v_past_prediction(s, dt.date(2015, 1, 6), 3)


def gappy_series(rng, company_id) -> PriceSeries:
    """0-150 trading days with gaps of 1-5 calendar days; a quarter of them flat."""
    n = int(rng.integers(0, 20) if rng.random() < 0.2 else rng.integers(20, 151))
    start = dt.date(2015, 1, 1).toordinal() + int(rng.integers(0, 30))
    days = start + np.cumsum(rng.integers(1, 6, size=n))
    kind = rng.integers(0, 4)
    if kind == 0:  # flat: every window is zero-variance and hits LOG_FLOOR
        closes = np.full(n, 20.0)
    elif kind == 1:  # constant growth, the rounding-noise case of a flat window
        closes = 10.0 * 1.01 ** np.arange(n)
    else:
        closes = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.04, size=n)))
    dates = [dt.date.fromordinal(int(d)) for d in days]
    return PriceSeries(company_id, dates, closes)


def scalar_targets(series, date):
    """The per-call oracle: the scalar reference, in the order a dataset calls it."""
    labels, past = [], []
    try:
        for tau in (3, 7, 15):
            labels.append(label(series, date, tau))
            past.append(v_past_prediction(series, date, tau))
    except InsufficientDataError as e:
        return None, None, str(e)
    return labels, past, None


def call_dates(rng, series, count):
    """Dates before, after or within 15 days of either end of the series, or anywhere in it."""
    if not len(series):
        return [dt.date(2015, 3, 1)] * count
    first, last = series.dates[0].toordinal(), series.dates[-1].toordinal()
    out = []
    for pick in rng.integers(0, 7, size=count).tolist():
        near = int(rng.integers(0, 16))
        if pick < 4:
            ordinal = (first - 1 - near, last + 1 + near, first + near, last - near)[pick]
        else:
            ordinal = int(rng.integers(first, last + 1))
        out.append(dt.date.fromordinal(ordinal))
    return out


class TestWindowTargets:
    def test_bitwise_equal_to_the_scalar_functions(self):
        # 5000 random series in batches of 50, three calls each, plus calls of a
        # company without prices and a company id listed twice (the last wins)
        rng = np.random.default_rng(2024)
        n_kept = n_excluded = 0
        for batch in range(100):
            prices = [gappy_series(rng, f"C{k}") for k in range(50)]
            prices.append(gappy_series(rng, "C0"))
            by_company = {p.company_id: p for p in prices}
            companies, dates = ["NONE"], [dt.date(2015, 2, 2)]
            for p in prices[:50]:
                companies += [p.company_id] * 3
                dates += call_dates(rng, by_company[p.company_id], 3)
            labels, past, reasons = window_targets(prices, companies, dates, (3, 7, 15))
            assert reasons[0] == "no price series"
            for k in range(1, len(companies)):
                want_labels, want_past, want_reason = scalar_targets(
                    by_company[companies[k]], dates[k]
                )
                assert reasons[k] == want_reason, (batch, k)
                if want_reason is None:
                    n_kept += 1
                    assert np.array(want_labels).tobytes() == labels[k].tobytes(), (batch, k)
                    assert np.array(want_past).tobytes() == past[k].tobytes(), (batch, k)
                else:
                    n_excluded += 1
                    assert np.isnan(labels[k]).all() and np.isnan(past[k]).all()
        # the draws reach both outcomes often
        assert min(n_kept, n_excluded) > 2500, (n_kept, n_excluded)

    def test_no_series_at_all(self):
        labels, past, reasons = window_targets([], ["A"], [dt.date(2015, 1, 5)], (3,))
        assert reasons == ["no price series"] and np.isnan(labels).all()

    def test_only_empty_series(self):
        # an empty series is a valid series: its calls have no anchor day
        date = dt.date(2015, 1, 5)
        labels, past, reasons = window_targets([PriceSeries("A", [], [])], ["A"], [date], (3,))
        assert reasons == [scalar_targets(PriceSeries("A", [], []), date)[2]]
        assert reasons == ["A: no trading day on or after 2015-01-05"]
        assert np.isnan(labels).all() and np.isnan(past).all()


class TestPriceSeries:
    def test_rejects_unsorted_dates(self):
        with pytest.raises(ParseError):
            PriceSeries(
                "X",
                (dt.date(2015, 1, 6), dt.date(2015, 1, 5)),
                np.array([1.0, 2.0]),
            )

    def test_rejects_nonpositive_close(self):
        with pytest.raises(ParseError):
            PriceSeries(
                "X",
                (dt.date(2015, 1, 5), dt.date(2015, 1, 6)),
                np.array([1.0, 0.0]),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_close(self, bad):
        with pytest.raises(ParseError, match="non-finite"):
            PriceSeries(
                "X",
                (dt.date(2015, 1, 5), dt.date(2015, 1, 6)),
                np.array([1.0, bad]),
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParseError):
            PriceSeries("X", (dt.date(2015, 1, 5),), np.array([1.0, 2.0]))
