"""Quarter dataset assembly and the chronological three-way split."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from reference_volatility import label, v_past_prediction
from volgraph.dataio.datasets import TAUS, build_quarter_datasets, split_by_time
from volgraph.dataio.loaders import IngestReport
from volgraph.dataio.records import CallRecord, PriceSeries, Quarter, Sentence
from volgraph.dataio.volatility import window_targets
from volgraph.errors import ConfigError


def one_sentence_call(call_id, company, date):
    return CallRecord(
        call_id,
        company,
        date,
        [Sentence(0, "executive", "presentation", 0, vector=np.zeros(4))],
    )


class TestBuildQuarterDatasets:
    def test_groups_by_quarter_sorted_by_date(self, small_corpus):
        datasets = build_quarter_datasets(small_corpus.transcripts, small_corpus.prices)
        assert [ds.quarter for ds in datasets] == sorted(ds.quarter for ds in datasets)
        for ds in datasets:
            dates = [c.call_date for c in ds.calls]
            assert dates == sorted(dates)
            assert all(ds.quarter.contains(d) for d in dates)

    def test_every_kept_call_has_all_taus(self, small_corpus):
        datasets = build_quarter_datasets(small_corpus.transcripts, small_corpus.prices)
        for ds in datasets:
            for table in (ds.labels, ds.v_past):
                assert table.dtype == np.float64
                assert table.shape == (len(ds.calls), len(TAUS))
                assert np.isfinite(table).all()

    def test_label_values_match_direct_computation(self, small_corpus):
        datasets = build_quarter_datasets(small_corpus.transcripts, small_corpus.prices)
        series = {p.company_id: p for p in small_corpus.prices}
        ds = datasets[1]
        call = ds.calls[0]
        s = series[call.company_id]
        for j, tau in enumerate(TAUS):
            assert ds.labels[0, j] == label(s, call.call_date, tau)
            assert ds.v_past[0, j] == v_past_prediction(s, call.call_date, tau)

    def test_rows_are_window_targets_rows_of_the_kept_calls(self, small_corpus):
        # a ghost company and a call past the series' end drop out; every
        # other call keeps its window_targets row, bitwise, beside its call
        calls = list(small_corpus.transcripts)
        last = max(c.call_date for c in calls)
        calls += [
            one_sentence_call("GHOST-1", "GHOST", calls[5].call_date),
            one_sentence_call("LATE-1", calls[0].company_id, last + dt.timedelta(days=400)),
        ]
        report = IngestReport()
        datasets = build_quarter_datasets(calls, small_corpus.prices, report=report)
        labels, v_past, reasons = window_targets(
            small_corpus.prices, [c.company_id for c in calls], [c.call_date for c in calls], TAUS
        )
        row_of = {c.call_id: k for k, c in enumerate(calls)}
        kept = [row_of[c.call_id] for ds in datasets for c in ds.calls]
        assert sorted(kept) == [k for k, r in enumerate(reasons) if r is None]
        assert {"GHOST-1", "LATE-1"} <= {e["call_id"] for e in report.label_exclusions}
        for ds in datasets:
            rows = [row_of[c.call_id] for c in ds.calls]
            assert ds.labels.tobytes() == labels[rows].tobytes()
            assert ds.v_past.tobytes() == v_past[rows].tobytes()

    def test_company_without_prices_is_excluded_with_reason(self, small_corpus):
        calls = list(small_corpus.transcripts)
        ghost = one_sentence_call("GHOST-1", "GHOST", calls[0].call_date)
        report = IngestReport()
        datasets = build_quarter_datasets(calls + [ghost], small_corpus.prices, report=report)
        assert {"call_id": "GHOST-1", "reason": "no price series"} in report.label_exclusions
        kept_ids = {c.call_id for ds in datasets for c in ds.calls}
        assert "GHOST-1" not in kept_ids

    def test_call_too_close_to_series_end_is_excluded(self):
        # price series ends 5 trading days after the call: tau=15 label
        # cannot exist, so the call must drop with a reason
        dates, d = [], dt.date(2016, 1, 4)
        while len(dates) < 40:
            if d.weekday() < 5:
                dates.append(d)
            d += dt.timedelta(days=1)
        closes = 100.0 * np.exp(np.cumsum(np.full(40, 0.001)))
        series = PriceSeries("A", dates, closes)
        call = one_sentence_call("A-1", "A", dates[34])
        report = IngestReport()
        datasets = build_quarter_datasets([call], [series], report=report)
        assert datasets[0].calls == []
        assert [e["call_id"] for e in report.label_exclusions] == ["A-1"]

    def test_nothing_excluded_on_default_synthetic(self, small_corpus):
        report = IngestReport()
        datasets = build_quarter_datasets(small_corpus.transcripts, small_corpus.prices, report)
        assert report.label_exclusions == []
        assert sum(len(ds.calls) for ds in datasets) == len(small_corpus.transcripts)


class TestSplitByTime:
    def test_boundaries(self):
        datasets = [_dataset_stub(Quarter(y, q)) for y in (2015, 2016, 2017) for q in (1, 4)]
        train, val, test = split_by_time(datasets, val_start=2016, test_start=2017)
        assert all(ds.quarter.year == 2015 for ds in train)
        assert all(ds.quarter.year == 2016 for ds in val)
        assert all(ds.quarter.year == 2017 for ds in test)
        assert (len(train), len(val), len(test)) == (2, 2, 2)

    def test_empty_split_is_an_error(self):
        datasets = [_dataset_stub(Quarter(2016, 1)), _dataset_stub(Quarter(2017, 1))]
        with pytest.raises(ConfigError, match="train"):
            split_by_time(datasets, val_start=2016, test_start=2017)

    def test_backward_boundaries_rejected(self):
        with pytest.raises(ConfigError):
            split_by_time([_dataset_stub(Quarter(2016, 1))], val_start=2017, test_start=2016)


def _dataset_stub(quarter):
    from volgraph.dataio.records import QuarterDataset

    empty = np.empty((0, len(TAUS)))
    return QuarterDataset(quarter=quarter, calls=[], labels=empty, v_past=empty)
