"""Quarter-level dataset assembly and time-ordered splitting."""

from __future__ import annotations

from ..errors import ConfigError, InsufficientDataError
from .loaders import IngestReport
from .records import CallRecord, PriceSeries, Quarter, QuarterDataset
from .volatility import label, v_past_prediction

TAUS = (3, 7, 15)


def build_quarter_datasets(
    calls: list[CallRecord],
    prices: list[PriceSeries],
    report: IngestReport | None = None,
) -> list[QuarterDataset]:
    """Group calls by calendar quarter and attach labels plus baselines.

    A call stays only if every tau in ``TAUS`` admits both a forward label
    and a trailing baseline; otherwise it moves to the dataset's exclusion list
    (and the ingest report, when given). Companies without any price
    series are excluded the same way — a node-only company can still
    appear in a graph, but not in a labeled dataset.
    """
    by_company = {p.company_id: p for p in prices}
    datasets: dict[Quarter, QuarterDataset] = {}
    for call in sorted(calls, key=lambda c: (c.call_date, c.company_id)):
        quarter = Quarter.of_date(call.call_date)
        ds = datasets.setdefault(quarter, QuarterDataset(quarter=quarter, calls=[]))
        series = by_company.get(call.company_id)
        if series is None:
            ds.excluded.append((call.call_id, "no price series"))
            if report is not None:
                report.label_exclusions.append(
                    {"call_id": call.call_id, "reason": "no price series"}
                )
            continue
        labels: dict[int, float] = {}
        baselines: dict[int, float] = {}
        try:
            for tau in TAUS:
                labels[tau] = label(series, call.call_date, tau)
                baselines[tau] = v_past_prediction(series, call.call_date, tau)
        except InsufficientDataError as e:
            ds.excluded.append((call.call_id, str(e)))
            if report is not None:
                report.label_exclusions.append({"call_id": call.call_id, "reason": str(e)})
            continue
        ds.calls.append(call)
        ds.labels[call.call_id] = labels
        ds.v_past[call.call_id] = baselines
    return [datasets[q] for q in sorted(datasets)]


def split_by_time(
    datasets: list[QuarterDataset], val_start: int = 2016, test_start: int = 2017
) -> tuple[list[QuarterDataset], list[QuarterDataset], list[QuarterDataset]]:
    """Group quarters into train/val/test by year boundary."""
    if not val_start < test_start:
        raise ConfigError(f"val_start {val_start} must precede test_start {test_start}")
    train, val, test = [], [], []
    for ds in datasets:
        if ds.quarter.year < val_start:
            train.append(ds)
        elif ds.quarter.year < test_start:
            val.append(ds)
        else:
            test.append(ds)
    for name, group in (("train", train), ("val", val), ("test", test)):
        if not group:
            raise ConfigError(
                f"{name} split is empty with boundaries val_start={val_start}, "
                f"test_start={test_start}"
            )
    return train, val, test
