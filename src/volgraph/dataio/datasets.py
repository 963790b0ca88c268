"""Quarter-level dataset assembly and time-ordered splitting."""

from __future__ import annotations

from itertools import groupby

from ..errors import ConfigError
from .loaders import IngestReport
from .records import CallRecord, PriceSeries, Quarter, QuarterDataset
from .volatility import window_targets

TAUS = (3, 7, 15)


def build_quarter_datasets(
    calls: list[CallRecord],
    prices: list[PriceSeries],
    report: IngestReport | None = None,
) -> list[QuarterDataset]:
    """Group calls by calendar quarter and attach label and baseline rows.

    A call stays only if every tau in ``TAUS`` admits both a forward label
    and a trailing baseline; otherwise it is left out, with its reason in
    the ingest report's ``label_exclusions`` when a report is given.
    Companies without any price series are excluded the same way — a
    node-only company can still appear in a graph, but not in a labeled
    dataset. The label and baseline rows are ``window_targets``', computed
    for all calls at once.
    """
    ordered = sorted(calls, key=lambda c: (c.call_date, c.company_id))
    labels, v_past, reasons = window_targets(
        prices, [c.company_id for c in ordered], [c.call_date for c in ordered], TAUS
    )
    if report is not None:
        report.label_exclusions += [
            {"call_id": c.call_id, "reason": r} for c, r in zip(ordered, reasons) if r is not None
        ]
    datasets = []
    quarters = [Quarter.of_date(c.call_date) for c in ordered]
    for quarter, run in groupby(range(len(ordered)), quarters.__getitem__):  # one run per quarter
        kept = [k for k in run if reasons[k] is None]
        kept_calls = [ordered[k] for k in kept]
        datasets.append(QuarterDataset(quarter, kept_calls, labels[kept], v_past[kept]))
    return datasets


def split_by_time(
    datasets: list[QuarterDataset], val_start: int, test_start: int
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
