"""Data model, ingestion, labels, splits, and synthetic corpus generation."""

from .datasets import TAUS, build_quarter_datasets, split_by_time
from .loaders import (
    IngestReport,
    load_prices,
    load_relations,
    load_transcripts,
    write_prices,
    write_relations,
    write_transcripts,
)
from .records import (
    PARTS,
    ROLES,
    CallRecord,
    PriceSeries,
    Quarter,
    QuarterDataset,
    RelationTable,
    Sentence,
)
from .synthetic import SyntheticConfig, gen_synthetic
from .volatility import window_targets

__all__ = [
    "CallRecord",
    "IngestReport",
    "PARTS",
    "PriceSeries",
    "Quarter",
    "QuarterDataset",
    "ROLES",
    "RelationTable",
    "Sentence",
    "SyntheticConfig",
    "TAUS",
    "build_quarter_datasets",
    "gen_synthetic",
    "load_prices",
    "load_relations",
    "load_transcripts",
    "split_by_time",
    "window_targets",
    "write_prices",
    "write_relations",
    "write_transcripts",
]
