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
    validate_call,
)
from .synthetic import SyntheticConfig, SyntheticData, gen_synthetic
from .volatility import (
    LOG_FLOOR,
    anchor_index,
    label,
    log_volatility,
    returns_slice,
    v_past_prediction,
    volatility,
    window_targets,
    windowed_volatility,
)

__all__ = [
    "CallRecord",
    "IngestReport",
    "LOG_FLOOR",
    "PARTS",
    "PriceSeries",
    "Quarter",
    "QuarterDataset",
    "ROLES",
    "RelationTable",
    "Sentence",
    "SyntheticConfig",
    "SyntheticData",
    "TAUS",
    "anchor_index",
    "build_quarter_datasets",
    "gen_synthetic",
    "label",
    "load_prices",
    "load_relations",
    "load_transcripts",
    "log_volatility",
    "returns_slice",
    "split_by_time",
    "v_past_prediction",
    "validate_call",
    "volatility",
    "window_targets",
    "windowed_volatility",
    "write_prices",
    "write_relations",
    "write_transcripts",
]
