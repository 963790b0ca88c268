"""Command-line entry points.

Subcommands cover the whole workflow: synthesize a corpus, build and
audit quarter graphs, train, evaluate against the trailing-volatility
baseline, predict, export attention weights, and compute transductive
node masks. Config files are flat ``key = value`` text; keys mirror the
dataclass fields they configure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .dataio import (
    TAUS,
    IngestReport,
    SyntheticConfig,
    build_quarter_datasets,
    gen_synthetic,
    load_prices,
    load_relations,
    load_transcripts,
    split_by_time,
    write_prices,
    write_relations,
    write_transcripts,
)
from .dataio.loaders import utf8_errors
from .dataio.records import Quarter
from .errors import ConfigError, ParseError, VolgraphError
from .graphbuild import audit_no_leakage, build_quarter_graph, load_graph_dir, save_graph_dir
from .gnn import attention_export_rows, market_export_rows
from .pipeline import (
    ModelConfig,
    build_models,
    by_scope,
    evaluate,
    load_checkpoint,
    predict_windows,
    prepare_quarter,
    save_checkpoint,
    train,
    transductive_split,
)

TRANSCRIPTS = "transcripts.jsonl"
PRICES = "prices.csv"
RELATIONS = "relations.csv"


@contextlib.contextmanager
def _input_files():
    """Turn a missing input file into a ``ParseError`` that names it."""
    try:
        yield
    except FileNotFoundError as e:
        raise ParseError("missing input file", path=e.filename) from e


def parse_kv_config(path) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment, and a key may appear once."""
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    with _input_files(), utf8_errors(path, ConfigError):
        text = Path(path).read_text(encoding="utf-8-sig")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        out[key] = value
    return out


def _coerce(value: str, kind: str, field_name: str):
    """``value`` as a field annotated ``kind``: "bool", "int", "float" or "tuple"."""
    try:
        if kind == "bool":
            low = value.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(value)
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        # a tuple of ints: an empty value is (), an empty item an error
        return tuple(int(x) for x in value.split(",")) if value else ()
    except ValueError as e:
        raise ConfigError(f"bad value {value!r} for config key {field_name}") from e


def dataclass_from_config(cls, overrides: dict[str, str]):
    """Build a config dataclass from string key/values, type-checked per field."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in overrides.items():
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r} for {cls.__name__}")
        # from __future__ annotations stores each field's type as a string, e.g. "int"
        kwargs[key] = _coerce(value, fields[key].type, key)
    return cls(**kwargs)


def _prepare_splits(config: ModelConfig, data_dir):
    """Prepared quarters of a data directory, as [train, val, test]."""
    root = Path(data_dir)
    with _input_files():
        calls = load_transcripts(root / TRANSCRIPTS)
        prices = load_prices(root / PRICES)
        relations = load_relations(root / RELATIONS)
    # a quarter whose every call lacks a window (prices that end inside it) has no graph
    datasets = [ds for ds in build_quarter_datasets(calls, prices) if ds.calls]
    groups = split_by_time(datasets, val_start=config.val_start, test_start=config.test_start)

    def prepare(ds):
        graph = build_quarter_graph(ds.calls, relations, ds.quarter, labels=ds.labels)
        return prepare_quarter(graph, ds)

    return [[prepare(ds) for ds in group] for group in groups]


# -- subcommand implementations ----------------------------------------------------


def cmd_gen_synth(args) -> int:
    overrides = parse_kv_config(args.config) if args.config else {}
    config = dataclass_from_config(SyntheticConfig, overrides)
    data = gen_synthetic(config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_transcripts(data.transcripts, out / TRANSCRIPTS)
    write_prices(data.prices, out / PRICES)
    write_relations(data.relations, out / RELATIONS)
    manifest = {"seed": args.seed, "config": dataclasses.asdict(config)}
    manifest["config"]["call_slots"] = list(config.call_slots)
    with atomic_open(out / "gen.json") as fh:
        fh.write(json.dumps(manifest, indent=2))
    print(
        f"wrote {len(data.transcripts)} calls, {len(data.prices)} price series, "
        f"{len(data.relations)} relations to {out}"
    )
    return 0


def cmd_build_graph(args) -> int:
    quarter = Quarter.parse(args.quarter)
    report = IngestReport()
    with _input_files():
        calls = load_transcripts(args.transcripts, report=report)
        relations = load_relations(args.relations)
        prices = load_prices(args.prices) if args.prices else None
    in_quarter = [c for c in calls if quarter.contains(c.call_date)]
    labels = None
    if prices is not None:
        labels = np.full((len(in_quarter), len(TAUS)), np.nan)
        row = {c.call_id: i for i, c in enumerate(in_quarter)}
        for ds in build_quarter_datasets(in_quarter, prices, report=report):
            labels[[row[c.call_id] for c in ds.calls]] = ds.labels
    graph = build_quarter_graph(in_quarter, relations, quarter, labels=labels)
    save_graph_dir(graph, args.out)
    if args.report:
        report.to_json(args.report)
    print(
        f"{quarter}: {graph.n_nodes} nodes ({graph.labeled.sum()} labeled), "
        f"{len(graph.edges)} edges -> {args.out}"
    )
    return 0


def cmd_audit_leakage(args) -> int:
    graph = load_graph_dir(args.graph)
    report = audit_no_leakage(graph)
    if args.report:
        report.to_json(args.report)
    print(f"{len(report.violations)} violations in {args.graph}")
    for v in report.violations[:20]:
        print(f"  edge {v['src']}->{v['dst']}: {v['reason']}")
    return 0 if report.ok else 1


def cmd_train(args) -> int:
    config = dataclass_from_config(ModelConfig, parse_kv_config(args.config) if args.config else {})
    train_q, val_q, _ = _prepare_splits(config, args.data)
    models = build_models(config)
    histories = {}
    for scope, model in by_scope(models).items():
        history = train(model, train_q, val_q, config)
        histories[scope] = history.to_dict()
        print(
            f"{scope}: stopped epoch {history.stopped_epoch}, "
            f"best val MSE {history.best_val_mse:.4f} at epoch {history.best_epoch}"
        )
    save_checkpoint(args.out, models, config)
    if args.history:
        with atomic_open(args.history) as fh:
            json.dump(histories, fh, indent=2)
    print(f"checkpoint -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    models, config = load_checkpoint(args.model)
    splits = _prepare_splits(config, args.data)
    chosen = {"train": splits[0], "val": splits[1], "test": splits[2]}[args.split]
    model_report, baseline_report = evaluate(models, chosen)
    payload = {
        "format": "volgraph-report/1",
        "split": args.split,
        "model": model_report.to_dict(),
        "v_past": baseline_report.to_dict(),
    }
    with atomic_open(args.report) as fh:
        json.dump(payload, fh, indent=2)
    for name in ("model", "v_past"):
        line = " ".join(f"{k}={v:.4f}" for k, v in payload[name].items() if isinstance(v, float))
        print(f"{name:<8}{line}")
    print(f"report -> {args.report}")
    return 0


def cmd_predict(args) -> int:
    models, config = load_checkpoint(args.model)
    graph = load_graph_dir(args.graph)
    prepared = prepare_quarter(graph)
    preds = predict_windows(models, prepared)
    sink = atomic_open(args.out, newline="") if args.out else contextlib.nullcontext(sys.stdout)
    with sink as out:
        writer = csv.writer(out)
        writer.writerow(
            ["node_id", "company_id", "call_id", "call_date"]
            + [f"pred_{tau}" for tau in sorted(preds)]
        )
        for i, call in enumerate(graph.calls):
            writer.writerow(
                [i, call.company_id, call.call_id, call.call_date.isoformat()]
                + [repr(float(preds[tau][i])) for tau in sorted(preds)]
            )
    if args.out:
        print(f"predictions -> {args.out}")
    return 0


def cmd_export_attention(args) -> int:
    models, config = load_checkpoint(args.model)
    tau = args.tau if args.tau is not None else sorted(models)[0]
    if tau not in models:
        raise ConfigError(f"checkpoint has no model for tau={tau}")
    model = models[tau]
    graph = load_graph_dir(args.graph)
    prepared = prepare_quarter(graph)
    from .numcore import no_grad

    with no_grad():
        _, _, diag = model.forward(prepared)
    rows = attention_export_rows(prepared.arrays, diag)
    market_rows = market_export_rows(prepared.arrays, diag)
    out = Path(args.out)
    market_out = out.with_name(f"{out.stem}.market{out.suffix}")
    with atomic_open(out, newline="") as fh, atomic_open(market_out, newline="") as mfh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "src", "dst", "gamma", "gamma_over_dtilde"])
        for row in rows:
            writer.writerow([row[0], row[1], row[2], repr(row[3]), repr(row[4])])
        writer = csv.writer(mfh)
        writer.writerow(["layer", "date", "node", "beta", "delta"])
        for layer, date, node, beta, delta in market_rows:
            writer.writerow([layer, date, node, repr(beta), repr(delta)])
    print(f"{len(rows)} attention rows ({len(diag.gamma)} layers) -> {out}")
    print(f"{len(market_rows)} market pooling rows -> {market_out}")
    return 0


def cmd_split_transductive(args) -> int:
    try:
        ratios = tuple(int(x) for x in args.ratios.split(","))
    except ValueError as e:
        raise ConfigError(f"--ratios must be comma-separated integers, got {args.ratios!r}") from e
    graph = load_graph_dir(args.graph)
    masks = transductive_split(graph, ratios)
    payload = {name: np.flatnonzero(mask).tolist() for name, mask in masks.items()}
    if args.out:
        with atomic_open(args.out) as fh:
            json.dump(payload, fh, indent=2)
        print(f"masks -> {args.out}")
    else:
        print(json.dumps(payload, indent=2))
    return 0


# -- parser wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volgraph",
        description="Volatility regression over temporal earnings-call graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic corpus")
    p.add_argument("--config", help="key=value config file (SyntheticConfig keys)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_synth)

    p = sub.add_parser("build-graph", help="build one quarter's company graph")
    p.add_argument("--quarter", required=True, help="e.g. 2017Q1")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--relations", required=True)
    p.add_argument("--prices", help="optional; enables labels")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="ingest report JSON path")
    p.set_defaults(fn=cmd_build_graph)

    p = sub.add_parser("audit-leakage", help="check a graph for temporal leakage")
    p.add_argument("--graph", required=True)
    p.add_argument("--report", help="audit report JSON path")
    p.set_defaults(fn=cmd_audit_leakage)

    p = sub.add_parser("train", help="train on a data directory")
    p.add_argument("--config", help="key=value config file (ModelConfig keys)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path (.npz)")
    p.add_argument("--history", help="training history JSON path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint against the baseline")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="predict over a saved graph directory")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", help="CSV path; stdout if omitted")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("export-attention", help="dump per-layer edge attention and market pooling")
    p.add_argument("--model", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--out", required=True,
        help="edge attention CSV; market pooling goes beside it (attn.csv -> attn.market.csv)",
    )
    p.add_argument("--tau", type=int, help="which window's model to export (separate mode)")
    p.set_defaults(fn=cmd_export_attention)

    p = sub.add_parser("split-transductive", help="chronological node masks for one graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--ratios", default="7,1,2")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_split_transductive)

    return parser


def main(argv=None) -> int:
    # ids and paths print as UTF-8, as every file is written, whatever the locale
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(encoding="utf-8")
    args = build_parser().parse_args(argv)
    try:
        # every tensor is checked finite when it is made, so an overflow ends
        # in one named error; numpy's floating-point warnings would only
        # print lines before it
        with np.errstate(all="ignore"):
            return args.fn(args)
    except VolgraphError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
