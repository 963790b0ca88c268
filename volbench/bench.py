"""The benchmark's phases, correctness checks, stamp and output.

``run.py`` is the command; it pins BLAS to one thread and puts ``src/``
on the path before this module loads numpy and volgraph.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import time
from statistics import median
from pathlib import Path

import numpy as np

from gauge import RESIDENT_MB, Gauge
from layertrace import LAYER_METRICS, Tracer, layer_metrics
from stats import Ledger, beyond_count, tail_percentile
from volgraph.dataio import (
    build_quarter_datasets,
    load_prices,
    load_relations,
    load_transcripts,
    split_by_time,
)
from volgraph.graphbuild import audit_no_leakage, build_quarter_graph
from volgraph.pipeline import (
    VolatilityModel,
    evaluate,
    load_checkpoint,
    prepare_quarter,
    save_checkpoint,
    train,
)
from workloads import PRICES, RELATIONS, TRANSCRIPTS, WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".volbench"
# score requests per run: p90 then has ten samples beyond it
MIN_REQUESTS = 100

# (name, unit) of every end-to-end metric, in print order
END_TO_END = (
    ("setup_s", "s"),
    ("train.calls_per_s", "calls/s"),
    ("score.ms.p50", "ms"),
    ("score.ms.p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "1"),
)


class Aborted(Exception):
    """A phase failed and left nothing to measure; the ledger holds the failure."""


def required(ledger: Ledger, what: str, fn, *args, count: int = 1, **kwargs):
    """``ledger.call`` for a phase the run cannot go on without."""
    out = ledger.call(what, fn, *args, count=count, **kwargs)
    if out is None:
        raise Aborted(what)
    return out


def _no_span(name):
    return contextlib.nullcontext()


def setup_once(config, data_dir: Path, tracer: Tracer | None = None):
    """Files on disk -> [train, val, test] prepared quarters and a fresh model."""
    span = tracer.span if tracer is not None else _no_span
    with span("bench.setup"):
        with span("dataio.load"):
            calls = load_transcripts(data_dir / TRANSCRIPTS)
            prices = load_prices(data_dir / PRICES)
            relations = load_relations(data_dir / RELATIONS)
        with span("dataio.labels"):
            datasets = build_quarter_datasets(calls, prices)
            groups = split_by_time(datasets, config.val_start, config.test_start)
        splits = []
        for group in groups:
            prepared = []
            for ds in group:
                with span("graphbuild.build"):
                    graph = build_quarter_graph(ds.calls, relations, ds.quarter, labels=ds.labels)
                with span("pipeline.prepare"):
                    prepared.append(prepare_quarter(graph, ds))
            splits.append(prepared)
        with span("pipeline.model_init"):
            model = VolatilityModel(config)
    return splits, model


def score_request(model, graph, tracer: Tracer | None = None):
    """One request: prepare a held-out quarter graph and predict it."""
    span = tracer.span if tracer is not None else _no_span
    with span("pipeline.prepare"):
        prepared = prepare_quarter(graph)
    return model.predict(prepared)


def same_predictions(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[t], b[t]) for t in a)


def checkpoint_round_trip(model, config, work_dir: Path) -> VolatilityModel:
    path = work_dir / "model.npz"
    save_checkpoint(path, {tau: model for tau in config.taus}, config)
    loaded, _ = load_checkpoint(path)
    return loaded[config.taus[0]]


def check_graphs_and_reload(ledger: Ledger, splits, model, served) -> None:
    """Leakage audit of every quarter graph; the reloaded model must match bit for bit."""
    for prepared in (p for group in splits for p in group):
        quarter = prepared.graph.quarter
        ledger.check(audit_no_leakage(prepared.graph).ok, f"leakage audit {quarter}")
    for prepared in splits[1] + splits[2]:
        ledger.check(
            same_predictions(model.predict(prepared), served.predict(prepared)),
            f"checkpoint round trip {prepared.graph.quarter}",
        )


def check_request(ledger: Ledger, held_index: int, preds: dict, first: dict) -> None:
    ledger.check(all(np.isfinite(v).all() for v in preds.values()), "finite predictions")
    if held_index in first:
        ledger.check(same_predictions(preds, first[held_index]), "repeat request bitwise equal")
    else:
        first[held_index] = preds


def held_out_r2(ledger: Ledger, served, test_q, taus) -> float:
    """Mean over the label windows of R^2 = 1 - MSE/MSE_vpast on the test split."""
    report = ledger.call("evaluate test split", evaluate, {t: served for t in taus}, test_q)
    if report is None:
        return float("nan")
    return sum(report[0].r2_per_tau.values()) / len(report[0].r2_per_tau)


def train_steps(train_q, config) -> int:
    return sum(1 for p in train_q if p.mask.any()) * config.max_epochs


class ScoreLoop:
    """Closed loop, one client: requests cycle over the held-out quarters."""

    def __init__(self, ledger: Ledger, gauge: Gauge, served, held):
        self.ledger = ledger
        self.gauge = gauge
        self.served = served
        self.held = held
        self.intervals: list[tuple[float, float]] = []
        self.first: dict = {}
        self.attempts = 0

    def run(self, min_samples: int, until: float) -> None:
        """Score until ``min_samples`` more succeeded and perf_counter() passed ``until``."""
        goal = len(self.intervals) + min_samples
        tries = 0
        while (len(self.intervals) < goal and tries < 2 * min_samples) or (
            time.perf_counter() < until
        ):
            k = self.attempts % len(self.held)
            self.attempts += 1
            tries += 1
            preds, interval = self.gauge.measure(
                self.ledger.call, "score request", score_request, self.served, self.held[k].graph
            )
            if preds is not None:
                self.intervals.append(interval)
                check_request(self.ledger, k, preds, self.first)


def _raw(intervals) -> list[float]:
    return [end - start for start, end in intervals]


def run_untraced(workload, seconds: float, work_dir: Path, ledger: Ledger) -> dict:
    """The end-to-end run: every metric in END_TO_END, plus the quality figures.

    Every timed unit sits between two gauge marks, and the metrics are
    its durations at the gauge's reference speed (see gauge.py). Training
    repeats are spread over the run between blocks of score requests, so
    that both medians sample the whole measured interval.
    """
    config = workload.model_config()
    gauge = Gauge()
    measure_start = time.perf_counter()
    setup_intervals = []
    for _ in range(workload.setup_repeats):
        splits = model = None  # each set-up starts from the same heap
        (splits, model), interval = gauge.measure(
            required, ledger, "setup", setup_once, config, work_dir / "data"
        )
        setup_intervals.append(interval)
    train_q, val_q, test_q = splits
    steps = train_steps(train_q, config)

    train_intervals = []
    histories = []

    def train_once(model):
        history, interval = gauge.measure(
            required, ledger, "train", train, model, train_q, val_q, config, count=steps
        )
        train_intervals.append(interval)
        histories.append(history)

    train_once(model)
    served = checkpoint_round_trip(model, config, work_dir)
    check_graphs_and_reload(ledger, splits, model, served)

    loop = ScoreLoop(ledger, gauge, served, val_q + test_q)
    blocks = workload.train_repeats
    left = seconds - (time.perf_counter() - measure_start)
    left -= (blocks - 1) * _raw(train_intervals)[0]
    for _ in range(blocks - 1):
        loop.run(MIN_REQUESTS // blocks, time.perf_counter() + max(0.0, left) / blocks)
        train_once(VolatilityModel(config))  # same seed: the same initial parameters
    loop.run(MIN_REQUESTS - len(loop.intervals), measure_start + seconds)
    ledger.check(
        all(h.val_mse == histories[0].val_mse for h in histories), "repeated training bitwise equal"
    )

    r2 = held_out_r2(ledger, served, test_q, config.taus)
    latencies = [gauge.seconds(iv) for iv in loop.intervals]
    p90 = tail_percentile(latencies, 90)
    ledger.check(p90 is not None, "at least ten score samples beyond p90")
    raw_p90 = tail_percentile(_raw(loop.intervals), 90)
    train_calls = sum(p.n_labeled for p in train_q) * config.max_epochs
    return {
        "setup_s": median(gauge.seconds(iv) for iv in setup_intervals),
        "train.calls_per_s": train_calls / median(gauge.seconds(iv) for iv in train_intervals),
        "score.ms.p50": 1000.0 * median(latencies),
        "score.ms.p90": 1000.0 * (p90 if p90 is not None else float("nan")),
        # the gauge's arrays stay resident from import on: not the program's memory
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - RESIDENT_MB,
        "success_rate": 1.0 - ledger.error_rate,
        "val_mse": float(histories[0].best_val_mse),
        "test_r2": r2,
        "_score_samples": len(latencies),
        "_speed": gauge.factors,
        "_raw": {
            "setup_s": median(_raw(setup_intervals)),
            "train.calls_per_s": train_calls / median(_raw(train_intervals)),
            "score.ms.p50": 1000.0 * median(_raw(loop.intervals)),
            "score.ms.p90": 1000.0 * (raw_p90 if raw_p90 is not None else float("nan")),
        },
    }


def run_traced(workload, work_dir: Path, ledger: Ledger, spans_path: Path) -> dict:
    """Traced run of the same workload and seed: per-layer metrics and tracing overhead."""
    config = workload.model_config()
    tracer = Tracer()
    splits, model = required(ledger, "setup", setup_once, config, work_dir / "data", tracer)
    tracer.count("graphbuild.edges", sum(len(p.graph.edges) for g in splits for p in g))
    train_q, val_q, test_q = splits
    steps = train_steps(train_q, config)

    def untraced_train():
        reference = VolatilityModel(config)  # same seed: the same initial parameters
        t0 = time.perf_counter()
        history = required(
            ledger, "train (untraced)", train, reference, train_q, val_q, config, count=steps
        )
        return history, time.perf_counter() - t0

    # the first training in a process runs slower, so it only warms up. The
    # overhead compares the traced training with the untraced one just before
    # it, which the spans the traced one leaves in memory cannot slow down.
    warm, _ = untraced_train()
    plain, plain_wall = untraced_train()
    tracer.run = "train"
    with tracer.installed():
        t0 = time.perf_counter()
        with tracer.span("bench.train"):
            traced = required(
                ledger, "train (traced)", train, model, train_q, val_q, config, count=steps
            )
        traced_wall = time.perf_counter() - t0
    ledger.check(
        warm.val_mse == traced.val_mse == plain.val_mse, "tracing leaves training bitwise unchanged"
    )

    served = checkpoint_round_trip(model, config, work_dir)
    check_graphs_and_reload(ledger, splits, model, served)

    # traced and untraced requests come in pairs on the same quarter; which
    # of the two runs first alternates from pair to pair
    held = val_q + test_q
    first: dict = {}
    latencies = {True: [], False: []}
    for i in range(MIN_REQUESTS):
        k = (i // 2) % len(held)
        on = (i + i // 2) % 2 == 0
        tracer.run = f"request{i // 2}"
        with tracer.installed() if on else contextlib.nullcontext():
            t0 = time.perf_counter()
            with tracer.span("bench.request") if on else contextlib.nullcontext():
                preds = ledger.call(
                    "score request", score_request, served, held[k].graph, tracer if on else None
                )
            latency = time.perf_counter() - t0
        if preds is not None:
            latencies[on].append(latency)
            check_request(ledger, k, preds, first)
    tracer.write(spans_path)

    metrics = layer_metrics(tracer)
    metrics["val_mse"] = float(traced.best_val_mse)
    metrics["test_r2"] = held_out_r2(ledger, served, test_q, config.taus)
    metrics["trace.overhead_train"] = traced_wall / plain_wall - 1.0
    metrics["trace.overhead_score"] = median(latencies[True]) / median(latencies[False]) - 1.0
    return metrics


# -- stamp ------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS this process loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted(
        {ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and ".so" in ln}
    )
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
        ):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD's commit read straight from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "volgraph").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(workload: str, seed: int, loadavg: str | None) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_start": loadavg,
    }


# -- one run and its output -----------------------------------------------------------


def run(workload, seed: int, seconds: float, traced: bool, ledger: Ledger) -> dict:
    """One benchmark run; prints the human-readable table and returns the result object.

    A run that aborts (a set-up or a training failed) still returns its
    counts, with every failure, but with no metrics.
    """
    WORK.mkdir(exist_ok=True)
    work_dir = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    metrics = {}
    try:
        write_inputs(workload, seed, work_dir / "data")
        if traced:
            spans_path = WORK / f"spans-{workload.name}-seed{seed}.jsonl"
            measured = run_traced(workload, work_dir, ledger, spans_path)
            print_layer_table(measured)
            print(f"spans -> {spans_path.relative_to(ROOT)}")
            units = {m.name: m.unit for m in LAYER_METRICS}
        else:
            measured = run_untraced(workload, seconds, work_dir, ledger)
            print_end_to_end(measured)
            units = dict(END_TO_END)
        metrics = {name: {"value": measured[name], "unit": unit} for name, unit in units.items()}
    except Aborted as e:
        print(f"run aborted: {e} failed")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def print_end_to_end(metrics: dict) -> None:
    for name, unit in END_TO_END:
        line = f"{name:<20} {metrics[name]:>14.6g} {unit}"
        if name == "score.ms.p90":
            n = metrics["_score_samples"]
            line += f"   ({n} requests, {beyond_count(n, 90)} beyond p90)"
        print(line)
    speed = metrics["_speed"]
    raw = "  ".join(f"{k} {v:.6g}" for k, v in metrics["_raw"].items())
    print(
        f"host speed factor {min(speed):.3f}..{max(speed):.3f} (median {median(speed):.3f}, "
        f"{len(speed)} marks); unnormalized: {raw}"
    )
    print(
        f"quality at fixed work (per-layer, unbounded): val_mse {metrics['val_mse']!r}, "
        f"test_r2 {metrics['test_r2']!r}"
    )


def print_layer_table(metrics: dict) -> None:
    total = metrics["trace.setup_s"] + metrics["trace.train_s"] + metrics["trace.score_s"]
    print(f"{'layer metric':<32} {'value':>12} {'unit':<10} {'share':>6}  should move / mainly on")
    for m in LAYER_METRICS:
        value = metrics[m.name]
        timed = m.unit == "s" and not m.name.startswith("trace.")
        share = f"{100.0 * value / total:5.1f}%" if timed else ""
        print(f"{m.name:<32} {value:>12.6g} {m.unit:<10} {share:>6}  {m.moves} / {m.mainly_on}")
    print(
        f"tracing overhead: train {100 * metrics['trace.overhead_train']:+.1f}%, "
        f"score {100 * metrics['trace.overhead_score']:+.1f}% (traced vs untraced, same process)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="volgraph benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = None
    workload = WORKLOADS[args.workload]
    result = run(workload, args.seed, args.seconds, bool(args.trace), Ledger())
    print(json.dumps({"stamp": stamp(workload.name, args.seed, loadavg)}))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1
