"""Outside-in layer trace for volgraph.

The tracer wraps public functions at the names the pipeline looks them
up by (module attributes and two class methods), so the package needs
no instrumentation of its own. Each wrapped call records a span: name,
start, end, parent span and run id. Spans stay in memory and are written
out when the run ends; per-layer metrics are self times summed by span
name, plus counts taken at the same boundaries.

The tape-node count walks ``Tensor._parents`` from the tensor that
``backward`` is called on, so a change to the tape must keep that
attribute (or this counter) working.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from stats import self_times


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run: str


def tape_nodes(root) -> int:
    """Distinct tensors reachable from ``root`` through ``_parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Span and counter recorder; ``installed()`` patches volgraph while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.run = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")

    # -- patching ----------------------------------------------------------------

    def _wrap(self, fn, name: str, split_grad: bool, before=None, after=None):
        from volgraph.numcore import is_grad_enabled

        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                with tracer.span("trace.count"):
                    before(tracer, args)
            label = name
            if split_grad:
                label += ".grad" if is_grad_enabled() else ".nograd"
            with tracer.span(label):
                out = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced entry point for the duration of the block."""
        originals = []
        try:
            for module_name, attr, name, split_grad, before, after in _TARGETS:
                owner = importlib.import_module(module_name)
                path = attr.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                # a class's own attribute, not a bound method
                fn = vars(owner)[path[-1]] if isinstance(owner, type) else getattr(owner, path[-1])
                originals.append((owner, path[-1], fn))
                setattr(owner, path[-1], self._wrap(fn, name, split_grad, before, after))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


def _count_sentences(tracer, args, out):
    tracer.count("dialogue.sentences", out.shape[0])


def _count_batch(tracer, args, out):
    tracer.count("dialogue.batches")
    tracer.count("dialogue.batched_calls", args[0].shape[0])


def _count_dates(tracer, args, out):
    tracer.count("market.dates", len(args[0]))


def _count_tape(tracer, args):
    tracer.count("numcore.backward_calls")
    tracer.count("numcore.tape_nodes", tape_nodes(args[0]))


# (module, attribute, span name, split by grad mode, count before, count after)
_TARGETS = (
    ("volgraph.pipeline.model", "VolatilityModel.forward", "pipeline.forward", True, None, None),
    ("volgraph.pipeline.model", "encode_calls", "dialogue.encode", True, None, None),
    ("volgraph.pipeline.model", "company_network_encoder", "gnn.network", True, None, None),
    ("volgraph.dialogue", "featurize_sentences", "dialogue.featurize", True, None,
     _count_sentences),
    ("volgraph.dialogue", "encode_featurized_batch", "dialogue.transformer", True, None,
     _count_batch),
    ("volgraph.gnn", "run_market_timeline", "market.timeline", True, None, _count_dates),
    ("volgraph.gnn", "gat_layer", "gnn.gat", True, None, None),
    ("volgraph.pipeline.training", "masked_mse_tensor", "pipeline.loss", False, None, None),
    ("volgraph.pipeline.training", "adam_step", "numcore.adam", False, None, None),
    ("volgraph.numcore.tensor", "Tensor.backward", "numcore.backward", False, _count_tape, None),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metrics this layer metric should move
    mainly_on: str  # workloads where it matters most


def _timing(name, moves, mainly_on):
    return LayerMetric(name, "s", "lower", moves, mainly_on)


_SCORE = "score.ms.p50, score.ms.p90"
_TRAIN = "train.calls_per_s"
_BOTH = f"{_TRAIN}, {_SCORE}"

LAYER_METRICS = (
    _timing("dataio.load_s", "setup_s", "wide-graph, long-calls"),
    _timing("dataio.labels_s", "setup_s", "wide-graph, long-calls"),
    _timing("graphbuild.build_s", "setup_s", "wide-graph"),
    LayerMetric("graphbuild.edges", "count", "lower", "setup_s", "wide-graph"),
    _timing("pipeline.prepare_s", f"setup_s, {_SCORE}", "wide-graph"),
    _timing("pipeline.model_init_s", "setup_s", "all"),
    _timing("dialogue.featurize_s.grad", _TRAIN, "long-calls"),
    _timing("dialogue.featurize_s.nograd", _BOTH, "long-calls"),
    LayerMetric("dialogue.sentences", "count", "lower", _BOTH, "long-calls"),
    _timing("dialogue.transformer_s.grad", f"{_TRAIN}, peak_rss_mb", "long-calls"),
    _timing("dialogue.transformer_s.nograd", _BOTH, "long-calls"),
    _timing("dialogue.encode_self_s.grad", _TRAIN, "small"),
    _timing("dialogue.encode_self_s.nograd", _BOTH, "small"),
    LayerMetric("dialogue.batches", "count", "lower", _BOTH, "long-calls"),
    LayerMetric("dialogue.calls_per_batch", "calls", "higher", _BOTH, "long-calls"),
    _timing("market.timeline_s.grad", _TRAIN, "wide-graph, small"),
    _timing("market.timeline_s.nograd", _BOTH, "wide-graph, small"),
    LayerMetric("market.dates", "count", "lower", _TRAIN, "wide-graph"),
    _timing("gnn.gat_s.grad", _TRAIN, "wide-graph"),
    _timing("gnn.gat_s.nograd", _BOTH, "wide-graph"),
    _timing("gnn.network_self_s.grad", _TRAIN, "wide-graph"),
    _timing("gnn.network_self_s.nograd", _BOTH, "wide-graph"),
    _timing("numcore.backward_s", f"{_TRAIN}, peak_rss_mb", "all"),
    LayerMetric("numcore.tape_nodes", "nodes/step", "lower", f"{_TRAIN}, peak_rss_mb", "small"),
    _timing("numcore.adam_s", _TRAIN, "small"),
    _timing("pipeline.heads_loss_s.grad", _TRAIN, "small"),
    _timing("pipeline.heads_loss_s.nograd", _BOTH, "small"),
    _timing("pipeline.validate_s", _TRAIN, "small"),
    _timing("pipeline.train_loop_self_s", _TRAIN, "small"),
    _timing("pipeline.request_self_s", _SCORE, "small"),
    _timing("trace.setup_s", "setup_s", "wide-graph"),
    _timing("trace.train_s", _TRAIN, "all"),
    _timing("trace.score_s", _SCORE, "all"),
    LayerMetric("val_mse", "log-vol2", "lower", "none (quality at fixed work)", "all"),
    LayerMetric("test_r2", "1", "higher", "none (quality at fixed work)", "all"),
    LayerMetric("trace.overhead_train", "1", "lower", "none (tracing cost)", "small"),
    LayerMetric("trace.overhead_score", "1", "lower", "none (tracing cost)", "small"),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans and counts.

    The quality figures and the two overhead ratios come from the run itself.
    """
    own = {}
    total = {}
    for span, s in zip(tracer.spans, self_times(tracer.spans)):
        own[span.name] = own.get(span.name, 0.0) + s
        total[span.name] = total.get(span.name, 0.0) + (span.end - span.start)
    validate = sum(
        s.end - s.start
        for s in tracer.spans
        if s.name == "pipeline.forward.nograd" and s.run == "train"
    )
    counts = tracer.counts
    out = {
        "dataio.load_s": own.get("dataio.load", 0.0),
        "dataio.labels_s": own.get("dataio.labels", 0.0),
        "graphbuild.build_s": own.get("graphbuild.build", 0.0),
        "graphbuild.edges": counts.get("graphbuild.edges", 0),
        "pipeline.prepare_s": own.get("pipeline.prepare", 0.0),
        "pipeline.model_init_s": own.get("pipeline.model_init", 0.0),
        "dialogue.sentences": counts.get("dialogue.sentences", 0),
        "dialogue.batches": counts.get("dialogue.batches", 0),
        "dialogue.calls_per_batch": counts.get("dialogue.batched_calls", 0)
        / max(1, counts.get("dialogue.batches", 0)),
        "market.dates": counts.get("market.dates", 0),
        "numcore.backward_s": own.get("numcore.backward", 0.0),
        "numcore.tape_nodes": counts.get("numcore.tape_nodes", 0)
        / max(1, counts.get("numcore.backward_calls", 0)),
        "numcore.adam_s": own.get("numcore.adam", 0.0),
        "pipeline.validate_s": validate,
        "pipeline.train_loop_self_s": own.get("bench.train", 0.0),
        "pipeline.request_self_s": own.get("bench.request", 0.0),
        "trace.setup_s": total.get("bench.setup", 0.0),
        "trace.train_s": total.get("bench.train", 0.0),
        "trace.score_s": total.get("bench.request", 0.0),
    }
    for mode in ("grad", "nograd"):
        for metric, span in (
            ("dialogue.featurize_s", "dialogue.featurize"),
            ("dialogue.transformer_s", "dialogue.transformer"),
            ("dialogue.encode_self_s", "dialogue.encode"),
            ("market.timeline_s", "market.timeline"),
            ("gnn.gat_s", "gnn.gat"),
            ("gnn.network_self_s", "gnn.network"),
            ("pipeline.heads_loss_s", "pipeline.forward"),
        ):
            out[f"{metric}.{mode}"] = own.get(f"{span}.{mode}", 0.0)
    out["pipeline.heads_loss_s.grad"] += own.get("pipeline.loss", 0.0)
    return out
