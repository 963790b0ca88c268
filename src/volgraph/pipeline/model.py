"""Model assembly: dialogue encoder → company network encoder → output heads.

Each label window τ has its own head, relu(v w1ᵀ + b1) w2ᵀ + b2 over the
final node embeddings, and each head is one tape op (``window_head``)
with a hand-written backward. The loss over all windows is one more op
(``masked_mse_tensor``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ..dataio.datasets import TAUS
from ..dataio.records import QuarterDataset
from ..dialogue import (
    DialogueEncoderParams,
    StructEmbedTables,
    encode_calls,
)
from ..errors import ConfigError, GraphConstructionError, ShapeError
from ..gnn import (
    GATLayerParams,
    GraphArrays,
    NetworkDiagnostics,
    company_network_encoder,
)
from ..graphbuild import QuarterGraph
from ..market import MarketParams
from ..numcore import ParamStore, Tensor
from ..numcore.layers import _affine, _affine_grads
from ..numcore.tensor import _make


# Keys that earlier versions wrote into checkpoint manifests. A manifest
# still loads when such a key holds the value the model now always
# behaves as; any other value would silently change the model, so it is
# rejected.
_RETIRED_KEYS = {
    # the market pool is always a softmax; the plain e_j / sum(e) ratio
    # could divide by zero and is gone
    "literal_market_norm": False,
    # the company network has a single attention head
    "network_heads": 1,
    # the feed-forward block is always 4·d_hidden wide, which null meant
    "d_ff": None,
}

# the JSON value types a manifest may hold, per ModelConfig annotation
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "tuple": (list,)}


@dataclass
class ModelConfig:
    """Hyperparameters; defaults are the full-scale training configuration."""

    lr: float = 5e-4
    weight_decay: float = 1e-7
    d_hidden: int = 64
    dialogue_layers: int = 2
    dialogue_heads: int = 8
    network_layers: int = 3
    patience: int = 10
    taus: tuple = TAUS
    seed: int = 0
    # data/feature dimensions
    d_s: int = 16
    d_p: int = 8
    d_u: int = 8
    d_r: int = 8
    d_q: int = 8
    max_sentences: int = 512
    max_utterances: int = 256
    # output head sizing
    mlp_hidden: int = 64
    # training loop
    max_epochs: int = 200
    joint_heads: bool = False
    # time-split boundaries: train < val_start <= val < test_start <= test
    val_start: int = 2016
    test_start: int = 2017

    def __post_init__(self) -> None:
        for name in ("lr", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if min(self.lr, self.weight_decay) < 0 or self.lr == 0:
            raise ConfigError("lr must be positive, weight_decay non-negative")
        for name in (
            "d_hidden",
            "dialogue_layers",
            "dialogue_heads",
            "network_layers",
            "patience",
            "d_s",
            "d_p",
            "d_u",
            "d_r",
            "d_q",
            "max_sentences",
            "max_utterances",
            "mlp_hidden",
            "max_epochs",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.d_hidden % self.dialogue_heads != 0:
            raise ConfigError(
                f"d_hidden {self.d_hidden} not divisible by {self.dialogue_heads} heads"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        bad = [t for t in self.taus if t not in TAUS]
        if bad or not self.taus:
            raise ConfigError(f"taus must come from {TAUS}, got {self.taus}")
        if len(set(self.taus)) != len(self.taus):
            raise ConfigError(f"taus must not repeat, got {self.taus}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["taus"] = list(self.taus)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Build from decoded JSON, where each value must have its field's JSON type."""
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {d!r}")
        d = dict(d)
        for key, dropped_at in _RETIRED_KEYS.items():
            if key in d and d.pop(key) != dropped_at:
                raise ConfigError(f"config key {key!r} is no longer supported")
        annotations = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(d) - set(annotations))
        if unknown:
            raise ConfigError(f"unknown model config keys: {', '.join(unknown)}")
        for key, value in d.items():
            kind = annotations[key]  # a string, e.g. "int"
            if type(value) not in _JSON_TYPES[kind] or (
                kind == "tuple" and not all(type(t) is int for t in value)
            ):
                raise ConfigError(f"config key {key!r}: {value!r} does not fit {kind}")
        if "taus" in d:
            d["taus"] = tuple(d["taus"])
        return cls(**d)


@dataclass
class PreparedQuarter:
    """A quarter graph plus everything the model needs as flat arrays."""

    graph: QuarterGraph
    arrays: GraphArrays
    labels: dict[int, np.ndarray]  # tau -> (N,) column of graph.labels, NaN where unlabeled
    mask: np.ndarray  # (N,) bool, node has labels
    v_past: dict[int, np.ndarray] | None  # tau -> (N,) column of dataset.v_past
    # dialogue.SentenceBlock per (d_s, max_sentences, max_utterances), built on first encode
    sentence_blocks: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_labeled(self) -> int:
        return int(self.mask.sum())


def prepare_quarter(graph: QuarterGraph, dataset: QuarterDataset | None = None) -> PreparedQuarter:
    """The graph's label columns per window and, given its dataset, the baseline columns.

    The dataset's calls must be the graph's nodes in node order, as
    ``build_quarter_graph(dataset.calls, ...)`` orders them; otherwise
    ``GraphConstructionError`` is raised. Without a dataset ``v_past`` is None.
    """
    call_ids = lambda calls: [c.call_id for c in calls]
    if dataset is not None and call_ids(dataset.calls) != call_ids(graph.calls):
        raise GraphConstructionError(f"the {dataset.quarter} dataset's calls are not the nodes "
                                     f"of the {graph.quarter} graph in order")
    columns = lambda table: {tau: table[:, j] for j, tau in enumerate(TAUS)}
    v_past = None if dataset is None else columns(dataset.v_past)
    arrays = GraphArrays.from_graph(graph)
    return PreparedQuarter(graph, arrays, columns(graph.labels), graph.labeled, v_past)


class VolatilityModel:
    """One trainable pipeline instance covering one or more label windows.

    Parameter registration order is fixed by construction, which pins the
    optimizer-state and checkpoint layouts for a given config.
    """

    def __init__(self, config: ModelConfig, taus: tuple | None = None):
        self.config = config
        self.taus = tuple(taus) if taus is not None else tuple(config.taus)
        rng = np.random.default_rng(config.seed)
        store = ParamStore()
        self.store = store

        self.tables = StructEmbedTables.init(
            store,
            rng,
            d_p=config.d_p,
            d_u=config.d_u,
            d_r=config.d_r,
            d_q=config.d_q,
            max_sentences=config.max_sentences,
            max_utterances=config.max_utterances,
        )
        d_in = config.d_s + self.tables.total_dim
        self.dialogue = DialogueEncoderParams.init(
            store,
            rng,
            d_in=d_in,
            d_hidden=config.d_hidden,
            n_layers=config.dialogue_layers,
            n_heads=config.dialogue_heads,
        )
        self.network = [
            (
                MarketParams.init(store, rng, config.d_hidden, prefix=f"network.layer{layer}.market"),
                GATLayerParams.init(store, rng, config.d_hidden, prefix=f"network.layer{layer}.gat"),
            )
            for layer in range(config.network_layers)
        ]
        self.heads = {}
        for tau in self.taus:
            w1, b1 = store.linear(rng, f"head.tau{tau}.hidden", config.d_hidden, config.mlp_hidden)
            w2, b2 = store.linear(rng, f"head.tau{tau}.out", config.mlp_hidden, 1)
            self.heads[tau] = (w1, b1, w2, b2)

    @property
    def scope(self) -> str:
        """The model's name in checkpoints and training histories: "joint" or "tau{τ}"."""
        return "joint" if self.config.joint_heads else f"tau{self.taus[0]}"

    def encode(self, prepared: PreparedQuarter) -> Tensor:
        """Dialogue embeddings for every node, in node order."""
        return encode_calls(
            prepared.graph.calls,
            self.tables,
            self.dialogue,
            self.config.d_s,
            prepared.sentence_blocks,
        )

    def forward(
        self, prepared: PreparedQuarter
    ) -> tuple[dict[int, Tensor], Tensor, NetworkDiagnostics]:
        """Predictions per label window, final embeddings, and diagnostics."""
        v0 = self.encode(prepared)
        v_final, diag = company_network_encoder(v0, prepared.arrays, self.network)
        preds = {tau: window_head(v_final, *self.heads[tau]) for tau in self.taus}
        return preds, v_final, diag

    def predict(self, prepared: PreparedQuarter) -> dict[int, np.ndarray]:
        from ..numcore import no_grad

        with no_grad():
            preds, _, _ = self.forward(prepared)
        return {tau: p.data.copy() for tau, p in preds.items()}

    def warm_start_output_bias(self, label_means: dict[int, float]) -> None:
        """Aim the final bias at the train-label mean per window.

        Labels sit around -4, so Adam at the default learning rate would
        spend thousands of steps just moving the output level; starting the
        bias at the mean removes that plateau without touching anything else.
        """
        for tau in self.taus:
            _, _, _, b2 = self.heads[tau]
            b2.data = np.full_like(b2.data, label_means[tau])


def window_head(v: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """One window's (N,) predictions relu(v w1ᵀ + b1) w2ᵀ + b2, as one tape op.

    The node's parents are ``v`` and the head's ``w1, b1, w2, b2``. The
    forward runs the numpy ops of the op-by-op chain (hidden map, ReLU,
    output map, reshape to (N,)) in that chain's order, so its output is
    bitwise equal to the chain's. The backward keeps the ReLU output.
    """
    h = _affine(v.data, w1.data, b1.data)
    np.maximum(h, 0.0, out=h)
    y = _affine(h, w2.data, b2.data)

    def backward(g):
        g = g.reshape(y.shape)
        g_h, g_w2 = _affine_grads(g, h, w2.data)
        g_h *= h > 0.0
        g_v, g_w1 = _affine_grads(g_h, v.data, w1.data)
        return g_v, g_w1, g_h.sum(axis=0), g_w2, g.sum(axis=0)

    return _make(y.reshape(y.shape[0]), (v, w1, b1, w2, b2), backward)


def window_taus(config: ModelConfig, tau: int) -> tuple:
    """The windows of the model that ``build_models(config)`` puts at window ``tau``."""
    return tuple(config.taus) if config.joint_heads else (tau,)


def build_models(config: ModelConfig) -> dict[int, VolatilityModel]:
    """The model serving each window of ``config.taus``: one model per distinct ``window_taus``."""
    models: dict[tuple, VolatilityModel] = {}
    for tau in config.taus:
        taus = window_taus(config, tau)
        if taus not in models:
            models[taus] = VolatilityModel(config, taus)
    return {tau: models[window_taus(config, tau)] for tau in config.taus}


def by_scope(models: dict[int, VolatilityModel]) -> dict[str, VolatilityModel]:
    """The distinct models serving ``models``' windows, by scope, in first-listed order."""
    distinct: dict[str, VolatilityModel] = {}
    for model in models.values():
        if distinct.setdefault(model.scope, model) is not model:
            raise ConfigError(f"two distinct models share scope {model.scope!r}")
    return distinct


def predict_windows(
    models: dict[int, VolatilityModel], prepared: PreparedQuarter
) -> dict[int, np.ndarray]:
    """No-grad predictions per window, running each distinct model once."""
    preds = {scope: model.predict(prepared) for scope, model in by_scope(models).items()}
    return {tau: preds[model.scope][tau] for tau, model in models.items()}


def masked_mse_tensor(
    preds: dict[int, Tensor], labels: dict[int, np.ndarray], mask: np.ndarray
) -> Tensor:
    """Mean over the windows of ``preds`` of the MSE over masked nodes, as one tape op.

    ``preds`` maps each window τ to its (N,) predictions and ``labels``
    holds at least those windows. The forward sums the per-window means
    in window order and scales by 1/len(preds), as the chain of per-op
    tensors it replaces did; the backward scatters 2·err/(n·len(preds))
    into each window's masked rows.
    """
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ShapeError("no labeled nodes in mask")
    parents = tuple(preds.values())
    errs = [p.data[idx] - labels[tau][idx] for tau, p in preds.items()]
    total = None
    for err in errs:
        term = (err * err).mean()
        total = term if total is None else total + term
    scale = 1.0 / len(errs)

    def backward(g):
        grads = []
        for p, err in zip(parents, errs):
            half = (g * scale) / idx.size * err
            rows = np.zeros(p.shape)
            rows[idx] = half + half
            grads.append(rows)
        return grads

    return _make(total * scale, parents, backward)
