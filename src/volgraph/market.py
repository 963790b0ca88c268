"""Market encoder: per-date attention pooling and a time-decayed GRU.

All calls on one date are pooled into a single market vector by global
attention; a GRU then walks the date sequence in chronological order.
The reset path of the GRU is additionally gated by a decay coefficient
sigma(w_d/(gap+1)) so that long gaps between consecutive call dates wash
out more of the carried state. The scan is strictly left-to-right: the
market state for a date is a function of calls on that date and earlier
ones only.

Everything that does not depend on the carried state runs once per
quarter over all dates: pooling is one segment softmax and one segment
sum over each node's date id, the decays are one vector op, and the
GRU's input projections are one matmul per gate. Only the recurrent
u-terms stay in the per-date loop, as in time-aware recurrent cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numcore import (
    ParamStore,
    Tensor,
    add,
    concat,
    div,
    linear,
    matmul,
    mul,
    reshape,
    segment_softmax,
    segment_sum,
    sigmoid,
    sub,
    swapaxes,
    take,
    tanh,
    uniform_init,
)


@dataclass
class MarketAttentionParams:
    w_k: Tensor  # key projection, d×d
    w_q: Tensor  # query vector, d

    @classmethod
    def init(
        cls, store: ParamStore, rng: np.random.Generator, d: int, prefix: str
    ) -> "MarketAttentionParams":
        return cls(
            w_k=store.add(f"{prefix}.attn.w_k", uniform_init(rng, (d, d), d)),
            w_q=store.add(f"{prefix}.attn.w_q", uniform_init(rng, (d,), d)),
        )


@dataclass
class TimeDecayGRUParams:
    w_z: Tensor
    u_z: Tensor
    b_z: Tensor
    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor
    w_d: Tensor  # decay scalar, shape (1,)
    w_a: Tensor  # output map, d×d
    b_a: Tensor

    @classmethod
    def init(
        cls, store: ParamStore, rng: np.random.Generator, d: int, prefix: str
    ) -> "TimeDecayGRUParams":
        def mat(name):
            return store.add(f"{prefix}.{name}", uniform_init(rng, (d, d), d))

        def vec(name):
            return store.add(f"{prefix}.{name}", uniform_init(rng, (d,), d))

        return cls(
            w_z=mat("gru.w_z"),
            u_z=mat("gru.u_z"),
            b_z=vec("gru.b_z"),
            w_r=mat("gru.w_r"),
            u_r=mat("gru.u_r"),
            b_r=vec("gru.b_r"),
            w_h=mat("gru.w_h"),
            u_h=mat("gru.u_h"),
            b_h=vec("gru.b_h"),
            w_d=store.add(f"{prefix}.gru.w_d", uniform_init(rng, (1,), 1)),
            w_a=mat("out.w_a"),
            b_a=vec("out.b_a"),
        )


@dataclass
class MarketParams:
    attention: MarketAttentionParams
    gru: TimeDecayGRUParams

    @classmethod
    def init(
        cls, store: ParamStore, rng: np.random.Generator, d: int, prefix: str = "market"
    ) -> "MarketParams":
        return cls(
            attention=MarketAttentionParams.init(store, rng, d, prefix),
            gru=TimeDecayGRUParams.init(store, rng, d, prefix),
        )


@dataclass
class MarketTimeline:
    """Stacked per-date states, plus numpy copies of the pooling weights."""

    pooled: Tensor  # m_{t_i}, (T, d)
    hidden: Tensor  # a_{t_i}, (T, d)
    outputs: Tensor  # m'_{t_i}, (T, d)
    betas: list  # per date, the weights of its calls in node order
    deltas: list  # per date, the decay coefficient as a float


def market_attention(
    embeddings: Tensor, node_group, n_dates: int, params: MarketAttentionParams
) -> tuple[Tensor, Tensor]:
    """Pool (N, d) call embeddings into one (n_dates, d) row per date.

    ``node_group[j]`` is the date of call j. The weights, returned as an
    (N,) tensor, are a softmax over the calls of each date.
    """
    if embeddings.ndim != 2 or embeddings.shape[0] < 1:
        raise ShapeError(f"expected (n, d) call embeddings, got {embeddings.shape}")
    n, d = embeddings.shape
    keys = linear(embeddings, params.w_k)  # (n, d)
    scores = div(matmul(keys, reshape(params.w_q, (d, 1))), float(np.sqrt(d)))  # (n, 1)
    beta = segment_softmax(reshape(scores, (n,)), node_group, n_dates)
    pooled = segment_sum(mul(reshape(beta, (n, 1)), embeddings), node_group, n_dates)
    return pooled, beta


def decay_coefficient(gap_days, w_d: Tensor) -> Tensor:
    """sigma(w_d / (gap+1)) for each gap: shrinks toward sigma(0)=0.5 as the gap grows."""
    gaps = np.asarray(gap_days, dtype=w_d.dtype)
    if np.any(gaps < 0):
        raise ShapeError(f"negative date gap in {gap_days}")
    return sigmoid(div(w_d, gaps + 1))


def market_gru(m: Tensor, deltas: Tensor, p: TimeDecayGRUParams) -> tuple[Tensor, Tensor]:
    """Run the decayed GRU from a zero state over (T, d) pooled inputs.

    ``deltas`` (T,) damps the reset-gated state at each date. Returns the
    hidden states a and the outputs m' = w_a a + b_a, both (T, d).
    """
    xz = linear(m, p.w_z, p.b_z)
    xr = linear(m, p.w_r, p.b_r)
    xh = linear(m, p.w_h, p.b_h)
    uz, ur, uh = (swapaxes(u, 0, 1) for u in (p.u_z, p.u_r, p.u_h))
    a = Tensor(np.zeros((1, m.shape[1]), dtype=m.dtype))
    states = []
    for t in range(m.shape[0]):
        row = [t]
        z = sigmoid(add(take(xz, row), matmul(a, uz)))
        r = sigmoid(add(take(xr, row), matmul(a, ur)))
        gated = mul(mul(take(deltas, row), r), a)
        a_tilde = tanh(add(take(xh, row), matmul(gated, uh)))
        a = add(a, mul(z, sub(a_tilde, a)))  # (1 - z) a + z a~
        states.append(a)
    hidden = concat(states, axis=0)
    return hidden, linear(hidden, p.w_a, p.b_a)


def run_market_timeline(
    date_gaps: list[int], embeddings: Tensor, node_group, params: MarketParams
) -> MarketTimeline:
    """Scan chronologically ordered dates into market states.

    ``date_gaps[i]`` is the day count since date i-1 (0 for the first; the
    initial state is zero, so its decay never matters). ``embeddings`` holds
    the (N, d) call embeddings and ``node_group[j]`` the date index of call
    j; every date needs at least one call.
    """
    n_dates = len(date_gaps)
    node_group = np.asarray(node_group, dtype=np.intp)
    if embeddings.ndim != 2 or node_group.shape != embeddings.shape[:1]:
        raise ShapeError(f"need one date per call: {node_group.shape} for {embeddings.shape}")
    if node_group.size and (node_group.min() < 0 or node_group.max() >= n_dates):
        raise ShapeError(f"call dates must lie in [0, {n_dates})")
    counts = np.bincount(node_group, minlength=n_dates)
    if n_dates == 0 or not counts.all():
        raise ShapeError("every date needs at least one call")
    pooled, beta = market_attention(embeddings, node_group, n_dates, params.attention)
    deltas = decay_coefficient(date_gaps, params.gru.w_d)
    hidden, outputs = market_gru(pooled, deltas, params.gru)
    by_date = beta.data[np.argsort(node_group, kind="stable")]
    return MarketTimeline(
        pooled=pooled,
        hidden=hidden,
        outputs=outputs,
        betas=np.split(by_date, np.cumsum(counts)[:-1]),
        deltas=[float(x) for x in deltas.data],
    )


def timeline_debug_rows(dates, timeline: MarketTimeline) -> list[tuple]:
    """(date, node_rank, beta, delta) rows for the CSV debug dump."""
    rows = []
    for date, beta, delta in zip(dates, timeline.betas, timeline.deltas):
        for rank, b in enumerate(beta):
            rows.append((date, rank, float(b), delta))
    return rows
