"""Market encoder: per-date attention pooling and a time-decayed GRU.

All calls on one date are pooled into a single market vector by global
attention; a GRU then walks the date sequence in chronological order.
The reset path of the GRU is additionally gated by a decay coefficient
sigma(w_d/(gap+1)) so that long gaps between consecutive call dates wash
out more of the carried state. The scan is strictly left-to-right: the
market state for a date is a function of calls on that date and earlier
ones only.

Everything that does not depend on the carried state runs once per
quarter over all dates. Pooling is one tape op, ``market_attention``: a
segment softmax over each node's date id (the numpy kernel the graph
attention shares) and a weighted segment sum, with a hand-written
backward. The GRU's input projections are one matmul per gate. The
recurrence itself is one tape op, ``gru_scan``, which also forms the
decays from the date gaps and ``w_d``: a plain numpy loop over dates
forward and a hand-written backward through time, so a quarter's scan
adds a single node to the tape however many dates it has.
``run_market_timeline`` chains the two and returns the market outputs
with the pooling weights β per call and the decays δ per date.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numcore import ParamStore, Tensor, linear, uniform_init
from .numcore.layers import _affine, _affine_grads
from .numcore.tensor import _make, _segment_reduce, _segment_softmax, _segment_softmax_grad


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


def market_attention(
    embeddings: Tensor, node_group, n_dates: int, params: MarketAttentionParams
) -> tuple[Tensor, np.ndarray]:
    """Pool (N, d) call embeddings into one (n_dates, d) row per date, as one tape op.

    ``node_group[j]`` is the date of call j. Call j scores
    s_j = (W_k e_j)·w_q / √d; its weight β_j, returned as an (N,) numpy
    array, is the softmax of s_j over the calls of its date, and each
    date's row is Σ β_j e_j over its calls.

    The node's parents are ``embeddings``, ``w_k`` and ``w_q``. The
    forward runs the numpy ops of the op-by-op chain (key map, score
    product, scaling, segment softmax, weighted segment sum) in that
    chain's order, so its output is bitwise equal to the chain's. The
    backward keeps the keys and β.
    """
    if embeddings.ndim != 2 or embeddings.shape[0] < 1:
        raise ShapeError(f"expected (n, d) call embeddings, got {embeddings.shape}")
    n, d = embeddings.shape
    seg = np.asarray(node_group, dtype=np.intp)
    if seg.shape != (n,):
        raise ShapeError(f"need one date per call: {seg.shape} for {embeddings.shape}")
    emb, w_k, w_q = embeddings.data, params.w_k.data, params.w_q.data
    scale = float(np.sqrt(d))
    keys = _affine(emb, w_k, None)  # (n, d)
    scores = (keys @ w_q.reshape(d, 1)) / scale
    beta = _segment_softmax(scores.reshape(n), seg, n_dates)
    pooled = _segment_reduce(np.add, beta.reshape(n, 1) * emb, seg, n_dates, 0.0)

    def backward(g):
        g_rows = np.take(g, seg, axis=0)  # (n, d)
        g_scores = _segment_softmax_grad((g_rows * emb).sum(axis=1), beta, seg, n_dates)
        g_scores = (g_scores / scale).reshape(n, 1)
        g_emb, g_wk = _affine_grads(g_scores @ w_q.reshape(1, d), emb, w_k)
        g_emb += g_rows * beta.reshape(n, 1)
        return g_emb, g_wk, (keys.T @ g_scores).reshape(d)

    return _make(pooled, (embeddings, params.w_k, params.w_q), backward), beta


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))  # no overflow for large negative x


def decay_coefficient(gap_days, w_d: np.ndarray) -> np.ndarray:
    """sigma(w_d / (gap+1)) for each gap: shrinks toward sigma(0)=0.5 as the gap grows."""
    gaps = np.asarray(gap_days, dtype=np.float64)
    if np.any(gaps < 0):
        raise ShapeError(f"negative date gap in {gap_days}")
    return _sigmoid(w_d / (gaps + 1))


def gru_scan(
    xz: Tensor, xr: Tensor, xh: Tensor, gaps, w_d: Tensor, u_z: Tensor, u_r: Tensor, u_h: Tensor
) -> Tensor:
    """The decayed GRU recurrence from a zero state, as one tape op.

    ``xz, xr, xh`` (T, d) are the input terms of the update gate, the
    reset gate and the candidate, ``gaps`` (T,) the day gap before each
    date, ``w_d`` (1,) the decay weight and ``u_*`` (d, d) the recurrent
    weights. Per date, with a the state the previous date left and
    δ = ``decay_coefficient(gap, w_d)``:

        z = σ(xz + a u_zᵀ)    r = σ(xr + a u_rᵀ)
        ã = tanh(xh + (δ r a) u_hᵀ)    a ← a + z (ã − a)

    Returns the stacked states (T, d). The forward runs the numpy
    operations that the same recurrence built from per-op tensors would
    run, in the same order, so its states are bitwise equal to that
    composition; it keeps every date's a, z, r and ã. The backward walks
    the dates in reverse carrying only ∂L/∂a, then forms each weight
    gradient, ∂L/∂w_d included, with one reduction over all dates.
    """
    t_len, d = xz.shape
    gaps = np.asarray(gaps, dtype=np.float64)
    if t_len < 1 or any(x.shape != (t_len, d) for x in (xr, xh)) or gaps.shape != (t_len,):
        raise ShapeError(f"gru_scan: inputs {xz.shape}, {xr.shape}, {xh.shape}, gaps {gaps.shape}")
    if w_d.shape != (1,) or any(u.shape != (d, d) for u in (u_z, u_r, u_h)):
        raise ShapeError(f"gru_scan: w_d must be (1,) and recurrent weights ({d}, {d})")
    deltas = decay_coefficient(gaps, w_d.data)
    uz, ur, uh = (np.swapaxes(u.data, 0, 1) for u in (u_z, u_r, u_h))
    a = np.zeros((1, d))
    states, zs, rs, cands = [a], [], [], []
    for t in range(t_len):
        row = slice(t, t + 1)
        z = _sigmoid(xz.data[row] + a @ uz)
        r = _sigmoid(xr.data[row] + a @ ur)
        gated = (deltas[row] * r) * a
        a_tilde = np.tanh(xh.data[row] + gated @ uh)
        a = a + z * (a_tilde - a)
        states.append(a)
        zs.append(z)
        rs.append(r)
        cands.append(a_tilde)
    a_seq = np.concatenate(states)  # row t is the state date t starts from
    hidden = a_seq[1:]

    def backward(g):
        a_prev = a_seq[:-1]
        z, r, a_tilde = (np.concatenate(rows) for rows in (zs, rs, cands))
        delta = deltas[:, None]
        # per-date factors that do not depend on the carried gradient
        z_fac = (a_tilde - a_prev) * z * (1.0 - z)
        h_fac = z * (1.0 - a_tilde * a_tilde)
        r_fac = delta * a_prev * r * (1.0 - r)
        keep = 1.0 - z
        reset = delta * r
        gz, gr, gh, g_gated = (np.empty_like(a_prev) for _ in range(4))
        da = np.zeros(d)  # ∂L/∂a for the state after date t
        for t in range(t_len - 1, -1, -1):
            da = da + g[t]
            gz[t] = da * z_fac[t]
            gh[t] = da * h_fac[t]
            g_gated[t] = gh[t] @ u_h.data
            gr[t] = g_gated[t] * r_fac[t]
            da = da * keep[t] + g_gated[t] * reset[t] + gz[t] @ u_z.data + gr[t] @ u_r.data
        g_delta = (g_gated * r * a_prev).sum(axis=1)
        g_wd = (g_delta * deltas * (1.0 - deltas) / (gaps + 1)).sum(axis=0, keepdims=True)
        return gz, gr, gh, g_wd, gz.T @ a_prev, gr.T @ a_prev, gh.T @ (reset * a_prev)

    return _make(hidden, (xz, xr, xh, w_d, u_z, u_r, u_h), backward)


def market_gru(m: Tensor, gaps, p: TimeDecayGRUParams) -> tuple[Tensor, Tensor]:
    """Run the decayed GRU from a zero state over (T, d) pooled inputs.

    ``gaps`` (T,) are the day gaps that set each date's decay. Returns the
    hidden states a and the outputs m' = w_a a + b_a, both (T, d).
    """
    xz = linear(m, p.w_z, p.b_z)
    xr = linear(m, p.w_r, p.b_r)
    xh = linear(m, p.w_h, p.b_h)
    hidden = gru_scan(xz, xr, xh, gaps, p.w_d, p.u_z, p.u_r, p.u_h)
    return hidden, linear(hidden, p.w_a, p.b_a)


def run_market_timeline(
    date_gaps: list[int], embeddings: Tensor, node_group, params: MarketParams
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Scan chronologically ordered dates into market states.

    ``date_gaps[i]`` is the day count since date i-1 (0 for the first; the
    initial state is zero, so its decay never matters). ``embeddings`` holds
    the (N, d) call embeddings and ``node_group[j]`` the date index of call
    j; every date needs at least one call.

    Returns the outputs m' (T, d), a numpy copy of each call's pooling
    weight β (N,) and the decay coefficient δ (T,) of each date.
    """
    n_dates = len(date_gaps)
    node_group = np.asarray(node_group, dtype=np.intp)
    if embeddings.ndim != 2 or node_group.shape != embeddings.shape[:1]:
        raise ShapeError(f"need one date per call: {node_group.shape} for {embeddings.shape}")
    if node_group.size and (node_group.min() < 0 or node_group.max() >= n_dates):
        raise ShapeError(f"call dates must lie in [0, {n_dates})")
    if n_dates == 0 or not np.bincount(node_group, minlength=n_dates).all():
        raise ShapeError("every date needs at least one call")
    pooled, beta = market_attention(embeddings, node_group, n_dates, params.attention)
    _, outputs = market_gru(pooled, date_gaps, params.gru)
    return outputs, beta.copy(), decay_coefficient(date_gaps, params.gru.w_d.data)
