"""Market encoder: per-date attention pooling and a time-decayed GRU.

All calls on one date are pooled into a single market vector by global
attention; a GRU then walks the date sequence in chronological order.
The reset path of the GRU is additionally gated by a decay coefficient
sigma(w_d/(gap+1)) so that long gaps between consecutive call dates wash
out more of the carried state. The scan is strictly left-to-right: the
market state for a date is a function of calls on that date and earlier
ones only.

A network layer's whole market stage is one tape op,
``run_market_timeline``, with a hand-written backward: everything that
does not depend on the carried state runs once per quarter over all
dates, and the scan adds a single node to the tape however many dates it
has. Its numpy helpers are ``market_attention``, the pooling (a segment
softmax over each call's date id, the kernel the graph attention shares,
and a weighted segment sum), and ``gru_scan``, the recurrence with its
decays formed from the date gaps and ``w_d`` (a plain loop over dates
forward and a backward through time). Each returns its forward result
and a closure for its backward. The op returns each call's row of the
market outputs with the pooling weights β per call and the decays δ per
date.

A layer's 14 market tensors are the fields of one ``MarketParams``: the
pooling's ``w_k, w_q``, the GRU's gates and decay, and the output map
``w_a, b_a``. Their field order is the op's parent order and the order
``MarketParams.init`` registers and draws them in, under the names
``{prefix}.attn.*``, ``{prefix}.gru.*`` and ``{prefix}.out.*``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeError
from .numcore import ParamStore, Tensor, uniform_init
from .numcore.layers import _affine, _affine_grads
from .numcore.tensor import _make, _segment_reduce, _segment_softmax, _segment_softmax_grad


@dataclass
class MarketParams:
    """One network layer's market stage: pooling, decayed GRU and output map."""

    w_k: Tensor  # pooling key projection, d×d
    w_q: Tensor  # pooling query vector, d
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
    ) -> "MarketParams":
        def add(name, shape, fan_in=d):
            return store.add(f"{prefix}.{name}", uniform_init(rng, shape, fan_in))

        return cls(
            w_k=add("attn.w_k", (d, d)),
            w_q=add("attn.w_q", (d,)),
            w_z=add("gru.w_z", (d, d)),
            u_z=add("gru.u_z", (d, d)),
            b_z=add("gru.b_z", (d,)),
            w_r=add("gru.w_r", (d, d)),
            u_r=add("gru.u_r", (d, d)),
            b_r=add("gru.b_r", (d,)),
            w_h=add("gru.w_h", (d, d)),
            u_h=add("gru.u_h", (d, d)),
            b_h=add("gru.b_h", (d,)),
            w_d=add("gru.w_d", (1,), 1),
            w_a=add("out.w_a", (d, d)),
            b_a=add("out.b_a", (d,)),
        )

    def tensors(self) -> tuple[Tensor, ...]:
        """The 14 parameter tensors in field order."""
        return tuple(getattr(self, name) for name in _MARKET_FIELDS)


_MARKET_FIELDS = tuple(f.name for f in fields(MarketParams))


def market_attention(emb: np.ndarray, seg: np.ndarray, n_dates: int, w_k: np.ndarray,
                     w_q: np.ndarray) -> tuple:
    """Pool (N, d) call embeddings into one (n_dates, d) row per date.

    ``seg[j]`` is the date of call j. Call j scores s_j = (W_k e_j)·w_q / √d;
    its weight β_j is the softmax of s_j over the calls of its date, and
    each date's row is Σ β_j e_j over its calls.

    A numpy helper of ``run_market_timeline``: returns the pooled rows, β
    (N,) and a closure that maps the rows' gradient to the gradients of
    ``emb``, ``w_k`` and ``w_q``. The forward runs the numpy ops of the
    op-by-op chain (key map, score product, scaling, segment softmax,
    weighted segment sum) in that chain's order, so its rows are bitwise
    equal to the chain's.
    """
    n, d = emb.shape
    scale = float(np.sqrt(d))
    keys = _affine(emb, w_k, None)  # (n, d)
    scores = _affine(keys, w_q[None], None) / scale
    beta = _segment_softmax(scores.reshape(n), seg, n_dates)
    pooled = _segment_reduce(np.add, beta.reshape(n, 1) * emb, seg, n_dates, 0.0)

    def backward(g):
        g_rows = np.take(g, seg, axis=0)  # (n, d)
        g_scores = _segment_softmax_grad((g_rows * emb).sum(axis=1), beta, seg, n_dates)
        g_scores = (g_scores / scale).reshape(n, 1)
        g_emb, g_wk = _affine_grads(g_scores @ w_q.reshape(1, d), emb, w_k)
        g_emb += g_rows * beta.reshape(n, 1)
        return g_emb, g_wk, (keys.T @ g_scores).reshape(d)

    return pooled, beta, backward


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))  # no overflow for large negative x


def decay_coefficient(gap_days, w_d: np.ndarray) -> np.ndarray:
    """sigma(w_d / (gap+1)) for each gap: shrinks toward sigma(0)=0.5 as the gap grows."""
    gaps = np.asarray(gap_days, dtype=np.float64)
    if np.any(gaps < 0):
        raise ShapeError(f"negative date gap in {gap_days}")
    return _sigmoid(w_d / (gaps + 1))


def gru_scan(xz: np.ndarray, xr: np.ndarray, xh: np.ndarray, gaps, w_d: np.ndarray,
             u_z: np.ndarray, u_r: np.ndarray, u_h: np.ndarray) -> tuple:
    """The decayed GRU recurrence from a zero state.

    ``xz, xr, xh`` (T, d) are the input terms of the update gate, the
    reset gate and the candidate, ``gaps`` (T,) the day gap before each
    date, ``w_d`` (1,) the decay weight and ``u_*`` (d, d) the recurrent
    weights. Per date, with a the state the previous date left and
    δ = ``decay_coefficient(gap, w_d)``:

        z = σ(xz + a u_zᵀ)    r = σ(xr + a u_rᵀ)
        ã = tanh(xh + (δ r a) u_hᵀ)    a ← a + z (ã − a)

    A numpy helper of ``run_market_timeline``: returns the stacked states
    (T, d), the decays δ (T,) and a closure that maps the states' gradient
    to the gradients of ``xz, xr, xh, w_d, u_z, u_r, u_h``. The forward
    runs the numpy operations that the same recurrence built from per-op
    tensors would run, in the same order, so its states are bitwise equal
    to that composition; it keeps every date's a, z, r and ã. The backward
    walks the dates in reverse carrying only ∂L/∂a, then forms each weight
    gradient, ∂L/∂w_d included, with one reduction over all dates.
    """
    t_len, d = xz.shape
    gaps = np.asarray(gaps, dtype=np.float64)
    deltas = decay_coefficient(gaps, w_d)
    uz, ur, uh = (np.swapaxes(u, 0, 1) for u in (u_z, u_r, u_h))
    a = np.zeros((1, d))
    states, zs, rs, cands = [a], [], [], []
    for t in range(t_len):
        row = slice(t, t + 1)
        z = _sigmoid(xz[row] + a @ uz)
        r = _sigmoid(xr[row] + a @ ur)
        gated = (deltas[row] * r) * a
        a_tilde = np.tanh(xh[row] + gated @ uh)
        a = a + z * (a_tilde - a)
        states.append(a)
        zs.append(z)
        rs.append(r)
        cands.append(a_tilde)
    a_seq = np.concatenate(states)  # row t is the state date t starts from

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
            g_gated[t] = gh[t] @ u_h
            gr[t] = g_gated[t] * r_fac[t]
            da = da * keep[t] + g_gated[t] * reset[t] + gz[t] @ u_z + gr[t] @ u_r
        g_delta = (g_gated * r * a_prev).sum(axis=1)
        g_wd = (g_delta * deltas * (1.0 - deltas) / (gaps + 1)).sum(axis=0, keepdims=True)
        return gz, gr, gh, g_wd, gz.T @ a_prev, gr.T @ a_prev, gh.T @ (reset * a_prev)

    return a_seq[1:], deltas, backward


def run_market_timeline(
    date_gaps: list[int], embeddings: Tensor, node_group, params: MarketParams
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Each call's market state m' from the dates up to its own, as one tape op.

    ``date_gaps[i]`` is the day count since date i-1 (0 for the first; the
    initial state is zero, so its decay never matters). ``embeddings`` holds
    the (N, d) call embeddings and ``node_group[j]`` the date index of call
    j; every date needs at least one call. The calls are pooled per date
    (``market_attention``), mapped to the gates' input terms, scanned
    (``gru_scan``) and mapped to m' = w_a a + b_a per date; call j reads
    the row of its date.

    Returns the (N, d) rows m', a numpy copy of each call's pooling weight
    β (N,) and the decay coefficient δ (T,) of each date. The node's
    parents are ``embeddings`` and the 14 ``MarketParams.tensors()``. The
    forward runs the numpy ops of the op-by-op chain (pooling, three input
    maps, scan, output map, node gather) in that chain's order, so its rows
    are bitwise equal to the chain's; the backward sums the gradients of
    the pooled rows in the order that chain's tape does.
    """
    n_dates = len(date_gaps)
    node_group = np.asarray(node_group, dtype=np.intp)
    if embeddings.ndim != 2 or node_group.shape != embeddings.shape[:1]:
        raise ShapeError(f"need one date per call: {node_group.shape} for {embeddings.shape}")
    if node_group.size and (node_group.min() < 0 or node_group.max() >= n_dates):
        raise ShapeError(f"call dates must lie in [0, {n_dates})")
    if n_dates == 0 or not np.bincount(node_group, minlength=n_dates).all():
        raise ShapeError("every date needs at least one call")
    tensors = params.tensors()
    w_k, w_q, w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h, w_d, w_a, b_a = (
        t.data for t in tensors
    )
    pooled, beta, pool_backward = market_attention(embeddings.data, node_group, n_dates, w_k, w_q)
    xz, xr, xh = (_affine(pooled, w, b) for w, b in ((w_z, b_z), (w_r, b_r), (w_h, b_h)))
    hidden, deltas, scan_backward = gru_scan(xz, xr, xh, date_gaps, w_d, u_z, u_r, u_h)
    out = np.take(_affine(hidden, w_a, b_a), node_group, axis=0)

    def backward(g):
        g_out = _segment_reduce(np.add, g, node_group, n_dates, 0.0)  # (T, d)
        g_hidden, g_wa = _affine_grads(g_out, hidden, w_a)
        gz, gr, gh, g_wd, g_uz, g_ur, g_uh = scan_backward(g_hidden)
        (g_pz, g_wz), (g_pr, g_wr), (g_ph, g_wh) = (
            _affine_grads(g_x, pooled, w) for g_x, w in ((gz, w_z), (gr, w_r), (gh, w_h))
        )
        g_emb, g_wk, g_wq = pool_backward(g_pz + g_pr + g_ph)  # the chain's order: z, r, h
        return (
            g_emb, g_wk, g_wq,
            g_wz, g_uz, gz.sum(axis=0), g_wr, g_ur, gr.sum(axis=0), g_wh, g_uh, gh.sum(axis=0),
            g_wd, g_wa, g_out.sum(axis=0),
        )

    return _make(out, (embeddings, *tensors), backward), beta.copy(), deltas.copy()
