"""Market encoder: attention pooling, decay gating, the recurrent scan,
a scripted step-by-step oracle for the whole timeline, and the timeline
as one tape op against the op-by-op chain it replaces."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.special

import volgraph.numcore as nc
from volgraph.errors import ShapeError
from volgraph.market import (
    MarketParams,
    decay_coefficient,
    gru_scan,
    market_attention,
    run_market_timeline,
)
from volgraph.numcore.params import ParamStore
from volgraph.numcore.tensor import _make

import reference_ops as ro
from gradcheck import grad_check, n_scalars
from reference_ops import market_attention_chain, market_timeline_chain, reference_scan

D = 4


def setup_params(rng, d=D):
    store = ParamStore()
    return store, MarketParams.init(store, rng, d, "market")


def pool(emb, node_group, n_dates, params):
    """The pooled rows (n_dates, d) and β (N,) of numpy call embeddings."""
    pooled, beta, _ = market_attention(
        emb, np.asarray(node_group, dtype=np.intp), n_dates, params.w_k.data, params.w_q.data
    )
    return pooled, beta


def pool_one_date(emb, params):
    """Pool a single date's calls: every row belongs to date 0."""
    return pool(emb, np.zeros(emb.shape[0], dtype=np.intp), 1, params)


def node_group_of(groups):
    """The date index of each call when per-date groups are laid out date by date."""
    return np.concatenate([np.full(len(g), i) for i, g in enumerate(groups)])


def timeline_of(groups, gaps, params):
    """Run the timeline over per-date groups laid out date by date in node order.

    Returns the outputs m' (T, d), read off each date's first call, β (N,)
    and δ (T,).
    """
    node_group = node_group_of(groups)
    rows, beta, delta = run_market_timeline(
        gaps, nc.Tensor(np.concatenate(groups)), node_group, params
    )
    firsts = np.cumsum([0] + [len(g) for g in groups[:-1]])
    return rows.data[firsts], beta, delta


def pooled_and_hidden(groups, gaps, params):
    """The pooled inputs m (T, d) and the GRU states a (T, d) inside that timeline."""
    p = params
    pooled, _ = pool(np.concatenate(groups), node_group_of(groups), len(groups), p)
    xz, xr, xh = (pooled @ w.data.T + b.data for w, b in ((p.w_z, p.b_z), (p.w_r, p.b_r),
                                                          (p.w_h, p.b_h)))
    hidden, _, _ = gru_scan(xz, xr, xh, gaps, p.w_d.data, p.u_z.data, p.u_r.data, p.u_h.data)
    return pooled, hidden


def tape_op_count(root) -> int:
    """Tape nodes with a backward reachable from ``root``: the ops, not the leaves."""
    ops, stack, seen = 0, [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        ops += node._backward_fn is not None
        stack.extend(node._parents)
    return ops


class TestAttentionPooling:
    def test_weights_sum_to_one(self, rng):
        store, params = setup_params(rng)
        pooled, beta = pool_one_date(rng.normal(size=(5, D)), params)
        assert pooled.shape == (1, D)
        assert float(beta.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(beta > 0)

    def test_single_call_gets_weight_one(self, rng):
        store, params = setup_params(rng)
        emb = rng.normal(size=(1, D))
        pooled, beta = pool_one_date(emb, params)
        np.testing.assert_allclose(beta, [1.0], atol=1e-15)
        np.testing.assert_allclose(pooled[0], emb[0], atol=1e-15)

    def test_identical_calls_share_weight_equally(self, rng):
        store, params = setup_params(rng)
        row = rng.normal(size=D)
        _, beta = pool_one_date(np.stack([row, row, row]), params)
        np.testing.assert_allclose(beta, [1 / 3] * 3, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        # pooling is a weighted sum: permuting the rows permutes beta the
        # same way and leaves the pooled vector unchanged
        store, params = setup_params(rng)
        emb = rng.normal(size=(4, D))
        perm = np.array([2, 0, 3, 1])
        p1, b1 = pool_one_date(emb, params)
        p2, b2 = pool_one_date(emb[perm], params)
        np.testing.assert_allclose(p2, p1, atol=1e-12)
        np.testing.assert_allclose(b2, b1[perm], atol=1e-12)

    def test_matches_manual_softmax(self, rng):
        store, params = setup_params(rng)
        emb = rng.normal(size=(3, D))
        keys = emb @ params.w_k.data.T
        scores = keys @ params.w_q.data / np.sqrt(D)
        want_beta = scipy.special.softmax(scores)
        _, beta = pool_one_date(emb, params)
        np.testing.assert_allclose(beta, want_beta, atol=1e-12)

    def test_rejects_bad_shape(self, rng):
        store, params = setup_params(rng)
        with pytest.raises(ShapeError):
            run_market_timeline([0], nc.Tensor(np.zeros((2, 2, 2))), np.zeros(2, dtype=np.intp),
                                params)
        with pytest.raises(ShapeError):
            run_market_timeline([0], nc.Tensor(np.zeros((3, D))), np.zeros(1, dtype=np.intp),
                                params)


class TestDecayCoefficient:
    def test_zero_weight_gives_half(self):
        assert float(decay_coefficient(5, np.zeros(1))[0]) == pytest.approx(0.5)

    def test_known_value(self):
        # sigma(ln 3) = 3/4 at gap 0
        w_d = np.array([np.log(3.0)])
        assert float(decay_coefficient(0, w_d)[0]) == pytest.approx(0.75, abs=1e-12)

    def test_monotone_in_gap_for_positive_weight(self):
        w_d = np.array([2.0])
        vals = [float(decay_coefficient(g, w_d)[0]) for g in range(0, 30, 3)]
        assert vals == sorted(vals, reverse=True)
        assert all(0.5 < v < 1.0 for v in vals)

    def test_long_gap_approaches_half(self):
        w_d = np.array([3.0])
        assert float(decay_coefficient(10_000, w_d)[0]) == pytest.approx(0.5, abs=1e-3)

    def test_always_in_unit_interval(self, rng):
        for _ in range(20):
            w_d = rng.normal(size=1) * 5
            v = float(decay_coefficient(int(rng.integers(0, 100)), w_d)[0])
            assert 0.0 < v < 1.0

    def test_negative_gap_rejected(self):
        with pytest.raises(ShapeError):
            decay_coefficient(-1, np.zeros(1))


class TestGRUStep:
    def manual_step(self, m, a_prev, delta, p):
        sig = scipy.special.expit
        z = sig(m @ p.w_z.data.T + a_prev @ p.u_z.data.T + p.b_z.data)
        r = sig(m @ p.w_r.data.T + a_prev @ p.u_r.data.T + p.b_r.data)
        gated = delta * r * a_prev
        a_tilde = np.tanh(m @ p.w_h.data.T + gated @ p.u_h.data.T + p.b_h.data)
        a = (1 - z) * a_prev + z * a_tilde
        m_prime = a @ p.w_a.data.T + p.b_a.data
        return a, m_prime

    def test_matches_manual_arithmetic(self, rng):
        # one call per date pools to the call itself, so m is the embedding;
        # the second date starts from the non-zero state the first one left
        store, params = setup_params(rng)
        m = rng.normal(size=(2, D))
        gaps = np.array([0, 6])
        groups = [m[:1], m[1:]]
        deltas = scipy.special.expit(params.w_d.data[0] / (gaps + 1))
        m_prime, _, _ = timeline_of(groups, gaps, params)
        _, a = pooled_and_hidden(groups, gaps, params)
        a_prev = np.zeros((1, D))
        for t in range(2):
            a_prev, want_mp = self.manual_step(m[t : t + 1], a_prev, deltas[t], params)
            np.testing.assert_allclose(a[t], a_prev[0], atol=1e-12)
            np.testing.assert_allclose(m_prime[t], want_mp[0], atol=1e-12)

    def test_state_stays_bounded(self, rng):
        # a is a convex combination of a_prev and tanh(...) in (-1,1), so
        # starting from zero it can never leave (-1, 1)
        store, params = setup_params(rng)
        groups = list(rng.normal(size=(50, 1, D)) * 10)
        _, a = pooled_and_hidden(groups, np.full(50, 3), params)
        assert np.all(np.abs(a) < 1.0)


class TestTimeline:
    def test_scripted_three_date_oracle(self, rng):
        # replay the full scan with independent numpy arithmetic
        store, params = setup_params(rng)
        groups = [rng.normal(size=(n, D)) for n in (2, 1, 3)]
        gaps = [0, 4, 9]
        outputs, betas, deltas = timeline_of(groups, gaps, params)
        pooled, hidden = pooled_and_hidden(groups, gaps, params)
        node_group = node_group_of(groups)

        sig = scipy.special.expit
        step = TestGRUStep()
        a = np.zeros((1, D))
        for i, (emb, gap) in enumerate(zip(groups, gaps)):
            keys = emb @ params.w_k.data.T
            scores = keys @ params.w_q.data / np.sqrt(D)
            beta = scipy.special.softmax(scores)
            m = (beta[None, :] @ emb).reshape(1, D)
            delta = sig(params.w_d.data[0] / (gap + 1))
            a, m_prime = step.manual_step(m, a, delta, params)
            np.testing.assert_allclose(pooled[i], m[0], atol=1e-12)
            np.testing.assert_allclose(hidden[i], a[0], atol=1e-12)
            np.testing.assert_allclose(outputs[i], m_prime[0], atol=1e-12)
            np.testing.assert_allclose(betas[node_group == i], beta, atol=1e-12)
            assert deltas[i] == pytest.approx(float(delta), abs=1e-15)

    def test_causality_later_dates_cannot_touch_earlier_states(self, rng):
        # perturb the last date group: all earlier outputs must be bitwise equal
        store, params = setup_params(rng)
        groups = [rng.normal(size=(2, D)) for _ in range(4)]
        gaps = [0, 2, 3, 1]
        base, _, _ = timeline_of(groups, gaps, params)
        _, base_hidden = pooled_and_hidden(groups, gaps, params)
        groups2 = [g.copy() for g in groups]
        groups2[-1] = groups2[-1] + 100.0
        pert, _, _ = timeline_of(groups2, gaps, params)
        _, pert_hidden = pooled_and_hidden(groups2, gaps, params)
        for i in range(3):
            assert np.array_equal(base[i], pert[i])
            assert np.array_equal(base_hidden[i], pert_hidden[i])
        assert not np.array_equal(base[3], pert[3])

    def test_earlier_dates_do_influence_later_states(self, rng):
        store, params = setup_params(rng)
        groups = [rng.normal(size=(2, D)) for _ in range(3)]
        gaps = [0, 2, 3]
        base, _, _ = timeline_of(groups, gaps, params)
        groups2 = [g.copy() for g in groups]
        groups2[0] = groups2[0] + 1.0
        pert, _, _ = timeline_of(groups2, gaps, params)
        assert not np.array_equal(base[2], pert[2])

    def test_gradients_through_three_dates(self, rng):
        store, params = setup_params(rng)
        groups = [rng.normal(size=(n, D)) for n in (2, 3, 1)]
        gaps = [0, 5, 2]
        w = rng.normal(size=(1, D))

        def loss():
            rows, _, _ = run_market_timeline(
                gaps, nc.Tensor(np.concatenate(groups)), node_group_of(groups), params
            )
            total = ro.sum_(rows, axis=0, keepdims=True)
            return ro.sum_(ro.mul(total, nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == n_scalars(store)

    def test_mismatched_gaps_rejected(self, rng):
        store, params = setup_params(rng)
        with pytest.raises(ShapeError):
            run_market_timeline([0, 1], nc.Tensor(rng.normal(size=(1, D))), [0], params)


def reference_timeline(emb, node_group, gaps, params):
    """The per-date loop that the whole-quarter timeline replaces, op for op.

    Returns each call's row of the per-date outputs, and β per date.
    """
    p = params
    d = emb.shape[1]
    a = nc.Tensor(np.zeros((1, d)))
    outputs, betas = [], []
    for t, gap in enumerate(gaps):
        ids = np.flatnonzero(node_group == t)
        e = nc.take(emb, ids)
        keys = ro.linear(e, p.w_k)
        scores = ro.div(ro.matmul(keys, ro.reshape(p.w_q, (d, 1))), float(np.sqrt(d)))
        flat = ro.reshape(scores, (len(ids),))
        weights = ro.exp(ro.sub(flat, nc.Tensor(flat.data.max())))
        beta = ro.div(weights, ro.sum_(weights))
        m = ro.matmul(ro.reshape(beta, (1, len(ids))), e)
        delta = ro.sigmoid(ro.div(p.w_d, float(gap + 1)))
        z = ro.sigmoid(ro.add(ro.add(ro.linear(m, p.w_z), ro.linear(a, p.u_z)), p.b_z))
        r = ro.sigmoid(ro.add(ro.add(ro.linear(m, p.w_r), ro.linear(a, p.u_r)), p.b_r))
        gated = ro.mul(ro.mul(delta, r), a)
        a_tilde = ro.tanh(ro.add(ro.add(ro.linear(m, p.w_h), ro.linear(gated, p.u_h)), p.b_h))
        a = ro.add(ro.mul(ro.sub(1.0, z), a), ro.mul(z, a_tilde))
        outputs.append(ro.linear(a, p.w_a, p.b_a))
        betas.append(beta.data)
    return nc.take(nc.concat(outputs, axis=0), node_group), betas


class TestWholeQuarterScan:
    # date of each call; the dates interleave in node order
    NODE_GROUP = np.array([2, 0, 1, 0, 2, 2, 1, 3])
    GAPS = [0, 3, 6, 1]

    def weighted_grads(self, run, store, emb, w):
        store.zero_grad()
        x = nc.Tensor(emb, requires_grad=True)
        ro.sum_(ro.mul(run(x), nc.Tensor(w))).backward()
        return x.grad, {name: t.grad.copy() for name, t in store.items()}

    def test_interleaved_dates_match_per_date_loop(self, rng):
        store, params = setup_params(rng)
        emb = rng.normal(size=(len(self.NODE_GROUP), D))
        outputs, betas, _ = run_market_timeline(self.GAPS, nc.Tensor(emb), self.NODE_GROUP, params)
        want, want_betas = reference_timeline(nc.Tensor(emb), self.NODE_GROUP, self.GAPS, params)
        np.testing.assert_allclose(outputs.data, want.data, rtol=0, atol=1e-12)
        per_date = [betas[self.NODE_GROUP == t] for t in range(len(self.GAPS))]
        for got, beta in zip(per_date, want_betas):
            np.testing.assert_allclose(got, beta, rtol=0, atol=1e-12)
        assert [len(b) for b in per_date] == [2, 2, 3, 1]

    def test_gradients_match_per_date_loop(self, rng):
        store, params = setup_params(rng)
        emb = rng.normal(size=(len(self.NODE_GROUP), D))
        w = rng.normal(size=(len(self.NODE_GROUP), D))

        def scan(x):
            return run_market_timeline(self.GAPS, x, self.NODE_GROUP, params)[0]

        def loop(x):
            return reference_timeline(x, self.NODE_GROUP, self.GAPS, params)[0]

        gx, gp = self.weighted_grads(scan, store, emb, w)
        want_gx, want_gp = self.weighted_grads(loop, store, emb, w)
        np.testing.assert_allclose(gx, want_gx, rtol=0, atol=1e-12)
        assert gp.keys() == want_gp.keys()
        for name in gp:
            np.testing.assert_allclose(gp[name], want_gp[name], rtol=0, atol=1e-12, err_msg=name)

    def test_gradcheck_interleaved_dates(self, rng):
        store, params = setup_params(rng)
        emb = rng.normal(size=(len(self.NODE_GROUP), D))
        w = rng.normal(size=(len(self.NODE_GROUP), D))

        def loss():
            outputs, _, _ = run_market_timeline(self.GAPS, nc.Tensor(emb), self.NODE_GROUP, params)
            return ro.sum_(ro.mul(outputs, nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == n_scalars(store)

    def test_one_call_dates_pool_to_the_call_itself(self, rng):
        store, params = setup_params(rng)
        node_group = np.array([0, 1, 1, 2, 3])
        emb = rng.normal(size=(5, D))
        outputs, betas, _ = run_market_timeline([0, 2, 5, 1], nc.Tensor(emb), node_group, params)
        pooled, _ = pool(emb, node_group, 4, params)
        for date, node in ((0, 0), (2, 3), (3, 4)):
            assert betas[node_group == date].tolist() == [1.0]
            assert np.array_equal(pooled[date], emb[node])
        want, _ = reference_timeline(nc.Tensor(emb), node_group, [0, 2, 5, 1], params)
        np.testing.assert_allclose(outputs.data, want.data, rtol=0, atol=1e-12)

    def test_deltas_are_per_date_floats(self, rng):
        store, params = setup_params(rng)
        emb = nc.Tensor(rng.normal(size=(len(self.NODE_GROUP), D)))
        _, _, deltas = run_market_timeline(self.GAPS, emb, self.NODE_GROUP, params)
        w_d = params.w_d.data[0]
        want = [float(scipy.special.expit(w_d / (g + 1))) for g in self.GAPS]
        assert deltas.dtype == np.float64 and deltas.shape == (len(self.GAPS),)
        assert deltas.tolist() == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize(
        "node_group",
        [[0, 0, 2], [0, 1, 3], [-1, 0, 1], [0, 1]],
        ids=["empty", "high", "neg", "short"],
    )
    def test_bad_date_ids_rejected(self, rng, node_group):
        store, params = setup_params(rng)
        with pytest.raises(ShapeError):
            run_market_timeline([0, 1, 1], nc.Tensor(rng.normal(size=(3, D))), node_group, params)


class TestFusedPooling:
    """``run_market_timeline`` (the pooling, the three input maps, the scan,
    the output map and the gather of each call's date row) as one tape node
    against the op-by-op chain it replaces."""

    # date of each call; the dates interleave in node order, date 1 has one
    # call, and the gaps include a same-day date and a long one
    NODE_GROUP = np.array([2, 0, 3, 0, 2, 2, 1, 3])
    GAPS = [0, 0, 7, 400]

    def leaves(self, rng):
        store, params = setup_params(rng)
        emb = store.add("embeddings", rng.normal(size=(len(self.NODE_GROUP), D)))
        return store, params, emb

    def run(self, fn, emb, params):
        return fn(self.GAPS, emb, self.NODE_GROUP, params)

    def test_one_tape_node(self, rng):
        store, params, emb = self.leaves(rng)
        rows, beta, delta = self.run(run_market_timeline, emb, params)
        assert rows._parents == (emb, *params.tensors())
        assert len(rows._parents) == 15
        assert all(p._backward_fn is None for p in rows._parents)
        assert rows.shape == (len(self.NODE_GROUP), D)
        assert isinstance(beta, np.ndarray) and beta.shape == (len(self.NODE_GROUP),)
        assert isinstance(delta, np.ndarray) and delta.shape == (len(self.GAPS),)

    def test_no_tape_under_no_grad(self, rng):
        store, params, emb = self.leaves(rng)
        with nc.no_grad():
            rows, _, _ = self.run(run_market_timeline, emb, params)
        assert rows._parents == () and rows._backward_fn is None

    def test_forward_bitwise_equal_to_op_chain(self, rng):
        store, params, emb = self.leaves(rng)
        rows, beta, _ = self.run(run_market_timeline, emb, params)
        want, want_beta = self.run(market_timeline_chain, emb, params)
        assert np.array_equal(rows.data, want.data)
        assert np.array_equal(beta, want_beta.data)
        pooled, _ = pool(emb.data, self.NODE_GROUP, len(self.GAPS), params)
        want_pooled, _ = market_attention_chain(emb, self.NODE_GROUP, len(self.GAPS),
                                                params)
        assert np.array_equal(pooled, want_pooled.data)

    def test_gradients_match_op_chain(self, rng):
        store, params, emb = self.leaves(rng)
        w = nc.Tensor(rng.normal(size=(len(self.NODE_GROUP), D)))
        ro.sum_(ro.mul(self.run(run_market_timeline, emb, params)[0], w)).backward()
        got = {name: t.grad for name, t in store.items() if t.grad is not None}
        store.zero_grad()
        ro.sum_(ro.mul(self.run(market_timeline_chain, emb, params)[0], w)).backward()
        assert set(got) == {name for name, _ in store.items()}
        for name, g in got.items():
            np.testing.assert_allclose(g, store[name].grad, rtol=0, atol=1e-12, err_msg=name)

    def test_gradcheck_embeddings_and_params(self, rng):
        store, params, emb = self.leaves(rng)
        w = nc.Tensor(rng.normal(size=(len(self.NODE_GROUP), D)))

        def loss():
            return ro.sum_(ro.mul(self.run(run_market_timeline, emb, params)[0], w))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert len(report.per_param) == 15
        assert report.n_checked == n_scalars(store)


def scan_op(xz, xr, xh, gaps, w_d, u_z, u_r, u_h):
    """``gru_scan`` wrapped as a tape op, so that the tape runs its backward."""
    inputs = (xz, xr, xh, w_d, u_z, u_r, u_h)
    hidden, _, backward = gru_scan(*(t.data for t in inputs[:3]), gaps,
                                   *(t.data for t in inputs[3:]))
    return _make(hidden, inputs, backward)


SCAN_INPUTS = ("xz", "xr", "xh", "w_d", "u_z", "u_r", "u_h")


def scan_inputs(rng, t_len, d, gaps=None):
    """The scan's tensor inputs as named leaves, and the day gaps of its dates."""
    shapes = {"w_d": (1,), "u_z": (d, d), "u_r": (d, d), "u_h": (d, d)}
    store = ParamStore()
    for name in SCAN_INPUTS:
        store.add(name, rng.normal(size=shapes.get(name, (t_len, d))))
    if gaps is None:
        gaps = rng.integers(0, 40, size=t_len)
    return store, np.asarray(gaps)


class TestGRUScan:
    SIZES = [(1, 4), (5, 8), (28, 16), (9, 7)]

    def run(self, fn, leaves, gaps, w=None):
        xz, xr, xh, w_d, u_z, u_r, u_h = (leaves[name] for name in SCAN_INPUTS)
        out = fn(xz, xr, xh, gaps, w_d, u_z, u_r, u_h)
        if w is not None:
            ro.sum_(ro.mul(out, nc.Tensor(w))).backward()
        return out

    def assert_matches_per_date_loop(self, rng, store, gaps):
        got = self.run(scan_op, store, gaps)
        want = self.run(reference_scan, store, gaps)
        assert np.array_equal(got.data, want.data)
        w = rng.normal(size=got.shape)
        store.zero_grad()
        self.run(scan_op, store, gaps, w)
        grads = {name: t.grad.copy() for name, t in store.items()}
        store.zero_grad()
        self.run(reference_scan, store, gaps, w)
        for name, t in store.items():
            assert grads[name].shape == t.shape, name
            np.testing.assert_allclose(grads[name], t.grad, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("t_len,d", SIZES)
    def test_forward_bitwise_equal_to_per_date_loop(self, rng, t_len, d):
        store, gaps = scan_inputs(rng, t_len, d)
        got = self.run(scan_op, store, gaps)
        want = self.run(reference_scan, store, gaps)
        assert got.shape == (t_len, d)
        assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("t_len,d", SIZES)
    def test_gradients_match_per_date_loop(self, rng, t_len, d):
        store, gaps = scan_inputs(rng, t_len, d)
        self.assert_matches_per_date_loop(rng, store, gaps)

    def test_zero_and_long_gaps_match_per_date_loop(self, rng):
        # same-day dates (gap 0) and gaps of years, where δ is all but σ(0)
        store, gaps = scan_inputs(rng, 6, 5, gaps=[0, 0, 1000, 3, 25_000, 0])
        self.assert_matches_per_date_loop(rng, store, gaps)

    def test_gradcheck(self, rng):
        store, gaps = scan_inputs(rng, 6, 5)
        w = rng.normal(size=(6, 5))

        def loss():
            return ro.sum_(ro.mul(self.run(scan_op, store, gaps), nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == n_scalars(store)

    def test_one_tape_node_per_scan(self, rng):
        # the pooling, 3 input maps, the scan and the output map of a
        # 20-date timeline: one node for any date count
        store, params = setup_params(rng)
        emb = nc.Tensor(rng.normal(size=(20, D)), requires_grad=True)
        rows, _, _ = run_market_timeline(np.full(20, 2), emb, np.arange(20), params)
        assert rows._parents == (emb, *params.tensors())
        assert tape_op_count(rows) == 1

    def test_no_tape_under_no_grad(self, rng):
        store, params = setup_params(rng)
        emb = nc.Tensor(rng.normal(size=(12, D)), requires_grad=True)
        node_group = np.repeat(np.arange(6), 2)
        taped, _, _ = run_market_timeline([0, 0, 9, 1, 300, 2], emb, node_group, params)
        with nc.no_grad():
            rows, _, _ = run_market_timeline([0, 0, 9, 1, 300, 2], emb, node_group, params)
        assert rows._parents == () and rows._backward_fn is None
        assert np.array_equal(rows.data, taped.data)

    def test_rejects_mismatched_shapes(self, rng):
        store, params = setup_params(rng)
        emb = nc.Tensor(rng.normal(size=(4, D)))
        node_group = np.array([0, 1, 1, 2])
        with pytest.raises(ShapeError):  # fewer gaps than dates
            run_market_timeline([0, 1], emb, node_group, params)
        with pytest.raises(ShapeError):  # a gap for a date without calls
            run_market_timeline([0, 1, 2, 3], emb, node_group, params)
        with pytest.raises(ShapeError):  # a negative gap
            run_market_timeline([0, 1, -1], emb, node_group, params)
