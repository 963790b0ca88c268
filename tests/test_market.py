"""Market encoder: attention pooling, decay gating, the recurrent scan,
and a scripted step-by-step oracle for the whole timeline."""

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
    market_gru,
    run_market_timeline,
)
from volgraph.numcore.params import ParamStore

import reference_ops as ro
from gradcheck import grad_check, n_scalars
from reference_ops import market_attention_chain

D = 4


def setup_params(rng, d=D):
    store = ParamStore()
    return store, MarketParams.init(store, rng, d)


def pool_one_date(emb, attention):
    """Pool a single date's calls: every row belongs to date 0."""
    return market_attention(emb, np.zeros(emb.shape[0], dtype=np.intp), 1, attention)


def node_group_of(groups):
    """The date index of each call when per-date groups are laid out date by date."""
    return np.concatenate([np.full(len(g), i) for i, g in enumerate(groups)])


def timeline_of(groups, gaps, params):
    """Run the scan over per-date groups laid out date by date in node order.

    Returns the outputs m' (T, d), β (N,) and δ (T,).
    """
    node_group = node_group_of(groups)
    return run_market_timeline(gaps, nc.Tensor(np.concatenate(groups)), node_group, params)


def pooled_and_hidden(groups, gaps, params):
    """The pooled inputs m (T, d) and the GRU states a (T, d) inside that scan."""
    emb = nc.Tensor(np.concatenate(groups))
    pooled, _ = market_attention(emb, node_group_of(groups), len(groups), params.attention)
    hidden, _ = market_gru(pooled, gaps, params.gru)
    return pooled, hidden


class TestAttentionPooling:
    def test_weights_sum_to_one(self, rng):
        store, params = setup_params(rng)
        emb = nc.Tensor(rng.normal(size=(5, D)))
        pooled, beta = pool_one_date(emb, params.attention)
        assert pooled.shape == (1, D)
        assert float(beta.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(beta > 0)

    def test_single_call_gets_weight_one(self, rng):
        store, params = setup_params(rng)
        emb = nc.Tensor(rng.normal(size=(1, D)))
        pooled, beta = pool_one_date(emb, params.attention)
        np.testing.assert_allclose(beta, [1.0], atol=1e-15)
        np.testing.assert_allclose(pooled.data[0], emb.data[0], atol=1e-15)

    def test_identical_calls_share_weight_equally(self, rng):
        store, params = setup_params(rng)
        row = rng.normal(size=D)
        emb = nc.Tensor(np.stack([row, row, row]))
        _, beta = pool_one_date(emb, params.attention)
        np.testing.assert_allclose(beta, [1 / 3] * 3, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        # pooling is a weighted sum: permuting the rows permutes beta the
        # same way and leaves the pooled vector unchanged
        store, params = setup_params(rng)
        emb = rng.normal(size=(4, D))
        perm = np.array([2, 0, 3, 1])
        p1, b1 = pool_one_date(nc.Tensor(emb), params.attention)
        p2, b2 = pool_one_date(nc.Tensor(emb[perm]), params.attention)
        np.testing.assert_allclose(p2.data, p1.data, atol=1e-12)
        np.testing.assert_allclose(b2, b1[perm], atol=1e-12)

    def test_matches_manual_softmax(self, rng):
        store, params = setup_params(rng)
        emb = rng.normal(size=(3, D))
        keys = emb @ params.attention.w_k.data.T
        scores = keys @ params.attention.w_q.data / np.sqrt(D)
        want_beta = scipy.special.softmax(scores)
        _, beta = pool_one_date(nc.Tensor(emb), params.attention)
        np.testing.assert_allclose(beta, want_beta, atol=1e-12)

    def test_rejects_bad_shape(self, rng):
        store, params = setup_params(rng)
        with pytest.raises(ShapeError):
            market_attention(nc.Tensor(np.zeros((2, 2, 2))), np.zeros(2, dtype=np.intp), 1,
                             params.attention)
        with pytest.raises(ShapeError):
            market_attention(nc.Tensor(np.zeros((3, D))), np.zeros(1, dtype=np.intp), 1,
                             params.attention)


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
        # the second date starts from the non-zero state the first one left
        store, params = setup_params(rng)
        m = rng.normal(size=(2, D))
        gaps = np.array([0, 6])
        deltas = scipy.special.expit(params.gru.w_d.data[0] / (gaps + 1))
        a, m_prime = market_gru(nc.Tensor(m), gaps, params.gru)
        a_prev = np.zeros((1, D))
        for t in range(2):
            a_prev, want_mp = self.manual_step(m[t : t + 1], a_prev, deltas[t], params.gru)
            np.testing.assert_allclose(a.data[t], a_prev[0], atol=1e-12)
            np.testing.assert_allclose(m_prime.data[t], want_mp[0], atol=1e-12)

    def test_state_stays_bounded(self, rng):
        # a is a convex combination of a_prev and tanh(...) in (-1,1), so
        # starting from zero it can never leave (-1, 1)
        store, params = setup_params(rng)
        m = nc.Tensor(rng.normal(size=(50, D)) * 10)
        a, _ = market_gru(m, np.full(50, 3), params.gru)
        assert np.all(np.abs(a.data) < 1.0)


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
            keys = emb @ params.attention.w_k.data.T
            scores = keys @ params.attention.w_q.data / np.sqrt(D)
            beta = scipy.special.softmax(scores)
            m = (beta[None, :] @ emb).reshape(1, D)
            delta = sig(params.gru.w_d.data[0] / (gap + 1))
            a, m_prime = step.manual_step(m, a, delta, params.gru)
            np.testing.assert_allclose(pooled.data[i], m[0], atol=1e-12)
            np.testing.assert_allclose(hidden.data[i], a[0], atol=1e-12)
            np.testing.assert_allclose(outputs.data[i], m_prime[0], atol=1e-12)
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
            assert np.array_equal(base.data[i], pert.data[i])
            assert np.array_equal(base_hidden.data[i], pert_hidden.data[i])
        assert not np.array_equal(base.data[3], pert.data[3])

    def test_earlier_dates_do_influence_later_states(self, rng):
        store, params = setup_params(rng)
        groups = [rng.normal(size=(2, D)) for _ in range(3)]
        gaps = [0, 2, 3]
        base, _, _ = timeline_of(groups, gaps, params)
        groups2 = [g.copy() for g in groups]
        groups2[0] = groups2[0] + 1.0
        pert, _, _ = timeline_of(groups2, gaps, params)
        assert not np.array_equal(base.data[2], pert.data[2])

    def test_gradients_through_three_dates(self, rng):
        store, params = setup_params(rng)
        groups = [rng.normal(size=(n, D)) for n in (2, 3, 1)]
        gaps = [0, 5, 2]
        w = rng.normal(size=(1, D))

        def loss():
            outputs, _, _ = timeline_of(groups, gaps, params)
            total = ro.sum_(outputs, axis=0, keepdims=True)
            return ro.sum_(ro.mul(total, nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == n_scalars(store)

    def test_mismatched_gaps_rejected(self, rng):
        store, params = setup_params(rng)
        with pytest.raises(ShapeError):
            run_market_timeline([0, 1], nc.Tensor(rng.normal(size=(1, D))), [0], params)


def reference_timeline(emb, node_group, gaps, params):
    """The per-date loop that the whole-quarter scan replaces, op for op."""
    att, p = params.attention, params.gru
    d = emb.shape[1]
    a = nc.Tensor(np.zeros((1, d)))
    outputs, betas = [], []
    for t, gap in enumerate(gaps):
        ids = np.flatnonzero(node_group == t)
        e = nc.take(emb, ids)
        keys = nc.linear(e, att.w_k)
        scores = ro.div(ro.matmul(keys, nc.reshape(att.w_q, (d, 1))), float(np.sqrt(d)))
        flat = nc.reshape(scores, (len(ids),))
        weights = ro.exp(ro.sub(flat, nc.Tensor(flat.data.max())))
        beta = ro.div(weights, ro.sum_(weights))
        m = ro.matmul(nc.reshape(beta, (1, len(ids))), e)
        delta = ro.sigmoid(ro.div(p.w_d, float(gap + 1)))
        z = ro.sigmoid(ro.add(ro.add(nc.linear(m, p.w_z), nc.linear(a, p.u_z)), p.b_z))
        r = ro.sigmoid(ro.add(ro.add(nc.linear(m, p.w_r), nc.linear(a, p.u_r)), p.b_r))
        gated = ro.mul(ro.mul(delta, r), a)
        a_tilde = ro.tanh(ro.add(ro.add(nc.linear(m, p.w_h), nc.linear(gated, p.u_h)), p.b_h))
        a = ro.add(ro.mul(ro.sub(1.0, z), a), ro.mul(z, a_tilde))
        outputs.append(nc.linear(a, p.w_a, p.b_a))
        betas.append(beta.data)
    return nc.concat(outputs, axis=0), betas


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
        w = rng.normal(size=(len(self.GAPS), D))

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
        w = rng.normal(size=(len(self.GAPS), D))

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
        pooled, _ = market_attention(nc.Tensor(emb), node_group, 4, params.attention)
        for date, node in ((0, 0), (2, 3), (3, 4)):
            assert betas[node_group == date].tolist() == [1.0]
            assert np.array_equal(pooled.data[date], emb[node])
        want, _ = reference_timeline(nc.Tensor(emb), node_group, [0, 2, 5, 1], params)
        np.testing.assert_allclose(outputs.data, want.data, rtol=0, atol=1e-12)

    def test_deltas_are_per_date_floats(self, rng):
        store, params = setup_params(rng)
        emb = nc.Tensor(rng.normal(size=(len(self.NODE_GROUP), D)))
        _, _, deltas = run_market_timeline(self.GAPS, emb, self.NODE_GROUP, params)
        w_d = params.gru.w_d.data[0]
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
    """``market_attention`` as one tape node against the op-by-op chain it replaces."""

    # date of each call; the dates interleave in node order, date 1 has one call
    NODE_GROUP = np.array([2, 0, 3, 0, 2, 2, 1, 3])

    def leaves(self, rng):
        store, params = setup_params(rng)
        emb = store.add("embeddings", rng.normal(size=(len(self.NODE_GROUP), D)))
        return store, params.attention, emb

    def pool(self, fn, emb, attention):
        return fn(emb, self.NODE_GROUP, 4, attention)

    def test_one_tape_node(self, rng):
        store, attention, emb = self.leaves(rng)
        pooled, beta = self.pool(market_attention, emb, attention)
        assert pooled._parents == (emb, attention.w_k, attention.w_q)
        assert all(p._backward_fn is None for p in pooled._parents)
        assert isinstance(beta, np.ndarray) and beta.shape == (len(self.NODE_GROUP),)

    def test_no_tape_under_no_grad(self, rng):
        store, attention, emb = self.leaves(rng)
        with nc.no_grad():
            pooled, _ = self.pool(market_attention, emb, attention)
        assert pooled._parents == () and pooled._backward_fn is None

    def test_forward_bitwise_equal_to_op_chain(self, rng):
        store, attention, emb = self.leaves(rng)
        pooled, beta = self.pool(market_attention, emb, attention)
        want, want_beta = self.pool(market_attention_chain, emb, attention)
        assert np.array_equal(pooled.data, want.data)
        assert np.array_equal(beta, want_beta.data)

    def test_gradients_match_op_chain(self, rng):
        store, attention, emb = self.leaves(rng)
        w = nc.Tensor(rng.normal(size=(4, D)))
        ro.sum_(ro.mul(self.pool(market_attention, emb, attention)[0], w)).backward()
        got = {name: t.grad for name, t in store.items() if t.grad is not None}
        store.zero_grad()
        ro.sum_(ro.mul(self.pool(market_attention_chain, emb, attention)[0], w)).backward()
        assert set(got) == {"embeddings", "market.attn.w_k", "market.attn.w_q"}
        for name, g in got.items():
            np.testing.assert_allclose(g, store[name].grad, rtol=0, atol=1e-12, err_msg=name)

    def test_gradcheck_embeddings_and_params(self, rng):
        store, attention, emb = self.leaves(rng)
        w = nc.Tensor(rng.normal(size=(4, D)))

        def loss():
            return ro.sum_(ro.mul(self.pool(market_attention, emb, attention)[0], w))

        names = ["embeddings", "market.attn.w_k", "market.attn.w_q"]
        report = grad_check(loss, store, tol=1e-4, param_names=names)
        assert report.passed, report.summary()
        assert report.n_checked == sum(store[name].size for name in names)


def reference_scan(xz, xr, xh, gaps, w_d, u_z, u_r, u_h):
    """The recurrence that ``gru_scan`` fuses, built op for op from per-date tensors."""
    deltas = ro.sigmoid(ro.div(w_d, np.asarray(gaps, dtype=np.float64) + 1))
    uz, ur, uh = (ro.swapaxes(u, 0, 1) for u in (u_z, u_r, u_h))
    a = nc.Tensor(np.zeros((1, xz.shape[1])))
    states = []
    for t in range(xz.shape[0]):
        row = [t]
        z = ro.sigmoid(ro.add(nc.take(xz, row), ro.matmul(a, uz)))
        r = ro.sigmoid(ro.add(nc.take(xr, row), ro.matmul(a, ur)))
        gated = ro.mul(ro.mul(nc.take(deltas, row), r), a)
        a_tilde = ro.tanh(ro.add(nc.take(xh, row), ro.matmul(gated, uh)))
        a = ro.add(a, ro.mul(z, ro.sub(a_tilde, a)))
        states.append(a)
    return nc.concat(states, axis=0)


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
        got = self.run(gru_scan, store, gaps)
        want = self.run(reference_scan, store, gaps)
        assert np.array_equal(got.data, want.data)
        w = rng.normal(size=got.shape)
        store.zero_grad()
        self.run(gru_scan, store, gaps, w)
        grads = {name: t.grad.copy() for name, t in store.items()}
        store.zero_grad()
        self.run(reference_scan, store, gaps, w)
        for name, t in store.items():
            assert grads[name].shape == t.shape, name
            np.testing.assert_allclose(grads[name], t.grad, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("t_len,d", SIZES)
    def test_forward_bitwise_equal_to_per_date_loop(self, rng, t_len, d):
        store, gaps = scan_inputs(rng, t_len, d)
        got = self.run(gru_scan, store, gaps)
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
            return ro.sum_(ro.mul(self.run(gru_scan, store, gaps), nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == n_scalars(store)

    def test_one_tape_node_per_scan(self, rng):
        store, gaps = scan_inputs(rng, 12, 4)
        out = self.run(gru_scan, store, gaps)
        assert out._parents == tuple(store[name] for name in SCAN_INPUTS)
        assert all(p._backward_fn is None for p in out._parents)

    def test_no_tape_under_no_grad(self, rng):
        store, gaps = scan_inputs(rng, 5, 4)
        with nc.no_grad():
            out = self.run(gru_scan, store, gaps)
        assert out._parents == () and out._backward_fn is None

    def test_market_gru_adds_one_node_for_the_recurrence(self, rng):
        # 3 input maps, the scan and the output map: 5 nodes for any date count
        store, params = setup_params(rng)
        m = nc.Tensor(rng.normal(size=(20, D)), requires_grad=True)
        _, out = market_gru(m, np.full(20, 2), params.gru)
        nodes, stack, seen = 0, [out], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            nodes += node._backward_fn is not None
            stack.extend(node._parents)
        assert nodes == 5

    def test_rejects_mismatched_shapes(self, rng):
        store, gaps = scan_inputs(rng, 4, 3)
        xz, xr, xh, w_d, u_z, u_r, u_h = (store[name] for name in SCAN_INPUTS)
        with pytest.raises(ShapeError):
            gru_scan(xz, xr, nc.Tensor(np.zeros((3, 3))), gaps, w_d, u_z, u_r, u_h)
        with pytest.raises(ShapeError):
            gru_scan(xz, xr, xh, gaps[:3], w_d, u_z, u_r, u_h)
        with pytest.raises(ShapeError):
            gru_scan(xz, xr, xh, gaps, nc.Tensor(np.zeros(2)), u_z, u_r, u_h)
        with pytest.raises(ShapeError):
            gru_scan(xz, xr, xh, gaps, w_d, u_z, u_r, nc.Tensor(np.zeros((3, 4))))
        with pytest.raises(ShapeError):
            gru_scan(xz, xr, xh, np.array([0, 1, -1, 2]), w_d, u_z, u_r, u_h)
