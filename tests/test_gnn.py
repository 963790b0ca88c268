"""Graph attention layer against hand-rolled message passing, plus the
degree bookkeeping and the layered network encoder's causality."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest
import scipy.special

import volgraph.numcore as nc
from volgraph.dataio.records import CallRecord, Quarter, RelationTable, Sentence
from volgraph.gnn import (
    LEAKY_SLOPE,
    GATLayerParams,
    GraphArrays,
    attention_export_rows,
    company_network_encoder,
    edge_attention,
    gat_layer,
)
from volgraph.graphbuild import EdgeTable, build_quarter_graph
from volgraph.market import MarketParams
from volgraph.numcore.params import ParamStore

import reference_ops as ro
from gradcheck import grad_check, n_scalars
from reference_ops import gat_layer_chain

Q = Quarter(2016, 2)
D = 4


def call(company, date):
    return CallRecord(
        f"{company}-{Q}",
        company,
        date,
        [Sentence(0, "executive", "presentation", 0, vector=np.zeros(4))],
    )


def apr(day):
    return dt.date(2016, 4, day)


def build(calls, sims):
    relations = RelationTable.from_rows((a, b, Q.year - 1, s) for a, b, s in sims)
    return build_quarter_graph(calls, relations, Q)


def gat_params(rng, d=D):
    store = ParamStore()
    return store, GATLayerParams.init(store, rng, d, "gat")


def leaky(x):
    return np.where(x > 0, x, LEAKY_SLOPE * x)


def weights(v, arrays, p):
    """``edge_attention``'s (E,) weights for (N, d) numpy embeddings ``v``."""
    return edge_attention(v, arrays, p.attn_edge.data.T @ p.attn_pair.data)[0]


def oracle_gat(v, g, arrays, p, relu):
    """Loop-based recomputation of attention and aggregation."""
    E = len(arrays.src)
    pair = np.concatenate([v[arrays.dst], v[arrays.src]], axis=1) @ p.attn_pair.data.T
    edge = arrays.edge_feat @ p.attn_edge.data.T
    scores = leaky((pair * edge).sum(axis=1))
    gamma = np.empty(E)
    for j in set(arrays.dst.tolist()):
        m = arrays.dst == j
        gamma[m] = scipy.special.softmax(scores[m])
    agg = np.zeros_like(v)
    for e in range(E):
        agg[arrays.dst[e]] += gamma[e] / arrays.dtilde[e] * g[arrays.src[e]]
    out = agg @ p.w0.data.T + g @ p.w1_self.data.T
    if relu:
        out = np.maximum(out, 0.0)
    return out, gamma


class TestGraphArrays:
    def test_degree_counts_self_plus_in_edges(self):
        # A(d5) -> B(d7), A -> C(d8), B -> C; deg~ = 1 + non-self in-degree
        g = build(
            [call("A", apr(5)), call("B", apr(7)), call("C", apr(8))],
            [("A", "B", 0.5), ("A", "C", 0.4), ("B", "C", 0.6)],
        )
        arrays = GraphArrays.from_graph(g)
        # nodes sorted by date: A=0, B=1, C=2
        deg = {0: 1.0, 1: 2.0, 2: 3.0}
        for e in range(len(arrays.src)):
            want = np.sqrt(deg[int(arrays.dst[e])] * deg[int(arrays.src[e])])
            assert arrays.dtilde[e] == pytest.approx(want, abs=1e-15)

    def test_isolated_node_has_dtilde_one(self):
        g = build([call("A", apr(5))], [])
        arrays = GraphArrays.from_graph(g)
        assert arrays.dtilde.tolist() == [1.0]

    def test_same_day_edges_count_in_both_degrees(self):
        g = build([call("A", apr(5)), call("B", apr(5))], [("A", "B", 0.5)])
        arrays = GraphArrays.from_graph(g)
        # both nodes have one non-self in-edge: deg~ = 2 each
        cross = [e for e in range(len(arrays.src)) if arrays.src[e] != arrays.dst[e]]
        assert all(arrays.dtilde[e] == pytest.approx(2.0) for e in cross)

    def test_date_groups_and_gaps(self):
        g = build(
            [call("A", apr(5)), call("B", apr(5)), call("C", apr(12))],
            [],
        )
        arrays = GraphArrays.from_graph(g)
        assert arrays.date_gaps == [0, 7]
        assert arrays.node_group.tolist() == [0, 0, 1]

    def test_edge_features_are_weight_and_similarity(self):
        g = build([call("A", apr(5)), call("B", apr(8))], [("A", "B", 0.37)])
        arrays = GraphArrays.from_graph(g)
        cross = next(e for e in range(len(arrays.src)) if arrays.src[e] != arrays.dst[e])
        np.testing.assert_allclose(arrays.edge_feat[cross], [1.0 / 4.0, 0.37])


def reference_edge_arrays(columns, n_nodes):
    """Per-edge loop for the edge arrays: sort rows by (dst, src), count degrees one edge at a time."""
    rows = sorted(zip(*columns), key=lambda r: (r[1], r[0]))  # stable, like the table's lexsort
    src = np.array([r[0] for r in rows], dtype=np.intp)
    dst = np.array([r[1] for r in rows], dtype=np.intp)
    feat = np.array([[r[2], r[3]] for r in rows], dtype=np.float64)
    deg = np.ones(n_nodes, dtype=np.float64)
    for r in rows:
        if r[0] != r[1]:
            deg[r[1]] += 1.0
    return src, dst, feat, np.sqrt(deg[dst] * deg[src])


class TestEdgeArraysVectorized:
    def graph(self):
        days = [5, 5, 7, 9, 9, 12]
        calls = [call(c, apr(day)) for c, day in zip("ABCDEF", days)]
        sims = [(a, b, 0.2 + 0.05 * i) for i, (a, b) in enumerate(
            ["AB", "AC", "AD", "BD", "BE", "CE", "CF", "DE", "EF", "AF"])]
        return build(calls, sims)

    def columns(self):
        """The built graph's edge columns as lists: src, dst, weight, similarity, gap."""
        e = self.graph().edges
        return [c.tolist() for c in (e.src, e.dst, e.temporal_weight, e.similarity, e.day_gap)]

    def assert_matches_reference(self, columns):
        g = self.graph()
        g.edges = EdgeTable(*columns)
        arrays = GraphArrays.from_graph(g)
        got = (arrays.src, arrays.dst, arrays.edge_feat, arrays.dtilde)
        for name, a, b in zip(("src", "dst", "edge_feat", "dtilde"), got,
                              reference_edge_arrays(columns, g.n_nodes)):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name
        return arrays

    def test_shuffled_edges_give_sorted_arrays_bitwise(self):
        want = GraphArrays.from_graph(self.graph())
        order = np.random.default_rng(3).permutation(len(self.columns()[0]))
        got = self.assert_matches_reference([[c[i] for i in order] for c in self.columns()])
        assert np.array_equal(got.node_group, want.node_group)
        assert np.array_equal(got.edge_feat, want.edge_feat)

    def test_repeated_pairs_keep_their_order(self):
        # a stable sort: two (dst, src) duplicates stay in input order
        columns = self.columns()
        extra = [c[-1] for c in columns]
        extra[2] = 0.125  # temporal_weight
        self.assert_matches_reference([[x] + c[::-1] for x, c in zip(extra, columns)])

    def test_extra_self_loops_do_not_count_in_degree(self):
        columns = self.columns()
        loops = [i for i, (s, d) in enumerate(zip(columns[0], columns[1])) if s == d][:3]
        extra = [[c[i] for i in loops] for c in columns]
        extra[3] = [0.5] * len(loops)  # similarity
        arrays = self.assert_matches_reference([c + x for c, x in zip(columns, extra)])
        plain = GraphArrays.from_graph(self.graph())
        assert np.array_equal(np.unique(arrays.dtilde), np.unique(plain.dtilde))


class TestEdgeAttention:
    def test_only_self_loops_give_gamma_one(self, rng):
        g = build([call("A", apr(5)), call("B", apr(7))], [])
        arrays = GraphArrays.from_graph(g)
        store, params = gat_params(rng)
        gamma = weights(rng.normal(size=(2, D)), arrays, params)
        np.testing.assert_allclose(gamma, [1.0, 1.0], atol=1e-15)

    def test_gamma_sums_to_one_per_receiver(self, rng):
        g = build(
            [call(c, apr(5 + i)) for i, c in enumerate("ABCDE")],
            [("A", "E", 0.5), ("B", "E", 0.4), ("C", "E", 0.3), ("A", "C", 0.2)],
        )
        arrays = GraphArrays.from_graph(g)
        store, params = gat_params(rng)
        gamma = weights(rng.normal(size=(5, D)), arrays, params)
        sums = np.zeros(5)
        np.add.at(sums, arrays.dst, gamma)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_identical_senders_get_identical_weights(self, rng):
        # same-day twins with equal embeddings and equal edge features
        g = build(
            [call("A", apr(5)), call("B", apr(5)), call("C", apr(8))],
            [("A", "C", 0.5), ("B", "C", 0.5)],
        )
        arrays = GraphArrays.from_graph(g)
        store, params = gat_params(rng)
        row = rng.normal(size=D)
        v = np.stack([row, row, rng.normal(size=D)])
        gamma = weights(v, arrays, params)
        into_c = [
            float(gamma[e])
            for e in range(len(arrays.src))
            if arrays.dst[e] == 2 and arrays.src[e] != 2
        ]
        assert len(into_c) == 2
        assert into_c[0] == pytest.approx(into_c[1], abs=1e-15)

    def test_matches_scripted_softmax_oracle(self, rng):
        g = build(
            [call(c, apr(4 + 2 * i)) for i, c in enumerate("ABCDE")],
            [("A", "E", 0.8), ("B", "E", 0.6), ("C", "E", 0.4), ("D", "E", 0.2)],
        )
        arrays = GraphArrays.from_graph(g)
        store, params = gat_params(rng)
        v = rng.normal(size=(5, D))
        got = weights(v, arrays, params)
        _, want = oracle_gat(v, v, arrays, params, "identity")
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestGATLayer:
    def test_matches_loop_oracle_five_nodes_two_dates(self, rng):
        g = build(
            [call("A", apr(5)), call("B", apr(5)), call("C", apr(11)),
             call("D", apr(11)), call("E", apr(11))],
            [("A", "B", 0.9), ("A", "C", 0.5), ("B", "D", 0.4), ("A", "E", 0.3),
             ("C", "D", 0.7)],
        )
        arrays = GraphArrays.from_graph(g)
        for relu in (True, False):
            store, params = gat_params(rng)
            v = rng.normal(size=(5, D))
            m = rng.normal(size=(5, D))
            out, gamma = gat_layer(nc.Tensor(v), nc.Tensor(m), arrays, params, relu)
            want_out, want_gamma = oracle_gat(v, v + m, arrays, params, relu)
            np.testing.assert_allclose(gamma, want_gamma, atol=1e-12)
            np.testing.assert_allclose(out.data, want_out, atol=1e-10)

    def test_zero_market_state_reduces_to_pure_gat(self, rng):
        g = build([call("A", apr(5)), call("B", apr(7))], [("A", "B", 0.5)])
        arrays = GraphArrays.from_graph(g)
        store, params = gat_params(rng)
        v = rng.normal(size=(2, D))
        out, _ = gat_layer(nc.Tensor(v), nc.Tensor(np.zeros((2, D))), arrays, params, False)
        want, _ = oracle_gat(v, v, arrays, params, False)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_isolated_node_closed_form(self, rng):
        # one node, self-loop only: out = (v+m)(w0+w1)^T without the ReLU, dtilde = 1
        g = build([call("A", apr(5))], [])
        arrays = GraphArrays.from_graph(g)
        store, params = gat_params(rng)
        v = rng.normal(size=(1, D))
        m = rng.normal(size=(1, D))
        out, gamma = gat_layer(nc.Tensor(v), nc.Tensor(m), arrays, params, False)
        np.testing.assert_allclose(gamma, [1.0], atol=1e-15)
        want = (v + m) @ (params.w0.data + params.w1_self.data).T
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_attention_weights_depend_on_pre_market_embeddings(self, rng):
        # gamma is computed from v alone; shifting m must not move it
        g = build([call("A", apr(5)), call("B", apr(7))], [("A", "B", 0.5)])
        arrays = GraphArrays.from_graph(g)
        store, params = gat_params(rng)
        v = rng.normal(size=(2, D))
        _, gamma1 = gat_layer(nc.Tensor(v), nc.Tensor(np.zeros((2, D))), arrays, params, True)
        _, gamma2 = gat_layer(nc.Tensor(v), nc.Tensor(rng.normal(size=(2, D))), arrays, params,
                              True)
        np.testing.assert_array_equal(gamma1, gamma2)

    def test_relabeling_isomorphism(self, rng):
        # renaming companies permutes node ids; embeddings must follow
        dates = {"A": apr(5), "B": apr(7), "C": apr(12)}
        sims = [("A", "B", 0.5), ("B", "C", 0.4)]
        rename = {"A": "Z", "B": "Y", "C": "X"}
        v_by_company = {c: rng.normal(size=D) for c in dates}
        store, params = gat_params(rng)

        def run(names):
            calls = [call(names[c], dates[c]) for c in dates]
            rel = [(names[a], names[b], s) for a, b, s in sims]
            g = build(calls, rel)
            arrays = GraphArrays.from_graph(g)
            inv = {names[c]: c for c in dates}
            v = np.stack([v_by_company[inv[c.company_id]] for c in g.calls])
            out, _ = gat_layer(
                nc.Tensor(v), nc.Tensor(np.zeros((3, D))), arrays, params, True
            )
            return {inv[c.company_id]: out.data[i] for i, c in enumerate(g.calls)}

        base = run({c: c for c in dates})
        renamed = run(rename)
        for c in dates:
            np.testing.assert_allclose(renamed[c], base[c], atol=1e-12)


def mixed_graph():
    """A and B share a day (linked both ways), D has no relation, E has two senders."""
    g = build(
        [call("A", apr(5)), call("B", apr(5)), call("C", apr(7)), call("D", apr(9)),
         call("E", apr(12))],
        [("A", "B", 0.6), ("A", "C", 0.4), ("B", "E", 0.7), ("C", "E", 0.5)],
    )
    arrays = GraphArrays.from_graph(g)
    pairs = set(zip(arrays.src.tolist(), arrays.dst.tolist()))
    assert {(0, 1), (1, 0)} <= pairs
    assert [p for p in pairs if 3 in p] == [(3, 3)]
    return arrays


class TestFusedGATLayer:
    """``gat_layer`` as one tape node against the op-by-op chain it replaces."""

    def leaves(self, rng):
        store, params = gat_params(rng)
        v = store.add("v", rng.normal(size=(5, D)))
        m = store.add("m_prime_nodes", rng.normal(size=(5, D)))
        return store, params, v, m

    def test_one_tape_node_per_layer(self, rng):
        store, params, v, m = self.leaves(rng)
        out, _ = gat_layer(v, m, mixed_graph(), params, True)
        want = (v, m, params.w0, params.w1_self, params.attn_pair, params.attn_edge)
        assert out._parents == want
        assert all(p._backward_fn is None for p in out._parents)

    def test_no_tape_under_no_grad(self, rng):
        store, params, v, m = self.leaves(rng)
        with nc.no_grad():
            out, _ = gat_layer(v, m, mixed_graph(), params, True)
        assert out._parents == () and out._backward_fn is None

    @pytest.mark.parametrize("relu", [True, False], ids=["relu", "identity"])
    def test_forward_bitwise_equal_to_op_chain(self, rng, relu):
        store, params, v, m = self.leaves(rng)
        arrays = mixed_graph()
        out, gamma = gat_layer(v, m, arrays, params, relu)
        want, want_gamma = gat_layer_chain(v, m, arrays, params, relu)
        assert np.array_equal(out.data, want.data)
        assert np.array_equal(gamma, want_gamma.data)

    @pytest.mark.parametrize("relu", [True, False], ids=["relu", "identity"])
    def test_gradients_match_op_chain(self, rng, relu):
        store, params, v, m = self.leaves(rng)
        arrays = mixed_graph()
        w = nc.Tensor(rng.normal(size=(5, D)))
        ro.sum_(ro.mul(gat_layer(v, m, arrays, params, relu)[0], w)).backward()
        got = {name: t.grad.copy() for name, t in store.items()}
        store.zero_grad()
        ro.sum_(ro.mul(gat_layer_chain(v, m, arrays, params, relu)[0], w)).backward()
        for name, t in store.items():
            np.testing.assert_allclose(got[name], t.grad, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("relu", [True, False], ids=["relu", "identity"])
    def test_gradcheck_inputs_and_params(self, rng, relu):
        store, params, v, m = self.leaves(rng)
        arrays = mixed_graph()
        proj = params.attn_edge.data.T @ params.attn_pair.data
        scores = edge_attention(v.data, arrays, proj)[1]
        assert (scores > 0).any() and (scores < 0).any()  # both LeakyReLU slopes in use
        w = nc.Tensor(rng.normal(size=(5, D)))

        def loss():
            return ro.sum_(ro.mul(gat_layer(v, m, arrays, params, relu)[0], w))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == n_scalars(store)


class TestNetworkEncoder:
    def make_graph(self, rng, n=6):
        days = sorted(rng.choice(np.arange(4, 28), size=n, replace=False).tolist())
        calls = [call(f"C{i}", apr(int(day))) for i, day in enumerate(days)]
        sims = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    sims.append((f"C{i}", f"C{j}", float(rng.uniform(0.2, 0.9))))
        return build(calls, sims)

    def setup_encoder(self, rng, n_layers=2):
        store = ParamStore()
        layers = [
            (
                MarketParams.init(store, rng, D, prefix=f"l{layer}.market"),
                GATLayerParams.init(store, rng, D, f"l{layer}.gat"),
            )
            for layer in range(n_layers)
        ]
        return store, layers

    def test_perturbing_last_date_leaves_earlier_nodes_bitwise(self, rng):
        # two layers ending in the identity head: deep relu stacks can
        # legitimately zero a node out, which would blind the negative control
        g = self.make_graph(rng, n=6)
        arrays = GraphArrays.from_graph(g)
        store, layers = self.setup_encoder(rng, n_layers=2)
        v0 = rng.normal(size=(6, D))
        out1, _ = company_network_encoder(nc.Tensor(v0), arrays, layers)
        v0p = v0.copy()
        v0p[-1] += 0.25 * rng.normal(size=D)  # nodes are date-sorted: -1 is latest
        out2, _ = company_network_encoder(nc.Tensor(v0p), arrays, layers)
        last_date = arrays.dates[-1]
        for node in range(6):
            if g.calls[node].call_date < last_date:
                assert np.array_equal(out1.data[node], out2.data[node]), node
        assert not np.array_equal(out1.data[-1], out2.data[-1])

    def test_gradients_through_two_layers(self, rng):
        g = self.make_graph(rng, n=5)
        arrays = GraphArrays.from_graph(g)
        store, layers = self.setup_encoder(rng, n_layers=2)
        v0 = rng.normal(size=(5, D))
        w = rng.normal(size=(5, D))

        def loss():
            out, _ = company_network_encoder(nc.Tensor(v0), arrays, layers)
            return ro.sum_(ro.mul(out, nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == n_scalars(store)

    def test_diagnostics_and_export_rows(self, rng):
        g = self.make_graph(rng, n=5)
        arrays = GraphArrays.from_graph(g)
        store, layers = self.setup_encoder(rng, n_layers=2)
        out, diag = company_network_encoder(
            nc.Tensor(rng.normal(size=(5, D))), arrays, layers
        )
        assert len(diag.gamma) == 2
        assert all(gamma.shape == (len(arrays.src),) for gamma in diag.gamma)
        rows = attention_export_rows(arrays, diag)
        assert len(rows) == 2 * len(arrays.src)
        for layer, src, dst, gamma, over in rows:
            e = next(
                i for i in range(len(arrays.src))
                if arrays.src[i] == src and arrays.dst[i] == dst
            )
            assert over == pytest.approx(gamma / arrays.dtilde[e], abs=1e-15)
        # per-layer, per-receiver weights still sum to one
        for layer in (0, 1):
            sums = np.zeros(5)
            np.add.at(sums, arrays.dst, diag.gamma[layer])
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)
