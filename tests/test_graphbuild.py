"""Quarter-graph construction against a brute-force pairwise oracle,
plus leakage auditing and the on-disk round trip."""

from __future__ import annotations

import datetime as dt

import numpy as np
import pytest

from volgraph.dataio.records import CallRecord, Quarter, RelationTable, Sentence
from volgraph.errors import GraphConstructionError
from volgraph.graphbuild import (
    EDGE_COLUMNS,
    SIMILARITY_THRESHOLD,
    EdgeTable,
    QuarterGraph,
    audit_no_leakage,
    build_quarter_graph,
    load_graph_dir,
    save_graph_dir,
)

from reference_graph import build_quarter_graph_loop

Q = Quarter(2016, 2)
NO_RELATIONS = RelationTable.from_rows([])


def call(company, date, call_id=None):
    return CallRecord(
        call_id or f"{company}-{Q}",
        company,
        date,
        [Sentence(0, "executive", "presentation", 0, vector=np.zeros(4))],
    )


def oracle_edges(calls, relations, quarter, threshold):
    """Quadratic reference: every ordered company pair, checked directly."""
    ordered = sorted(calls, key=lambda c: (c.call_date, c.company_id))
    idx = {c.company_id: i for i, c in enumerate(ordered)}
    sim = {}
    for a, b, year, s in zip(relations.company_a, relations.company_b, relations.year,
                             relations.similarity.tolist()):
        if year == quarter.year - 1 and s > threshold:
            if a in idx and b in idx:
                sim[frozenset((a, b))] = s

    edges = {}
    for i, ci in enumerate(ordered):
        edges[(i, i)] = (1.0, 1.0)  # self loop: weight 1, similarity 1
        for j, cj in enumerate(ordered):
            if i == j:
                continue
            key = frozenset((ci.company_id, cj.company_id))
            if key not in sim:
                continue
            gap = (cj.call_date - ci.call_date).days
            if gap >= 0:  # information flows forward (or same-day, both ways)
                edges[(i, j)] = (1.0 / (gap + 1), sim[key])
    return edges


def edge_map(edges):
    """{(src, dst): (temporal_weight, similarity)} read from the edge columns."""
    return dict(
        zip(
            zip(edges.src.tolist(), edges.dst.tolist()),
            zip(edges.temporal_weight.tolist(), edges.similarity.tolist()),
        )
    )


def cross_edges(edges):
    """Indices of the edges that are not self-loops."""
    return np.flatnonzero(edges.src != edges.dst)


def random_instance(rng, n_companies, quarter=Q):
    companies = [f"C{i:02d}" for i in range(n_companies)]
    start = quarter.start.toordinal()
    end = quarter.end.toordinal()
    calls = [
        call(c, dt.date.fromordinal(int(rng.integers(start, end + 1))))
        for c in companies
    ]
    relations = []
    for i in range(n_companies):
        for j in range(i + 1, n_companies):
            u = rng.random()
            if u < 0.35:
                relations.append(
                    (companies[i], companies[j], quarter.year - 1, float(rng.uniform(0.01, 0.9)))
                )
            elif u < 0.45:
                # wrong effective year: must be ignored
                relations.append(
                    (companies[i], companies[j], quarter.year, float(rng.uniform(0.2, 0.9)))
                )
    return calls, RelationTable.from_rows(relations)


class TestOracleEquivalence:
    def test_random_instances_match_oracle_exactly(self, rng):
        for trial in range(25):
            n = int(rng.integers(2, 30))
            calls, relations = random_instance(rng, n)
            graph = build_quarter_graph(calls, relations, Q)
            got = edge_map(graph.edges)
            want = oracle_edges(calls, relations, Q, SIMILARITY_THRESHOLD)
            assert got == want, f"trial {trial}: edge sets differ"

    def test_node_order_is_date_then_company(self, rng):
        calls, relations = random_instance(rng, 12)
        graph = build_quarter_graph(calls, relations, Q)
        keys = [(c.call_date, c.company_id) for c in graph.calls]
        assert keys == sorted(keys)
        assert graph.n_nodes == 12
        # node i is calls[i]: every input call appears once
        assert sorted(c.call_id for c in graph.calls) == sorted(c.call_id for c in calls)


class TestEdgeSemantics:
    def test_every_node_has_self_loop(self):
        calls = [call("A", dt.date(2016, 4, 5)), call("B", dt.date(2016, 5, 2))]
        graph = build_quarter_graph(calls, NO_RELATIONS, Q)
        e = graph.edges
        loops = e.src == e.dst
        assert loops.sum() == 2
        assert (e.temporal_weight[loops] == 1.0).all() and (e.similarity[loops] == 1.0).all()

    def test_related_pair_gets_forward_edge_with_decayed_weight(self):
        calls = [call("A", dt.date(2016, 4, 5)), call("B", dt.date(2016, 4, 12))]
        rel = RelationTable.from_rows([("A", "B", 2015, 0.5)])
        graph = build_quarter_graph(calls, rel, Q)
        cross = cross_edges(graph.edges)
        assert len(cross) == 1
        e, k = graph.edges, cross[0]
        assert (e.src[k], e.dst[k]) == (0, 1)  # A spoke first, so A feeds B
        assert e.day_gap[k] == 7
        assert e.temporal_weight[k] == 1.0 / 8.0
        assert e.similarity[k] == 0.5

    def test_same_day_pair_connects_both_directions(self):
        d = dt.date(2016, 4, 5)
        calls = [call("A", d), call("B", d)]
        rel = RelationTable.from_rows([("A", "B", 2015, 0.4)])
        graph = build_quarter_graph(calls, rel, Q)
        e = graph.edges
        cross = cross_edges(e)
        assert set(zip(e.src[cross].tolist(), e.dst[cross].tolist())) == {(0, 1), (1, 0)}
        assert (e.temporal_weight[cross] == 1.0).all()

    def test_similarity_at_threshold_is_dropped(self):
        calls = [call("A", dt.date(2016, 4, 5)), call("B", dt.date(2016, 4, 6))]
        rel = RelationTable.from_rows([("A", "B", 2015, SIMILARITY_THRESHOLD)])
        graph = build_quarter_graph(calls, rel, Q)
        assert (graph.edges.src == graph.edges.dst).all()

    def test_relation_from_wrong_year_is_ignored(self):
        calls = [call("A", dt.date(2016, 4, 5)), call("B", dt.date(2016, 4, 6))]
        rel = RelationTable.from_rows([("A", "B", 2016, 0.9), ("A", "B", 2014, 0.9)])
        graph = build_quarter_graph(calls, rel, Q)
        assert (graph.edges.src == graph.edges.dst).all()

    def test_weight_decays_monotonically_with_gap(self):
        base = dt.date(2016, 4, 4)
        weights = []
        for gap in (1, 3, 10, 30):
            calls = [call("A", base), call("B", base + dt.timedelta(days=gap))]
            rel = RelationTable.from_rows([("A", "B", 2015, 0.5)])
            graph = build_quarter_graph(calls, rel, Q)
            (k,) = cross_edges(graph.edges)
            assert graph.edges.temporal_weight[k] == 1.0 / (gap + 1)
            weights.append(graph.edges.temporal_weight[k])
        assert weights == sorted(weights, reverse=True)

    def test_duplicate_company_rejected(self):
        calls = [call("A", dt.date(2016, 4, 5), "A-1"), call("A", dt.date(2016, 4, 6), "A-2")]
        with pytest.raises(GraphConstructionError, match="duplicate"):
            build_quarter_graph(calls, NO_RELATIONS, Q)

    def test_shared_call_id_rejected(self):
        # two companies' calls under one call_id would share one labels entry
        calls = [call("A", dt.date(2016, 4, 5), "X"), call("B", dt.date(2016, 4, 6), "X")]
        with pytest.raises(GraphConstructionError, match="duplicate call_id X in 2016Q2"):
            build_quarter_graph(calls, NO_RELATIONS, Q)

    def test_labels_kept_for_the_graph_calls_only(self):
        # B's NaN row leaves its node unlabeled
        calls = [call("B", dt.date(2016, 4, 6)), call("A", dt.date(2016, 4, 5))]
        labels = np.array([[np.nan] * 3, [-4.0, -4.1, -4.2]])
        graph = build_quarter_graph(calls, NO_RELATIONS, Q, labels=labels)
        assert [c.call_id for c in graph.calls] == ["A-2016Q2", "B-2016Q2"]
        assert graph.labels.dtype == np.float64
        assert graph.labels[0].tolist() == [-4.0, -4.1, -4.2]
        assert np.isnan(graph.labels[1]).all()
        assert graph.labeled.tolist() == [True, False]
        unlabeled = build_quarter_graph(calls, NO_RELATIONS, Q)
        assert unlabeled.labels.shape == (2, 3) and not unlabeled.labeled.any()

    def test_shuffled_calls_keep_each_label_row_on_its_node(self, rng):
        calls, relations = random_instance(rng, 15)
        labels = rng.normal(-4.0, 0.5, size=(15, 3))
        labels[rng.choice(15, 4, replace=False)] = np.nan
        graph = build_quarter_graph(calls, relations, Q, labels=labels)
        for perm in (rng.permutation(15), np.arange(15)[::-1]):
            shuffled = build_quarter_graph(
                [calls[k] for k in perm], relations, Q, labels=labels[perm]
            )
            assert shuffled.labels.tobytes() == graph.labels.tobytes()
        row_of = {c.call_id: k for k, c in enumerate(calls)}
        for i, c in enumerate(graph.calls):
            assert graph.labels[i].tobytes() == labels[row_of[c.call_id]].tobytes()

    @pytest.mark.parametrize(
        "labels, message",
        [
            (np.zeros((3, 3)), r"labels of shape \(3, 3\) for 2 calls"),
            (np.zeros(2), r"labels of shape \(2,\) for 2 nodes and 3 windows"),
            (np.zeros((2, 2)), r"labels of shape \(2, 2\) for 2 nodes and 3 windows"),
            (np.array([[0.0, np.nan, 0.0], [0.0] * 3]), "node 0 labels are neither all finite"),
            (np.array([[0.0] * 3, [np.inf] * 3]), "node 1 labels are neither all finite"),
        ],
        ids=["rows", "1-d", "columns", "partial-row", "inf-row"],
    )
    def test_labels_of_the_wrong_shape_rejected(self, labels, message):
        calls = [call("A", dt.date(2016, 4, 5)), call("B", dt.date(2016, 4, 6))]
        with pytest.raises(GraphConstructionError, match=message):
            build_quarter_graph(calls, NO_RELATIONS, Q, labels=labels)
        if labels.shape[:1] == (2,):
            with pytest.raises(GraphConstructionError, match=message):
                QuarterGraph(quarter=Q, calls=calls, edges=None, labels=labels)

    def test_call_outside_quarter_rejected(self):
        with pytest.raises(GraphConstructionError, match="outside"):
            build_quarter_graph([call("A", dt.date(2016, 7, 1))], NO_RELATIONS, Q)

    def test_conflicting_similarities_rejected(self):
        calls = [call("A", dt.date(2016, 4, 5)), call("B", dt.date(2016, 4, 6))]
        rel = RelationTable.from_rows([("A", "B", 2015, 0.5), ("B", "A", 2015, 0.6)])
        with pytest.raises(GraphConstructionError, match="conflicting"):
            build_quarter_graph(calls, rel, Q)

    def test_duplicate_relation_rows_with_equal_similarity_are_fine(self):
        calls = [call("A", dt.date(2016, 4, 5)), call("B", dt.date(2016, 4, 6))]
        rel = RelationTable.from_rows([("A", "B", 2015, 0.5), ("B", "A", 2015, 0.5)])
        graph = build_quarter_graph(calls, rel, Q)
        assert len(cross_edges(graph.edges)) == 1

    def test_prefix_closedness(self, rng):
        # building on the first k dates must reproduce exactly the edges
        # among those nodes: later calls never affect earlier structure
        calls, relations = random_instance(rng, 16)
        full = build_quarter_graph(calls, relations, Q)
        dates = sorted({c.call_date for c in calls})
        cutoff = dates[len(dates) // 2]
        early_calls = [c for c in calls if c.call_date <= cutoff]
        sub = build_quarter_graph(early_calls, relations, Q)
        remap = {c.company_id: i for i, c in enumerate(full.calls)}
        sub_edges = {
            (remap[sub.calls[src].company_id], remap[sub.calls[dst].company_id]): value
            for (src, dst), value in edge_map(sub.edges).items()
        }
        early_ids = {remap[c.company_id] for c in early_calls}
        full_restricted = {
            (src, dst): value
            for (src, dst), value in edge_map(full.edges).items()
            if src in early_ids and dst in early_ids
        }
        assert sub_edges == full_restricted


def mixed_quarter(rng, conflict):
    """Calls of some companies and relation rows with every case the builder filters.

    Rows come in random order and orientation, from three effective years,
    with similarities above, at and below the threshold; some name companies
    without a call, and some pairs are listed twice with one similarity.
    With ``conflict``, a few pairs are listed again with another similarity.
    """
    companies = [f"C{i:02d}" for i in range(int(rng.integers(2, 30)))]
    called = [c for c in companies if rng.random() < 0.7] or companies[:1]
    days = Q.start.toordinal() + rng.choice(np.arange(0, 90), size=6, replace=False)
    calls = [call(c, dt.date.fromordinal(int(rng.choice(days)))) for c in called]
    years = [Q.year - 2, Q.year - 1, Q.year - 1, Q.year]
    sims = [SIMILARITY_THRESHOLD, np.nextafter(SIMILARITY_THRESHOLD, 1.0), 0.0, 1.0]
    rows = []
    for i, a in enumerate(companies):
        for b in companies[i + 1:]:
            if rng.random() < 0.5:
                continue
            year = years[int(rng.integers(0, 4))]
            s = float(sims[int(rng.integers(0, 4))] if rng.random() < 0.2 else rng.random())
            rows.append((a, b, year, s) if rng.random() < 0.5 else (b, a, year, s))
            if rng.random() < 0.2:
                rows.append((b, a, year, s))
            if conflict and rng.random() < 0.05:
                rows.append((a, b, year, float(rng.uniform(SIMILARITY_THRESHOLD, 1.0))))
    order = rng.permutation(len(rows))
    return calls, RelationTable.from_rows([rows[k] for k in order])


class TestAgainstReferenceLoop:
    def test_edge_columns_and_errors_match_the_loop(self):
        rng = np.random.default_rng(404)
        label_rng = np.random.default_rng(405)  # apart, so the instances stay as they were
        raised = built = 0
        for trial in range(400):
            calls, relations = mixed_quarter(rng, conflict=trial % 3 == 0)
            labels = label_rng.normal(-4.0, 0.5, size=(len(calls), 3))
            labels[label_rng.random(len(calls)) < 0.3] = np.nan
            try:
                want = build_quarter_graph_loop(calls, relations, Q, labels=labels)
            except GraphConstructionError as e:
                with pytest.raises(GraphConstructionError) as err:
                    build_quarter_graph(calls, relations, Q, labels=labels)
                assert str(err.value) == str(e), trial
                raised += 1
                continue
            got = build_quarter_graph(calls, relations, Q, labels=labels)
            assert got.labels.tobytes() == want.labels.tobytes(), trial
            for name in EDGE_COLUMNS:
                a, b = getattr(got.edges, name), getattr(want.edges, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (trial, name)
            built += len(cross_edges(got.edges)) > 0
        assert raised > 20 and built > 200

    def test_conflicting_pair_message(self):
        calls = [call("A", dt.date(2016, 4, 5)), call("B", dt.date(2016, 4, 6))]
        rel = RelationTable.from_rows(
            [("B", "A", 2015, 0.5), ("A", "B", 2014, 0.7), ("A", "B", 2015, 0.6)]
        )
        message = "conflicting similarities for pair (A,B) in effective year 2015: 0.5 vs 0.6"
        for build in (build_quarter_graph, build_quarter_graph_loop):
            with pytest.raises(GraphConstructionError) as err:
                build(calls, rel, Q)
            assert str(err.value) == message


class TestLeakageAudit:
    def test_clean_graph_passes(self, rng):
        calls, relations = random_instance(rng, 20)
        report = audit_no_leakage(build_quarter_graph(calls, relations, Q))
        assert report.ok
        assert report.violations == []

    def test_injected_future_edge_is_flagged(self, rng):
        calls, relations = random_instance(rng, 10)
        graph = build_quarter_graph(calls, relations, Q)
        dates = [c.call_date for c in graph.calls]
        late = max(range(10), key=lambda i: dates[i])
        early = min(range(10), key=lambda i: dates[i])
        assert dates[late] > dates[early]
        e = graph.edges
        graph.edges = EdgeTable(
            src=np.append(e.src, late),
            dst=np.append(e.dst, early),
            temporal_weight=np.append(e.temporal_weight, 0.5),
            similarity=np.append(e.similarity, 0.3),
            day_gap=np.append(e.day_gap, 1),
        )
        report = audit_no_leakage(graph)
        assert not report.ok
        assert len(report.violations) >= 1
        assert any(v["src"] == late and v["dst"] == early for v in report.violations)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_non_finite_weight_is_flagged(self, rng, weight):
        calls, relations = random_instance(rng, 10)
        graph = build_quarter_graph(calls, relations, Q)
        graph.edges.temporal_weight[3] = weight
        report = audit_no_leakage(graph)
        assert [(v["src"], v["dst"]) for v in report.violations] == [
            (int(graph.edges.src[3]), int(graph.edges.dst[3]))
        ]
        assert report.violations[0]["reason"].startswith(f"weight {weight} / gap")

    def test_violations_come_in_edge_order_with_reasons(self):
        d0, d1 = dt.date(2016, 4, 5), dt.date(2016, 4, 9)
        graph = build_quarter_graph([call("A", d0), call("B", d1)], NO_RELATIONS, Q)
        graph.edges = EdgeTable(
            src=[1, 0, 1, 0],
            dst=[0, 0, 1, 1],
            temporal_weight=[0.2, 1.0, 1.0, 0.25],
            similarity=[0.5, 1.0, 1.0, 0.5],
            day_gap=[4, 0, 0, 3],
        )
        report = audit_no_leakage(graph)
        assert report.violations == [
            {"src": 1, "dst": 0, "reason": "edge from 2016-04-09 to earlier 2016-04-05"},
            {
                "src": 0,
                "dst": 1,
                "reason": "weight 0.25 / gap 3 inconsistent with dates 4 days apart",
            },
        ]

    def test_corrupted_weight_is_flagged(self, rng):
        calls, relations = random_instance(rng, 10)
        graph = build_quarter_graph(calls, relations, Q)
        cross = cross_edges(graph.edges)
        if not len(cross):
            pytest.skip("instance drew no cross edges")
        graph.edges.temporal_weight[cross[0]] = 0.123456
        report = audit_no_leakage(graph)
        assert not report.ok


class TestEdgeTable:
    def test_rows_sorted_by_dst_then_src_stably(self):
        e = EdgeTable(
            src=[2, 0, 1, 0, 2],
            dst=[1, 1, 0, 1, 1],
            temporal_weight=[0.1, 0.2, 0.3, 0.4, 0.5],
            similarity=[1.0, 0.9, 0.8, 0.7, 0.6],
            day_gap=[9, 4, 2, 1, 0],
        )
        assert e.src.tolist() == [1, 0, 0, 2, 2]
        assert e.dst.tolist() == [0, 1, 1, 1, 1]
        assert e.temporal_weight.tolist() == [0.3, 0.2, 0.4, 0.1, 0.5]
        assert e.similarity.tolist() == [0.8, 0.9, 0.7, 1.0, 0.6]
        assert e.day_gap.tolist() == [2, 4, 1, 9, 0]
        assert len(e) == 5
        assert (e.src.dtype, e.dst.dtype) == (np.intp, np.intp)
        assert (e.temporal_weight.dtype, e.similarity.dtype) == (np.float64, np.float64)
        assert e.day_gap.dtype == np.int64

    def test_built_graph_is_sorted(self, rng):
        calls, relations = random_instance(rng, 25)
        e = build_quarter_graph(calls, relations, Q).edges
        keys = list(zip(e.dst.tolist(), e.src.tolist()))
        assert keys == sorted(set(keys))

    def test_ragged_columns_rejected(self):
        with pytest.raises(GraphConstructionError, match="equal length"):
            EdgeTable(src=[0, 1], dst=[0, 1], temporal_weight=[1.0], similarity=[1.0, 1.0],
                      day_gap=[0, 0])


class TestDateGroupsAndSerialization:
    def test_date_groups_partition_nodes_in_order(self, rng):
        # nodes grouped by graph.days: the call-date ordinals in node order
        calls, relations = random_instance(rng, 15)
        graph = build_quarter_graph(calls, relations, Q)
        days = graph.days
        assert days.dtype == np.int64 and days.shape == (15,)
        groups = [(dt.date.fromordinal(int(d)), np.flatnonzero(days == d)) for d in np.unique(days)]
        assert [d for d, _ in groups] == sorted({c.call_date for c in graph.calls})
        flat = [i for _, ids in groups for i in ids]
        assert flat == list(range(15))
        for d, ids in groups:
            assert all(graph.calls[i].call_date == d for i in ids)

    def test_save_load_round_trip(self, tmp_path, small_graph):
        save_graph_dir(small_graph, tmp_path / "g")
        back = load_graph_dir(tmp_path / "g")
        assert back.quarter == small_graph.quarter
        assert back.n_nodes == small_graph.n_nodes
        for a, b in zip(small_graph.calls, back.calls):
            assert (a.company_id, a.call_id, a.call_date) == (b.company_id, b.call_id, b.call_date)
        # repr round-trip, bitwise, NaN rows included
        assert back.labels.tobytes() == small_graph.labels.tobytes()
        assert len(back.edges) == len(small_graph.edges)
        for name in ("src", "dst", "day_gap", "temporal_weight", "similarity"):
            a, b = getattr(small_graph.edges, name), getattr(back.edges, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        # transcripts ride along so prediction works from the directory alone
        for ca, cb in zip(small_graph.calls, back.calls):
            assert ca.call_id == cb.call_id
            assert len(ca.sentences) == len(cb.sentences)
            np.testing.assert_array_equal(ca.sentences[0].vector, cb.sentences[0].vector)

    def test_tables_match_the_row_by_row_format(self, tmp_path, small_graph):
        # one line per node and per edge, floats as repr: the format graph
        # directories have always had, so older directories keep loading
        save_graph_dir(small_graph, tmp_path / "g")
        nodes = ["node_id,company_id,call_id,call_date,label_3,label_7,label_15"]
        for i, c in enumerate(small_graph.calls):
            target = small_graph.labels[i]
            labels = ["", "", ""] if np.isnan(target).all() else [repr(float(v)) for v in target]
            nodes.append(",".join(
                [str(i), c.company_id, c.call_id, c.call_date.isoformat(), *labels]))
        e = small_graph.edges
        edges = ["src,dst,temporal_weight,similarity,day_gap"] + [
            f"{e.src[k]},{e.dst[k]},{float(e.temporal_weight[k])!r},"
            f"{float(e.similarity[k])!r},{e.day_gap[k]}"
            for k in range(len(e))
        ]
        for name, lines in (("nodes.csv", nodes), ("edges.csv", edges)):
            assert (tmp_path / "g" / name).read_bytes() == ("\r\n".join(lines) + "\r\n").encode()

    def test_load_rejects_non_graph_dir(self, tmp_path):
        (tmp_path / "junk").mkdir()
        with pytest.raises(GraphConstructionError):
            load_graph_dir(tmp_path / "junk")
