"""Acceptance gate: ten end-to-end checks, one per criterion.

Each test prints a single PASS line (criterion number plus the measured
quantity) straight to the terminal so the run log reads as a checklist.
Oracles are duplicated locally on purpose: this file must stay readable
as a standalone statement of what the package promises.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import time

import numpy as np
import pytest

from volgraph.cli import main as cli_main
from volgraph.dataio import (
    SyntheticConfig,
    build_quarter_datasets,
    gen_synthetic,
    split_by_time,
)
from volgraph.dataio.records import CallRecord, PriceSeries, Quarter, RelationTable, Sentence
from volgraph.dataio.volatility import window_targets
from volgraph.graphbuild import (
    SIMILARITY_THRESHOLD,
    EdgeTable,
    audit_no_leakage,
    build_quarter_graph,
    load_graph_dir,
)
from volgraph.numcore import no_grad
from volgraph.pipeline import (
    ModelConfig,
    VolatilityModel,
    evaluate,
    fine_tune,
    prepare_quarter,
    train,
    transductive_split,
)
from volgraph.pipeline.metrics import mean_mse, r_squared
from volgraph.pipeline.training import _quarter_loss, _validation_mse

from conftest import sentences_of
from gradcheck import grad_check, n_scalars

TAUS = (3, 7, 15)


def small_model_config(**overrides) -> ModelConfig:
    base = dict(
        d_hidden=8,
        dialogue_layers=1,
        dialogue_heads=2,
        network_layers=2,
        mlp_hidden=8,
        d_s=8,
        d_p=2,
        d_u=2,
        d_r=2,
        d_q=2,
        max_sentences=16,
        max_utterances=8,
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


# ------------------------------------------------------------------ criterion 1


def test_criterion_01_metric_arithmetic(capsys):
    """r_squared and mean_mse reproduce the reference report cells to 4 dp."""
    start = time.perf_counter()
    model_mse = {3: 0.5980, 7: 0.2818, 15: 0.2017}
    baseline_mse = {3: 1.1336, 7: 0.4026, 15: 0.2167}
    expected_r2 = {3: 0.4725, 7: 0.3000, 15: 0.0692}
    for tau in TAUS:
        got = round(r_squared(model_mse[tau], baseline_mse[tau]), 4)
        assert got == expected_r2[tau], f"R2_{tau}: {got} != {expected_r2[tau]}"
    assert round(mean_mse(model_mse), 4) == 0.3605
    assert round(mean_mse(baseline_mse), 4) == 0.5843
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        print(
            "\nPASS criterion 1: R2 cells "
            + "/".join(f"{expected_r2[t]:.4f}" for t in TAUS)
            + f" and mean MSE 0.3605/0.5843 reproduced to 4 dp ({elapsed:.3f}s)"
        )


# ------------------------------------------------------------------ criterion 2


def _vector_call(rng, company, date, quarter, n_pres, n_qa, d_s):
    sentences = []
    pos = 0
    for _ in range(n_pres):
        sentences.append(
            Sentence(0, "executive", "presentation", pos, vector=rng.normal(size=d_s))
        )
        pos += 1
    for _ in range(n_qa):
        sentences.append(Sentence(1, "analyst", "qa", pos, vector=rng.normal(size=d_s)))
        pos += 1
    return CallRecord(f"{company}-{quarter}", company, date, sentences)


def test_criterion_02_full_pipeline_gradcheck(capsys):
    """Central differences agree with the tape for every parameter scalar."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    quarter = Quarter(2016, 2)
    d_s = 6
    companies = ["AA", "BB", "CC", "DD", "EE"]
    dates = [dt.date(2016, 5, 10)] * 3 + [dt.date(2016, 5, 12)] * 2
    calls = [
        _vector_call(rng, c, d, quarter, n_pres=2, n_qa=1, d_s=d_s)
        for c, d in zip(companies, dates)
    ]
    relations = RelationTable.from_rows(
        (a, b, quarter.year - 1, s)
        for a, b, s in [
            ("AA", "BB", 0.8),
            ("AA", "DD", 0.6),
            ("BB", "EE", 0.5),
            ("CC", "DD", 0.7),
            ("CC", "EE", 0.4),
        ]
    )
    labels = rng.normal(-4.0, 0.5, size=(len(calls), len(TAUS)))
    graph = build_quarter_graph(calls, relations, quarter, labels=labels)
    prepared = prepare_quarter(graph)
    assert prepared.mask.all()

    config = small_model_config(d_s=d_s, network_layers=2, dialogue_layers=1, seed=7)
    model = VolatilityModel(config, TAUS)
    # start from the training-time init: a loss of ~|label|^2 would leave
    # only a couple of significant digits in the central differences
    model.warm_start_output_bias(
        {tau: float(prepared.labels[tau][prepared.mask].mean()) for tau in TAUS}
    )
    report = grad_check(
        lambda: _quarter_loss(model, prepared, prepared.mask),
        model.store,
        tol=1e-4,
    )
    elapsed = time.perf_counter() - start
    assert report.n_checked == n_scalars(model.store)  # 100% coverage
    assert report.passed, report.summary()
    assert elapsed < 300.0
    with capsys.disabled():
        print(
            f"PASS criterion 2: {report.n_checked} parameter scalars, "
            f"max rel err {report.max_rel_error:.2e} <= 1e-4 ({elapsed:.1f}s)"
        )


# ------------------------------------------------------------------ criterion 3


def _random_leakage_instance(rng, quarter):
    """Random multi-date quarter: calls, relations, and a non-earliest node."""
    n = int(rng.integers(4, 9))
    companies = [f"C{i:02d}" for i in range(n)]
    day_pool = sorted(rng.choice(np.arange(5, 80), size=3, replace=False).tolist())
    start = quarter.start.toordinal()
    dates = [dt.date.fromordinal(start + int(rng.choice(day_pool))) for _ in companies]
    dates[0] = dt.date.fromordinal(start + day_pool[0])  # guarantee an early node
    dates[-1] = dt.date.fromordinal(start + day_pool[-1])  # and a later one
    calls = [
        _vector_call(rng, c, d, quarter, n_pres=int(rng.integers(1, 4)), n_qa=1, d_s=8)
        for c, d in zip(companies, dates)
    ]
    relations = [
        (companies[i], companies[j], quarter.year - 1, float(rng.uniform(0.2, 0.9)))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    return calls, RelationTable.from_rows(relations)


def _perturbed_copy(calls, node_idx, graph, rng):
    """Same corpus with one call's sentence vectors shifted by noise."""
    target_id = graph.calls[node_idx].call_id
    out = []
    for c in calls:
        if c.call_id != target_id:
            out.append(c)
            continue
        sentences = [
            Sentence(s.utterance_idx, s.role, s.part, s.position,
                     vector=s.vector + rng.normal(scale=1.0, size=s.vector.shape))
            for s in sentences_of(c)
        ]
        out.append(CallRecord(c.call_id, c.company_id, c.call_date, sentences))
    return out


def test_criterion_03_no_leakage_property(capsys):
    """Perturbing any node never changes strictly-earlier nodes' outputs."""
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    quarter = Quarter(2016, 2)
    config = small_model_config(seed=3)
    model = VolatilityModel(config, TAUS)
    n_trials = 110
    n_earlier_checked = 0
    for trial in range(n_trials):
        calls, relations = _random_leakage_instance(rng, quarter)
        graph = build_quarter_graph(calls, relations, quarter)
        dates = [c.call_date for c in graph.calls]
        min_date = min(dates)
        candidates = [i for i, d in enumerate(dates) if d > min_date]
        node_idx = int(rng.choice(candidates))
        node_date = dates[node_idx]
        earlier = [i for i, d in enumerate(dates) if d < node_date]
        assert earlier, "instance must give the perturbed node a past"

        base = prepare_quarter(graph)
        with no_grad():
            base_preds, base_emb, _ = model.forward(base)
        perturbed_calls = _perturbed_copy(calls, node_idx, graph, rng)
        pgraph = build_quarter_graph(perturbed_calls, relations, quarter)
        pprep = prepare_quarter(pgraph)
        with no_grad():
            pert_preds, pert_emb, _ = model.forward(pprep)

        # the perturbation must actually reach the perturbed node
        assert not np.array_equal(base_emb.data[node_idx], pert_emb.data[node_idx])
        for j in earlier:
            assert np.array_equal(base_emb.data[j], pert_emb.data[j]), (trial, j)
            for tau in TAUS:
                assert base_preds[tau].data[j] == pert_preds[tau].data[j], (trial, j, tau)
        n_earlier_checked += len(earlier)

    # negative control: injected future edges are flagged, and nothing else
    calls, relations = _random_leakage_instance(rng, quarter)
    graph = build_quarter_graph(calls, relations, quarter)
    assert audit_no_leakage(graph).ok
    dates = [c.call_date for c in graph.calls]
    by_date = sorted(range(graph.n_nodes), key=lambda i: dates[i])
    injected = {}  # (src, dst) -> (temporal_weight, similarity, day_gap)
    for late_pos, early_pos in ((-1, 0), (-2, 0), (-1, 1)):
        late, early = by_date[late_pos], by_date[early_pos]
        if dates[late] <= dates[early]:
            continue
        gap = (dates[late] - dates[early]).days
        injected.setdefault((late, early), (1.0 / (gap + 1), 0.5, gap))
    e = graph.edges
    src, dst = zip(*injected)
    weight, similarity, day_gap = zip(*injected.values())
    graph.edges = EdgeTable(
        src=np.concatenate([e.src, src]),
        dst=np.concatenate([e.dst, dst]),
        temporal_weight=np.concatenate([e.temporal_weight, weight]),
        similarity=np.concatenate([e.similarity, similarity]),
        day_gap=np.concatenate([e.day_gap, day_gap]),
    )
    report = audit_no_leakage(graph)
    flagged = {(v["src"], v["dst"]) for v in report.violations}
    assert flagged == set(injected)
    assert len(report.violations) == len(injected) > 0

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    with capsys.disabled():
        print(
            f"PASS criterion 3: {n_trials} trials, {n_earlier_checked} earlier nodes "
            f"bitwise unchanged; {len(injected)} injected future edges flagged exactly "
            f"({elapsed:.1f}s)"
        )


def _random_quarter(rng, quarter, n):
    """``n`` companies' calls of 2-8 sentences on 3-8 dates of ``quarter``, and
    relations between about half of the company pairs."""
    companies = [f"C{i:02d}" for i in range(n)]
    start = quarter.start.toordinal()
    day_pool = rng.choice(np.arange(5, 80), size=int(rng.integers(3, 9)), replace=False)
    calls = [
        _vector_call(rng, c, dt.date.fromordinal(start + int(rng.choice(day_pool))), quarter,
                     n_pres=int(rng.integers(1, 6)), n_qa=int(rng.integers(1, 4)), d_s=8)
        for c in companies
    ]
    relations = [
        (companies[i], companies[j], quarter.year - 1, float(rng.uniform(0.2, 0.9)))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    return calls, RelationTable.from_rows(relations)


def _prefix_forward(model, quarter, calls, relations):
    """call_id -> (embedding, predictions per window) of a no-grad forward over the quarter."""
    graph = build_quarter_graph(calls, relations, quarter)
    with no_grad():
        preds, emb, _ = model.forward(prepare_quarter(graph))
    ids = [c.call_id for c in graph.calls]
    return {i: (emb.data[k], [preds[tau].data[k] for tau in TAUS]) for k, i in enumerate(ids)}


def _check_date_prefixes(rng, quarter, model, sizes, blas_build) -> list:
    """For random quarters of ``sizes`` companies, every date prefix's nodes against
    the full quarter's, bitwise; returns (prefix nodes, full nodes) per prefix."""
    checked = []
    for n in sizes:
        calls, relations = _random_quarter(rng, quarter, n)
        full = _prefix_forward(model, quarter, calls, relations)
        for date in sorted({c.call_date for c in calls})[:-1]:
            prefix = _prefix_forward(model, quarter, [c for c in calls if c.call_date <= date],
                                     relations)
            for call_id, (emb, preds) in prefix.items():
                where = (f"call {call_id} in the {len(prefix)}-node prefix up to {date} of a "
                         f"{n}-node quarter on {blas_build}")
                assert np.array_equal(emb, full[call_id][0]), f"embedding of {where}"
                assert preds == full[call_id][1], f"predictions of {where}"
            checked.append((len(prefix), n))
    return checked


def test_criterion_03_date_prefixes_predict_as_the_full_quarter(capsys, blas_build):
    """Adding later calls never changes an earlier node's embedding or prediction, bitwise."""
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    quarter = Quarter(2016, 2)
    model = VolatilityModel(small_model_config(seed=5), TAUS)
    sizes = [int(rng.integers(6, 19)), *rng.integers(19, 90, size=5).tolist()]
    checked = _check_date_prefixes(rng, quarter, model, sizes, blas_build)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        print(
            f"PASS criterion 3 (append): {len(sizes)} quarters of {min(sizes)}-{max(sizes)} "
            f"nodes, {len(checked)} date prefixes, {sum(p for p, _ in checked)} prefix nodes "
            f"bitwise as in their full quarter on {blas_build} ({elapsed:.1f}s)"
        )


def test_criterion_03_date_prefixes_across_sender_blocks(capsys, blas_build):
    """As the append variant, on quarters of 60-200 nodes: the GAT's message sum runs
    over blocks of 64 sender columns, and the prefixes end one and two block edges
    before their full quarter's last block."""
    start = time.perf_counter()
    rng = np.random.default_rng(29)
    quarter = Quarter(2016, 2)
    model = VolatilityModel(small_model_config(seed=7), TAUS)
    sizes = rng.integers(60, 201, size=3).tolist()
    checked = _check_date_prefixes(rng, quarter, model, sizes, blas_build)
    for edge in (64, 128):
        assert any(p <= edge < n for p, n in checked), (edge, checked)
    assert {1, 2} <= {-(-n // 64) - -(-p // 64) for p, n in checked}, checked  # edges crossed
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        print(
            f"PASS criterion 3 (blocks): {len(sizes)} quarters of {min(sizes)}-{max(sizes)} "
            f"nodes, {len(checked)} date prefixes of {min(p for p, _ in checked)}-"
            f"{max(p for p, _ in checked)} nodes, {sum(p for p, _ in checked)} prefix nodes "
            f"bitwise as in their full quarter on {blas_build} ({elapsed:.1f}s)"
        )


# ------------------------------------------------------------------ criterion 4


def _oracle_edges(calls, relations, quarter, threshold):
    """Quadratic reference: every ordered company pair, checked directly."""
    ordered = sorted(calls, key=lambda c: (c.call_date, c.company_id))
    idx = {c.company_id: i for i, c in enumerate(ordered)}
    sim = {}
    for a, b, year, s in relations:
        if year == quarter.year - 1 and s > threshold:
            if a in idx and b in idx:
                sim[frozenset((a, b))] = s
    edges = {}
    for i, ci in enumerate(ordered):
        edges[(i, i)] = (1.0, 1.0)
        for j, cj in enumerate(ordered):
            if i == j:
                continue
            key = frozenset((ci.company_id, cj.company_id))
            if key not in sim:
                continue
            gap = (cj.call_date - ci.call_date).days
            if gap >= 0:
                edges[(i, j)] = (1.0 / (gap + 1), sim[key])
    return edges


def test_criterion_04_graph_builder_oracle(capsys):
    """Edge sets and weights match a brute-force pairwise recomputation."""
    rng = np.random.default_rng(23)
    quarter = Quarter(2017, 1)
    start, end = quarter.start.toordinal(), quarter.end.toordinal()
    n_edges_total = 0
    for trial in range(50):
        n = int(rng.integers(2, 41))
        companies = [f"C{i:02d}" for i in range(n)]
        calls = [
            CallRecord(
                f"{c}-{quarter}",
                c,
                dt.date.fromordinal(int(rng.integers(start, end + 1))),
                [Sentence(0, "executive", "presentation", 0, vector=np.zeros(4))],
            )
            for c in companies
        ]
        relations = []
        for i in range(n):
            for j in range(i + 1, n):
                u = rng.random()
                if u < 0.35:
                    similarity = float(rng.uniform(0.01, 0.9))
                    relations.append((companies[i], companies[j], quarter.year - 1, similarity))
                elif u < 0.45:  # wrong effective year: must be ignored
                    relations.append(
                        (companies[i], companies[j], quarter.year, float(rng.uniform(0.2, 0.9)))
                    )
        graph = build_quarter_graph(calls, RelationTable.from_rows(relations), quarter)
        e = graph.edges
        got = dict(
            zip(
                zip(e.src.tolist(), e.dst.tolist()),
                zip(e.temporal_weight.tolist(), e.similarity.tolist()),
            )
        )
        want = _oracle_edges(calls, relations, quarter, SIMILARITY_THRESHOLD)
        assert got == want, f"trial {trial}: edge sets differ"
        n_edges_total += len(got)
    with capsys.disabled():
        print(
            f"PASS criterion 4: 50 instances (<=40 companies), "
            f"{n_edges_total} edges match the quadratic oracle exactly"
        )


# ------------------------------------------------------------------ criterion 5


def _series(closes, start=dt.date(2015, 1, 5)):
    dates = []
    d = start
    while len(dates) < len(closes):
        if d.weekday() < 5:
            dates.append(d)
        d += dt.timedelta(days=1)
    return PriceSeries("TST", tuple(dates), np.asarray(closes, dtype=np.float64))


def _oracle_vol(closes, first, last, divisor):
    rets = [closes[i] / closes[i - 1] - 1.0 for i in range(first, last + 1)]
    mean = sum(rets) / len(rets)
    return math.sqrt(sum((r - mean) ** 2 for r in rets) / divisor)


def test_criterion_05_volatility_oracle(capsys):
    """Window math matches loop recomputation; scaling/zero-variance exact."""

    def targets(series, anchor, taus):
        labels, past, reasons = window_targets([series], ["TST"], [series.dates[anchor]], taus)
        assert reasons == [None]
        return labels[0], past[0]

    rng = np.random.default_rng(31)
    for trial in range(1000):
        n = int(rng.integers(12, 80))
        closes = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.03, size=n)))
        s = _series(closes)
        cl = [float(x) for x in closes]
        fits = [t for t in TAUS if 2 * t + 2 <= n]  # both windows must fit

        # label and trailing baseline of a window of any length >= 2, then of
        # one of the model's windows, anchored at a random in-range date
        for tau in (int(rng.integers(2, n // 2)), int(rng.choice(fits))):
            anchor = int(rng.integers(tau + 1, n - tau))
            (got_label,), (got_past,) = targets(s, anchor, (tau,))
            want = math.log(max(_oracle_vol(cl, anchor + 1, anchor + tau, tau - 1), 1e-8))
            assert abs(got_label - want) <= 1e-12, trial
            want = math.log(max(_oracle_vol(cl, anchor - tau, anchor - 1, tau - 1), 1e-8))
            assert abs(got_past - want) <= 1e-12, trial

    # zero-variance: all returns identical, dispersion exactly 0, log floored
    flat = _series([100.0] * 30)
    (got_label,), (got_past,) = targets(flat, 10, (7,))
    assert got_label == got_past == float(np.log(1e-8))

    # price scaling by a power of two leaves every return bit-identical
    closes = 50.0 * np.exp(np.cumsum(np.random.default_rng(5).normal(0, 0.02, 40)))
    base, scaled = _series(closes), _series(closes * 4.0)
    for got, want in zip(targets(base, 16, TAUS), targets(scaled, 16, TAUS)):
        assert got.tobytes() == want.tobytes()
    with capsys.disabled():
        print(
            "PASS criterion 5: 1000 series within 1e-12 of the loop oracle; "
            "zero-variance and price-scaling invariants exact"
        )


# ------------------------------------------------------------------ criterion 6


def test_criterion_06_capacity(capsys):
    """A 30-node single-quarter set is memorized to train MSE < 0.01."""
    from volgraph.numcore import AdamState, adam_step

    start = time.perf_counter()
    corpus = gen_synthetic(SyntheticConfig(n_companies=30, n_quarters=1, d_s=8), seed=9)
    ds = build_quarter_datasets(corpus.transcripts, corpus.prices)[0]
    graph = build_quarter_graph(ds.calls, corpus.relations, ds.quarter, labels=ds.labels)
    prepared = prepare_quarter(graph, ds)
    assert prepared.n_labeled == 30

    config = small_model_config(d_hidden=16, mlp_hidden=16, lr=1e-2, seed=1)
    model = VolatilityModel(config, TAUS)
    model.warm_start_output_bias(
        {tau: float(prepared.labels[tau][prepared.mask].mean()) for tau in TAUS}
    )
    adam = AdamState.for_store(model.store)
    reached = None
    for epoch in range(1, 501):
        model.store.zero_grad()
        loss = _quarter_loss(model, prepared, prepared.mask)
        loss.backward()
        adam_step(model.store, adam, lr=config.lr, weight_decay=config.weight_decay)
        train_mse = _validation_mse(model, [prepared], [prepared.mask])
        if train_mse < 0.01:
            reached = epoch
            break
    elapsed = time.perf_counter() - start
    assert reached is not None, f"train MSE still {train_mse:.4f} after 500 epochs"
    assert elapsed < 60.0
    with capsys.disabled():
        print(
            f"PASS criterion 6: train MSE < 0.01 at epoch {reached} ({elapsed:.1f}s)"
        )


# ------------------------------------------------------------------ criterion 7


def _train_and_score(seed: int, signal_strength: float):
    """Train on a 12-quarter corpus, return held-out R^2 per window."""
    corpus = gen_synthetic(
        SyntheticConfig(n_companies=20, n_quarters=12, d_s=16, signal_strength=signal_strength),
        seed=100 + seed,
    )
    config = small_model_config(d_s=16, max_epochs=60, joint_heads=True, seed=seed)
    datasets = build_quarter_datasets(corpus.transcripts, corpus.prices)
    groups = split_by_time(datasets, config.val_start, config.test_start)
    prepared = [
        [
            prepare_quarter(
                build_quarter_graph(ds.calls, corpus.relations, ds.quarter, labels=ds.labels), ds
            )
            for ds in group
        ]
        for group in groups
    ]
    model = VolatilityModel(config, TAUS)
    train(model, prepared[0], prepared[1], config)
    model_report, _ = evaluate({tau: model for tau in TAUS}, prepared[2])
    return model_report.r2_per_tau


def test_criterion_07_signal_recovery(capsys):
    """Planted signal is recovered out of sample; no-signal control stays flat."""
    start = time.perf_counter()
    n_seeds = 5
    with_signal = [_train_and_score(s, 1.0) for s in range(n_seeds)]
    without = [_train_and_score(s, 0.0) for s in range(n_seeds)]
    med_signal = {t: float(np.median([r[t] for r in with_signal])) for t in TAUS}
    med_null = {t: float(np.median([r[t] for r in without])) for t in TAUS}
    for tau in TAUS:
        assert med_signal[tau] > 0.0, f"tau={tau}: median R2 {med_signal[tau]:.4f}"
        assert abs(med_null[tau]) < 0.05, f"tau={tau}: null median R2 {med_null[tau]:.4f}"
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(
            "PASS criterion 7: median R2 "
            + "/".join(f"{med_signal[t]:+.3f}" for t in TAUS)
            + " > 0 with signal; "
            + "/".join(f"{med_null[t]:+.3f}" for t in TAUS)
            + " at signal 0 "
            f"({elapsed:.0f}s, {n_seeds} seeds)"
        )


# ------------------------------------------------------------------ criterion 8


def test_criterion_08_fine_tune_ordering(capsys):
    """Within-graph fine-tuning does not hurt held-out-quarter test MSE."""
    start = time.perf_counter()
    wins = 0
    n_seeds = 5
    details = []
    for seed in range(n_seeds):
        corpus = gen_synthetic(
            SyntheticConfig(n_companies=16, n_quarters=8, d_s=16), seed=200 + seed
        )
        datasets = build_quarter_datasets(corpus.transcripts, corpus.prices)
        groups = split_by_time(datasets, val_start=2015, test_start=2016)
        prepared = [
            [
                prepare_quarter(
                    build_quarter_graph(ds.calls, corpus.relations, ds.quarter, labels=ds.labels),
                    ds,
                )
                for ds in group
            ]
            for group in groups
        ]
        heldout = prepared[2][0]
        config = small_model_config(d_s=16, max_epochs=40, joint_heads=True, seed=seed)
        model = VolatilityModel(config, TAUS)
        train(model, prepared[0], prepared[1], config)

        masks = transductive_split(heldout.graph, (7, 1, 2))
        test_mask = masks["test"] & heldout.mask
        before = _validation_mse(model, [heldout], [test_mask])
        fine_tune(model, heldout, masks, config)
        after = _validation_mse(model, [heldout], [test_mask])
        details.append((before, after))
        if after <= before:
            wins += 1
    elapsed = time.perf_counter() - start
    assert wins >= 4, f"fine-tune helped in only {wins}/{n_seeds} seeds: {details}"
    with capsys.disabled():
        print(
            f"PASS criterion 8: fine-tune test MSE <= no-fine-tune in "
            f"{wins}/{n_seeds} seeds ({elapsed:.0f}s)"
        )


# ------------------------------------------------------------------ criterion 9


def test_criterion_09_determinism(capsys):
    """Same seed and config, trained twice: metric reports are bitwise equal."""
    start = time.perf_counter()
    corpus = gen_synthetic(SyntheticConfig(n_companies=10, n_quarters=6, d_s=8), seed=17)
    datasets = build_quarter_datasets(corpus.transcripts, corpus.prices)
    prepared = [
        prepare_quarter(
            build_quarter_graph(ds.calls, corpus.relations, ds.quarter, labels=ds.labels), ds
        )
        for ds in datasets
    ]
    config = small_model_config(max_epochs=6, joint_heads=True, seed=4)
    reports = []
    for _ in range(2):
        model = VolatilityModel(config, TAUS)
        train(model, prepared[:4], prepared[4:5], config)
        model_report, base_report = evaluate({t: model for t in TAUS}, prepared[5:])
        reports.append((model_report.to_dict(), base_report.to_dict()))
    assert reports[0] == reports[1]  # dict equality on floats == bitwise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"PASS criterion 9: two training runs, identical reports ({elapsed:.0f}s)")


# ------------------------------------------------------------------ criterion 10


def test_criterion_10_cli_round_trip(tmp_path, capsys):
    """The documented CLI workflow runs end to end with consistent outputs."""
    start = time.perf_counter()
    data = tmp_path / "data"
    (tmp_path / "synth.cfg").write_text("n_companies = 10\nn_quarters = 12\nd_s = 8\n")
    assert cli_main(["gen-synth", "--seed", "8", "--out", str(data),
                     "--config", str(tmp_path / "synth.cfg")]) == 0

    graph_dir = tmp_path / "graph"
    assert cli_main([
        "build-graph", "--quarter", "2015Q2",
        "--transcripts", str(data / "transcripts.jsonl"),
        "--relations", str(data / "relations.csv"),
        "--prices", str(data / "prices.csv"),
        "--out", str(graph_dir),
    ]) == 0

    assert cli_main(["audit-leakage", "--graph", str(graph_dir)]) == 0
    assert "0 violations" in capsys.readouterr().out

    cfg = tmp_path / "model.cfg"
    cfg.write_text(
        "d_hidden = 8\ndialogue_layers = 1\ndialogue_heads = 2\nnetwork_layers = 2\n"
        "mlp_hidden = 8\nd_s = 8\nd_p = 2\nd_u = 2\nd_r = 2\nd_q = 2\n"
        "max_sentences = 16\nmax_utterances = 8\nmax_epochs = 2\nseed = 0\n"
    )
    ckpt = tmp_path / "model.npz"
    assert cli_main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(ckpt)]) == 0

    report_path = tmp_path / "eval.json"
    assert cli_main(["eval", "--model", str(ckpt), "--data", str(data),
                     "--report", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())
    assert payload["format"] == "volgraph-report/1"

    attn = tmp_path / "attn.csv"
    assert cli_main(["export-attention", "--model", str(ckpt),
                     "--graph", str(graph_dir), "--out", str(attn)]) == 0
    with attn.open() as fh:
        rows = list(csv.DictReader(fh))
    graph = load_graph_dir(graph_dir)
    n_layers = 2
    per_layer = {layer: 0 for layer in range(n_layers)}
    sums: dict[tuple, float] = {}
    for row in rows:
        per_layer[int(row["layer"])] += 1
        key = (int(row["layer"]), int(row["dst"]))
        sums[key] = sums.get(key, 0.0) + float(row["gamma"])
    assert all(count == len(graph.edges) for count in per_layer.values())
    worst = max(abs(s - 1.0) for s in sums.values())
    assert worst < 1e-9
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(
            f"PASS criterion 10: gen-synth->build-graph->audit->train->eval->"
            f"export-attention round trip; {len(rows)} attention rows, "
            f"worst neighborhood sum off by {worst:.1e} ({elapsed:.0f}s)"
        )
