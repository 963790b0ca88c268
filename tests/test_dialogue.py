"""Dialogue encoding: featurization, CLS readout, batching invariances,
and gradients through the whole encoder."""

from __future__ import annotations

import datetime as dt
import re
import time
import zlib
from dataclasses import replace

import numpy as np
import pytest

import volgraph.dialogue as dialogue
import volgraph.numcore as nc
from volgraph.dataio import SyntheticConfig, gen_synthetic
from volgraph.dataio.records import CallRecord, Quarter, RelationTable, Sentence
from volgraph.dialogue import (
    DialogueEncoderParams,
    SentenceBlock,
    StructEmbedTables,
    encode_calls,
    encode_featurized_batch,
    featurize_sentences,
    hash_featurizer,
)
from volgraph.errors import ParseError, ShapeError
from volgraph.graphbuild import build_quarter_graph
from volgraph.pipeline import ModelConfig, VolatilityModel, prepare_quarter
from volgraph.numcore.layers import transformer_encoder_layer
from volgraph.numcore.params import ParamStore, uniform_init

import reference_ops as ro
from conftest import sentences_of, small_model, tiny_config
from gradcheck import grad_check, n_scalars

D_S = 6


def setup_encoder(rng, n_layers=1, d_hidden=8, max_sentences=16, max_utterances=8):
    store = ParamStore()
    tables = StructEmbedTables.init(
        store, rng, d_p=2, d_u=2, d_r=2, d_q=2,
        max_sentences=max_sentences, max_utterances=max_utterances,
    )
    params = DialogueEncoderParams.init(
        store, rng, d_in=D_S + tables.total_dim, d_hidden=d_hidden, n_layers=n_layers, n_heads=2,
    )
    return store, tables, params


def with_feed_forward_width(layer, d_ff, rng):
    """``layer`` with a feed-forward block ``d_ff`` wide, a width the model's 4·d need not give."""
    d = layer.wq.shape[0]
    draw = lambda shape, fan_in: nc.Tensor(uniform_init(rng, shape, fan_in))
    return replace(layer, ff1_w=draw((d_ff, d), d), ff1_b=draw((d_ff,), d),
                   ff2_w=draw((d, d_ff), d_ff), ff2_b=draw((d,), d_ff))


def vector_call(rng, call_id="C-1", n=5, d_s=D_S, date=dt.date(2016, 2, 3)):
    sentences = []
    for pos in range(n):
        part = "presentation" if pos < 2 else "qa"
        sentences.append(
            Sentence(
                # roles alternate in the Q&A, so each Q&A sentence is its own utterance
                utterance_idx=0 if part == "presentation" else pos - 1,
                role="executive" if part == "presentation" or pos % 2 else "analyst",
                part=part,
                position=pos,
                vector=rng.normal(size=d_s),
            )
        )
    return CallRecord(call_id, "C", date, sentences)


def featurize(calls, tables, d_s=D_S):
    return featurize_sentences(calls, tables, d_s, {})


def encode_one(call, tables, params):
    return encode_calls([call], tables, params, D_S, {}).data[0]


def per_sentence_reference(text, d_s):
    """One text's hash row, counted token by token with zlib's crc32."""
    vec = np.zeros(d_s, dtype=np.float64)
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        vec[zlib.crc32(token.encode("utf-8")) % d_s] += 1.0
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def assert_matches_per_sentence_reference(texts):
    for d_s in (7, 16, 768):
        got = hash_featurizer(texts, d_s=d_s)
        want = np.stack([per_sentence_reference(t, d_s) for t in texts])
        assert got.dtype == np.float64
        assert np.array_equal(got, want)


class TestHashFeaturizer:
    def test_unit_norm(self):
        v = hash_featurizer(["Revenue grew twelve percent this quarter"], d_s=64)[0]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_and_case_insensitive(self):
        a = hash_featurizer(["Margins improved"], d_s=64)[0]
        b = hash_featurizer(["margins IMPROVED"], d_s=64)[0]
        np.testing.assert_array_equal(a, b)

    def test_empty_text_is_zero_vector(self):
        np.testing.assert_array_equal(hash_featurizer([""], d_s=32)[0], np.zeros(32))

    def test_different_sentences_differ(self):
        a = hash_featurizer(["revenue fell sharply"], d_s=256)[0]
        b = hash_featurizer(["guidance raised again"], d_s=256)[0]
        assert not np.array_equal(a, b)

    def test_matches_per_sentence_reference_bitwise(self):
        # one bincount over a whole call must give, row for row, exactly
        # what counting each sentence on its own gives
        texts = [
            "Revenue grew twelve percent this quarter.",
            "",
            "MARGINS Improved; margins improved again",
            "?!.,",
            "q3 q3 q3 EPS of 1.05 beat the 0.98 consensus",
            "Revenue grew twelve percent this quarter.",
            "Umsatz über Plan — Café +20%, naïve ÜBER-Ziel",
            "\u0130stanbul \u212aelvin\nline break\ttab",
            "x" * 300 + " y",
        ]
        assert_matches_per_sentence_reference(texts)

    @pytest.mark.parametrize(
        "texts",
        [
            # tokens longer than 64 kB, beside short ones
            ["short words first", "k" * 65_537 + " then a b c", "m" * 65_535, "9 99 999"],
            # a text of separators alone has no token
            [" \t\n,.;:!?-—()[]{}'\"/\\ €", "after the separators"],
        ],
        ids=["token-over-64k", "separators-only"],
    )
    def test_edge_texts_match_per_sentence_reference_bitwise(self, texts):
        assert_matches_per_sentence_reference(texts)

    def test_no_texts_gives_empty_matrix(self):
        assert hash_featurizer([], d_s=8).shape == (0, 8)

    def test_long_tokens_match_reference_without_a_step_per_byte(self):
        # tokens on both sides of the length that goes to zlib's crc32, and
        # one of 65,537 bytes, which a byte-by-byte crc takes about 0.4 s over
        cut = dialogue._LONG_TOKEN
        texts = ["a" * cut + " " + "b" * (cut + 1), "ab" * 32_768 + "c", "x" * (cut - 1) + " y"]
        assert_matches_per_sentence_reference(texts)
        start = time.perf_counter()
        hash_featurizer(texts, d_s=768)
        assert time.perf_counter() - start < 0.05


def text_call(call_id, texts, vectors=None, utterances=None):
    """A call whose sentence i has text texts[i], or vectors[i] where that is given."""
    sentences = []
    for pos, text in enumerate(texts):
        part = "presentation" if pos < 2 else "qa"
        vector = None if vectors is None else vectors[pos]
        sentences.append(
            Sentence(
                utterance_idx=pos if utterances is None else utterances[pos],
                role="executive" if pos % 2 == 0 else "analyst",
                part=part,
                position=pos,
                text=None if vector is not None else text,
                vector=vector,
            )
        )
    return CallRecord(call_id, "T", dt.date(2016, 2, 3), sentences)


def reference_rows(call, tables, d_s=D_S):
    """The featurized rows of one call, sentence by sentence."""
    rows = []
    for i, s in enumerate(sentences_of(call)[: tables.position.shape[0]]):
        base = hash_featurizer([s.text], d_s)[0] if s.vector is None else s.vector
        rows.append(
            np.concatenate(
                [
                    base,
                    tables.position.data[i],
                    tables.utterance.data[min(s.utterance_idx, tables.utterance.shape[0] - 1)],
                    tables.role.data[("executive", "analyst").index(s.role)],
                    tables.part.data[("presentation", "qa").index(s.part)],
                ]
            )
        )
    return np.stack(rows)


class TestFeaturize:
    def test_feature_width_is_base_plus_tables(self, rng):
        store, tables, params = setup_encoder(rng)
        feats = featurize([vector_call(rng)], tables)
        assert feats.shape == (5, D_S + tables.total_dim)

    def test_rows_concatenate_the_right_table_entries(self, rng):
        store, tables, params = setup_encoder(rng)
        call = vector_call(rng, n=3)
        feats = featurize([call], tables).data
        row = feats[2]
        np.testing.assert_array_equal(row[:D_S], call.vectors[2])
        got_pos = row[D_S : D_S + 2]
        np.testing.assert_array_equal(got_pos, tables.position.data[2])
        got_utt = row[D_S + 2 : D_S + 4]
        np.testing.assert_array_equal(got_utt, tables.utterance.data[call.utterance[2]])

    def test_truncation_to_position_table(self, rng):
        store, tables, params = setup_encoder(rng, max_sentences=4)
        feats = featurize([vector_call(rng, n=9), vector_call(rng, n=3)], tables)
        assert feats.shape[0] == 4 + 3

    def test_utterance_index_clamps(self, rng):
        store, tables, params = setup_encoder(rng, max_utterances=2)
        call = vector_call(rng, n=6)
        call.utterance[-1] = 99
        feats = featurize([call], tables).data
        np.testing.assert_array_equal(
            feats[-1, D_S + 2 : D_S + 4], tables.utterance.data[1]
        )

    def test_dim_mismatch_raises(self, rng):
        store, tables, params = setup_encoder(rng)
        bad = vector_call(rng, call_id="C-bad", d_s=4)
        for calls in ([vector_call(rng), bad], [bad]):
            with pytest.raises(ShapeError, match="call C-bad: sentence vectors have dim 4"):
                featurize(calls, tables)

    def test_text_sentences_go_through_featurizer(self, rng):
        store, tables, params = setup_encoder(rng)
        feats = featurize([text_call("T-1", ["Revenue grew."])], tables)
        np.testing.assert_array_equal(
            feats.data[0, :D_S], hash_featurizer(["Revenue grew."], d_s=D_S)[0]
        )

    def test_featurizer_called_once_per_block_with_text_rows_only(self, rng, monkeypatch):
        store, tables, params = setup_encoder(rng)
        calls = [
            text_call("T-1", ["Revenue grew.", "", "Why did MARGINS fall?"],
                      vectors=[None, rng.normal(size=D_S), None]),
            vector_call(rng, n=2),
            text_call("T-2", ["Guidance is unchanged."]),
        ]
        seen = []

        def featurizer(texts, d_s):
            seen.append((list(texts), d_s))
            return hash_featurizer(texts, d_s)

        monkeypatch.setattr(dialogue, "hash_featurizer", featurizer)
        memo = {}
        feats = featurize_sentences(calls, tables, D_S, memo).data
        featurize_sentences(calls, tables, D_S, memo)
        texts = ["Revenue grew.", "Why did MARGINS fall?", "Guidance is unchanged."]
        assert seen == [(texts, D_S)]
        np.testing.assert_array_equal(feats[1, :D_S], calls[0].vectors[0])  # row 1's vector
        np.testing.assert_array_equal(feats[[0, 2, 5], :D_S], hash_featurizer(texts, D_S))

    def test_vector_only_block_never_calls_the_featurizer(self, rng, monkeypatch):
        store, tables, params = setup_encoder(rng)
        calls = [vector_call(rng, call_id=f"V-{i}", n=n) for i, n in enumerate((3, 5, 3))]

        def featurizer(texts, d_s):
            raise AssertionError("a block of vectors hashed texts")

        monkeypatch.setattr(dialogue, "hash_featurizer", featurizer)
        feats = featurize(calls, tables).data
        want = np.concatenate([c.vectors for c in calls])
        assert np.array_equal(feats[:, :D_S], want)


class TestSentenceBlock:
    def test_rows_match_per_call_reference_bitwise(self, rng):
        # vector, text and mixed calls, one cut at max_sentences, one with
        # utterance indices past the table
        store, tables, params = setup_encoder(rng, max_sentences=6, max_utterances=3)
        words = ["Revenue grew twelve percent.", "Margins fell.", "", "EPS of 1.05 beat",
                 "Guidance raised again", "Über Plan", "q3 q3 q3", "tail sentence"]
        calls = [
            vector_call(rng, call_id="V-1", n=4),
            text_call("T-1", words),  # 8 sentences, truncated to 6
            text_call("M-1", words[:5], vectors=[None, rng.normal(size=D_S), None,
                                                 rng.normal(size=D_S), None]),
            text_call("U-1", words[:3], utterances=[0, 7, 40]),
            vector_call(rng, call_id="V-2", n=4),
        ]
        got = featurize(calls, tables).data
        want = np.concatenate([reference_rows(c, tables) for c in calls])
        assert got.shape == (4 + 6 + 5 + 3 + 4, D_S + tables.total_dim)
        assert np.array_equal(got, want)

    def test_block_is_memoized_per_model_shape(self, small_graph, monkeypatch):
        # text calls, so that models with different d_s can read the same quarter
        text_calls = [
            CallRecord(c.call_id, c.company_id, c.call_date, [
                Sentence(s.utterance_idx, s.role, s.part, s.position,
                         text=f"{c.company_id} said {s.position} things")
                for s in sentences_of(c)
            ])
            for c in small_graph.calls
        ]
        graph = build_quarter_graph(text_calls, RelationTable.from_rows([]), small_graph.quarter)
        prepared = prepare_quarter(graph)
        calls = []

        def featurizer(texts, d_s):
            calls.append(d_s)
            return hash_featurizer(texts, d_s)

        monkeypatch.setattr(dialogue, "hash_featurizer", featurizer)
        model = VolatilityModel(tiny_config())
        first = model.predict(prepared)
        block = prepared.sentence_blocks[(8, 16, 8)]
        second = model.predict(prepared)
        assert calls == [8]
        assert prepared.sentence_blocks[(8, 16, 8)] is block
        assert all(np.array_equal(first[t], second[t]) for t in first)

        VolatilityModel(tiny_config(d_s=12)).predict(prepared)
        assert calls == [8, 12]
        assert sorted(prepared.sentence_blocks) == [(8, 16, 8), (12, 16, 8)]

    @pytest.mark.parametrize("lengths", [(3, 3), (7, 3, 5, 3, 7, 4, 5)])
    def test_featurize_tape_is_fixed_plus_one_take_per_chunk(self, rng, lengths, monkeypatch):
        # a 20-row cap cuts the second case into chunks of whole calls
        monkeypatch.setattr(dialogue, "_CHUNK_ROWS", 20)
        store, tables, params = setup_encoder(rng)
        calls = [vector_call(rng, call_id=f"C-{i}", n=n) for i, n in enumerate(lengths)]
        out = encode_calls(calls, tables, params, D_S, {})
        nodes, stack = {id(out): out}, [out]
        while stack:
            for p in stack.pop()._parents:
                if id(p) not in nodes:
                    nodes[id(p)] = p
                    stack.append(p)
        table_ids = {id(t) for t in (tables.position, tables.utterance, tables.role, tables.part)}
        lookups = [t for t in nodes.values() if {id(p) for p in t._parents} & table_ids]
        assert len(lookups) == 4
        (rows,) = [t for t in nodes.values() if {id(p) for p in t._parents} & {id(lookups[0])}]
        assert set(map(id, rows._parents)) >= set(map(id, lookups))
        assert len(rows._parents) == 5  # the base block and the four lookups
        chunks = [t for t in nodes.values() if id(rows) in {id(p) for p in t._parents}]
        block = SentenceBlock.build(calls, D_S, tables.position.shape[0], tables.utterance.shape[0])
        assert len(chunks) == len(block.chunks) == (1 if len(lengths) == 2 else 3)
        assert sorted(t.shape[0] for t in chunks) == sorted(int(n.sum()) for n, _ in block.chunks)

    @pytest.mark.parametrize("cap", [512, 40, 9])
    def test_chunks_are_whole_calls_by_length_up_to_the_row_cap(self, rng, cap, monkeypatch):
        # greedy over the calls sorted by length (call order within a length):
        # a chunk takes the next call while its packed rows (a CLS row and the
        # sentences per call) stay within the cap; a longer call is alone
        monkeypatch.setattr(dialogue, "_CHUNK_ROWS", cap)
        lengths = rng.integers(1, 17, size=60)
        calls = [vector_call(rng, call_id=f"C-{i}", n=int(n)) for i, n in enumerate(lengths)]
        block = SentenceBlock.build(calls, D_S, 16, 8)
        order = np.argsort(lengths, kind="stable")
        want, chunk = [], []
        for i in order.tolist():
            if chunk and sum(lengths[j] + 1 for j in chunk) + lengths[i] + 1 > cap:
                want.append(chunk)
                chunk = []
            chunk.append(i)
        want.append(chunk)
        starts = np.cumsum(lengths) - lengths
        assert len(block.chunks) == len(want)
        for (got_lengths, got_rows), members in zip(block.chunks, want):
            assert np.array_equal(got_lengths, lengths[members])
            rows = np.concatenate([np.arange(starts[i], starts[i] + lengths[i]) for i in members])
            assert np.array_equal(got_rows, rows)
        assert np.array_equal(np.concatenate(want)[block.inverse], np.arange(len(calls)))

    def test_empty_call_is_named(self):
        # a call checks its own rules, so an empty one never reaches featurization
        with pytest.raises(ParseError, match="call E-1 has no sentences"):
            CallRecord("E-1", "E", dt.date(2016, 2, 3), [])

    def test_unknown_role_or_part_is_named(self, rng):
        for attr in ("role", "part"):
            sentences = sentences_of(vector_call(rng, call_id="B-1", n=3))
            setattr(sentences[2], attr, "moderator")
            with pytest.raises(ParseError, match=f"call B-1: unknown {attr} 'moderator'"):
                CallRecord("B-1", "B", dt.date(2016, 2, 3), sentences)


class TestEncode:
    def test_embedding_shape(self, rng):
        store, tables, params = setup_encoder(rng)
        call = vector_call(rng)
        v = encode_calls([call], tables, params, D_S, {})
        assert v.shape == (1, 8)

    def test_batch_composition_never_changes_an_embedding(self, rng):
        # equal-length grouping means a call's embedding is a function of
        # that call alone -- bitwise, not approximately
        store, tables, params = setup_encoder(rng)
        calls = [vector_call(rng, call_id=f"C-{i}", n=5) for i in range(6)]
        solo = [
            encode_one(c, tables, params)
            for c in calls
        ]
        together = encode_calls(calls, tables, params, D_S, {}).data
        for i in range(6):
            assert np.array_equal(together[i], solo[i])

    def test_encode_calls_restores_input_order_across_length_groups(self, rng):
        store, tables, params = setup_encoder(rng)
        lengths = [7, 3, 5, 3, 7, 4]
        calls = [vector_call(rng, call_id=f"C-{i}", n=n) for i, n in enumerate(lengths)]
        got = encode_calls(calls, tables, params, D_S, {}).data
        for i, c in enumerate(calls):
            solo = encode_one(c, tables, params)
            assert np.array_equal(got[i], solo), f"call {i} out of order"

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("n", [1, 5])
    def test_readout_matches_cls_row_of_full_last_layer(self, rng, n_layers, n):
        # the last layer computes only the CLS query; running it in full
        # and taking the CLS row must agree to rounding. Three calls in two
        # length groups, packed as CLS row then sentences per call
        store, tables, params = setup_encoder(rng, n_layers=n_layers)
        lengths = np.array([n, n, n + 2])
        calls = [vector_call(rng, call_id=f"C-{i}", n=int(k)) for i, k in enumerate(lengths)]
        x = featurize(calls, tables).data
        got = encode_featurized_batch(lengths, nc.Tensor(x), params).data

        h = np.split(x @ params.proj_w.data.T + params.proj_b.data, np.cumsum(lengths)[:-1])
        h = np.concatenate([np.concatenate([params.cls.data, rows]) for rows in h])
        for layer in params.layers:
            h = transformer_encoder_layer(nc.Tensor(h), layer, params.n_heads, lengths + 1).data
        assert got.shape == (3, 8)
        cls_rows = np.cumsum(lengths + 1) - (lengths + 1)
        np.testing.assert_allclose(got, h[cls_rows], rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "cap,d_hidden,d_ff",
        [(512, 8, 40), (30, 8, 40), (512, 32, 1208), (512, 8, 196), (512, 64, 191), (512, 16, 1)],
    )
    def test_chunk_composition_never_changes_an_embedding(self, rng, cap, d_hidden, d_ff,
                                                            monkeypatch, blas_build):
        # calls of many lengths, in one chunk or cut into several, against
        # each call alone: a one-call chunk, whose last layer has one CLS
        # query row. Unpadded, d_ff = 40 sends the feed-forward output map
        # of a few rows to OpenBLAS's small-matrix kernel, the (1, 32) @
        # (32, 1208) feed-forward map is a gemv, d_ff = 196 and 191 end in a
        # partial 8-column panel, whose rows round by their position, and
        # d_ff = 1 is a gemv at every row count
        monkeypatch.setattr(dialogue, "_CHUNK_ROWS", cap)
        store, tables, params = setup_encoder(rng, n_layers=2, d_hidden=d_hidden)
        params.layers = [with_feed_forward_width(layer, d_ff, rng) for layer in params.layers]
        lengths = [7, 3, 5, 3, 7, 4, 1, 12, 5, 9, 3, 16]
        calls = [vector_call(rng, call_id=f"C-{i}", n=n) for i, n in enumerate(lengths)]
        together = encode_calls(calls, tables, params, D_S, {}).data
        for i, c in enumerate(calls):
            assert np.array_equal(together[i], encode_one(c, tables, params)), (
                f"call {i} at d_ff = {d_ff} on {blas_build}"
            )

    def test_gradients_flow_into_tables_and_all_layers(self, rng):
        store, tables, params = setup_encoder(rng)
        calls = [vector_call(rng, call_id=f"C-{i}", n=n) for i, n in enumerate((3, 4, 3))]
        w = rng.normal(size=(3, 8))

        def loss():
            out = encode_calls(calls, tables, params, D_S, {})
            return ro.sum_(ro.mul(out, nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == n_scalars(store)

    def test_position_table_changes_output(self, rng):
        # same sentence content at different positions must encode differently
        store, tables, params = setup_encoder(rng)
        call = vector_call(rng, n=4)
        base = encode_one(call, tables, params)
        rows = sentences_of(call)
        sentences = [rows[1], rows[0]] + rows[2:]
        for i, s in enumerate(sentences):
            s.position = i
        swapped = CallRecord(call.call_id, call.company_id, call.call_date, sentences)
        other = encode_one(swapped, tables, params)
        assert not np.array_equal(base, other)


class TestAppend:
    """Adding later calls to a quarter never moves an earlier call's embedding.

    A prefix of a quarter packs its calls into other chunks, of other row
    counts, than the full quarter does; the embeddings must not notice.
    """

    @pytest.mark.parametrize("config", ["small", "paper"])
    def test_date_prefixes_encode_bitwise_as_the_full_quarter(self, config, blas_build):
        model = VolatilityModel(ModelConfig(**(small_model() if config == "small" else {})))
        rng = np.random.default_rng(19)
        prefix_sizes = []
        for _ in range(2):
            corpus = SyntheticConfig(
                n_companies=int(rng.integers(40, 56)), n_quarters=3, d_s=model.config.d_s,
                call_slots=tuple(range(16, 44)),
            )
            data = gen_synthetic(corpus, seed=int(rng.integers(1 << 30)))
            quarters = sorted({Quarter.of_date(c.call_date) for c in data.transcripts},
                              key=lambda q: (q.year, q.q))
            quarter = quarters[int(rng.integers(len(quarters)))]
            calls = [c for c in data.transcripts if quarter.contains(c.call_date)]
            relations = RelationTable.from_rows([])

            def encode(subset):
                prepared = prepare_quarter(build_quarter_graph(subset, relations, quarter))
                with nc.no_grad():
                    rows = model.encode(prepared).data
                return {c.call_id: row for c, row in zip(prepared.graph.calls, rows)}

            full = encode(calls)
            kept = [min(len(c), model.config.max_sentences) for c in calls]
            assert sum(kept) + len(calls) > 512  # more packed rows than one chunk holds
            for date in sorted({c.call_date for c in calls})[:-1]:
                prefix = encode([c for c in calls if c.call_date <= date])
                prefix_sizes.append(len(prefix))
                for call_id, row in prefix.items():
                    assert np.array_equal(row, full[call_id]), (
                        f"{config}: call {call_id} in the {len(prefix)}-call prefix up to "
                        f"{date} differs from the full quarter on {blas_build}"
                    )
        assert min(prefix_sizes) < 19
