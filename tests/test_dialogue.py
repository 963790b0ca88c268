"""Dialogue encoding: featurization, CLS readout, batching invariances,
and gradients through the whole encoder."""

from __future__ import annotations

import datetime as dt
import re
import zlib

import numpy as np
import pytest

import volgraph.numcore as nc
from volgraph.dataio.records import CallRecord, Sentence
from volgraph.dialogue import (
    DialogueEncoderParams,
    StructEmbedTables,
    encode_calls,
    encode_dialogue,
    encode_featurized_batch,
    featurize_sentences,
    hash_featurizer,
)
from volgraph.errors import ConfigError, ShapeError
from volgraph.numcore.gradcheck import grad_check
from volgraph.numcore.layers import transformer_encoder_layer
from volgraph.numcore.params import ParamStore

D_S = 6


def setup_encoder(rng, n_layers=1, d_hidden=8, max_sentences=16, max_utterances=8):
    store = ParamStore()
    tables = StructEmbedTables.init(
        store, rng, d_p=2, d_u=2, d_r=2, d_q=2,
        max_sentences=max_sentences, max_utterances=max_utterances,
    )
    params = DialogueEncoderParams.init(
        store, rng, d_in=D_S + tables.total_dim, d_hidden=d_hidden,
        n_layers=n_layers, n_heads=2, d_ff=12,
    )
    return store, tables, params


def vector_call(rng, call_id="C-1", n=5, d_s=D_S, date=dt.date(2016, 2, 3)):
    sentences = []
    for pos in range(n):
        part = "presentation" if pos < 2 else "qa"
        sentences.append(
            Sentence(
                utterance_idx=0 if part == "presentation" else 1 + (pos % 2),
                role="executive" if part == "presentation" or pos % 2 else "analyst",
                part=part,
                position=pos,
                vector=rng.normal(size=d_s),
            )
        )
    return CallRecord(call_id, "C", date, sentences)


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
        def per_sentence(text, d_s):
            vec = np.zeros(d_s, dtype=np.float64)
            for token in re.findall(r"[a-z0-9]+", text.lower()):
                vec[zlib.crc32(token.encode("utf-8")) % d_s] += 1.0
            norm = np.linalg.norm(vec)
            if norm > 0:
                vec /= norm
            return vec

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
        for d_s in (7, 16, 768):
            got = hash_featurizer(texts, d_s=d_s)
            want = np.stack([per_sentence(t, d_s) for t in texts])
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    def test_no_texts_gives_empty_matrix(self):
        assert hash_featurizer([], d_s=8).shape == (0, 8)


class TestFeaturize:
    def test_feature_width_is_base_plus_tables(self, rng):
        store, tables, params = setup_encoder(rng)
        call = vector_call(rng)
        feats = featurize_sentences(call, tables, d_s=D_S)
        assert feats.shape == (5, D_S + tables.total_dim)

    def test_rows_concatenate_the_right_table_entries(self, rng):
        store, tables, params = setup_encoder(rng)
        call = vector_call(rng, n=3)
        feats = featurize_sentences(call, tables, d_s=D_S).data
        s = call.sentences[2]
        row = feats[2]
        np.testing.assert_array_equal(row[:D_S], s.vector)
        got_pos = row[D_S : D_S + 2]
        np.testing.assert_array_equal(got_pos, tables.position.data[2])
        got_utt = row[D_S + 2 : D_S + 4]
        np.testing.assert_array_equal(got_utt, tables.utterance.data[s.utterance_idx])

    def test_truncation_to_position_table(self, rng):
        store, tables, params = setup_encoder(rng, max_sentences=4)
        call = vector_call(rng, n=9)
        feats = featurize_sentences(call, tables, d_s=D_S)
        assert feats.shape[0] == 4

    def test_utterance_index_clamps(self, rng):
        store, tables, params = setup_encoder(rng, max_utterances=2)
        call = vector_call(rng, n=6)
        call.sentences[-1].utterance_idx = 99
        feats = featurize_sentences(call, tables, d_s=D_S).data
        np.testing.assert_array_equal(
            feats[-1, D_S + 2 : D_S + 4], tables.utterance.data[1]
        )

    def test_dim_mismatch_raises(self, rng):
        store, tables, params = setup_encoder(rng)
        call = vector_call(rng, d_s=4)
        with pytest.raises(ShapeError):
            featurize_sentences(call, tables, d_s=D_S)

    def test_text_without_featurizer_raises(self, rng):
        store, tables, params = setup_encoder(rng)
        call = CallRecord(
            "T-1", "T", dt.date(2016, 2, 3),
            [Sentence(0, "executive", "presentation", 0, text="Hello.")],
        )
        with pytest.raises(ConfigError):
            featurize_sentences(call, tables)

    def test_text_sentences_go_through_featurizer(self, rng):
        store, tables, params = setup_encoder(rng)
        call = CallRecord(
            "T-1", "T", dt.date(2016, 2, 3),
            [Sentence(0, "executive", "presentation", 0, text="Revenue grew.")],
        )
        feats = featurize_sentences(
            call, tables, featurizer=lambda t: hash_featurizer(t, d_s=D_S), d_s=D_S
        )
        np.testing.assert_array_equal(
            feats.data[0, :D_S], hash_featurizer(["Revenue grew."], d_s=D_S)[0]
        )

    def test_featurizer_called_once_per_call_with_text_rows_only(self, rng):
        store, tables, params = setup_encoder(rng)
        call = CallRecord(
            "T-1", "T", dt.date(2016, 2, 3),
            [
                Sentence(0, "executive", "presentation", 0, text="Revenue grew."),
                Sentence(0, "executive", "presentation", 1, vector=rng.normal(size=D_S)),
                Sentence(1, "analyst", "qa", 2, text="Why did MARGINS fall?"),
            ],
        )
        seen = []

        def featurizer(texts):
            seen.append(list(texts))
            return hash_featurizer(texts, d_s=D_S)

        feats = featurize_sentences(call, tables, featurizer=featurizer, d_s=D_S).data
        assert seen == [["Revenue grew.", "Why did MARGINS fall?"]]
        np.testing.assert_array_equal(feats[1, :D_S], call.sentences[1].vector)
        np.testing.assert_array_equal(
            feats[[0, 2], :D_S], hash_featurizer(["Revenue grew.", "Why did MARGINS fall?"], D_S)
        )


class TestEncode:
    def test_embedding_shape(self, rng):
        store, tables, params = setup_encoder(rng)
        call = vector_call(rng)
        v = encode_dialogue(featurize_sentences(call, tables, d_s=D_S), params)
        assert v.shape == (8,)

    def test_zero_layers_returns_projected_cls(self, rng):
        # with no transformer layers the readout is exactly the CLS row
        store, tables, params = setup_encoder(rng, n_layers=0)
        call = vector_call(rng)
        v = encode_dialogue(featurize_sentences(call, tables, d_s=D_S), params)
        np.testing.assert_array_equal(v.data, params.cls.data[0])

    def test_batch_composition_never_changes_an_embedding(self, rng):
        # equal-length grouping means a call's embedding is a function of
        # that call alone -- bitwise, not approximately
        store, tables, params = setup_encoder(rng)
        calls = [vector_call(rng, call_id=f"C-{i}", n=5) for i in range(6)]
        solo = [
            encode_dialogue(featurize_sentences(c, tables, d_s=D_S), params).data
            for c in calls
        ]
        together = encode_calls(calls, tables, params, d_s=D_S).data
        for i in range(6):
            assert np.array_equal(together[i], solo[i])

    def test_encode_calls_restores_input_order_across_length_groups(self, rng):
        store, tables, params = setup_encoder(rng)
        lengths = [7, 3, 5, 3, 7, 4]
        calls = [vector_call(rng, call_id=f"C-{i}", n=n) for i, n in enumerate(lengths)]
        got = encode_calls(calls, tables, params, d_s=D_S).data
        for i, c in enumerate(calls):
            solo = encode_dialogue(featurize_sentences(c, tables, d_s=D_S), params).data
            assert np.array_equal(got[i], solo), f"call {i} out of order"

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("n", [1, 5])
    def test_readout_matches_cls_row_of_full_last_layer(self, rng, n_layers, n):
        # the last layer computes only the CLS query; running it in full
        # and taking the CLS row must agree to rounding
        store, tables, params = setup_encoder(rng, n_layers=n_layers)
        calls = [vector_call(rng, call_id=f"C-{i}", n=n) for i in range(3)]
        x = np.stack([featurize_sentences(c, tables, d_s=D_S).data for c in calls])
        got = encode_featurized_batch(nc.Tensor(x), params).data

        h = x @ params.proj_w.data.T + params.proj_b.data
        h = np.concatenate([np.broadcast_to(params.cls.data, (3, 1, 8)), h], axis=1)
        for layer in params.layers:
            h = transformer_encoder_layer(nc.Tensor(h), layer, params.n_heads).data
        assert got.shape == (3, 8)
        np.testing.assert_allclose(got, h[:, 0], rtol=0, atol=1e-12)

    def test_gradients_flow_into_tables_and_all_layers(self, rng):
        store, tables, params = setup_encoder(rng)
        calls = [vector_call(rng, call_id=f"C-{i}", n=n) for i, n in enumerate((3, 4, 3))]
        w = rng.normal(size=(3, 8))

        def loss():
            out = encode_calls(calls, tables, params, d_s=D_S)
            return nc.sum_(nc.mul(out, nc.Tensor(w)))

        report = grad_check(loss, store, tol=1e-4)
        assert report.passed, report.summary()
        assert report.n_checked == store.n_scalars()

    def test_position_table_changes_output(self, rng):
        # same sentence content at different positions must encode differently
        store, tables, params = setup_encoder(rng)
        call = vector_call(rng, n=4)
        base = encode_dialogue(featurize_sentences(call, tables, d_s=D_S), params).data
        swapped = CallRecord(
            call.call_id, call.company_id, call.call_date,
            [call.sentences[1], call.sentences[0]] + call.sentences[2:],
        )
        for i, s in enumerate(swapped.sentences):
            s.position = i
        other = encode_dialogue(featurize_sentences(swapped, tables, d_s=D_S), params).data
        assert not np.array_equal(base, other)
