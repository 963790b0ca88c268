"""Ingestion: JSONL/CSV parsing, role filtering, accounting, round-trips."""

from __future__ import annotations

import datetime as dt
import json

import numpy as np
import pytest

from volgraph.dataio.loaders import (
    IngestReport,
    load_prices,
    load_relations,
    load_transcripts,
    write_prices,
    write_relations,
    write_transcripts,
)
from volgraph.dataio.records import CallRecord, PriceSeries, Quarter, RelationRecord, Sentence
from volgraph.errors import ParseError


def call_obj(call_id="C1-2016Q1", company="C1", date="2016-02-01", sentences=None):
    if sentences is None:
        sentences = [
            {"utterance_idx": 0, "role": "executive", "part": "presentation", "text": "Hello."},
            {"utterance_idx": 1, "role": "analyst", "part": "qa", "text": "Question?"},
            {"utterance_idx": 2, "role": "executive", "part": "qa", "text": "Answer."},
        ]
    return {"call_id": call_id, "company_id": company, "date": date, "sentences": sentences}


def write_jsonl(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))


class TestTranscriptLoading:
    def test_basic_load(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [call_obj()])
        calls = load_transcripts(p)
        assert len(calls) == 1
        call = calls[0]
        assert call.call_id == "C1-2016Q1"
        assert call.call_date == dt.date(2016, 2, 1)
        assert [s.position for s in call.sentences] == [0, 1, 2]

    def test_operator_sentences_dropped_and_counted(self, tmp_path):
        sentences = [
            {"utterance_idx": 0, "role": "operator", "part": "presentation", "text": "Welcome."},
            {"utterance_idx": 1, "role": "executive", "part": "presentation", "text": "Hi."},
            {"utterance_idx": 2, "role": "moderator", "part": "qa", "text": "Next."},
            {"utterance_idx": 3, "role": "analyst", "part": "qa", "text": "Why?"},
        ]
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [call_obj(sentences=sentences)])
        report = IngestReport()
        calls = load_transcripts(p, report=report)
        assert report.operator_sentences_dropped == 2
        assert report.sentences_in == 4
        assert report.sentences_kept == 2
        # positions are reassigned to stay dense after the drops
        assert [s.position for s in calls[0].sentences] == [0, 1]
        assert [s.role for s in calls[0].sentences] == ["executive", "analyst"]

    def test_call_of_only_operator_sentences_is_excluded(self, tmp_path):
        sentences = [
            {"utterance_idx": 0, "role": "operator", "part": "presentation", "text": "Welcome."}
        ]
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [call_obj(sentences=sentences), call_obj(call_id="C2", company="C2")])
        report = IngestReport()
        calls = load_transcripts(p, report=report)
        assert len(calls) == 1
        assert report.calls_in == 2
        assert report.calls_kept == 1
        assert report.call_exclusions[0]["call_id"] == "C1-2016Q1"
        assert report.balanced()

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps(call_obj()) + "\n{not json\n")
        with pytest.raises(ParseError) as exc:
            load_transcripts(p)
        assert exc.value.line == 2

    def test_missing_field_rejected(self, tmp_path):
        obj = call_obj()
        del obj["company_id"]
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [obj])
        with pytest.raises(ParseError, match="company_id"):
            load_transcripts(p)

    def test_unknown_role_rejected(self, tmp_path):
        obj = call_obj(
            sentences=[{"utterance_idx": 0, "role": "janitor", "part": "qa", "text": "?"}]
        )
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [obj])
        with pytest.raises(ParseError, match="janitor"):
            load_transcripts(p)

    def test_sentence_without_text_or_vector_rejected(self, tmp_path):
        obj = call_obj(sentences=[{"utterance_idx": 0, "role": "analyst", "part": "qa"}])
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [obj])
        with pytest.raises(ParseError, match="neither text nor vector"):
            load_transcripts(p)

    def test_qa_before_presentation_rejected(self, tmp_path):
        sentences = [
            {"utterance_idx": 0, "role": "analyst", "part": "qa", "text": "Early?"},
            {"utterance_idx": 1, "role": "executive", "part": "presentation", "text": "Late."},
        ]
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [call_obj(sentences=sentences)])
        with pytest.raises(ParseError):
            load_transcripts(p)

    @pytest.mark.parametrize(
        "line, message",
        [
            (5, "line is not a JSON object"),
            (call_obj("C2-2016Q1", "C2", sentences=5), "call C2-2016Q1: sentences is not a list"),
            (call_obj("C2-2016Q1", "C2", sentences=[5]),
             "call C2-2016Q1: sentence 0 is not a JSON object"),
            (call_obj("C2-2016Q1", "C2", sentences=[
                {"utterance_idx": "x", "role": "analyst", "part": "qa", "text": "?"}]),
             "call C2-2016Q1: sentence 0 utterance_idx 'x' is not an integer >= 0"),
            (call_obj("C2-2016Q1", "C2", sentences=[
                {"utterance_idx": 0, "role": "analyst", "part": "qa", "text": 5}]),
             "call C2-2016Q1: sentence 0 text is a int, not a str"),
            (call_obj("C2-2016Q1", "C2", sentences=[
                {"utterance_idx": -1, "role": "analyst", "part": "qa", "text": "?"}]),
             "call C2-2016Q1: sentence 0 utterance_idx -1 is not an integer >= 0"),
            (call_obj("C2-2016Q1", "C2", sentences=[
                {"utterance_idx": 0, "role": "executive", "part": "presentation", "text": "."},
                {"utterance_idx": 1.7, "role": "analyst", "part": "qa", "text": "?"}]),
             "call C2-2016Q1: sentence 1 utterance_idx 1.7 is not an integer >= 0"),
        ],
        ids=["number-line", "sentences-number", "sentence-number", "utterance-string",
             "text-number", "utterance-negative", "utterance-float"],
    )
    def test_malformed_call_is_a_named_parse_error(self, tmp_path, line, message):
        # each of these once loaded, or ended in a TypeError, AttributeError or ValueError
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps(call_obj()) + "\n" + json.dumps(line) + "\n")
        with pytest.raises(ParseError) as err:
            load_transcripts(p)
        assert str(err.value) == f"{message} [{p}:2]"
        assert err.value.line == 2

    def test_vector_sentences_load_as_arrays(self, tmp_path):
        obj = call_obj(
            sentences=[
                {
                    "utterance_idx": 0,
                    "role": "executive",
                    "part": "presentation",
                    "vector": [0.1, 0.2, 0.3],
                }
            ]
        )
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [obj])
        call = load_transcripts(p)[0]
        np.testing.assert_allclose(call.sentences[0].vector, [0.1, 0.2, 0.3])
        assert call.sentences[0].vector.dtype == np.float64

    @pytest.mark.parametrize(
        "value, message",
        [(float("nan"), "is not finite"), (float("inf"), "is not finite"), ("x", "is not numeric")],
    )
    def test_bad_vector_rejected(self, tmp_path, value, message):
        sentences = [
            {"utterance_idx": 0, "role": "executive", "part": "presentation", "vector": [0.1, 0.2]},
            {"utterance_idx": 1, "role": "analyst", "part": "qa", "vector": [0.3, value]},
        ]
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [call_obj(), call_obj("C2-2016Q1", "C2", sentences=sentences)])
        with pytest.raises(ParseError, match=f"call C2-2016Q1: sentence 1 vector {message}") as err:
            load_transcripts(p)
        assert err.value.line == 2

    def test_vector_whose_sum_overflows_loads(self, tmp_path):
        sentences = [{"utterance_idx": 0, "role": "executive", "part": "presentation",
                      "vector": [1e308, 1e308]}]
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [call_obj(sentences=sentences)])
        assert load_transcripts(p)[0].sentences[0].vector.tolist() == [1e308, 1e308]

    def test_empty_file_warns_and_returns_empty(self, tmp_path, caplog):
        p = tmp_path / "t.jsonl"
        p.write_text("")
        with caplog.at_level("WARNING"):
            assert load_transcripts(p) == []
        assert any("no calls" in m for m in caplog.messages)

    def test_round_trip_preserves_everything(self, tmp_path, small_corpus):
        p = tmp_path / "t.jsonl"
        write_transcripts(small_corpus.transcripts, p)
        back = load_transcripts(p)
        assert len(back) == len(small_corpus.transcripts)
        for a, b in zip(small_corpus.transcripts, back):
            assert a.call_id == b.call_id
            assert a.call_date == b.call_date
            assert len(a.sentences) == len(b.sentences)
            for sa, sb in zip(a.sentences, b.sentences):
                assert (sa.utterance_idx, sa.role, sa.part) == (
                    sb.utterance_idx,
                    sb.role,
                    sb.part,
                )
                np.testing.assert_array_equal(sa.vector, sb.vector)

    def test_numpy_integer_utterance_index_round_trips(self, tmp_path):
        sentence = Sentence(np.int64(1), "analyst", "qa", 0, text="Why?")
        call = CallRecord("X-2016Q1", "X", dt.date(2016, 2, 1), [sentence])
        p = tmp_path / "t.jsonl"
        write_transcripts([call], p)
        (back,) = load_transcripts(p)
        s = back.sentences[0]
        assert (s.utterance_idx, s.role, s.part, s.text) == (1, "analyst", "qa", "Why?")


class TestPriceLoading:
    def test_rows_sorted_per_company(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text(
            "company_id,date,adjusted_close\n"
            "B,2016-01-05,10.0\n"
            "A,2016-01-06,21.0\n"
            "A,2016-01-05,20.0\n"
        )
        series = load_prices(p)
        assert [s.company_id for s in series] == ["A", "B"]
        assert series[0].dates[0] == dt.date(2016, 1, 5)
        np.testing.assert_allclose(series[0].closes, [20.0, 21.0])

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("company,when,price\nA,2016-01-05,1.0\n")
        with pytest.raises(ParseError):
            load_prices(p)

    def test_duplicate_date_rejected(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text(
            "company_id,date,adjusted_close\nA,2016-01-05,1.0\nA,2016-01-05,2.0\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_prices(p)

    def test_nonpositive_close_rejected(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("company_id,date,adjusted_close\nA,2016-01-05,-1.0\n")
        with pytest.raises(ParseError):
            load_prices(p)

    @pytest.mark.parametrize(
        "body,message",
        [
            ("A,2016-01-05,1.0\n\nA,2016-13-05,2.0\n", "bad date '2016-13-05' [{}:3]"),
            ("A,2016-01-05,1.0\nA,2016-01-06,abc\n", "bad adjusted_close [{}:3]"),
            ("A,2016-01-05,1.0\n\n\nA,2016-01-06,0\n", "non-positive adjusted_close 0.0 [{}:3]"),
            ("A,2016-01-05,1.0\nA,2016-01-06,nan\n", "non-finite adjusted_close nan [{}:3]"),
            ("A,2016-01-05,inf\n", "non-finite adjusted_close inf [{}:2]"),
            ("A,2016-01-05,1.0\n\nA,2016-01-06,-inf\n", "non-finite adjusted_close -inf [{}:3]"),
            ("A,2016-01-05,1.0\nB,2016-01-05,1.0\nB,2016-01-05,2.0\n",
             "B: duplicate trading dates [{}]"),
        ],
        ids=["date", "close", "non-positive", "nan", "inf", "-inf", "duplicate"],
    )
    def test_error_messages_and_line_numbers(self, tmp_path, body, message):
        # blank lines are skipped and not counted, as csv.DictReader does
        p = tmp_path / "p.csv"
        p.write_text("company_id,date,adjusted_close\n" + body)
        with pytest.raises(ParseError) as err:
            load_prices(p)
        assert str(err.value) == message.format(p)

    def test_missing_header_column_message(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("company_id,date\nA,2016-01-05\n")
        with pytest.raises(ParseError) as err:
            load_prices(p)
        assert str(err.value) == (
            f"prices header must contain ['adjusted_close', 'company_id', 'date'] [{p}:1]"
        )

    def test_columns_found_by_header_name(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text(
            "adjusted_close,note,date,company_id\n"
            "3.5,x,2016-01-05,Z\n"
            "2.5,y,2016-01-04,Z\n"
            "4.5,,2016-01-04,Y\n"
        )
        series = load_prices(p)
        assert [s.company_id for s in series] == ["Y", "Z"]
        assert series[1].dates == [dt.date(2016, 1, 4), dt.date(2016, 1, 5)]
        np.testing.assert_array_equal(series[1].closes, [2.5, 3.5])

    def test_short_row_rejected(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("company_id,date,adjusted_close\nA,2016-01-05\n")
        with pytest.raises(ParseError, match="bad adjusted_close"):
            load_prices(p)

    def test_round_trip_bitwise(self, tmp_path, small_corpus):
        p = tmp_path / "p.csv"
        write_prices(small_corpus.prices, p)
        back = load_prices(p)
        assert len(back) == len(small_corpus.prices)
        by_id = {s.company_id: s for s in small_corpus.prices}
        for s in back:
            orig = by_id[s.company_id]
            assert s.dates == orig.dates
            # repr() round-trips float64 exactly
            np.testing.assert_array_equal(s.closes, orig.closes)


class TestRelationLoading:
    def test_load_and_fields(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("company_a,company_b,year,similarity\nA,B,2015,0.42\n")
        recs = load_relations(p)
        assert recs == [RelationRecord("A", "B", 2015, 0.42)]

    def test_self_relation_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("company_a,company_b,year,similarity\nA,A,2015,0.2\n")
        with pytest.raises(ParseError):
            load_relations(p)

    def test_similarity_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("company_a,company_b,year,similarity\nA,B,2015,1.5\n")
        with pytest.raises(ParseError):
            load_relations(p)

    def test_short_row_names_the_line(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("company_a,company_b,year,similarity\nA,B,2015,0.42\nA,B\n")
        with pytest.raises(ParseError) as err:
            load_relations(p)
        assert str(err.value) == f"relation row has no year, similarity [{p}:3]"

    def test_round_trip(self, tmp_path, small_corpus):
        p = tmp_path / "r.csv"
        write_relations(small_corpus.relations, p)
        assert load_relations(p) == small_corpus.relations


class TestQuarter:
    def test_parse_and_str(self):
        q = Quarter.parse("2016Q3")
        assert (q.year, q.q) == (2016, 3)
        assert str(q) == "2016Q3"

    def test_parse_rejects_garbage(self):
        for bad in ("2016", "Q3", "2016Q5", "2016q0", "20x6Q1"):
            with pytest.raises(ParseError):
                Quarter.parse(bad)

    def test_bounds_and_contains(self):
        q = Quarter(2016, 4)
        assert q.start == dt.date(2016, 10, 1)
        assert q.end == dt.date(2016, 12, 31)
        assert q.contains(dt.date(2016, 12, 31))
        assert not q.contains(dt.date(2017, 1, 1))

    def test_next_wraps_year(self):
        assert Quarter(2016, 4).next() == Quarter(2017, 1)
        assert Quarter(2016, 2).next() == Quarter(2016, 3)

    def test_of_date(self):
        assert Quarter.of_date(dt.date(2016, 5, 17)) == Quarter(2016, 2)

    def test_ordering_is_chronological(self):
        assert Quarter(2015, 4) < Quarter(2016, 1) < Quarter(2016, 3)
