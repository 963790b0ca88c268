"""Ingestion: JSONL/CSV parsing, role filtering, accounting, round-trips."""

from __future__ import annotations

import csv
import datetime as dt
import json

import numpy as np
import pytest

from volgraph.dataio import loaders
from volgraph.dataio.loaders import (
    IngestReport,
    _csv_chunks,
    load_prices,
    load_relations,
    load_transcripts,
    write_prices,
    write_relations,
    write_transcripts,
)
from volgraph.dataio.records import (
    PARTS,
    RELATION_COLUMNS,
    ROLES,
    CallRecord,
    PriceSeries,
    Quarter,
    Sentence,
)
from volgraph.dialogue import SentenceBlock
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


COLUMNS = ("role", "part", "utterance", "has_vector", "vectors")


def assert_same_columns(a, b):
    """Two calls hold bitwise-equal columns, of the same dtypes."""
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    assert a.texts == b.texts


class TestTranscriptLoading:
    def test_basic_load(self, tmp_path):
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [call_obj()])
        calls = load_transcripts(p)
        assert len(calls) == 1
        call = calls[0]
        assert call.call_id == "C1-2016Q1"
        assert call.call_date == dt.date(2016, 2, 1)
        # one row per sentence, in list order
        assert len(call) == 3
        assert call.texts == ["Hello.", "Question?", "Answer."]
        assert call.utterance.tolist() == [0, 1, 2]

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
        # the kept sentences are the call's rows, dense after the drops
        assert len(calls[0]) == 2
        assert [ROLES[r] for r in calls[0].role] == ["executive", "analyst"]
        assert calls[0].texts == ["Hi.", "Why?"]

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
        assert report.calls_in == report.calls_kept + len(report.call_exclusions)

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
            # an integer vector entry beyond float64's range once ended in a bare
            # OverflowError, and an utterance index past int64 loaded
            (call_obj("C2-2016Q1", "C2", sentences=[
                {"utterance_idx": 0, "role": "analyst", "part": "qa", "vector": [1.0, 10**400]}]),
             "call C2-2016Q1: sentence 0 vector is not finite"),
            (call_obj("C2-2016Q1", "C2", sentences=[
                {"utterance_idx": 2**63, "role": "analyst", "part": "qa", "text": "?"}]),
             "call C2-2016Q1: sentence 0 utterance_idx 9223372036854775808 is above 2**63 - 1"),
            # a call's vectors are one matrix
            (call_obj("C2-2016Q1", "C2", sentences=[
                {"utterance_idx": 0, "role": "analyst", "part": "qa", "vector": [1.0, 2.0]},
                {"utterance_idx": 1, "role": "analyst", "part": "qa", "vector": [1.0, 2.0, 3.0]}]),
             "call C2-2016Q1: sentence 1 vector has 3 entries, the call's first vector 2"),
            # a bad vector is named before an earlier sentence's broken rule
            (call_obj("C2-2016Q1", "C2", sentences=[
                {"utterance_idx": -1, "role": "analyst", "part": "qa", "text": "?"},
                {"utterance_idx": 1, "role": "analyst", "part": "qa", "vector": ["x"]}]),
             "call C2-2016Q1: sentence 1 vector is not numeric"),
        ],
        ids=["number-line", "sentences-number", "sentence-number", "utterance-string",
             "text-number", "utterance-negative", "utterance-float", "vector-int-overflow",
             "utterance-past-int64", "vector-lengths", "vector-before-rule"],
    )
    def test_malformed_call_is_a_named_parse_error(self, tmp_path, line, message):
        # each of these once loaded, or ended in a TypeError, AttributeError or ValueError
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps(call_obj()) + "\n" + json.dumps(line) + "\n")
        with pytest.raises(ParseError) as err:
            load_transcripts(p)
        assert str(err.value) == f"{message} [{p}:2]"
        assert err.value.line == 2

    # one bad line of each kind: the line, and the message that names it
    BAD_LINES = {
        "json": ("{not json", "invalid JSON"),
        "field": (json.dumps({"call_id": "B-2016Q1", "date": "2016-02-01", "sentences": []}),
                  "call missing field 'company_id'"),
        "role": (json.dumps(call_obj("B-2016Q1", "B", sentences=[
            {"utterance_idx": 0, "role": "janitor", "part": "qa", "text": "?"}])),
            "call B-2016Q1: unknown role 'janitor' in sentence 0"),
        "decrease": (json.dumps(call_obj("B-2016Q1", "B", sentences=[
            {"utterance_idx": 2, "role": "analyst", "part": "qa", "text": "?"},
            {"utterance_idx": 1, "role": "analyst", "part": "qa", "text": "?"}])),
            "call B-2016Q1: utterance_idx decreases at position 1"),
        "vector": (json.dumps(call_obj("B-2016Q1", "B", sentences=[
            {"utterance_idx": 0, "role": "analyst", "part": "qa", "vector": [float("nan")]}])),
            "call B-2016Q1: sentence 0 vector is not finite"),
        "utterance": (json.dumps(call_obj("B-2016Q1", "B", sentences=[
            {"role": "analyst", "part": "qa", "text": "?"}])),
            "call B-2016Q1: sentence 0 missing utterance_idx"),
    }

    @pytest.mark.parametrize("second", sorted(BAD_LINES))
    @pytest.mark.parametrize("first", sorted(BAD_LINES))
    def test_the_first_bad_line_names_the_error(self, tmp_path, first, second):
        # the file is parsed line by line but checked as columns: a call that
        # breaks a rule or holds a bad vector still outranks a later line
        # that does not parse, and the reverse
        good = json.dumps(call_obj())
        p = tmp_path / "t.jsonl"
        p.write_text("\n".join([good, self.BAD_LINES[first][0], good,
                                self.BAD_LINES[second][0], good]) + "\n")
        with pytest.raises(ParseError) as err:
            load_transcripts(p)
        assert str(err.value) == f"{self.BAD_LINES[first][1]} [{p}:2]"
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
        np.testing.assert_allclose(call.vectors, [[0.1, 0.2, 0.3]])
        assert call.vectors.dtype == np.float64
        assert call.has_vector.tolist() == [True]

    @pytest.mark.parametrize(
        "value, message",
        [(float("nan"), "is not finite"), (float("inf"), "is not finite"), ("x", "is not numeric"),
         (None, "is not numeric")],
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
        assert load_transcripts(p)[0].vectors.tolist() == [[1e308, 1e308]]

    def test_integer_beyond_64_bits_loads_as_its_float(self, tmp_path):
        # numpy holds 2**64 in no integer dtype; a call's matrix still takes it
        sentences = [{"utterance_idx": 0, "role": "executive", "part": "presentation",
                      "vector": [1.0, 2**64]}]
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [call_obj(sentences=sentences)])
        assert load_transcripts(p)[0].vectors.tolist() == [[1.0, float(2**64)]]

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
            assert len(a) == len(b)
            assert_same_columns(a, b)

    def test_numpy_integer_utterance_index_round_trips(self, tmp_path):
        sentence = Sentence(np.int64(1), "analyst", "qa", 0, text="Why?")
        call = CallRecord("X-2016Q1", "X", dt.date(2016, 2, 1), [sentence])
        p = tmp_path / "t.jsonl"
        write_transcripts([call], p)
        (back,) = load_transcripts(p)
        assert back.utterance.tolist() == [1]
        assert (ROLES[back.role[0]], PARTS[back.part[0]], back.texts) == ("analyst", "qa", ["Why?"])


def sentence_dicts(kind, rng, n=7, d=4):
    """JSON sentences of a call whose rows are text, vector or a mix of both.

    Sentence 1 is an operator's, which loading drops.
    """
    out = []
    for j in range(n):
        part = "presentation" if j < 3 else "qa"
        s = {"utterance_idx": 0 if part == "presentation" else j,
             "role": "executive" if part == "presentation" or j % 2 else "analyst",
             "part": part}
        if kind == "text" or (kind == "mixed" and j % 3 == 0):
            s["text"] = f"Sentence {j} of a {kind} call, revenue up {j}%"
        else:
            s["vector"] = rng.normal(size=d).tolist()
        out.append(s)
    out[1]["role"] = "operator"
    return out


class TestColumns:
    def test_a_file_and_hand_built_calls_hold_the_same_columns(self, tmp_path):
        rng = np.random.default_rng(21)
        objs = [call_obj(f"{kind}-2016Q1", kind, sentences=sentence_dicts(kind, rng))
                for kind in ("text", "vector", "mixed", "text", "mixed")]
        p = tmp_path / "t.jsonl"
        write_jsonl(p, objs)
        report = IngestReport()
        loaded = load_transcripts(p, report=report)
        assert report.operator_sentences_dropped == len(objs)
        built = []
        for obj in objs:
            kept = [s for s in obj["sentences"] if s["role"] != "operator"]
            sentences = [
                Sentence(s["utterance_idx"], s["role"], s["part"], j, text=s.get("text"),
                         vector=None if "vector" not in s else np.array(s["vector"]))
                for j, s in enumerate(kept)
            ]
            built.append(CallRecord(obj["call_id"], obj["company_id"], dt.date(2016, 2, 1),
                                    sentences))
        for a, b in zip(loaded, built):
            assert len(a) == len(b) == 6
            assert_same_columns(a, b)
        # the encoder's rows, text hashed and vectors copied, are bitwise equal
        for max_sentences in (16, 4):
            blocks = [SentenceBlock.build(calls, 4, max_sentences, 3) for calls in (loaded, built)]
            for name in ("base", "position", "utterance", "role", "part", "inverse"):
                x, y = (getattr(block, name) for block in blocks)
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
            for (la, ra), (lb, rb) in zip(*(block.chunks for block in blocks), strict=True):
                assert np.array_equal(la, lb) and np.array_equal(ra, rb)

    @pytest.mark.parametrize(
        "j, attr, value, message",
        [
            (1, "role", "moderator", "unknown role 'moderator' in sentence 1"),
            (1, "text", 7, "sentence 1 text is a int, not a str"),
            (1, "utterance_idx", -1, "sentence 1 utterance_idx -1 is not an integer >= 0"),
            (1, "utterance_idx", 2**63,
             "sentence 1 utterance_idx 9223372036854775808 is above 2**63 - 1"),
            (0, "position", -1, "positions not strictly increasing at -1"),
            (1, "position", 0, "positions not strictly increasing at 0"),
            (1, "position", None, "sentence 1 position None is not a number"),
            (1, "position", "2", "sentence 1 position '2' is not a number"),
            (1, "position", [2], "sentence 1 position [2] is not a number"),
            (2, "position", float("nan"), "sentence 2 position nan is not a number"),
            (2, "part", "presentation", "part transitions qa→presentation at position 2"),
            (1, "vector", np.array([np.nan, 0.0]), "sentence 1 vector is not finite"),
            (1, "vector", [1.0, 10**400], "sentence 1 vector is not finite"),
            (1, "vector", ["x", 0.0], "sentence 1 vector is not numeric"),
            (1, "vector", np.ones(3), "sentence 1 vector has 3 entries, the call's first vector 2"),
        ],
    )
    def test_a_hand_built_call_is_checked_by_the_same_rules(self, j, attr, value, message):
        sentences = [Sentence(0, "executive", part, k, vector=np.ones(2))
                     for k, part in enumerate(("presentation", "qa", "qa"))]
        setattr(sentences[j], attr, value)
        with pytest.raises(ParseError) as err:
            CallRecord("H-1", "H", dt.date(2016, 2, 1), sentences)
        assert str(err.value) == f"call H-1: {message}"

    def test_calls_are_views_of_the_file_columns(self, tmp_path):
        rng = np.random.default_rng(22)
        p = tmp_path / "t.jsonl"
        write_jsonl(p, [call_obj(f"V{i}-2016Q1", f"V{i}", sentences=sentence_dicts("vector", rng))
                        for i in range(3)])
        first, *rest = load_transcripts(p)
        for call in rest:
            for name in ("role", "part", "utterance", "has_vector", "vectors"):
                assert np.shares_memory(getattr(first, name).base, getattr(call, name)), name


def joined_chunks(path, chunk_rows):
    """The header and the whole columns of ``_csv_chunks``, checking each chunk's size."""
    chunks = _csv_chunks(path)
    header = next(chunks)
    columns = [[] for _ in header or ()]
    for chunk in chunks:
        assert len(chunk) == len(columns)
        assert {len(part) for part in chunk} <= set(range(1, chunk_rows + 1))
        for whole, part in zip(columns, chunk):
            whole += part
    return header, columns


class TestCsvChunks:
    def test_columns_equal_csv_reader_rows(self, tmp_path, monkeypatch):
        # random texts over the characters csv.reader treats specially, and
        # files whose rows mostly have the header's width: both read as rows
        # of csv.reader do, in chunks of at most _CHUNK_ROWS rows
        rng = np.random.default_rng(9)
        path = tmp_path / "t.csv"
        plain = 0
        for trial in range(1500):
            chunk_rows = int(rng.integers(1, 4))
            monkeypatch.setattr(loaders, "_CHUNK_ROWS", chunk_rows)
            width = int(rng.integers(1, 5))
            if trial % 2:
                # one field count per line, the header's, except now and then
                counts = np.full(rng.integers(1, 6), width)
                counts[rng.integers(0, len(counts))] += rng.choice([0, 0, 0, 0, -1, 1, 2])
                lines = [
                    ",".join("".join(rng.choice(list("ab é1."), size=rng.integers(0, 4)))
                             for _ in range(count))
                    for count in counts
                ]
                text = rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n", "\r\n"])
            else:
                text = "".join(rng.choice(list('ab,,\n\r" '), size=rng.integers(0, 30)))
            with open(path, "w", newline="") as fh:
                fh.write(text)
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                rows = [row for row in reader if row]
            columns = [[row[i] if i < len(row) else None for row in rows]
                       for i in range(len(header or ()))]
            assert joined_chunks(path, chunk_rows) == (header, columns), repr(text)
            plain += trial % 2 and width > 1 and (counts == width).all()
        assert plain > 200


    @pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
    @pytest.mark.parametrize(
        "loader,header,body,message",
        [
            ("prices", "company_id,date,adjusted_close",
             "A,2016-01-05,1.0\nA,2016-01-06,1.0\n\nA,2016-13-05,2.0\n",
             "bad date '2016-13-05' [{}:4]"),
            ("prices", "company_id,date,adjusted_close",
             "A,2016-01-05,1.0\nA,2016-01-06,1.0\nA,2016-01-07,-2\n",
             "non-positive adjusted_close -2.0 [{}:4]"),
            ("prices", "company_id,date,adjusted_close",
             "A,2016-01-05,1.0\nB,2016-01-05,1.0\nA,2016-01-05,2.0\n",
             "A: duplicate trading dates [{}]"),
            # a bad date outranks an earlier row without a company_id
            ("prices", "date,adjusted_close,company_id",
             "2016-01-05,1.0\n2016-01-06,1.0,A\n2016-13-07,1.0,A\n",
             "bad date '2016-13-07' [{}:4]"),
            ("prices", "date,adjusted_close,company_id",
             "2016-01-05,1.0,A\n2016-01-06,1.0,A\n2016-01-07,1.0\n",
             "prices row has no company_id [{}:4]"),
            ("relations", "company_a,company_b,year,similarity",
             "A,B,2015,0.4\nC,D,2015,0.5\nA,A,2015,0.2\n",
             "bad relation row: relation pairs a company with itself: A [{}:4]"),
            ("relations", "company_a,company_b,year,similarity",
             "A,B,2015,0.4\nA,B,2015,0.4\nA,B,2015\n", "relation row has no similarity [{}:4]"),
            ("relations", "company_a,company_b,year,similarity",
             "A,A,2015,0.2\nA,B,x,0.4\n",
             "bad relation row: relation pairs a company with itself: A [{}:2]"),
        ],
        ids=["date", "close", "duplicate", "date-first", "company", "self-pair", "short",
             "rule-first"],
    )
    def test_the_first_bad_row_wins_across_chunks(
        self, tmp_path, monkeypatch, chunk_rows, loader, header, body, message
    ):
        monkeypatch.setattr(loaders, "_CHUNK_ROWS", chunk_rows)
        p = tmp_path / f"{loader}.csv"
        p.write_text(f"{header}\n{body}")
        load = load_prices if loader == "prices" else load_relations
        with pytest.raises(ParseError) as err:
            load(p)
        assert str(err.value) == message.format(p)

    @pytest.mark.parametrize("chunk_rows", [1, 3])
    def test_chunks_load_what_one_chunk_loads(
        self, tmp_path, monkeypatch, chunk_rows, small_corpus
    ):
        write_prices(small_corpus.prices, tmp_path / "p.csv")
        write_relations(small_corpus.relations, tmp_path / "r.csv")
        prices, relations = load_prices(tmp_path / "p.csv"), load_relations(tmp_path / "r.csv")
        monkeypatch.setattr(loaders, "_CHUNK_ROWS", chunk_rows)
        for a, b in zip(prices, load_prices(tmp_path / "p.csv"), strict=True):
            assert (a.company_id, a.dates) == (b.company_id, b.dates)
            assert a.closes.tobytes() == b.closes.tobytes()
        back = load_relations(tmp_path / "r.csv")
        for name in RELATION_COLUMNS:
            assert np.array_equal(getattr(back, name), getattr(relations, name))


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
            # two spellings of one date are one trading date
            ("C,2016-01-05,1.0\nB,2016-01-05,1.0\nB,20160105,2.0\nC,20160105,2.0\n",
             "B: duplicate trading dates [{}]"),
            ("A,2016-01-05,1.0\nA,2016-01-06,-1\nA,2016-13-05,2.0\n",
             "non-positive adjusted_close -1.0 [{}:3]"),
        ],
        ids=["date", "close", "non-positive", "nan", "inf", "-inf", "duplicate", "spellings",
             "first-bad-row"],
    )
    def test_error_messages_and_line_numbers(self, tmp_path, body, message):
        # blank lines are skipped and not counted, as csv.DictReader does
        p = tmp_path / "p.csv"
        p.write_text("company_id,date,adjusted_close\n" + body)
        with pytest.raises(ParseError) as err:
            load_prices(p)
        assert str(err.value) == message.format(p)

    def test_row_without_company_id_is_named(self, tmp_path):
        # a short row can lack the company alone when its column comes last
        p = tmp_path / "p.csv"
        p.write_text("date,adjusted_close,company_id\n2016-01-05,1.0,A\n2016-01-06,1.0\n")
        with pytest.raises(ParseError) as err:
            load_prices(p)
        assert str(err.value) == f"prices row has no company_id [{p}:3]"

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
            # the loader hands over its ordinals; a series built by hand derives them
            assert s.days.dtype == orig.days.dtype == np.int64
            assert s.days.tolist() == orig.days.tolist() == [d.toordinal() for d in s.dates]

    def test_given_days_must_fit_the_dates(self):
        dates = [dt.date(2016, 1, 4), dt.date(2016, 1, 5)]
        with pytest.raises(ParseError, match="A: dates/days length mismatch"):
            PriceSeries("A", dates, [1.0, 2.0], np.array([736000]))
        for days in (np.array([736001, 736001]), None):
            with pytest.raises(ParseError, match="A: trading dates not strictly increasing"):
                PriceSeries("A", dates if days is not None else dates[::-1], [1.0, 2.0], days)


class TestRelationLoading:
    def test_load_and_fields(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("company_a,company_b,year,similarity\nA,B,2015,0.42\n")
        table = load_relations(p)
        assert table.company_a.tolist() == ["A"] and table.company_b.tolist() == ["B"]
        assert table.year.tolist() == [2015] and table.similarity.tolist() == [0.42]

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

    @pytest.mark.parametrize(
        "body,message",
        [
            ("A,B,2015,0.4\n\nA,A,2015,0.2\nA,B,x,0.2\n",
             "bad relation row: relation pairs a company with itself: A [{}:3]"),
            ("A,B,2015,0.4\nA,B,x,0.2\nA,A,2015,0.2\n",
             "bad relation row: invalid literal for int() with base 10: 'x' [{}:3]"),
            ("A,B,2015,0.4\nA,B,2015,nan\nA,B,2015,\n",
             "bad relation row: similarity nan outside [0,1] for A-B [{}:3]"),
            ("A,B,2015,abc\nA,B\n",
             "bad relation row: could not convert string to float: 'abc' [{}:2]"),
            ("A,B,2015,0.4\nA,B,2015\nA,B,2015,2.0\n", "relation row has no similarity [{}:3]"),
        ],
        ids=["self-pair", "year", "nan", "similarity", "short"],
    )
    @pytest.mark.parametrize("chunk_rows", [1, 4096])
    def test_first_bad_row_names_the_error(self, tmp_path, monkeypatch, chunk_rows, body, message):
        # blank lines are skipped and not counted, as csv.DictReader does; a
        # row that breaks a rule outranks a later chunk's row that does not parse
        monkeypatch.setattr(loaders, "_CHUNK_ROWS", chunk_rows)
        p = tmp_path / "r.csv"
        p.write_text("company_a,company_b,year,similarity\n" + body)
        with pytest.raises(ParseError) as err:
            load_relations(p)
        assert str(err.value) == message.format(p)

    def test_columns_found_by_header_name(self, tmp_path):
        # a repeated name means its last column; a column past the four is ignored
        p = tmp_path / "r.csv"
        p.write_text("year,similarity,company_b,company_a,year,note\n1,0.3,B,A,2015,x\n")
        table = load_relations(p)
        assert (table.company_a.tolist(), table.company_b.tolist()) == (["A"], ["B"])
        assert (table.year.tolist(), table.similarity.tolist()) == ([2015], [0.3])
        assert {year: rows.tolist() for year, rows in table.by_year.items()} == {2015: [0]}

    def test_round_trip(self, tmp_path, small_corpus):
        p = tmp_path / "r.csv"
        write_relations(small_corpus.relations, p)
        back = load_relations(p)
        for name in RELATION_COLUMNS:
            assert np.array_equal(getattr(back, name), getattr(small_corpus.relations, name))


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
