"""File ingestion and export.

Formats:
  transcripts.jsonl — one call per line:
      {"call_id": ..., "company_id": ..., "date": "YYYY-MM-DD",
       "sentences": [{"text"?, "vector"?, "utterance_idx", "role", "part"}, ...]}
  prices.csv    — company_id,date,adjusted_close
  relations.csv — company_a,company_b,year,similarity

Every file is read and written as UTF-8, and a leading byte-order mark
is skipped on reading; a byte that does not decode raises the reader's
error, naming the file and the line (counting blank lines too).

Operator/moderator sentences are dropped at ingestion (the model knows
exactly two roles) and the drop is counted in the ingest report, as is
every call excluded outright. The report's accounting invariant is
calls_in == calls_kept + len(call_exclusions).

Transcripts load as column tables: the kept sentences of the whole file
become role and part codes, an int64 utterance column, a has-vector
mask with one float64 vector matrix, and the texts, each made once for
the file and checked once with the rules of a call; each ``CallRecord``
holds views of its rows. ``write_transcripts`` writes from the same
columns.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from itertools import compress, islice
from pathlib import Path

import numpy as np

from ..atomic import atomic_open
from ..errors import ParseError
from .records import (
    PARTS,
    RELATION_COLUMNS,
    ROLES,
    CallRecord,
    PriceSeries,
    RelationTable,
    Sentence,
    broken_rule,
    sentence_columns,
    vector_matrix,
    vector_problem,
)

log = logging.getLogger(__name__)

_DROP_ROLES = ("operator", "moderator")


@dataclass
class IngestReport:
    """Counts in = counts out + itemized exclusions, machine-checkable."""

    calls_in: int = 0
    calls_kept: int = 0
    sentences_in: int = 0
    sentences_kept: int = 0
    operator_sentences_dropped: int = 0
    call_exclusions: list = field(default_factory=list)
    label_exclusions: list = field(default_factory=list)

    def exclude_call(self, call_id: str, reason: str) -> None:
        self.call_exclusions.append({"call_id": call_id, "reason": reason})

    def to_json(self, path) -> None:
        with atomic_open(path) as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)


@contextlib.contextmanager
def utf8_errors(path, error=ParseError):
    """Turn a ``UnicodeDecodeError`` in the block, from reading ``path``, into ``error``.

    The error names ``path`` and its first line that is not UTF-8.
    """
    try:
        yield
    except UnicodeDecodeError as e:
        line = None  # unknown if the file changed since it failed to decode
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as first:
            line = data.count(b"\n", 0, first.start) + 1
        if error is ParseError:
            raise ParseError("not UTF-8 text", path=str(path), line=line) from e
        raise error(f"{path}:{line}: not UTF-8 text") from e


def _parse_date(s, where: str | None) -> dt.date:
    try:
        return dt.date.fromisoformat(str(s))
    except ValueError as e:
        raise ParseError(f"bad date {s!r}", path=where) from e


def load_transcripts(path, report: IngestReport | None = None) -> list[CallRecord]:
    """Read calls from JSONL, dropping operator sentences and empty calls.

    The file is read as columns: each field of a line's kept sentences is
    gathered by one comprehension onto the file's lists, each column is
    made once for the whole file (``sentence_columns``, ``vector_matrix``),
    and the rules of a call are checked once over the file's columns
    (``broken_rule``). Every call's columns are views of the file's. The
    first line that does not parse or breaks a rule names the error: that
    line is read again sentence by sentence (``_parse_call``) for the
    message, once the lines before it are checked.
    """
    path = Path(path)
    report = report if report is not None else IngestReport()
    columns = _TranscriptColumns(path)
    with path.open(encoding="utf-8-sig") as fh, utf8_errors(path):
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            report.calls_in += 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                columns.calls()  # an earlier line's error comes first
                raise ParseError("invalid JSON", path=str(path), line=lineno) from e
            if not columns.add(obj, lineno, report):
                columns.calls()
                _raise_line_error(obj, path, lineno)
    calls = columns.calls()
    report.calls_kept += len(calls)
    if not calls:
        log.warning("no calls loaded from %s", path)
    return calls


_MISSING = object()


class _TranscriptColumns:
    """The kept sentences of a transcripts file's calls, gathered field by field."""

    def __init__(self, path: Path):
        self.path = path
        self.call_ids, self.company_ids, self.dates, self.lines, self.lengths = [], [], [], [], []
        self.roles, self.parts, self.utterances, self.texts, self.vectors = [], [], [], [], []

    def add(self, obj, lineno: int, report: IngestReport) -> bool:
        """Gather one parsed line; False if it does not read as a call (nothing is kept)."""
        try:
            call_id, company_id = str(obj["call_id"]), str(obj["company_id"])
            date = dt.date.fromisoformat(str(obj["date"]))
            sentences = obj["sentences"]
            roles = [s.get("role") for s in sentences]
        except (TypeError, KeyError, ValueError, AttributeError):
            return False
        if type(sentences) is not list:
            return False
        n_in = len(sentences)
        if "operator" in roles or "moderator" in roles:
            keep = [role not in _DROP_ROLES for role in roles]
            sentences, roles = list(compress(sentences, keep)), list(compress(roles, keep))
        utterances = [s.get("utterance_idx", _MISSING) for s in sentences]
        if _MISSING in utterances:
            return False
        report.sentences_in += n_in
        report.operator_sentences_dropped += n_in - len(sentences)
        if not sentences:
            report.exclude_call(call_id, "no sentences left after role filtering")
            return True
        report.sentences_kept += len(sentences)
        self.call_ids.append(call_id)
        self.company_ids.append(company_id)
        self.dates.append(date)
        self.lines.append(lineno)
        self.lengths.append(len(sentences))
        self.roles += roles
        self.utterances += utterances
        self.parts += [s.get("part") for s in sentences]
        self.texts += [s.get("text") for s in sentences]
        self.vectors += [s.get("vector") for s in sentences]
        return True

    def calls(self) -> list[CallRecord]:
        """The gathered calls, or the ParseError of the first one that is bad."""
        lengths = np.array(self.lengths, dtype=np.intp)
        role, part, utterance, has_vector = sentence_columns(
            self.roles, self.parts, self.utterances, self.vectors
        )
        broken = broken_rule(self.company_ids, lengths, role, part, utterance, has_vector,
                             self.texts)
        first_bad = len(lengths) if broken is None else broken[0]
        ends = np.cumsum(lengths)
        bounds = np.concatenate([[0], np.cumsum(has_vector)])[np.append(0, ends)].tolist()
        kept = [v for v in self.vectors if v is not None]
        matrix = vector_matrix(kept)
        if matrix is None:  # calls of vectors of other lengths, or a bad vector
            matrices = [vector_matrix(kept[a:b]) for a, b in zip(bounds, bounds[1:])]
            first_bad = min(first_bad, next(
                (i for i, m in enumerate(matrices) if m is None), len(lengths)
            ))
        else:
            matrices = [matrix[a:b] if a < b else vector_matrix([])
                        for a, b in zip(bounds, bounds[1:])]
        if first_bad < len(lengths):
            lineno = self.lines[first_bad]
            with self.path.open(encoding="utf-8-sig") as fh:
                line = next(islice(fh, lineno - 1, None))
            _raise_line_error(json.loads(line), self.path, lineno)
        ends = ends.tolist()
        return [
            CallRecord.from_columns(call_id, company_id, date, role[a:b], part[a:b],
                                    utterance[a:b], has_vector[a:b], vectors, self.texts[a:b])
            for call_id, company_id, date, a, b, vectors in zip(
                self.call_ids, self.company_ids, self.dates, [0] + ends, ends, matrices
            )
        ]


def _raise_line_error(obj, path: Path, lineno: int):
    """Raise the ParseError, with its line, of a parsed JSON line that does not load as a call."""
    try:
        _parse_call(obj)
    except ParseError as e:
        raise ParseError(str(e), path=str(path), line=lineno) from e
    raise ParseError("call does not load", path=str(path), line=lineno)


def _parse_call(obj) -> CallRecord | None:
    """Decode one JSON line sentence by sentence; the rules of a call are ``CallRecord``'s.

    The first sentence that is not an object, lacks its utterance_idx or
    has a bad vector names the error, before any rule of the call.
    """
    if not isinstance(obj, dict):
        raise ParseError("line is not a JSON object")
    for key in ("call_id", "company_id", "date", "sentences"):
        if key not in obj:
            raise ParseError(f"call missing field {key!r}")
    call_id = str(obj["call_id"])
    date = _parse_date(obj["date"], None)
    if not isinstance(obj["sentences"], list):
        raise ParseError(f"call {call_id}: sentences is not a list")
    sentences: list[Sentence] = []
    for j, s in enumerate(obj["sentences"]):
        if not isinstance(s, dict):
            raise ParseError(f"call {call_id}: sentence {j} is not a JSON object")
        if s.get("role") in _DROP_ROLES:
            continue
        if "utterance_idx" not in s:
            raise ParseError(f"call {call_id}: sentence {j} missing utterance_idx")
        vec = s.get("vector")
        problem = None if vec is None else vector_problem(vec)
        if problem is not None:
            raise ParseError(f"call {call_id}: sentence {j} vector {problem}")
        sentences.append(
            Sentence(
                utterance_idx=s["utterance_idx"],
                role=s.get("role"),
                part=s.get("part"),
                position=len(sentences),
                text=s.get("text"),
                vector=vec,
            )
        )
    if not sentences:
        return None
    return CallRecord(call_id, str(obj["company_id"]), date, sentences)


# data rows split at a time: a file's fields are never all alive at once
_CHUNK_ROWS = 1024


def _csv_chunks(path: Path):
    """The header row of a CSV file, then its data rows in chunks, one sequence per header column.

    The header is the first row ``csv.reader`` reads (None for an empty
    file). Blank lines after it are skipped, and a data row of another
    width than the header's is cut or padded with None to that width.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh, utf8_errors(path):
        reader = csv.reader(fh)
        header = next(reader, None)
        yield header
        width = len(header or ())
        rows = filter(None, reader)
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            if {*map(len, chunk)} == {width}:
                yield list(zip(*chunk))
            else:
                yield [[row[i] if i < len(row) else None for row in chunk] for i in range(width)]


def load_prices(path) -> list[PriceSeries]:
    """Read per-company adjusted closes; rows may arrive in any order.

    Columns are found by header name; a repeated name means its last
    column. Blank lines are skipped and do not count toward the line
    numbers in errors, as with ``csv.DictReader``. The first row whose date
    does not parse or whose close is not a finite positive number names the
    error, with its line; then the first row without a company_id does.
    """
    path = Path(path)
    chunks = _csv_chunks(path)
    column = {name: i for i, name in enumerate(next(chunks) or ())}
    expected = ("company_id", "date", "adjusted_close")
    if not set(expected).issubset(column):
        raise ParseError(f"prices header must contain {sorted(expected)}", path=str(path), line=1)
    i_company, i_date, i_close = (column[name] for name in expected)
    companies: dict[str, int] = {}  # company id -> code, in first-seen order
    dates: dict[str, int] = {}  # companies share dates: parse each string once
    unique_dates: list[dt.date] = []
    codes, date_codes, closes = [], [], []
    lineno = 2  # of the chunk's first row
    no_company = 0  # line of the first row without a company_id
    for columns in chunks:
        company_ids, date_texts, close_texts = columns[i_company], columns[i_date], columns[i_close]
        try:
            new = [text for text in dict.fromkeys(date_texts) if text not in dates]
            unique_dates += map(dt.date.fromisoformat, new)
            dates.update(zip(new, range(len(dates), len(unique_dates))))
            parsed = np.array(list(map(float, close_texts)), dtype=np.float64)
            if not (np.isfinite(parsed) & (parsed > 0)).all():
                raise ValueError("a close that is not a finite positive number")
        except (TypeError, ValueError):
            _raise_first_bad_price_row(path, lineno, date_texts, close_texts)
            raise
        if not no_company and None in company_ids:
            no_company = lineno + company_ids.index(None)
        for company_id in dict.fromkeys(company_ids):
            companies.setdefault(company_id, len(companies))
        codes.append(np.fromiter(map(companies.__getitem__, company_ids), np.intp, len(parsed)))
        date_codes.append(np.fromiter(map(dates.__getitem__, date_texts), np.intp, len(parsed)))
        closes.append(parsed)
        lineno += len(parsed)
    if no_company:
        raise ParseError("prices row has no company_id", path=str(path), line=no_company)
    if not companies:
        log.warning("no price rows loaded from %s", path)
        return []
    # sort the rows by (company id, date); a repeated date sits in adjacent rows
    names = sorted(companies)
    rank = np.empty(len(names), dtype=np.intp)
    rank[[companies[name] for name in names]] = np.arange(len(names))
    company = rank[np.concatenate(codes)]
    ordinals = np.fromiter(map(dt.date.toordinal, unique_dates), np.int64, len(unique_dates))
    date_code = np.concatenate(date_codes)
    order = np.lexsort((ordinals[date_code], company))
    company, date_code = company[order], date_code[order]
    day = ordinals[date_code]
    repeated = np.flatnonzero((company[1:] == company[:-1]) & (day[1:] == day[:-1]))
    if repeated.size:
        raise ParseError(f"{names[company[repeated[0]]]}: duplicate trading dates", path=str(path))
    date = np.array(unique_dates, dtype=object)[date_code]
    close = np.concatenate(closes)[order]
    bounds = np.searchsorted(company, np.arange(len(names) + 1))
    return [
        PriceSeries(name, date[lo:hi].tolist(), close[lo:hi], day[lo:hi])
        for name, lo, hi in zip(names, bounds[:-1], bounds[1:])
    ]


def _raise_first_bad_price_row(path: Path, first: int, date_texts: list, close_texts: list):
    """Raise the ParseError of the first bad date or close; row 0 is on line ``first``."""
    for lineno, (date, close) in enumerate(zip(date_texts, close_texts), start=first):
        _parse_date(date, f"{path}:{lineno}")
        try:
            close = float(close)
        except (TypeError, ValueError) as e:
            raise ParseError("bad adjusted_close", path=str(path), line=lineno) from e
        if not math.isfinite(close):
            raise ParseError(f"non-finite adjusted_close {close}", path=str(path), line=lineno)
        if close <= 0:
            raise ParseError(f"non-positive adjusted_close {close}", path=str(path), line=lineno)


def load_relations(path) -> RelationTable:
    """Read company-pair similarities as one column table.

    Columns are found by header name; a repeated name means its last
    column. Blank lines are skipped and do not count toward the line
    numbers in errors, as with ``csv.DictReader``. The first row that is
    short, does not parse or breaks ``RelationTable``'s rules names the
    error, with its line.
    """
    path = Path(path)
    chunks = _csv_chunks(path)
    header = next(chunks)
    if header is None or not set(RELATION_COLUMNS).issubset(header):
        raise ParseError(
            f"relations header must contain {sorted(RELATION_COLUMNS)}", path=str(path), line=1
        )
    column = {name: i for i, name in enumerate(header)}
    columns = ([], [], [], [])
    try:
        for chunk in chunks:
            if None in chunk[-1]:
                raise ValueError("a short row")
            a, b, years, similarities = (chunk[column[name]] for name in RELATION_COLUMNS)
            for values, parsed in zip(columns, (a, b, map(int, years), map(float, similarities))):
                values += parsed
        table = RelationTable(*columns)
    except (ValueError, OverflowError, ParseError):
        _raise_first_bad_relation_row(path, column)
        raise
    if not len(table):
        log.warning("no relations loaded from %s", path)
    return table


def _raise_first_bad_relation_row(path: Path, column: dict):
    """Raise the ParseError of the first short, unparsable or rule-breaking row of ``path``."""
    chunks = _csv_chunks(path)
    next(chunks)
    lineno = 1
    for chunk in chunks:
        for row in zip(*chunk):
            lineno += 1
            missing = ", ".join(name for name, i in column.items() if row[i] is None)
            if missing:
                raise ParseError(f"relation row has no {missing}", path=str(path), line=lineno)
            a, b, year, similarity = (row[column[name]] for name in RELATION_COLUMNS)
            try:
                RelationTable([a], [b], [int(year)], [float(similarity)])
            except (ValueError, OverflowError, ParseError) as e:
                raise ParseError(f"bad relation row: {e}", path=str(path), line=lineno) from e


# -- writers (round-trip partners of the loaders) -------------------------------


def write_transcripts(calls, path) -> None:
    """Write calls as JSONL from their columns; ``load_transcripts`` reads the same columns back."""
    with atomic_open(path) as fh:
        for call in calls:
            vectors = iter(call.vectors.tolist())
            rows = zip(call.utterance.tolist(), call.role.tolist(), call.part.tolist(),
                       call.texts, call.has_vector.tolist())
            obj = {
                "call_id": call.call_id,
                "company_id": call.company_id,
                "date": call.call_date.isoformat(),
                "sentences": [
                    {
                        "utterance_idx": utterance,
                        "role": ROLES[role],
                        "part": PARTS[part],
                        **({"text": text} if text is not None else {}),
                        **({"vector": next(vectors)} if has_vector else {}),
                    }
                    for utterance, role, part, text, has_vector in rows
                ],
            }
            fh.write(json.dumps(obj) + "\n")


def write_prices(series_list, path) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["company_id", "date", "adjusted_close"])
        for series in series_list:
            for d, c in zip(series.dates, series.closes):
                writer.writerow([series.company_id, d.isoformat(), repr(float(c))])


def write_relations(relations: RelationTable, path) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RELATION_COLUMNS)
        writer.writerows(
            zip(
                relations.company_a.tolist(),
                relations.company_b.tolist(),
                relations.year.tolist(),
                map(repr, relations.similarity.tolist()),
            )
        )
