"""File ingestion and export.

Formats:
  transcripts.jsonl — one call per line:
      {"call_id": ..., "company_id": ..., "date": "YYYY-MM-DD",
       "sentences": [{"text"?, "vector"?, "utterance_idx", "role", "part"}, ...]}
  prices.csv    — company_id,date,adjusted_close
  relations.csv — company_a,company_b,year,similarity

Operator/moderator sentences are dropped at ingestion (the model knows
exactly two roles) and the drop is counted in the ingest report, as is
every call excluded outright. The report's accounting invariant is
calls_in == calls_kept + len(call_exclusions).
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..atomic import atomic_open
from ..errors import ParseError
from .records import CallRecord, PriceSeries, RelationRecord, Sentence

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

    def balanced(self) -> bool:
        return self.calls_in == self.calls_kept + len(self.call_exclusions)

    def to_json(self, path) -> None:
        with atomic_open(path) as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)


def _parse_date(s, where: str | None) -> dt.date:
    try:
        return dt.date.fromisoformat(str(s))
    except ValueError as e:
        raise ParseError(f"bad date {s!r}", path=where) from e


def load_transcripts(path, report: IngestReport | None = None) -> list[CallRecord]:
    """Read calls from JSONL, dropping operator sentences and empty calls."""
    path = Path(path)
    report = report if report is not None else IngestReport()
    calls: list[CallRecord] = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            report.calls_in += 1
            try:
                call = _parse_call(json.loads(line), report)
            except json.JSONDecodeError as e:
                raise ParseError("invalid JSON", path=str(path), line=lineno) from e
            except ParseError as e:
                raise ParseError(str(e), path=str(path), line=lineno) from e
            if call is None:
                continue
            calls.append(call)
            report.calls_kept += 1
    if not calls:
        log.warning("no calls loaded from %s", path)
    return calls


def _parse_call(obj, report: IngestReport) -> CallRecord | None:
    """Decode one JSON line; the rules of a call are ``validate_call``'s."""
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
        report.sentences_in += 1
        if s.get("role") in _DROP_ROLES:
            report.operator_sentences_dropped += 1
            continue
        if "utterance_idx" not in s:
            raise ParseError(f"call {call_id}: sentence {j} missing utterance_idx")
        vec = s.get("vector")
        if vec is not None:
            try:
                total = sum(vec)
                vec = np.asarray(vec, dtype=np.float64)
            except (TypeError, ValueError) as e:
                raise ParseError(f"call {call_id}: sentence {j} vector is not numeric") from e
            # a finite sum proves every entry finite, at a tenth of np.isfinite's cost
            if not math.isfinite(total) and not np.isfinite(vec).all():
                raise ParseError(f"call {call_id}: sentence {j} vector is not finite")
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
        report.sentences_kept += 1
    if not sentences:
        report.exclude_call(call_id, "no sentences left after role filtering")
        return None
    return CallRecord(call_id, str(obj["company_id"]), date, sentences)


def load_prices(path) -> list[PriceSeries]:
    """Read per-company adjusted closes; rows may arrive in any order.

    Columns are found by header name; a repeated name means its last
    column. Blank lines are skipped and do not count toward the line
    numbers in errors, as with ``csv.DictReader``.
    """
    path = Path(path)
    rows: dict[str, list[tuple[dt.date, float]]] = {}
    parsed: dict[str, dt.date] = {}  # companies share dates: parse each string once
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        column = {name: i for i, name in enumerate(next(reader, []))}
        expected = ("company_id", "date", "adjusted_close")
        if not set(expected).issubset(column):
            raise ParseError(
                f"prices header must contain {sorted(expected)}", path=str(path), line=1
            )
        i_company, i_date, i_close = (column[name] for name in expected)
        width = max(i_company, i_date, i_close) + 1
        lineno = 1
        for row in reader:
            if not row:
                continue
            lineno += 1
            if len(row) < width:
                row += [None] * (width - len(row))
            date = parsed.get(row[i_date])
            if date is None:
                date = parsed[row[i_date]] = _parse_date(row[i_date], f"{path}:{lineno}")
            try:
                close = float(row[i_close])
            except (TypeError, ValueError) as e:
                raise ParseError("bad adjusted_close", path=str(path), line=lineno) from e
            if not math.isfinite(close):
                raise ParseError(
                    f"non-finite adjusted_close {close}", path=str(path), line=lineno
                )
            if close <= 0:
                raise ParseError(
                    f"non-positive adjusted_close {close}", path=str(path), line=lineno
                )
            rows.setdefault(row[i_company], []).append((date, close))
    out = []
    for company_id in sorted(rows):
        pairs = sorted(rows[company_id])
        dates = [d for d, _ in pairs]
        if len(set(dates)) != len(dates):
            raise ParseError(f"{company_id}: duplicate trading dates", path=str(path))
        out.append(
            PriceSeries(company_id, dates, np.array([c for _, c in pairs], dtype=np.float64))
        )
    if not out:
        log.warning("no price rows loaded from %s", path)
    return out


def load_relations(path) -> list[RelationRecord]:
    path = Path(path)
    out: list[RelationRecord] = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"company_a", "company_b", "year", "similarity"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise ParseError(
                f"relations header must contain {sorted(expected)}", path=str(path), line=1
            )
        for lineno, row in enumerate(reader, start=2):
            if None in row.values():  # a short row; DictReader fills it with None
                missing = ", ".join(name for name, value in row.items() if value is None)
                raise ParseError(f"relation row has no {missing}", path=str(path), line=lineno)
            try:
                rec = RelationRecord(
                    company_a=row["company_a"],
                    company_b=row["company_b"],
                    effective_year=int(row["year"]),
                    similarity=float(row["similarity"]),
                )
            except (ValueError, ParseError) as e:
                raise ParseError(f"bad relation row: {e}", path=str(path), line=lineno) from e
            out.append(rec)
    if not out:
        log.warning("no relations loaded from %s", path)
    return out


# -- writers (round-trip partners of the loaders) -------------------------------


def write_transcripts(calls, path) -> None:
    with atomic_open(path) as fh:
        for call in calls:
            obj = {
                "call_id": call.call_id,
                "company_id": call.company_id,
                "date": call.call_date.isoformat(),
                "sentences": [
                    {
                        "utterance_idx": int(s.utterance_idx),
                        "role": s.role,
                        "part": s.part,
                        **({"text": s.text} if s.text is not None else {}),
                        **(
                            {"vector": [float(x) for x in s.vector]}
                            if s.vector is not None
                            else {}
                        ),
                    }
                    for s in call.sentences
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


def write_relations(relations, path) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["company_a", "company_b", "year", "similarity"])
        for r in relations:
            writer.writerow([r.company_a, r.company_b, r.effective_year, repr(float(r.similarity))])
