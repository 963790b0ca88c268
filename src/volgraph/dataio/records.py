"""Domain records: transcripts, prices, relations, quarters.

Each record checks its own rules when built, so the loaders, the
synthetic generator and hand-built records share one set of rules. A
call keeps its sentences as columns (``CallRecord``), and the rules of a
call are checked over columns (``broken_rule``): once for a hand-built
call, once for a whole transcripts file.
"""

from __future__ import annotations

import datetime as dt
import numbers
from dataclasses import InitVar, dataclass, field
from itertools import repeat
from operator import attrgetter, is_, is_not
from typing import Sequence

import numpy as np

from ..errors import ParseError

ROLES = ("executive", "analyst")
PARTS = ("presentation", "qa")
_ROLE_CODES = {role: i for i, role in enumerate(ROLES)}
_PART_CODES = {part: i for i, part in enumerate(PARTS)}
_MAX_UTTERANCE = np.iinfo(np.int64).max


@dataclass
class Sentence:
    """One transcript sentence with structural attributes: a row of a hand-built call.

    Either ``text`` or ``vector`` may be missing, never both: real corpora
    ship text, the synthetic generator ships vectors directly.
    """

    utterance_idx: int
    role: str
    part: str
    position: int
    text: str | None = None
    vector: np.ndarray | None = None


@dataclass(eq=False)
class CallRecord:
    """One earnings call, its kept sentences as columns: row j is sentence j.

    - ``role``, ``part``: (n,) int8 codes into ``ROLES`` and ``PARTS``;
    - ``utterance``: (n,) int64 utterance indices;
    - ``has_vector``: (n,) bool, the sentences that carry a vector;
    - ``vectors``: (k, d) float64, the vectors of those k sentences in row
      order (k = 0 for a call without one);
    - ``texts``: n entries, each a str or None.

    ``CallRecord(call_id, company_id, call_date, sentences)`` makes the
    columns from a list of ``Sentence``s and checks them: the vectors
    first (each numeric and finite, all of one length), then the rules of
    a call (``broken_rule``), where the sentences' positions must be
    numbers that increase strictly. Positions are not kept: row order is
    sentence order. ``load_transcripts`` makes the columns of a whole file
    at once and checks them in one ``broken_rule``.
    """

    call_id: str
    company_id: str
    call_date: dt.date
    sentences: InitVar[Sequence[Sentence]]
    role: np.ndarray = field(init=False, repr=False)
    part: np.ndarray = field(init=False, repr=False)
    utterance: np.ndarray = field(init=False, repr=False)
    has_vector: np.ndarray = field(init=False, repr=False)
    vectors: np.ndarray = field(init=False, repr=False)
    texts: list = field(init=False, repr=False)

    def __post_init__(self, sentences):
        rows = list(sentences)
        roles, parts, utterances, vectors, self.texts = (
            list(map(attrgetter(name), rows))
            for name in ("role", "part", "utterance_idx", "vector", "text")
        )
        self.role, self.part, self.utterance, self.has_vector = sentence_columns(
            roles, parts, utterances, vectors
        )
        kept = [v for v in vectors if v is not None]
        self.vectors = vector_matrix(kept)
        if self.vectors is None:
            j, problem = _first_vector_problem(kept)
            j = int(np.flatnonzero(self.has_vector)[j])
            raise ParseError(f"call {self.call_id}: sentence {j} vector {problem}")
        # a position that is not a number sorts below any other, so the
        # position rule breaks at its row
        positions = np.array([p if _is_number(p) else -np.inf
                              for p in map(attrgetter("position"), rows)])
        broken = broken_rule([self.company_id], np.array([len(rows)]), self.role, self.part,
                             self.utterance, self.has_vector, self.texts, positions)
        if broken is not None:
            _, j, rule = broken
            raise ParseError(_rule_message(self.call_id, rule, j, None if j is None else rows[j]))

    @classmethod
    def from_columns(cls, call_id, company_id, call_date, role, part, utterance, has_vector,
                     vectors, texts) -> "CallRecord":
        """A call of the given columns, unchecked: ``load_transcripts`` checks a file's at once."""
        call = cls.__new__(cls)
        call.call_id, call.company_id, call.call_date = call_id, company_id, call_date
        call.role, call.part, call.utterance = role, part, utterance
        call.has_vector, call.vectors, call.texts = has_vector, vectors, texts
        return call

    def __len__(self) -> int:
        return len(self.role)


def sentence_columns(roles: list, parts: list, utterances: list, vectors: list):
    """The role, part, utterance and has-vector columns of sentences given field by field.

    A role or part outside ``ROLES`` or ``PARTS`` codes as -1, and an
    utterance index that is not an integer in 0..2**63 - 1 as -1, for
    ``broken_rule`` to find.
    """
    n = len(roles)
    return (
        _codes(roles, _ROLE_CODES),
        _codes(parts, _PART_CODES),
        _utterance_column(utterances),
        np.fromiter(map(is_not, vectors, repeat(None)), bool, n),
    )


def _codes(values: list, codes: dict) -> np.ndarray:
    try:
        return np.fromiter(map(codes.get, values, repeat(-1)), np.int8, len(values))
    except TypeError:  # an unhashable value
        return np.array([codes.get(v, -1) if isinstance(v, str) else -1 for v in values], np.int8)


def _utterance_column(values: list) -> np.ndarray:
    if {*map(type, values)} <= {int} and (
        not values or (min(values) >= 0 and max(values) <= _MAX_UTTERANCE)
    ):
        return np.array(values, dtype=np.int64)
    return np.array([v if _is_utterance(v) else -1 for v in values], dtype=np.int64)


def _is_utterance(v) -> bool:
    return type(v) is not bool and isinstance(v, (int, np.integer)) and 0 <= v <= _MAX_UTTERANCE


def vector_matrix(vectors: list) -> np.ndarray | None:
    """The sentence vectors as one finite (k, d) float64 matrix, or None if they make none.

    An entry must be a number (bools count as 0 and 1); one that is not,
    one that is not finite (an integer beyond float64's range too) or two
    vectors of different lengths make no matrix.
    """
    if not vectors:
        return np.zeros((0, 0))
    try:
        matrix = _float64(vectors, 2)
    except (TypeError, ValueError, OverflowError):
        return None
    return matrix if np.isfinite(matrix).all() else None


def _float64(values, ndim: int) -> np.ndarray:
    """``values`` as a float64 array of ``ndim`` dimensions.

    Raises TypeError or ValueError for an entry that is not a number, for
    ragged rows or for other dimensions, and OverflowError for an integer
    beyond float64's range.
    """
    array = np.array(values)
    if array.ndim != ndim:
        raise ValueError(f"{array.ndim} dimensions, not {ndim}")
    if array.dtype == object:  # an integer beyond 64 bits, or an entry that is no number
        if not all(isinstance(x, numbers.Real) for x in array.flat):
            raise TypeError("an entry is not a number")
        return array.astype(np.float64)
    if array.dtype.kind not in "biuf":
        raise TypeError("an entry is not a number")
    return array.astype(np.float64, copy=False)


def _first_vector_problem(vectors: list) -> tuple[int, str]:
    """(index, problem) of the first of ``vectors`` that keeps them from a matrix.

    Run after ``vector_matrix`` refused them: the problem is "is not
    numeric", "is not finite" or, when each vector is a finite row, the
    first vector whose length differs from the first one's.
    """
    for j, vector in enumerate(vectors):
        problem = vector_problem(vector)
        if problem is not None:
            return j, problem
    j = next(j for j, v in enumerate(vectors) if len(v) != len(vectors[0]))
    return j, f"has {len(vectors[j])} entries, the call's first vector {len(vectors[0])}"


def vector_problem(vector) -> str | None:
    """Why one sentence vector cannot be a matrix row: "is not numeric", "is not finite" or None."""
    try:
        row = _float64(vector, 1)
    except OverflowError:
        return "is not finite"
    except (TypeError, ValueError):
        return "is not numeric"
    return None if np.isfinite(row).all() else "is not finite"


# the rules of a sentence, in the order each sentence is checked
_ROW_RULES = ("role", "part", "content", "text", "utterance", "position", "decrease", "qa")


def broken_rule(
    company_ids: Sequence[str],
    lengths: np.ndarray,
    role: np.ndarray,
    part: np.ndarray,
    utterance: np.ndarray,
    has_vector: np.ndarray,
    texts: Sequence,
    positions: np.ndarray | None = None,
) -> tuple[int, int | None, str] | None:
    """The first rule of a call that the given calls break, or None.

    The calls' columns are given back to back (``sentence_columns``), call
    i holding ``lengths[i]`` rows. A call has a non-empty company_id and at
    least one sentence; then, sentence by sentence, each has a known role
    and part, a text or a vector, a text that is a str, and an integer
    utterance index in 0..2**63 - 1; its position (``positions``, of
    hand-built calls; otherwise row order) is above the previous
    sentence's, its utterance index not below it, and no presentation
    sentence follows the Q&A. Returns (call index, row in the call or None
    for a rule of the whole call, rule name) of the first call that breaks
    one, at its first sentence that does, naming the first rule there.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    n = len(role)
    firsts = starts[lengths > 0]
    no_text = np.fromiter(map(is_, texts, repeat(None)), bool, n)
    if {*map(type, texts)} <= {str, type(None)}:
        not_str = np.zeros(n, dtype=bool)
    else:
        not_str = np.array([t is not None and not isinstance(t, str) for t in texts], dtype=bool)
    is_qa = (part == PARTS.index("qa")).astype(np.intp)
    qa_before = np.cumsum(is_qa) - is_qa  # Q&A rows before each row, in the whole file
    qa_before -= np.repeat(np.append(qa_before, 0)[starts], lengths)
    masks = {
        "role": role < 0,
        "part": part < 0,
        "content": no_text & ~has_vector,
        "text": not_str,
        "utterance": utterance < 0,
        "position": positions <= _previous(positions, firsts, -1)
        if positions is not None
        else np.zeros(n, dtype=bool),
        "decrease": utterance < _previous(utterance, firsts, 0),
        "qa": (part == PARTS.index("presentation")) & (qa_before > 0),
    }
    bad_rows = np.flatnonzero(np.logical_or.reduce([masks[rule] for rule in _ROW_RULES]))
    row_call = len(lengths)
    if bad_rows.size:
        row_call = int(np.searchsorted(starts, bad_rows[0], side="right")) - 1
    whole = next(
        (i for i, (company, k) in enumerate(zip(company_ids, lengths.tolist()))
         if not company or not k),
        len(lengths),
    )
    if whole <= row_call and whole < len(lengths):
        return whole, None, "company" if not company_ids[whole] else "empty"
    if row_call == len(lengths):
        return None
    row = int(bad_rows[0])
    rule = next(rule for rule in _ROW_RULES if masks[rule][row])
    return row_call, row - int(starts[row_call]), rule


def _previous(column: np.ndarray, firsts: np.ndarray, first) -> np.ndarray:
    """Each row's previous row of ``column`` in its call; ``first`` at a call's first row."""
    out = np.empty(column.shape, np.result_type(column, first))
    out[1:] = column[:-1]
    out[firsts] = first
    return out


def _is_number(x) -> bool:
    """A real number that is not NaN: a sentence position that can be ordered."""
    return isinstance(x, numbers.Real) and x == x


def _rule_message(call_id: str, rule: str, j: int | None, s: Sentence | None) -> str:
    """The error of hand-built call ``call_id`` breaking ``rule`` at sentence j, ``s``."""
    ctx = f"call {call_id}"
    if rule == "company":
        return f"{ctx}: empty company_id"
    if rule == "empty":
        return f"{ctx} has no sentences"
    if rule in ("role", "part"):
        return f"{ctx}: unknown {rule} {getattr(s, rule)!r} in sentence {j}"
    if rule == "content":
        return f"{ctx}: sentence {j} has neither text nor vector"
    if rule == "text":
        return f"{ctx}: sentence {j} text is a {type(s.text).__name__}, not a str"
    if rule == "utterance":
        utt = s.utterance_idx
        if type(utt) is not bool and isinstance(utt, (int, np.integer)) and utt > 0:
            return f"{ctx}: sentence {j} utterance_idx {utt!r} is above 2**63 - 1"
        return f"{ctx}: sentence {j} utterance_idx {utt!r} is not an integer >= 0"
    if rule == "position":
        if not _is_number(s.position):
            return f"{ctx}: sentence {j} position {s.position!r} is not a number"
        return f"{ctx}: positions not strictly increasing at {s.position}"
    if rule == "decrease":
        return f"{ctx}: utterance_idx decreases at position {s.position}"
    return f"{ctx}: part transitions qa→presentation at position {s.position}"


@dataclass
class PriceSeries:
    """Per-company adjusted closes on strictly increasing trading dates.

    Two columns are kept beside them: ``days``, the (L,) int64 date
    ordinals, derived from ``dates`` unless given (``load_prices`` gives
    the ordinals it already holds), and ``returns``, the (L-1,) simple
    returns, where ``returns[i - 1]`` is trading day i's return.
    """

    company_id: str
    dates: list[dt.date]
    closes: np.ndarray
    days: np.ndarray | None = field(default=None, repr=False)
    returns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.closes = np.asarray(self.closes, dtype=np.float64)
        if len(self.dates) != self.closes.shape[0]:
            raise ParseError(f"{self.company_id}: dates/closes length mismatch")
        if self.days is None:
            self.days = np.fromiter(
                map(dt.date.toordinal, self.dates), dtype=np.int64, count=len(self.dates)
            )
        elif len(self.days) != len(self.dates):
            raise ParseError(f"{self.company_id}: dates/days length mismatch")
        if np.any(np.diff(self.days) <= 0):
            raise ParseError(f"{self.company_id}: trading dates not strictly increasing")
        if not np.isfinite(self.closes).all():
            raise ParseError(f"{self.company_id}: non-finite adjusted close")
        if np.any(self.closes <= 0):
            raise ParseError(f"{self.company_id}: non-positive adjusted close")
        self.returns = self.closes[1:] / self.closes[:-1] - 1.0

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True, order=True)
class Quarter:
    year: int
    q: int

    def __post_init__(self):
        if not 1 <= self.q <= 4:
            raise ParseError(f"quarter index {self.q} outside 1..4")
        if not dt.MINYEAR <= self.year <= dt.MAXYEAR:
            raise ParseError(f"year {self.year} outside {dt.MINYEAR}..{dt.MAXYEAR}")

    @property
    def start(self) -> dt.date:
        return dt.date(self.year, 3 * (self.q - 1) + 1, 1)

    @property
    def end(self) -> dt.date:
        if self.q == 4:
            return dt.date(self.year, 12, 31)
        return dt.date(self.year, 3 * self.q + 1, 1) - dt.timedelta(days=1)

    def contains(self, d: dt.date) -> bool:
        return self.start <= d <= self.end

    def next(self) -> "Quarter":
        return Quarter(self.year + 1, 1) if self.q == 4 else Quarter(self.year, self.q + 1)

    @classmethod
    def of_date(cls, d: dt.date) -> "Quarter":
        return cls(d.year, (d.month - 1) // 3 + 1)

    @classmethod
    def parse(cls, s: str) -> "Quarter":
        try:
            year, q = s.upper().split("Q")
            return cls(int(year), int(q))
        except (ValueError, TypeError) as e:
            raise ParseError(f"bad quarter {s!r}, expected e.g. 2016Q3") from e

    def __str__(self) -> str:
        return f"{self.year}Q{self.q}"


RELATION_COLUMNS = ("company_a", "company_b", "year", "similarity")


@dataclass(eq=False)
class RelationTable:
    """Undirected company-pair similarities as parallel columns, in input order.

    Row k says companies ``company_a[k]`` and ``company_b[k]`` were
    ``similarity[k]`` alike in effective year ``year[k]``. ``by_year`` maps
    each effective year to its row ids in input order. A row that pairs a
    company with itself or has a similarity outside [0, 1] raises
    ``ParseError``; the first such row names the error.
    """

    company_a: np.ndarray  # (R,) object, str company ids
    company_b: np.ndarray  # (R,) object, str company ids
    year: np.ndarray  # (R,) int64 effective year
    similarity: np.ndarray  # (R,) float64 in [0, 1]
    by_year: dict[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        for name, dtype in zip(RELATION_COLUMNS, (object, object, np.int64, np.float64)):
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({len(getattr(self, name)) for name in RELATION_COLUMNS}) != 1:
            raise ParseError("relation columns must be of equal length")
        a, b, sim = self.company_a, self.company_b, self.similarity
        bad = np.flatnonzero((a == b) | ~((sim >= 0.0) & (sim <= 1.0)))
        if bad.size:
            k = bad[0]
            if a[k] == b[k]:
                raise ParseError(f"relation pairs a company with itself: {a[k]}")
            raise ParseError(f"similarity {float(sim[k])} outside [0,1] for {a[k]}-{b[k]}")
        order = np.argsort(self.year, kind="stable")
        years, first = np.unique(self.year[order], return_index=True)
        self.by_year = dict(zip(years.tolist(), np.split(order, first[1:])))

    @classmethod
    def from_rows(cls, rows) -> "RelationTable":
        """A table of (company_a, company_b, year, similarity) rows."""
        return cls(*(list(zip(*rows)) or [()] * len(RELATION_COLUMNS)))

    def __len__(self) -> int:
        return len(self.year)


@dataclass(eq=False)
class QuarterDataset:
    """The labeled calls of one quarter in (date, company) order, with their targets.

    ``labels`` (log-volatility regression targets) and ``v_past`` (trailing
    baseline predictions) are finite (len(calls), |TAUS|) float64 arrays:
    row k is ``calls[k]``'s, column j window ``TAUS[j]``.
    """

    quarter: Quarter
    calls: list[CallRecord]
    labels: np.ndarray
    v_past: np.ndarray
