"""Domain records: transcripts, prices, relations, quarters.

Each record checks its own rules when built, so the loaders, the
synthetic generator and hand-built records share one set of rules.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParseError

ROLES = ("executive", "analyst")
PARTS = ("presentation", "qa")


@dataclass
class Sentence:
    """One transcript sentence with structural attributes.

    Either ``text`` or ``vector`` may be missing, never both: real corpora
    ship text, the synthetic generator ships vectors directly.
    """

    utterance_idx: int
    role: str
    part: str
    position: int
    text: str | None = None
    vector: np.ndarray | None = None


@dataclass
class CallRecord:
    call_id: str
    company_id: str
    call_date: dt.date
    sentences: list[Sentence]

    def __post_init__(self):
        validate_call(self)


def validate_call(call: CallRecord) -> None:
    """Raise ParseError naming the call unless it keeps every rule of a call.

    Each sentence has a known role and part, a text string or a vector, and
    an integer utterance index ≥ 0 that never decreases; positions increase
    strictly and no presentation sentence follows the Q&A.
    """
    ctx = f"call {call.call_id}"
    if not call.company_id:
        raise ParseError(f"{ctx}: empty company_id")
    if not call.sentences:
        raise ParseError(f"{ctx} has no sentences")
    prev_pos = -1
    prev_utt = 0
    seen_qa = False
    for j, s in enumerate(call.sentences):
        if s.role not in ROLES:
            raise ParseError(f"{ctx}: unknown role {s.role!r} in sentence {j}")
        if s.part not in PARTS:
            raise ParseError(f"{ctx}: unknown part {s.part!r} in sentence {j}")
        if s.text is None and s.vector is None:
            raise ParseError(f"{ctx}: sentence {j} has neither text nor vector")
        if s.text is not None and not isinstance(s.text, str):
            raise ParseError(f"{ctx}: sentence {j} text is a {type(s.text).__name__}, not a str")
        utt = s.utterance_idx
        if type(utt) is bool or not isinstance(utt, (int, np.integer)) or utt < 0:
            raise ParseError(f"{ctx}: sentence {j} utterance_idx {utt!r} is not an integer >= 0")
        if s.position <= prev_pos:
            raise ParseError(f"{ctx}: positions not strictly increasing at {s.position}")
        if utt < prev_utt:
            raise ParseError(f"{ctx}: utterance_idx decreases at position {s.position}")
        if s.part == "qa":
            seen_qa = True
        elif seen_qa:
            raise ParseError(f"{ctx}: part transitions qa→presentation at position {s.position}")
        prev_pos = s.position
        prev_utt = utt


@dataclass
class PriceSeries:
    """Per-company adjusted closes on strictly increasing trading dates.

    Two columns are derived once, when the series is built: ``days``, the
    (L,) int64 date ordinals, and ``returns``, the (L-1,) simple returns,
    where ``returns[i - 1]`` is trading day i's return.
    """

    company_id: str
    dates: list[dt.date]
    closes: np.ndarray
    days: np.ndarray = field(init=False, repr=False)
    returns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.closes = np.asarray(self.closes, dtype=np.float64)
        if len(self.dates) != self.closes.shape[0]:
            raise ParseError(f"{self.company_id}: dates/closes length mismatch")
        self.days = np.fromiter(
            map(dt.date.toordinal, self.dates), dtype=np.int64, count=len(self.dates)
        )
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
