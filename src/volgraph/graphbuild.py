"""Per-quarter company graph construction and temporal-leakage auditing.

A quarter graph's nodes are its earnings calls: node i is ``calls[i]``,
and the builder orders them by (date, company); ``QuarterGraph`` checks
its node rules itself, for the builder and the directory loader alike.
Edges run from the earlier call to the later call of each related
company pair, weighted by 1/(day_gap+1) in calendar days. Same-day pairs
are connected in both directions with weight 1, and every node carries a
self-loop (weight 1, similarity 1). The edges are one ``EdgeTable`` of
numpy columns sorted by (dst, src). Because no edge ever points from a
later call to an earlier one, message passing over the graph cannot move
information backward in time; ``audit_no_leakage`` re-checks exactly
that property on the columns.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .dataio.datasets import TAUS
from .dataio.loaders import utf8_errors
from .dataio.records import CallRecord, Quarter, RelationTable
from .errors import GraphConstructionError

SIMILARITY_THRESHOLD = 0.15
# EdgeTable columns in graph-directory order, with their dtypes
EDGE_COLUMNS = {
    "src": np.intp,
    "dst": np.intp,
    "temporal_weight": np.float64,
    "similarity": np.float64,
    "day_gap": np.int64,
}


@dataclass(eq=False)
class EdgeTable:
    """Directed edges as parallel columns, sorted by (dst, src).

    The constructor is the one place that orders edges: a stable lexsort,
    so rows with the same (dst, src) keep their input order.
    """

    src: np.ndarray  # (E,) intp node ids
    dst: np.ndarray  # (E,) intp node ids
    temporal_weight: np.ndarray  # (E,) float64, 1/(day_gap+1)
    similarity: np.ndarray  # (E,) float64
    day_gap: np.ndarray  # (E,) int64 calendar days from the src call to the dst call

    def __post_init__(self):
        columns = {n: np.asarray(getattr(self, n), dtype=t) for n, t in EDGE_COLUMNS.items()}
        if len({c.shape for c in columns.values()}) != 1 or columns["src"].ndim != 1:
            raise GraphConstructionError("edge columns must be 1-D and of equal length")
        order = np.lexsort((columns["src"], columns["dst"]))
        for name, column in columns.items():
            setattr(self, name, column[order])

    def __len__(self) -> int:
        return len(self.src)


@dataclass(eq=False)
class QuarterGraph:
    """One quarter's calls as nodes: node i is ``calls[i]``.

    ``labels`` is (N, |TAUS|) float64, node i's targets in row i as in
    ``QuarterDataset.labels``, and all NaN for an unlabeled node. Building a
    graph without calls, with a call outside the quarter, with a company_id
    or call_id on two nodes, or with labels of another shape or with a row
    neither all finite nor all NaN raises ``GraphConstructionError``.
    """

    quarter: Quarter
    calls: list[CallRecord]
    edges: EdgeTable
    labels: np.ndarray

    def __post_init__(self):
        if not self.calls:
            raise GraphConstructionError(f"no calls in {self.quarter}")
        for c in self.calls:
            if not self.quarter.contains(c.call_date):
                raise GraphConstructionError(
                    f"call {c.call_id} dated {c.call_date} lies outside {self.quarter}"
                )
        for name, other in (("company_id", "call_id"), ("call_id", "company_id")):
            first: dict[str, str] = {}
            for c in self.calls:
                key = getattr(c, name)
                if key in first:
                    raise GraphConstructionError(f"duplicate {name} {key} in {self.quarter}: "
                                                 f"{other}s {first[key]} and {getattr(c, other)}")
                first[key] = getattr(c, other)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.shape != (self.n_nodes, len(TAUS)):
            raise GraphConstructionError(f"labels of shape {self.labels.shape} for "
                                         f"{self.n_nodes} nodes and {len(TAUS)} windows")
        mixed = np.flatnonzero(~self.labeled & ~np.isnan(self.labels).all(axis=1))
        if mixed.size:
            raise GraphConstructionError(f"node {mixed[0]} labels are neither all finite nor NaN")

    @property
    def n_nodes(self) -> int:
        return len(self.calls)

    @property
    def labeled(self) -> np.ndarray:
        return np.isfinite(self.labels).all(axis=1)  # (N,) bool

    @property
    def days(self) -> np.ndarray:
        """(N,) int64 call-date ordinals in node order."""
        return np.array([c.call_date.toordinal() for c in self.calls], dtype=np.int64)


def build_quarter_graph(
    calls: list[CallRecord],
    relations: RelationTable,
    quarter: Quarter,
    labels: np.ndarray | None = None,
) -> QuarterGraph:
    """Assemble the directed temporal graph for one quarter of calls.

    ``relations`` may span several effective years; only rows with
    effective year == quarter.year - 1 and similarity strictly above
    ``SIMILARITY_THRESHOLD`` induce edges, and only between companies with
    a call here. A pair listed twice must carry one similarity. ``labels``
    row k, if given, is ``calls[k]``'s; the graph holds them in node order.
    The calls must make a valid ``QuarterGraph``.
    """
    order = sorted(range(len(calls)), key=lambda k: (calls[k].call_date, calls[k].company_id))
    labels = np.full((len(calls), len(TAUS)), np.nan) if labels is None else np.asarray(labels)
    if labels.shape[:1] != (len(calls),):
        raise GraphConstructionError(f"labels of shape {labels.shape} for {len(calls)} calls")
    graph = QuarterGraph(
        quarter=quarter, calls=[calls[k] for k in order], edges=None, labels=labels[order]
    )
    n = graph.n_nodes
    year = quarter.year - 1
    rows = relations.by_year.get(year, np.empty(0, dtype=np.intp))
    rows = rows[relations.similarity[rows] > SIMILARITY_THRESHOLD]
    # node id of each row's companies: the graph has one call per company
    companies = np.array([c.company_id for c in graph.calls], dtype=object)
    by_name = np.argsort(companies)
    names = companies[by_name]
    ends = []
    for column in (relations.company_a[rows], relations.company_b[rows]):
        at = np.minimum(np.searchsorted(names, column), n - 1)
        ends.append(np.where(names[at] == column, by_name[at], -1))
    linked = (ends[0] >= 0) & (ends[1] >= 0)
    rows = rows[linked]
    # node pair (i, j), i < j: node order is (date, company), so i's call is
    # no later than j's; a pair listed more than once keeps its first row
    i = np.minimum(ends[0][linked], ends[1][linked])
    j = np.maximum(ends[0][linked], ends[1][linked])
    pair_sim = relations.similarity[rows]
    _, first, inverse = np.unique(i * n + j, return_index=True, return_inverse=True)
    first_sim = pair_sim[first][inverse]
    conflict = np.flatnonzero(pair_sim != first_sim)
    if conflict.size:
        k = conflict[0]
        a, b = sorted((relations.company_a[rows[k]], relations.company_b[rows[k]]))
        raise GraphConstructionError(
            f"conflicting similarities for pair ({a},{b}) in effective year {year}: "
            f"{float(first_sim[k])} vs {float(pair_sim[k])}"
        )
    loops = np.arange(n, dtype=np.intp)
    i = np.concatenate([loops, i[first]])
    j = np.concatenate([loops, j[first]])
    similarity = np.concatenate([np.ones(n), pair_sim[first]])
    days = graph.days
    gap = days[j] - days[i]
    weight = 1.0 / (gap + 1)
    back = (gap == 0) & (i != j)  # same-day pairs are linked both ways
    graph.edges = EdgeTable(
        src=np.concatenate([i, j[back]]),
        dst=np.concatenate([j, i[back]]),
        temporal_weight=np.concatenate([weight, weight[back]]),
        similarity=np.concatenate([similarity, similarity[back]]),
        day_gap=np.concatenate([gap, gap[back]]),
    )
    return graph


@dataclass
class LeakageReport:
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self, path) -> None:
        payload = {"ok": self.ok, "n_violations": len(self.violations), "violations": self.violations}
        with atomic_open(path) as fh:
            json.dump(payload, fh, indent=2, default=str)


def audit_no_leakage(graph: QuarterGraph) -> LeakageReport:
    """Flag every edge that could carry information backward in time.

    A violation is an edge whose source call is dated after its destination
    call, or whose recorded weight/gap disagrees with the 1/(gap+1) rule
    (a mis-weighted edge would mean the graph was not built by the
    time-respecting constructor). A NaN weight disagrees with every gap.
    Violations are listed in edge order.
    """
    e = graph.edges
    days = graph.days
    gap = days[e.dst] - days[e.src]
    backward = gap < 0
    # backward edges are flagged as such; clip their gap so the rule stays finite
    expected = 1.0 / (np.maximum(gap, 0) + 1)
    consistent = (e.day_gap == gap) & (np.abs(e.temporal_weight - expected) <= 1e-12)
    report = LeakageReport()
    for k in np.flatnonzero(backward | ~consistent).tolist():
        src, dst = int(e.src[k]), int(e.dst[k])
        src_date, dst_date = graph.calls[src].call_date, graph.calls[dst].call_date
        if backward[k]:
            reason = f"edge from {src_date} to earlier {dst_date}"
        else:
            reason = (
                f"weight {float(e.temporal_weight[k])} / gap {int(e.day_gap[k])} inconsistent "
                f"with dates {int(gap[k])} days apart"
            )
        report.violations.append({"src": src, "dst": dst, "reason": reason})
    return report


# -- graph directory round-trip ---------------------------------------------------


GRAPH_FORMAT = "volgraph-quarter-graph/1"
NODE_COLUMNS = ("node_id", "company_id", "call_id", "call_date", *(f"label_{t}" for t in TAUS))


def save_graph_dir(graph: QuarterGraph, out_dir) -> None:
    """Write a self-contained graph directory: manifest, tables, transcripts."""
    from .dataio.loaders import write_transcripts

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": GRAPH_FORMAT,
        "quarter": str(graph.quarter),
        "n_nodes": graph.n_nodes,
        "n_edges": len(graph.edges),
    }
    with atomic_open(out / "graph.json") as fh:
        fh.write(json.dumps(manifest, indent=2))
    with atomic_open(out / "nodes.csv", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(NODE_COLUMNS)
        labels = zip(graph.labels.tolist(), graph.labeled)
        cells = [targets if ok else [""] * len(TAUS) for targets, ok in labels]
        for i, (c, targets) in enumerate(zip(graph.calls, cells)):
            writer.writerow([i, c.company_id, c.call_id, c.call_date.isoformat(), *targets])
    e = graph.edges
    with atomic_open(out / "edges.csv", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EDGE_COLUMNS)
        # csv writes a Python float as its repr, which reads back bitwise
        writer.writerows(zip(*(getattr(e, name).tolist() for name in EDGE_COLUMNS)))
    write_transcripts(graph.calls, out / "calls.jsonl")


def load_graph_dir(path) -> QuarterGraph:
    """Read a directory written by ``save_graph_dir``, checking whole columns.

    A missing file or column, a row of the wrong width, a value that does
    not parse or is not finite, a call_id or company_id on two node rows,
    an edge endpoint that is not a node id, a repeated (src, dst) edge, a
    node without exactly one self-loop, a node or edge count that differs
    from ``graph.json``, or a transcript whose company or date differs from
    its node row raises ``GraphConstructionError`` naming the file, as does
    a graph that breaks ``QuarterGraph``'s rules.
    """
    from .dataio.loaders import load_transcripts

    root = Path(path)
    try:
        with utf8_errors(root / "graph.json", GraphConstructionError):
            manifest = json.loads((root / "graph.json").read_text(encoding="utf-8-sig"))
    except (FileNotFoundError, json.JSONDecodeError) as e:
        raise GraphConstructionError(f"{root}: not a graph directory") from e
    if not isinstance(manifest, dict) or manifest.get("format") != GRAPH_FORMAT:
        raise GraphConstructionError(f"{root}: not a graph directory")
    counts = [manifest.get("n_nodes"), manifest.get("n_edges")]
    if not all(type(c) is int for c in counts):
        raise GraphConstructionError(f"{root / 'graph.json'}: n_nodes and n_edges must be integers")
    quarter = Quarter.parse(str(manifest.get("quarter")))
    try:
        rows, labels = _read_nodes(root / "nodes.csv", counts[0])
        edges = _read_edges(root / "edges.csv", counts[1], len(rows))
        calls = load_transcripts(root / "calls.jsonl")
    except FileNotFoundError as e:
        raise GraphConstructionError(f"{root}: missing {Path(e.filename).name}") from e

    by_id = {c.call_id: c for c in calls}
    missing = [call_id for _, _, call_id, _ in rows if call_id not in by_id]
    if missing:
        raise GraphConstructionError(f"{root}: calls.jsonl missing transcripts for {missing[:3]}")
    ordered_calls = [by_id[call_id] for _, _, call_id, _ in rows]
    for (row, company_id, call_id, call_date), c in zip(rows, ordered_calls):
        if (c.company_id, c.call_date) != (company_id, call_date):
            raise GraphConstructionError(
                f"{root}: calls.jsonl has {call_id} as {c.company_id} on {c.call_date}, "
                f"nodes.csv row {row} as {company_id} on {call_date}"
            )
    try:
        return QuarterGraph(quarter=quarter, calls=ordered_calls, edges=edges, labels=labels)
    except GraphConstructionError as e:
        raise GraphConstructionError(f"{root}: {e}") from e


def _read_columns(path: Path, names: tuple[str, ...], count: int) -> dict[str, tuple[str, ...]]:
    """The named columns of a CSV file, each a tuple of ``count`` strings.

    Blank lines are skipped; "row k" in errors counts data rows from 1.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh, utf8_errors(path, GraphConstructionError):
        rows = list(filter(None, csv.reader(fh)))
    header = rows[0] if rows else []
    for name in names:
        if name not in header:
            raise GraphConstructionError(f"{path}: missing column {name}")
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    bad = np.flatnonzero(widths != len(header))
    if bad.size:
        raise GraphConstructionError(
            f"{path}: row {bad[0]}: {widths[bad[0]]} fields, the header has {len(header)}"
        )
    if len(rows) - 1 != count:
        raise GraphConstructionError(f"{path}: {len(rows) - 1} rows, graph.json says {count}")
    columns = list(zip(*rows[1:])) or [()] * len(header)
    return {name: columns[header.index(name)] for name in names}


def _parse_column(path: Path, name: str, values: tuple[str, ...]) -> np.ndarray:
    try:
        column = np.asarray(values, dtype=EDGE_COLUMNS[name])
    except (ValueError, OverflowError) as e:
        raise GraphConstructionError(f"{path}: column {name}: {e}") from e
    if column.dtype == np.float64:
        _require(path, name, column, np.isfinite(column), "is not finite")
    return column


def _require(path: Path, name: str, column: np.ndarray, ok: np.ndarray, rule: str) -> None:
    bad = np.flatnonzero(~ok)
    if bad.size:
        k = bad[0]
        raise GraphConstructionError(f"{path}: row {k + 1}: {name} {column[k]} {rule}")


def _read_edges(path: Path, count: int, n_nodes: int) -> EdgeTable:
    columns = _read_columns(path, tuple(EDGE_COLUMNS), count)
    parsed = {name: _parse_column(path, name, values) for name, values in columns.items()}
    for name in ("src", "dst"):
        ids = parsed[name]
        rule = f"is not a node id in 0..{n_nodes - 1}"
        _require(path, name, ids, (ids >= 0) & (ids < n_nodes), rule)
    edges = EdgeTable(**parsed)
    src, dst = edges.src, edges.dst
    loops = np.bincount(src[src == dst], minlength=n_nodes)
    bad = np.flatnonzero(loops != 1)
    if bad.size:
        raise GraphConstructionError(
            f"{path}: node {bad[0]} has {loops[bad[0]]} self-loops, a graph has exactly one"
        )
    # sorted by (dst, src): a repeated pair sits in adjacent rows
    again = np.flatnonzero((src[1:] == src[:-1]) & (dst[1:] == dst[:-1]))
    if again.size:
        k = again[0]
        raise GraphConstructionError(f"{path}: edge ({src[k]}, {dst[k]}) appears more than once")
    return edges


def _read_nodes(path: Path, count: int) -> tuple[list[tuple], np.ndarray]:
    """Node rows in id order as (data row from 1, company_id, call_id, date), and the labels.

    The labels are in node order; a row whose label cells are all blank is NaN.
    A call_id or company_id on two rows would put one call on two nodes.
    """
    cols = _read_columns(path, NODE_COLUMNS, count)
    by_node: dict[int, tuple] = {}
    seen: dict[tuple[str, str], int] = {}
    for row, (node_id, company_id, call_id, call_date, *cells) in enumerate(
        zip(*(cols[name] for name in NODE_COLUMNS)), start=1
    ):
        for key in (("call_id", call_id), ("company_id", company_id)):
            if key in seen:
                raise GraphConstructionError(
                    f"{path}: row {row}: {key[0]} {key[1]} is already on row {seen[key]}"
                )
            seen[key] = row
        try:
            date, node = dt.date.fromisoformat(call_date), int(node_id)
            targets = list(map(float, cells)) if any(cells) else [np.nan] * len(cells)
        except ValueError as e:
            raise GraphConstructionError(f"{path}: row {row}: {e}") from e
        if any(cells) and not np.isfinite(targets).all():
            raise GraphConstructionError(f"{path}: row {row}: labels {cells} are not finite")
        by_node[node] = (row, company_id, call_id, date, targets)
    if sorted(by_node) != list(range(count)):
        raise GraphConstructionError(f"{path}: node ids are not 0..{count - 1}")
    nodes = [by_node[i] for i in range(count)]
    return [n[:4] for n in nodes], np.array([n[4] for n in nodes]).reshape(count, len(TAUS))
