"""Per-quarter company graph construction and temporal-leakage auditing.

Edges run from the earlier call to the later call of each related company
pair, weighted by 1/(day_gap+1) in calendar days. Same-day pairs are
connected in both directions with weight 1, and every node carries a
self-loop (weight 1, similarity 1). Because no edge ever points from a
later call to an earlier one, message passing over the graph cannot move
information backward in time; ``audit_no_leakage`` re-checks exactly that
property edge by edge.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from dataclasses import dataclass, field
from pathlib import Path

from .dataio.records import CallRecord, Quarter, RelationRecord
from .errors import GraphConstructionError

SIMILARITY_THRESHOLD = 0.15


@dataclass
class CompanyNode:
    node_id: int
    company_id: str
    call_id: str
    call_date: dt.date
    labels: dict[int, float] | None = None


@dataclass
class TemporalEdge:
    src: int
    dst: int
    temporal_weight: float
    similarity: float
    day_gap: int


@dataclass
class QuarterGraph:
    quarter: Quarter
    nodes: list[CompanyNode]
    edges: list[TemporalEdge]
    calls: list[CallRecord]  # aligned with nodes: calls[i] belongs to nodes[i]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def build_quarter_graph(
    calls: list[CallRecord],
    relations: list[RelationRecord],
    quarter: Quarter,
    labels: dict[str, dict[int, float]] | None = None,
) -> QuarterGraph:
    """Assemble the directed temporal graph for one quarter of calls.

    ``relations`` may span several effective years; only rows with
    effective_year == quarter.year - 1 and similarity strictly above
    ``SIMILARITY_THRESHOLD`` induce edges. ``labels`` maps call_id to
    per-window targets; nodes without an entry stay in the graph unlabeled.
    """
    for call in calls:
        if not quarter.contains(call.call_date):
            raise GraphConstructionError(
                f"call {call.call_id} dated {call.call_date} lies outside {quarter}"
            )
    by_company: dict[str, CallRecord] = {}
    for call in calls:
        if call.company_id in by_company:
            raise GraphConstructionError(
                f"duplicate call for company {call.company_id} in {quarter}: "
                f"{by_company[call.company_id].call_id} and {call.call_id}"
            )
        by_company[call.company_id] = call

    ordered = sorted(calls, key=lambda c: (c.call_date, c.company_id))
    nodes = [
        CompanyNode(
            node_id=i,
            company_id=c.company_id,
            call_id=c.call_id,
            call_date=c.call_date,
            labels=None if labels is None else labels.get(c.call_id),
        )
        for i, c in enumerate(ordered)
    ]
    index = {n.company_id: n.node_id for n in nodes}

    sim: dict[frozenset, float] = {}
    for r in relations:
        if r.effective_year != quarter.year - 1 or r.similarity <= SIMILARITY_THRESHOLD:
            continue
        if r.company_a not in index or r.company_b not in index:
            continue
        key = frozenset((r.company_a, r.company_b))
        if key in sim and sim[key] != r.similarity:
            a, b = sorted(key)
            raise GraphConstructionError(
                f"conflicting similarities for pair ({a},{b}) in effective year "
                f"{r.effective_year}: {sim[key]} vs {r.similarity}"
            )
        sim[key] = r.similarity

    edges = [
        TemporalEdge(src=n.node_id, dst=n.node_id, temporal_weight=1.0, similarity=1.0, day_gap=0)
        for n in nodes
    ]
    for key, similarity in sim.items():
        a, b = sorted(key)
        ni, nj = nodes[index[a]], nodes[index[b]]
        gap = (nj.call_date - ni.call_date).days
        if gap < 0:
            ni, nj, gap = nj, ni, -gap
        edges.append(
            TemporalEdge(
                src=ni.node_id,
                dst=nj.node_id,
                temporal_weight=1.0 / (gap + 1),
                similarity=similarity,
                day_gap=gap,
            )
        )
        if gap == 0:
            edges.append(
                TemporalEdge(
                    src=nj.node_id,
                    dst=ni.node_id,
                    temporal_weight=1.0,
                    similarity=similarity,
                    day_gap=0,
                )
            )
    edges.sort(key=lambda e: (e.dst, e.src))
    return QuarterGraph(quarter=quarter, nodes=nodes, edges=edges, calls=ordered)


@dataclass
class LeakageReport:
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self, path) -> None:
        Path(path).write_text(
            json.dumps(
                {"ok": self.ok, "n_violations": len(self.violations), "violations": self.violations},
                indent=2,
                default=str,
            )
        )


def audit_no_leakage(graph: QuarterGraph) -> LeakageReport:
    """Flag every edge that could carry information backward in time.

    A violation is an edge whose source call is dated after its destination
    call, or whose recorded weight/gap disagrees with the 1/(gap+1) rule
    (a mis-weighted edge would mean the graph was not built by the
    time-respecting constructor).
    """
    report = LeakageReport()
    dates = {n.node_id: n.call_date for n in graph.nodes}
    for e in graph.edges:
        src_date, dst_date = dates[e.src], dates[e.dst]
        if src_date > dst_date:
            report.violations.append(
                {
                    "src": e.src,
                    "dst": e.dst,
                    "reason": f"edge from {src_date} to earlier {dst_date}",
                }
            )
            continue
        gap = (dst_date - src_date).days
        if e.day_gap != gap or abs(e.temporal_weight - 1.0 / (gap + 1)) > 1e-12:
            report.violations.append(
                {
                    "src": e.src,
                    "dst": e.dst,
                    "reason": (
                        f"weight {e.temporal_weight} / gap {e.day_gap} inconsistent "
                        f"with dates {gap} days apart"
                    ),
                }
            )
    return report


def date_groups(graph: QuarterGraph) -> list[tuple[dt.date, list[int]]]:
    """Nodes partitioned by call date, dates strictly increasing."""
    groups: dict[dt.date, list[int]] = {}
    for n in graph.nodes:
        groups.setdefault(n.call_date, []).append(n.node_id)
    return [(d, sorted(groups[d])) for d in sorted(groups)]


# -- graph directory round-trip ---------------------------------------------------


def save_graph_dir(graph: QuarterGraph, out_dir) -> None:
    """Write a self-contained graph directory: manifest, tables, transcripts."""
    from .dataio.loaders import write_transcripts

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": "volgraph-quarter-graph/1",
        "quarter": str(graph.quarter),
        "n_nodes": len(graph.nodes),
        "n_edges": len(graph.edges),
    }
    (out / "graph.json").write_text(json.dumps(manifest, indent=2))
    with (out / "nodes.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["node_id", "company_id", "call_id", "call_date", "label_3", "label_7", "label_15"]
        )
        for n in graph.nodes:
            row = [n.node_id, n.company_id, n.call_id, n.call_date.isoformat()]
            row += (
                ["", "", ""]
                if n.labels is None
                else [repr(float(n.labels[tau])) for tau in (3, 7, 15)]
            )
            writer.writerow(row)
    with (out / "edges.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "temporal_weight", "similarity", "day_gap"])
        for e in graph.edges:
            writer.writerow(
                [e.src, e.dst, repr(float(e.temporal_weight)), repr(float(e.similarity)), e.day_gap]
            )
    write_transcripts(graph.calls, out / "calls.jsonl")


def load_graph_dir(path) -> QuarterGraph:
    from .dataio.loaders import load_transcripts

    root = Path(path)
    try:
        manifest = json.loads((root / "graph.json").read_text())
    except FileNotFoundError as e:
        raise GraphConstructionError(f"{root}: not a graph directory") from e
    if manifest.get("format") != "volgraph-quarter-graph/1":
        raise GraphConstructionError(f"{root}: not a graph directory")
    quarter = Quarter.parse(manifest["quarter"])

    nodes: list[CompanyNode] = []
    with (root / "nodes.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            labels = None
            if row["label_3"]:
                labels = {tau: float(row[f"label_{tau}"]) for tau in (3, 7, 15)}
            nodes.append(
                CompanyNode(
                    node_id=int(row["node_id"]),
                    company_id=row["company_id"],
                    call_id=row["call_id"],
                    call_date=dt.date.fromisoformat(row["call_date"]),
                    labels=labels,
                )
            )
    nodes.sort(key=lambda n: n.node_id)

    edges: list[TemporalEdge] = []
    with (root / "edges.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            edges.append(
                TemporalEdge(
                    src=int(row["src"]),
                    dst=int(row["dst"]),
                    temporal_weight=float(row["temporal_weight"]),
                    similarity=float(row["similarity"]),
                    day_gap=int(row["day_gap"]),
                )
            )

    calls = load_transcripts(root / "calls.jsonl")
    by_id = {c.call_id: c for c in calls}
    missing = [n.call_id for n in nodes if n.call_id not in by_id]
    if missing:
        raise GraphConstructionError(f"{root}: calls.jsonl missing transcripts for {missing[:3]}")
    ordered_calls = [by_id[n.call_id] for n in nodes]
    return QuarterGraph(quarter=quarter, nodes=nodes, edges=edges, calls=ordered_calls)
