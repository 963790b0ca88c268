"""The quarter-graph builder as a loop over relation rows.

``build_quarter_graph`` finds a quarter's edges with whole-column ops: it
reads one effective year's rows through the table's year index, maps
companies to nodes with a sorted search and dedups pairs with
``np.unique``. This reference visits every row of every year in input
order, keeps a dict of similarities per node pair and raises on the first
conflicting row, as the library did before; it puts each call's label row
on its node by call_id. The builder must match its
edge columns bitwise and its errors string for string.
"""

from __future__ import annotations

import numpy as np

from volgraph.dataio.datasets import TAUS
from volgraph.dataio.records import CallRecord, Quarter, RelationTable
from volgraph.errors import GraphConstructionError
from volgraph.graphbuild import SIMILARITY_THRESHOLD, EdgeTable, QuarterGraph


def build_quarter_graph_loop(
    calls: list[CallRecord],
    relations: RelationTable,
    quarter: Quarter,
    labels: np.ndarray | None = None,
) -> QuarterGraph:
    ordered = sorted(calls, key=lambda c: (c.call_date, c.company_id))
    if labels is None:
        labels = np.full((len(calls), len(TAUS)), np.nan)
    # each call's label row, looked up by call_id in node order
    row_of = {c.call_id: row for c, row in zip(calls, labels)}
    graph = QuarterGraph(
        quarter=quarter,
        calls=ordered,
        edges=None,
        labels=np.array([row_of[c.call_id] for c in ordered]).reshape(len(ordered), len(TAUS)),
    )
    index = {c.company_id: i for i, c in enumerate(ordered)}

    # similarity per linked node pair (i, j), i < j: node order is (date,
    # company), so i's call is no later than j's
    sim: dict[tuple[int, int], float] = {}
    rows = zip(
        relations.company_a.tolist(),
        relations.company_b.tolist(),
        relations.year.tolist(),
        relations.similarity.tolist(),
    )
    for company_a, company_b, year, similarity in rows:
        if year != quarter.year - 1 or similarity <= SIMILARITY_THRESHOLD:
            continue
        if company_a not in index or company_b not in index:
            continue
        key = tuple(sorted((index[company_a], index[company_b])))
        if key in sim and sim[key] != similarity:
            a, b = sorted((company_a, company_b))
            raise GraphConstructionError(
                f"conflicting similarities for pair ({a},{b}) in effective year "
                f"{year}: {sim[key]} vs {similarity}"
            )
        sim[key] = similarity

    pairs = np.array(list(sim), dtype=np.intp).reshape(-1, 2)
    loops = np.arange(graph.n_nodes, dtype=np.intp)
    i = np.concatenate([loops, pairs[:, 0]])
    j = np.concatenate([loops, pairs[:, 1]])
    similarity = np.concatenate([np.ones(graph.n_nodes), list(sim.values())])
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
