"""Chronological node masks for single-graph (transductive) training."""

from __future__ import annotations

import numpy as np

from ..errors import InsufficientDataError
from ..graphbuild import QuarterGraph


def transductive_split(graph: QuarterGraph, ratios: tuple) -> dict[str, np.ndarray]:
    """Date-ordered nodes split into train, val and test in the proportions ``ratios``.

    Message passing still sees the whole graph; the masks only restrict
    which nodes contribute loss and metrics.
    """
    n = graph.n_nodes
    if n < 10:
        raise InsufficientDataError(f"transductive split needs >= 10 nodes, got {n}")
    if len(ratios) != 3 or min(ratios) <= 0:
        raise InsufficientDataError(f"ratios must be three positive numbers, got {ratios}")
    order = np.argsort(graph.days, kind="stable")
    total = sum(ratios)
    n_train = n * ratios[0] // total
    n_val = n * ratios[1] // total
    masks = {
        "train": np.zeros(n, dtype=bool),
        "val": np.zeros(n, dtype=bool),
        "test": np.zeros(n, dtype=bool),
    }
    masks["train"][order[:n_train]] = True
    masks["val"][order[n_train : n_train + n_val]] = True
    masks["test"][order[n_train + n_val :]] = True
    return masks
