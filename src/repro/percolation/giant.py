"""Giant-component statistics and threshold scans.

Empirical counterparts of the connectivity results the paper builds on:
the AKS giant-component threshold of the hypercube (``p ≈ 1/n``), the
Erdős–Spencer connectivity threshold (``p = 1/2``), mesh percolation
thresholds, and pair-connectivity curves for the double tree (Lemma 6).
Experiment E11 uses these scans to place the routing transition (E1) on
the same axis as the structural transitions.

The scans run on compiled edge arrays: the graph is compiled once into
its :class:`~repro.kernels.topology.EdgeIndex`, each ``p`` draws all
its trials' open-edge rows in one
:func:`~repro.kernels.percolation.table_edge_masks` call (row ``t`` is
bit-identical to ``TablePercolation`` under trial ``t``'s seed), and
cluster questions are answered for every row at once —
:func:`~repro.kernels.bfs.component_labels` for component sizes,
:func:`~repro.kernels.bfs.batched_connected` for pair connectivity.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.graphs.base import Graph, Vertex
from repro.percolation.cluster import largest_component_size
from repro.percolation.models import PercolationModel
from repro.util.rng import derive_seed
from repro.util.stats import mean_ci, proportion_ci

__all__ = [
    "estimate_threshold",
    "full_connectivity_scan",
    "giant_fraction",
    "giant_fraction_scan",
    "pair_connectivity_scan",
]


def giant_fraction(model: PercolationModel) -> float:
    """Return |largest open cluster| / |V|."""
    return largest_component_size(model) / model.graph.num_vertices()


def giant_fraction_scan(
    graph: Graph, ps: Sequence[float], trials: int, seed: int
) -> list[dict]:
    """Estimate the giant fraction (and second-cluster fraction) per ``p``.

    Returns one row per ``p`` with mean and 95% CI over ``trials``
    independent percolations.
    """
    _validate_scan(ps, trials)
    rows = []
    n = graph.num_vertices()
    for p, index, masks in _draws(graph, ps, trials, seed, "giant"):
        largest, second = _two_largest(index, masks)
        fractions = [size / n if n else 0.0 for size in largest]
        seconds = [size / n if n else 0.0 for size in second]
        mean, lo, hi = mean_ci(fractions)
        second_mean, _, _ = mean_ci(seconds)
        rows.append(
            {
                "p": p,
                "giant_fraction": mean,
                "ci_lo": lo,
                "ci_hi": hi,
                "second_fraction": second_mean,
                "trials": trials,
            }
        )
    return rows


def pair_connectivity_scan(
    graph: Graph,
    ps: Sequence[float],
    trials: int,
    seed: int,
    pair: tuple[Vertex, Vertex] | None = None,
) -> list[dict]:
    """Estimate ``Pr[u ~ v]`` per ``p`` (defaults to the canonical pair)."""
    _validate_scan(ps, trials)
    u, v = pair if pair is not None else graph.canonical_pair()
    graph._require_vertex(u)
    graph._require_vertex(v)
    from repro.kernels.bfs import batched_connected

    rows = []
    for p, index, masks in _draws(graph, ps, trials, seed, "pair"):
        hits = batched_connected(index, masks, index.code[u], index.code[v])
        hits = int(hits.sum())
        rate, lo, hi = proportion_ci(hits, trials)
        rows.append(
            {"p": p, "pr_connected": rate, "ci_lo": lo, "ci_hi": hi, "trials": trials}
        )
    return rows


def full_connectivity_scan(
    graph: Graph, ps: Sequence[float], trials: int, seed: int
) -> list[dict]:
    """Estimate ``Pr[G_p connected]`` per ``p``.

    Used for the hypercube's ``p = 1/2`` connectivity threshold
    (Erdős–Spencer), shown alongside the giant and routing transitions.
    """
    _validate_scan(ps, trials)
    n = graph.num_vertices()
    rows = []
    for p, index, masks in _draws(graph, ps, trials, seed, "conn"):
        largest, _ = _two_largest(index, masks)
        hits = sum(1 for size in largest if size == n)
        rate, lo, hi = proportion_ci(hits, trials)
        rows.append(
            {"p": p, "pr_connected": rate, "ci_lo": lo, "ci_hi": hi, "trials": trials}
        )
    return rows


def estimate_threshold(
    rows: Sequence[dict], column: str, target: float = 0.5
) -> float:
    """Return the ``p`` where ``column`` first crosses ``target``.

    Linear interpolation between the bracketing scan points.  Rows must
    be sorted by ``p`` and the column monotone-ish; raises if the curve
    never crosses.
    """
    prev = None
    for row in rows:
        value = row[column]
        if prev is not None:
            p0, y0 = prev
            p1, y1 = row["p"], value
            if (y0 - target) * (y1 - target) <= 0 and y0 != y1:
                return p0 + (target - y0) * (p1 - p0) / (y1 - y0)
        prev = (row["p"], value)
    raise ValueError(f"column {column!r} never crosses {target}")


def _validate_scan(ps: Sequence[float], trials: int) -> None:
    if not ps:
        raise ValueError("scan needs at least one probability")
    if trials < 1:
        raise ValueError("scan needs at least one trial")


# The array helpers import repro.kernels when called: repro.kernels
# imports this package's models.


def _draws(
    graph: Graph, ps: Sequence[float], trials: int, seed: int, tag: str
):
    """Compile ``graph`` once; yield ``(p, index, masks)`` per ``p``,
    mask row ``t`` seeded as ``(tag, p, t)``."""
    from repro.kernels.percolation import table_edge_masks
    from repro.kernels.topology import require_edge_index

    index = require_edge_index(graph)
    for p in ps:
        seeds = [derive_seed(seed, tag, p, t) for t in range(trials)]
        yield p, index, table_edge_masks(p, seeds, index.num_edges)


def _two_largest(index, masks: np.ndarray) -> tuple[list[int], list[int]]:
    """Per row, the largest and second-largest open cluster sizes (0 if
    there is no such cluster)."""
    from repro.kernels.bfs import component_labels

    labels = component_labels(index, masks)
    trials, n = labels.shape
    if n < 2:
        return [n] * trials, [0] * trials
    node = labels + np.arange(trials, dtype=np.int64)[:, None] * n
    sizes = np.bincount(node.ravel(), minlength=trials * n)
    sizes = np.sort(sizes.reshape(trials, n), axis=1)
    return sizes[:, -1].tolist(), sizes[:, -2].tolist()

