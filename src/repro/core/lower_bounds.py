"""Lemma 5 — the cut lower bound — as an empirical certificate.

The paper's Lemma 5: let ``(S, S̄)`` partition the vertices with the
target ``v ∈ S``.  If every edge ``e`` crossing the cut satisfies
``Pr[(v ~ e) ∈ S] ≤ η``, then for any local router ``X`` (query count,
routing ``u → v``):

    Pr[X < t]  ≤  ( t·η + Pr[(u ~ v) ∈ S] ) / Pr[u ~ v].

The proof is a union bound over the (at most ``t``) cut edges probed:
each has probability ≤ η of being the doorway to ``v``, and adaptivity
does not help because the bound is uniform over edge sets.

:func:`estimate_certificate` Monte-Carlo-estimates the three quantities
for a concrete graph, ``p`` and cut, yielding a curve
``t ↦ bound(t)`` that every local router's empirical CDF must respect.
Experiments E2 (hypercube, ``S`` = ball around the target) and E7
(double tree, ``S`` = second tree) overlay measured router CDFs against
this certificate.

On estimator bias: η is a **maximum** over cut edges of a per-edge
probability.  Estimating each per-edge probability and taking the max
is upward-biased (good: the bound stays conservative) but can be noisy;
we report both the max and the mean.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.graphs.base import Edge, Graph, Vertex
from repro.graphs.traversal import bfs_distances
from repro.util.rng import derive_seed

__all__ = [
    "Lemma5Certificate",
    "ball",
    "cut_edges",
    "estimate_certificate",
]


def ball(graph: Graph, center: Vertex, radius: int) -> set[Vertex]:
    """Return the radius-``radius`` ball around ``center`` (paper's ``S``
    for the hypercube lower bound)."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return set(bfs_distances(graph, center, max_depth=radius))


def cut_edges(graph: Graph, s: set[Vertex]) -> list[Edge]:
    """Return canonical keys of edges with exactly one endpoint in ``s``."""
    out = []
    for v in s:
        for w in graph.neighbors(v):
            if w not in s:
                out.append(graph.edge_key(v, w))
    return out


@dataclass(frozen=True)
class Lemma5Certificate:
    """Monte-Carlo estimates of the three Lemma 5 quantities."""

    eta_max: float
    eta_mean: float
    pr_uv_in_s: float
    pr_uv: float
    trials: int
    cut_size: int

    def bound(self, t: float, eta: float | None = None) -> float:
        """Return the Lemma 5 upper bound on ``Pr[X < t]`` (capped at 1).

        Uses :attr:`eta_max` unless an explicit ``eta`` (e.g. an exact
        theory value) is supplied.
        """
        if self.pr_uv == 0:
            raise ValueError("Pr[u ~ v] estimated as 0; bound undefined")
        eta_value = self.eta_max if eta is None else eta
        return min(1.0, (t * eta_value + self.pr_uv_in_s) / self.pr_uv)

    def min_queries_for(self, probability: float) -> float:
        """Return the ``t`` below which ``Pr[X < t] ≤ probability``.

        Inverts the bound: any local router needs at least this many
        queries to succeed with the given probability.
        """
        if self.eta_max == 0:
            return float("inf")
        return max(
            0.0,
            (probability * self.pr_uv - self.pr_uv_in_s) / self.eta_max,
        )


def estimate_certificate(
    graph: Graph,
    p: float,
    s: set[Vertex],
    source: Vertex,
    target: Vertex,
    trials: int = 200,
    seed: int = 0,
    cut: Iterable[Edge] | None = None,
) -> Lemma5Certificate:
    """Monte-Carlo-estimate the Lemma 5 certificate for cut ``(S, S̄)``.

    Per trial (one percolation draw, trial ``t`` seeded as ``("lemma5",
    t)`` and bit-identical to ``TablePercolation``): the open cluster
    of ``target`` **inside** ``S`` decides which cut edges have their
    ``S``-endpoint in it and whether ``(u ~ v) ∈ S``; ground-truth
    ``u ~ v`` is taken over the whole graph.  All trials are drawn as
    one mask matrix over the graph's compiled
    :class:`~repro.kernels.topology.EdgeIndex`; the cluster inside
    ``S`` is the target's component over the open edges with both ends
    in ``S``.
    """
    # Deferred: repro.kernels imports repro.core.
    from repro.kernels.bfs import batched_connected, component_labels
    from repro.kernels.percolation import table_edge_masks
    from repro.kernels.topology import require_edge_index

    if target not in s:
        raise ValueError("Lemma 5 requires the target inside S")
    if source in s and source == target:
        raise ValueError("source and target must differ")
    if trials < 1:
        raise ValueError("need at least one trial")
    cut_list = list(cut) if cut is not None else cut_edges(graph, s)
    if not cut_list:
        raise ValueError("the cut (S, S̄) has no edges; bound is vacuous")
    # Identify, per cut edge, its endpoint inside S.
    s_endpoints = []
    for a, b in cut_list:
        if a in s and b in s:
            raise ValueError(f"edge {(a, b)!r} does not cross the cut")
        s_endpoints.append(a if a in s else b)
    graph._require_vertex(source)
    graph._require_vertex(target)

    index = require_edge_index(graph)
    code = index.code
    seeds = [derive_seed(seed, "lemma5", t) for t in range(trials)]
    masks = table_edge_masks(p, seeds, index.num_edges)
    source_code, target_code = code[source], code[target]
    uv = int(batched_connected(index, masks, source_code, target_code).sum())
    in_s = np.zeros(index.num_vertices, dtype=bool)
    in_s[[code[v] for v in s if v in code]] = True
    inner = in_s[index.edge_u] & in_s[index.edge_v]
    labels = component_labels(index, masks & inner)
    cluster = labels == labels[:, target_code : target_code + 1]
    edge_hits = cluster[:, [code[v] for v in s_endpoints]].sum(axis=0)
    uv_in_s = int(cluster[:, source_code].sum())
    eta_estimates = [hits / trials for hits in edge_hits.tolist()]
    return Lemma5Certificate(
        eta_max=max(eta_estimates),
        eta_mean=sum(eta_estimates) / len(eta_estimates),
        pr_uv_in_s=uv_in_s / trials,
        pr_uv=uv / trials,
        trials=trials,
        cut_size=len(cut_list),
    )
