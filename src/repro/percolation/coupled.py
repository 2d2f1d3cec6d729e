"""Monotone-coupled percolation: exact per-trial critical points.

:class:`~repro.percolation.models.HashPercolation` opens an edge iff its
deterministic uniform variate is below ``p``; all retention levels of
one seed are therefore *coupled*: the open edge set grows monotonically
with ``p``.  That coupling makes per-trial threshold questions exact —
no scanning, no bisection:

* the ``p`` at which ``u ~ v`` first holds is the **bottleneck value**
  of the minimax path between them (Kruskal-style union–find over edges
  sorted by their uniforms);
* the ``p`` at which the largest cluster first reaches a target
  fraction falls out of the same sweep.

These exact thresholds agree with :class:`HashPercolation` by
construction (same hash stream), which the test suite verifies — and
they turn threshold experiments from O(grid × trials) into O(trials).

**Compiled edge arrays.**  A threshold experiment asks the same graph
once per trial, so each graph is compiled once (per process, cached by
identity) into its :class:`~repro.kernels.topology.EdgeIndex` endpoint
codes plus the serialised ``("edge", key)`` hash key of every edge.  A
trial then hashes those bytes under its seed
(:func:`~repro.util.rng.uniforms_for`, the keyed BLAKE2b of
:func:`~repro.util.rng.uniform_for`), sorts the levels with numpy —
exact ties broken by canonical edge key, as a sort of ``(level, key)``
tuples would — and runs Kruskal on an integer union–find.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.graphs.base import Graph, Vertex
from repro.percolation.models import HashPercolation
from repro.util.rng import uniform_for, uniforms_for

__all__ = [
    "edge_level",
    "giant_threshold",
    "pair_threshold",
    "threshold_sample",
]


def edge_level(graph: Graph, seed: int, u: Vertex, v: Vertex) -> float:
    """Return the coupling level of edge ``{u, v}``.

    The edge is open under ``HashPercolation(graph, p, seed)`` iff
    ``p > edge_level(...)`` (strictly: iff the level is `< p`).
    """
    return uniform_for(seed, "edge", graph.edge_key(u, v))


@dataclass(frozen=True)
class _EdgeData:
    """One graph's edges as the coupled sweeps need them.

    Cached under ``id(graph)`` and dropped when the graph is collected;
    it holds no reference to the graph, so it never keeps one alive.
    """

    num_vertices: int
    code: dict  # vertex -> code
    # Edges in canonical-key order: a stable sort by level then breaks
    # exact ties by key, as sorting ``(level, key)`` tuples does.
    edge_u: np.ndarray  # endpoint codes
    edge_v: np.ndarray
    blobs: list  # repr(("edge", key)) bytes


_EDGE_DATA: dict[int, _EdgeData] = {}


def _edge_data(graph: Graph) -> _EdgeData:
    data = _EDGE_DATA.get(id(graph))
    if data is None:
        # Deferred: repro.kernels imports this package's models.
        from repro.kernels.topology import require_edge_index

        index = require_edge_index(graph)
        verts = index.verts
        keys = [
            (verts[a], verts[b])
            for a, b in zip(index.edge_u.tolist(), index.edge_v.tolist())
        ]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        perm = np.asarray(order, dtype=np.int64)
        data = _EdgeData(
            num_vertices=index.num_vertices,
            code=index.code,
            edge_u=index.edge_u[perm],
            edge_v=index.edge_v[perm],
            blobs=[repr(("edge", keys[e])).encode("utf-8") for e in order],
        )
        _EDGE_DATA[id(graph)] = data
        weakref.finalize(graph, _EDGE_DATA.pop, id(graph), None)
    return data


def _sweep(data: _EdgeData, seed: int):
    """Return ``(level, a, b)`` per edge, in Kruskal order, for one
    coupling (``a``/``b`` are endpoint codes)."""
    levels = uniforms_for(seed, data.blobs)
    order = np.argsort(levels, kind="stable")
    return zip(
        levels[order].tolist(),
        data.edge_u[order].tolist(),
        data.edge_v[order].tolist(),
    )


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]  # path halving
        x = parent[x]
    return x


def pair_threshold(graph: Graph, seed: int, u: Vertex, v: Vertex) -> float:
    """Return the exact ``p`` above which ``u ~ v`` in this coupling.

    Union edges in increasing level order until ``u`` and ``v`` merge;
    the last level added is the threshold (the bottleneck of the
    minimax ``u``–``v`` path).  Returns ``inf`` if the full graph does
    not connect them.
    """
    graph._require_vertex(u)
    graph._require_vertex(v)
    if u == v:
        return 0.0
    data = _edge_data(graph)
    cu, cv = data.code[u], data.code[v]
    parent = list(range(data.num_vertices))
    for level, a, b in _sweep(data, seed):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[rb] = ra
            if _find(parent, cu) == _find(parent, cv):
                return level
    return float("inf")


def giant_threshold(graph: Graph, seed: int, fraction: float) -> float:
    """Return the exact ``p`` at which the largest cluster reaches
    ``fraction`` of all vertices, in this coupling.

    Returns ``inf`` if even the full graph falls short (possible only
    for disconnected graphs).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
    n = graph.num_vertices()
    target = fraction * n
    if target <= 1:
        return 0.0  # singletons already qualify
    data = _edge_data(graph)
    parent = list(range(n))
    size = [1] * n
    for level, a, b in _sweep(data, seed):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            continue
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        if size[ra] >= target:
            return level
    return float("inf")


def threshold_sample(
    graph: Graph,
    trials: int,
    seed: int,
    pair: tuple[Vertex, Vertex] | None = None,
    giant_fraction: float | None = None,
) -> list[dict]:
    """Sample exact thresholds over independent couplings.

    For each trial returns a dict with ``pair_threshold`` (for ``pair``,
    default the canonical pair) and, if requested, ``giant_threshold``
    at ``giant_fraction``.  One sweep per trial; the empirical CDF of
    ``pair_threshold`` **is** the connectivity curve
    ``p ↦ Pr[u ~ v in G_p]`` evaluated at every ``p`` simultaneously.
    """
    from repro.util.rng import derive_seed

    if trials < 1:
        raise ValueError("need at least one trial")
    u, v = pair if pair is not None else graph.canonical_pair()
    rows = []
    for t in range(trials):
        trial_seed = derive_seed(seed, "coupled", t)
        row = {
            "trial": t,
            "seed": trial_seed,
            "pair_threshold": pair_threshold(graph, trial_seed, u, v),
        }
        if giant_fraction is not None:
            row["giant_threshold"] = giant_threshold(
                graph, trial_seed, giant_fraction
            )
        rows.append(row)
    return rows


# re-export for convenience in tests: the model these thresholds describe
CoupledModel = HashPercolation
