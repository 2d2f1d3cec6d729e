"""Edge-percolation models.

A :class:`PercolationModel` fixes, for one random experiment, the
open/closed state of every edge of a graph.  Three implementations cover
the paper's needs:

* :class:`HashPercolation` — *lazy*: the state of an edge is a pure hash
  of ``(seed, edge)``.  Nothing is materialised, so it scales to the
  implicit hypercube; and the coupling is monotone in ``p`` (raising the
  retention probability only opens edges).
* :class:`TablePercolation` — *materialised*: samples every edge of an
  (enumerable) graph up front with numpy and keeps an open-adjacency
  index.  Used when ground-truth connectivity must be computed for many
  vertices, where per-edge hashing would dominate.
* :class:`GnpPercolation` — the Erdős–Rényi graph ``G(n, p)`` sampled
  *sparsely*: only the open pairs are drawn, so cost is proportional to
  the number of open edges rather than to ``n²``.  This is the substrate
  of Theorems 10 and 11.

All models answer :meth:`~PercolationModel.is_open` for any vertex pair
of the graph; states are functions of the *canonical* edge key, so both
orientations agree.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.graphs.base import Graph, Vertex
from repro.graphs.complete import CompleteGraph
from repro.util.rng import derive_seed, edge_coin

__all__ = [
    "GnpPercolation",
    "HashPercolation",
    "PercolationModel",
    "TablePercolation",
    "gnp_factory",
    "gnp_open_pairs",
]


class PercolationModel(ABC):
    """The open/closed state of every edge for one random experiment."""

    def __init__(self, graph: Graph, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"retention probability must be in [0,1], got {p!r}")
        self.graph = graph
        self.p = p

    @abstractmethod
    def is_open(self, u: Vertex, v: Vertex) -> bool:
        """Return whether the edge ``{u, v}`` is open."""

    def open_neighbors(self, v: Vertex) -> list[Vertex]:
        """Return neighbours of ``v`` reachable through open edges.

        Default: filter ``graph.neighbors``.  Materialised models
        override this with an index lookup.
        """
        return [w for w in self.graph.neighbors(v) if self.is_open(v, w)]

    def open_degree(self, v: Vertex) -> int:
        """Return the number of open edges at ``v``."""
        return len(self.open_neighbors(v))

    def path_is_open(self, path: list[Vertex]) -> bool:
        """Return whether every consecutive edge of ``path`` is open."""
        return all(self.is_open(a, b) for a, b in zip(path, path[1:]))


class HashPercolation(PercolationModel):
    """Lazy percolation: edge states are keyed hashes, never stored.

    >>> from repro.graphs.hypercube import Hypercube
    >>> model = HashPercolation(Hypercube(10), p=0.5, seed=1)
    >>> model.is_open(0, 1) == model.is_open(1, 0)
    True
    """

    def __init__(self, graph: Graph, p: float, seed: int) -> None:
        super().__init__(graph, p)
        self.seed = seed

    def is_open(self, u: Vertex, v: Vertex) -> bool:
        return edge_coin(self.seed, self.graph.edge_key(u, v), self.p)


class TablePercolation(PercolationModel):
    """Materialised percolation with an open-adjacency index.

    Samples all edges of ``graph`` in one vectorised pass.  Requires the
    graph to be enumerable in memory (used for meshes, moderate
    hypercubes, trees).

    >>> from repro.graphs.mesh import Mesh
    >>> model = TablePercolation(Mesh(2, 4), p=1.0, seed=0)
    >>> model.open_degree((0, 0))
    2
    """

    def __init__(self, graph: Graph, p: float, seed: int) -> None:
        super().__init__(graph, p)
        self.seed = seed
        edges = list(graph.edges())
        rng = np.random.default_rng(derive_seed(seed, "table-percolation"))
        mask = rng.random(len(edges)) < p
        self._open: set = {e for e, keep in zip(edges, mask) if keep}
        self._adjacency: dict[Vertex, list[Vertex]] = {}
        for u, v in self._open:
            self._adjacency.setdefault(u, []).append(v)
            self._adjacency.setdefault(v, []).append(u)

    def is_open(self, u: Vertex, v: Vertex) -> bool:
        return self.graph.edge_key(u, v) in self._open

    def open_neighbors(self, v: Vertex) -> list[Vertex]:
        return self._adjacency.get(v, [])

    def num_open_edges(self) -> int:
        """Return the number of open edges."""
        return len(self._open)

    def open_edges(self) -> set:
        """Return the set of open edge keys (do not mutate)."""
        return self._open


class GnpPercolation(PercolationModel):
    """The Erdős–Rényi graph ``G(n, p)`` sampled in O(open edges).

    The number of open pairs is drawn ``Binomial(C(n,2), p)`` and the
    pairs themselves uniformly without replacement, which is exactly the
    ``G(n, p)`` distribution (a ``G(n, M)`` mixture).  Probing any pair —
    including closed ones — is an O(1) set lookup.

    >>> model = GnpPercolation(n=50, p=0.1, seed=3)
    >>> isinstance(model.graph, CompleteGraph)
    True
    """

    def __init__(self, n: int, p: float, seed: int) -> None:
        super().__init__(CompleteGraph(n), p)
        self.n = n
        self.seed = seed
        lows, highs = gnp_open_pairs(n, p, seed)
        self._open: set[tuple[int, int]] = set()
        self._adjacency: dict[int, list[int]] = {}
        for i, j in zip(lows.tolist(), highs.tolist()):
            self._open.add((i, j))
            self._adjacency.setdefault(i, []).append(j)
            self._adjacency.setdefault(j, []).append(i)

    def is_open(self, u: Vertex, v: Vertex) -> bool:
        if u == v:
            return False
        return ((u, v) if u < v else (v, u)) in self._open

    def open_neighbors(self, v: Vertex) -> list[Vertex]:
        return self._adjacency.get(v, [])

    def num_open_edges(self) -> int:
        """Return the number of open pairs."""
        return len(self._open)


def gnp_open_pairs(
    n: int, p: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Return the open pairs of one ``G(n, p)`` draw as ``(lows, highs)``.

    Pair ``k`` is ``{lows[k], highs[k]}`` with ``lows[k] < highs[k]``;
    pairs come in increasing triangular index
    (:func:`~repro.util.bitops.pair_index`) order.  The number of open
    pairs is drawn ``Binomial(C(n,2), p)`` and the pairs uniformly
    without replacement, by batched draws with replacement plus
    dedupe.  This is the one sampler of :class:`GnpPercolation` and of
    the chunk kernel :mod:`repro.kernels.gnp`, so both see the same
    graph for the same seed.

    >>> gnp_open_pairs(4, 1.0, seed=0)[1].tolist()
    [1, 2, 2, 3, 3, 3]
    """
    total_pairs = n * (n - 1) // 2
    rng = np.random.default_rng(derive_seed(seed, "gnp-percolation"))
    count = int(rng.binomial(total_pairs, p))
    chosen = np.empty(0, dtype=np.int64)
    if count:
        chosen = np.unique(rng.integers(0, total_pairs, size=count))
    if chosen.size < count:
        # Each later batch draws only the shortfall, which is small
        # unless p is close to 1: finish the dedupe in a set.
        seen = set(chosen.tolist())
        while len(seen) < count:
            batch = rng.integers(0, total_pairs, size=count - len(seen))
            seen.update(batch.tolist())
        chosen = np.sort(np.fromiter(seen, dtype=np.int64, count=count))
    # Invert index = j*(j-1)/2 + i; the float root can be off by one
    # near perfect squares, so correct it in exact integer arithmetic.
    highs = ((np.sqrt(8.0 * chosen + 1.0) + 1.0) // 2).astype(np.int64)
    highs -= highs * (highs - 1) // 2 > chosen
    highs += (highs + 1) * highs // 2 <= chosen
    return chosen - highs * (highs - 1) // 2, highs


def gnp_factory(graph: Graph, p: float, seed: int) -> GnpPercolation:
    """Model factory drawing ``G(n, p)`` on ``graph``'s vertex count.

    The ``model_factory=`` of every ``G(n, p)`` measurement
    (experiments E9, E10 and A3).  The chunk kernel
    :mod:`repro.kernels.gnp` is keyed on this exact callable.
    """
    return GnpPercolation(n=graph.num_vertices(), p=p, seed=seed)
