"""The compiled-edge-array paths equal their per-model references.

* :func:`repro.kernels.bfs.component_labels` over a
  :func:`~repro.kernels.percolation.table_edge_masks` row gives the
  cluster sizes of :func:`repro.percolation.cluster.component_sizes`
  on the ``TablePercolation`` of the same seed;
* :func:`~repro.percolation.coupled.pair_threshold` and
  :func:`~repro.percolation.coupled.giant_threshold` equal a Kruskal
  sweep written here over :func:`~repro.percolation.coupled.edge_level`
  with ``(level, edge key)`` tuples, the order the thresholds are
  defined by.

Graphs cover the implicit topologies with arithmetic edge builders
(hypercube, mesh), one walked generically (double tree), and explicit
graphs that are disconnected or have no edges at all.
"""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.double_tree import DoubleBinaryTree
from repro.graphs.explicit import ExplicitGraph
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh
from repro.kernels import build_edge_index, component_labels, table_edge_masks
from repro.percolation import coupled
from repro.percolation.cluster import component_sizes
from repro.percolation.coupled import (
    edge_level,
    giant_threshold,
    pair_threshold,
)
from repro.percolation.models import TablePercolation
from repro.util.rng import MAX_SEED

GRAPHS = {
    "hypercube": Hypercube(4),
    "mesh": Mesh(2, 5),
    "double_tree": DoubleBinaryTree(3),
    "disconnected": ExplicitGraph(
        [(0, 1), (1, 2), (2, 0), (3, 4)], vertices=[5]
    ),
    "edgeless": ExplicitGraph([], vertices=[0, 1, 2]),
}
NAMES = st.sampled_from(sorted(GRAPHS))
SEEDS = st.integers(min_value=0, max_value=MAX_SEED)
PS = st.one_of(
    st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)
)


def _reference_kruskal(graph, seed):
    """Merge edges in ``(level, key)`` order with a dict union-find;
    yield ``(level, find, size of the merged component)`` per edge."""
    parent = {v: v for v in graph.vertices()}
    size = dict.fromkeys(parent, 1)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    levels = sorted((edge_level(graph, seed, *e), e) for e in graph.edges())
    for level, (a, b) in levels:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            size[ra] += size[rb]
        yield level, find, size[find(a)]


def _reference_pair(graph, seed, u, v):
    if u == v:
        return 0.0
    for level, find, _ in _reference_kruskal(graph, seed):
        if find(u) == find(v):
            return level
    return math.inf


def _reference_giant(graph, seed, fraction):
    target = fraction * graph.num_vertices()
    if target <= 1:
        return 0.0
    for level, _, merged in _reference_kruskal(graph, seed):
        if merged >= target:
            return level
    return math.inf


class TestComponentLabels:
    @given(name=NAMES, p=PS, seeds=st.lists(SEEDS, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_sizes_match_table_percolation(self, name, p, seeds):
        graph = GRAPHS[name]
        index = build_edge_index(graph)
        masks = table_edge_masks(p, seeds, index.num_edges)
        labels = component_labels(index, masks)
        for row, seed in zip(labels, seeds):
            _, counts = np.unique(row, return_counts=True)
            expected = component_sizes(TablePercolation(graph, p, seed))
            assert sorted(counts.tolist(), reverse=True) == expected

    def test_label_is_smallest_code_of_its_cluster(self):
        graph = GRAPHS["disconnected"]
        index = build_edge_index(graph)
        labels = component_labels(
            index, np.ones((1, index.num_edges), dtype=bool)
        )
        clusters = [{0, 1, 2}, {3, 4}, {5}]
        for cluster in clusters:
            smallest = min(index.code[v] for v in cluster)
            for v in cluster:
                assert labels[0, index.code[v]] == smallest


class TestCoupledThresholds:
    @given(name=NAMES, seed=SEEDS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pair_threshold_matches_reference(self, name, seed, data):
        graph = GRAPHS[name]
        verts = list(graph.vertices())
        u = data.draw(st.sampled_from(verts))
        v = data.draw(st.sampled_from(verts))
        assert pair_threshold(graph, seed, u, v) == _reference_pair(
            graph, seed, u, v
        )

    @given(
        name=NAMES,
        seed=SEEDS,
        fraction=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_giant_threshold_matches_reference(self, name, seed, fraction):
        graph = GRAPHS[name]
        assert giant_threshold(graph, seed, fraction) == _reference_giant(
            graph, seed, fraction
        )

    @pytest.mark.parametrize("seed", [-1, MAX_SEED + 1])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_out_of_range_seed_raises(self, name, seed):
        graph = GRAPHS[name]
        u, v = graph.canonical_pair()
        with pytest.raises(ValueError):
            pair_threshold(graph, seed, u, v)
        with pytest.raises(ValueError):
            giant_threshold(graph, seed, 1.0)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_foreign_vertex_raises(self, name):
        graph = GRAPHS[name]
        u, _ = graph.canonical_pair()
        with pytest.raises(ValueError):
            pair_threshold(graph, 0, u, "not-a-vertex")
        with pytest.raises(ValueError):
            pair_threshold(graph, 0, "not-a-vertex", u)

    def test_edge_cache_dropped_with_its_graph(self):
        graph = DoubleBinaryTree(2)
        key = id(graph)
        pair_threshold(graph, 0, *graph.roots())
        assert key in coupled._EDGE_DATA
        del graph
        gc.collect()
        assert key not in coupled._EDGE_DATA
