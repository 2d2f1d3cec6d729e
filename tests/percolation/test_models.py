"""Tests for repro.percolation.models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.complete import CompleteGraph
from repro.graphs.explicit import cycle_graph, path_graph
from repro.graphs.hypercube import Hypercube
from repro.graphs.mesh import Mesh
from repro.percolation.models import (
    GnpPercolation,
    HashPercolation,
    TablePercolation,
    gnp_open_pairs,
)
from repro.util.bitops import pair_from_index
from repro.util.rng import derive_seed


class TestHashPercolation:
    def test_deterministic(self):
        g = Hypercube(6)
        m1 = HashPercolation(g, 0.5, seed=11)
        m2 = HashPercolation(g, 0.5, seed=11)
        assert all(m1.is_open(*e) == m2.is_open(*e) for e in g.edges())

    def test_orientation_independent(self):
        g = Hypercube(6)
        m = HashPercolation(g, 0.5, seed=1)
        for e in list(g.edges())[:50]:
            u, v = e
            assert m.is_open(u, v) == m.is_open(v, u)

    def test_extreme_probabilities(self):
        g = Mesh(2, 4)
        all_open = HashPercolation(g, 1.0, seed=0)
        all_closed = HashPercolation(g, 0.0, seed=0)
        for e in g.edges():
            assert all_open.is_open(*e)
            assert not all_closed.is_open(*e)

    def test_open_fraction_matches_p(self):
        g = Hypercube(9)  # 2304 edges
        p = 0.4
        m = HashPercolation(g, p, seed=5)
        edges = list(g.edges())
        frac = sum(m.is_open(*e) for e in edges) / len(edges)
        assert abs(frac - p) < 5 * math.sqrt(p * (1 - p) / len(edges))

    def test_seeds_decorrelate(self):
        g = Hypercube(7)
        m1 = HashPercolation(g, 0.5, seed=1)
        m2 = HashPercolation(g, 0.5, seed=2)
        agree = sum(m1.is_open(*e) == m2.is_open(*e) for e in g.edges())
        total = g.num_edges()
        assert abs(agree / total - 0.5) < 5 * math.sqrt(0.25 / total)

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=50)
    def test_monotone_coupling_in_p(self, seed, p1, p2):
        g = Hypercube(4)
        lo, hi = min(p1, p2), max(p1, p2)
        m_lo = HashPercolation(g, lo, seed=seed)
        m_hi = HashPercolation(g, hi, seed=seed)
        for e in g.edges():
            if m_lo.is_open(*e):
                assert m_hi.is_open(*e)

    def test_open_neighbors_subset(self):
        g = Mesh(2, 5)
        m = HashPercolation(g, 0.6, seed=3)
        for v in [(0, 0), (2, 2), (4, 4)]:
            opens = m.open_neighbors(v)
            assert set(opens) <= set(g.neighbors(v))
            assert m.open_degree(v) == len(opens)

    def test_path_is_open(self):
        g = path_graph(3)
        m = HashPercolation(g, 1.0, seed=0)
        assert m.path_is_open([0, 1, 2, 3])
        m0 = HashPercolation(g, 0.0, seed=0)
        assert not m0.path_is_open([0, 1])
        assert m0.path_is_open([2])  # empty edge set

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            HashPercolation(path_graph(2), 1.5, seed=0)


class TestTablePercolation:
    def test_matches_its_own_index(self):
        g = Mesh(2, 6)
        m = TablePercolation(g, 0.5, seed=7)
        for v in g.vertices():
            for w in g.neighbors(v):
                assert (w in m.open_neighbors(v)) == m.is_open(v, w)

    def test_extremes(self):
        g = cycle_graph(10)
        assert TablePercolation(g, 1.0, seed=0).num_open_edges() == 10
        assert TablePercolation(g, 0.0, seed=0).num_open_edges() == 0

    def test_deterministic_given_seed(self):
        g = Mesh(2, 5)
        m1 = TablePercolation(g, 0.5, seed=9)
        m2 = TablePercolation(g, 0.5, seed=9)
        assert m1.open_edges() == m2.open_edges()

    def test_open_fraction_matches_p(self):
        g = Mesh(2, 30)  # 1740 edges
        p = 0.55
        m = TablePercolation(g, p, seed=2)
        frac = m.num_open_edges() / g.num_edges()
        assert abs(frac - p) < 5 * math.sqrt(p * (1 - p) / g.num_edges())

    def test_adjacency_is_symmetric(self):
        g = Mesh(2, 5)
        m = TablePercolation(g, 0.5, seed=4)
        for v in g.vertices():
            for w in m.open_neighbors(v):
                assert v in m.open_neighbors(w)

    def test_isolated_vertex_has_no_open_neighbors(self):
        g = path_graph(2)
        m = TablePercolation(g, 0.0, seed=0)
        assert m.open_neighbors(1) == []


class TestGnpPercolation:
    def test_graph_is_complete(self):
        m = GnpPercolation(n=20, p=0.2, seed=0)
        assert isinstance(m.graph, CompleteGraph)
        assert m.graph.num_vertices() == 20

    def test_deterministic(self):
        m1 = GnpPercolation(n=40, p=0.1, seed=5)
        m2 = GnpPercolation(n=40, p=0.1, seed=5)
        assert m1._open == m2._open

    def test_edge_count_near_expectation(self):
        n, p = 200, 0.05
        total = n * (n - 1) // 2
        m = GnpPercolation(n=n, p=p, seed=1)
        expected = total * p
        assert abs(m.num_open_edges() - expected) < 5 * math.sqrt(
            total * p * (1 - p)
        )

    def test_is_open_consistency(self):
        m = GnpPercolation(n=30, p=0.2, seed=3)
        for i in range(30):
            for j in m.open_neighbors(i):
                assert m.is_open(i, j)
                assert m.is_open(j, i)

    def test_self_pair_closed(self):
        m = GnpPercolation(n=10, p=1.0, seed=0)
        assert not m.is_open(3, 3)

    def test_p_one_is_complete(self):
        m = GnpPercolation(n=12, p=1.0, seed=0)
        assert m.num_open_edges() == 66
        assert sorted(m.open_neighbors(0)) == list(range(1, 12))

    def test_p_zero_is_empty(self):
        m = GnpPercolation(n=12, p=0.0, seed=0)
        assert m.num_open_edges() == 0

    def test_mean_degree_scaling(self):
        # G(n, c/n) has mean degree ~ c.
        n, c = 500, 3.0
        m = GnpPercolation(n=n, p=c / n, seed=8)
        mean_degree = 2 * m.num_open_edges() / n
        assert 2.0 < mean_degree < 4.0


def _reference_open_pairs(n, p, seed):
    """The G(n, p) draw one pair at a time: set dedupe, scalar decode."""
    total_pairs = n * (n - 1) // 2
    rng = np.random.default_rng(derive_seed(seed, "gnp-percolation"))
    count = int(rng.binomial(total_pairs, p))
    chosen = set()
    while len(chosen) < count:
        batch = rng.integers(0, total_pairs, size=count - len(chosen))
        chosen.update(int(x) for x in batch)
    return [pair_from_index(index) for index in sorted(chosen)]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=90),
    p=st.one_of(
        st.sampled_from([0.0, 1.0]),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.1, max_value=8.0).map(lambda c: c / 90),
    ),
    seed=st.integers(min_value=0, max_value=2**40),
)
def test_gnp_open_pairs_match_scalar_reference(n, p, seed):
    lows, highs = gnp_open_pairs(n, p, seed)
    pairs = list(zip(lows.tolist(), highs.tolist()))
    assert pairs == _reference_open_pairs(n, p, seed)
    model = GnpPercolation(n=n, p=p, seed=seed)
    assert model._open == set(pairs)


@pytest.mark.parametrize("n", [2**20 + 1, 3_000_017])
def test_gnp_open_pairs_decode_large_indices(n):
    # Triangular indices near 4.5e12, where the float root is closest
    # to being off by one.
    p = 40 / (n * (n - 1) // 2)
    lows, highs = gnp_open_pairs(n, p, seed=n)
    assert lows.size > 0
    assert list(zip(lows.tolist(), highs.tolist())) == _reference_open_pairs(
        n, p, n
    )
