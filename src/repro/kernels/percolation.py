"""Batched percolation draws and mask-backed models.

A chunk of trials shares one topology; what varies per trial is the
seed.  The functions here draw the whole chunk's randomness as one
``(trials, edges)`` (or ``(trials, vertices)``) boolean matrix — one
row per trial, each row reproducing the corresponding per-trial model
**bit for bit**:

* :func:`table_edge_masks` replays :class:`~repro.percolation.models.
  TablePercolation`'s recipe — one ``default_rng(derive_seed(seed,
  "table-percolation"))`` stream per row, thresholded at ``p`` — over
  edges in :class:`~repro.kernels.topology.EdgeIndex` order, which *is*
  ``graph.edges()`` order;
* :func:`site_up_masks` replays :class:`~repro.percolation.site.
  SitePercolation`'s per-vertex keyed BLAKE2b coins (pinned vertices
  forced up), with the key bytes serialised once per chunk instead of
  once per probe;
* :class:`LazySiteDraw` draws the *same* coins on demand: the chunk's
  connectivity BFS asks for exactly the coins its frontiers touch
  (a dying subcritical cluster demands a handful per trial, not the
  whole vertex set), and only the rows that go on to route pay for a
  full row fill.  Values are bit-identical either way — every coin is
  a pure function of ``(seed, vertex)`` — so laziness is invisible in
  the records.

The mask-backed models wrap one row back into the
:class:`~repro.percolation.models.PercolationModel` interface, so the
routers (which only ever see ``is_open``/``open_neighbors`` answers)
cannot distinguish them from the model they replace — the parity tests
in ``tests/kernels/`` assert exactly that.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

from repro.graphs.base import Vertex
from repro.kernels.bfs import block_rows
from repro.kernels.topology import EdgeIndex
from repro.percolation.models import PercolationModel
from repro.util.rng import MAX_SEED, derive_seed, uniforms_for

__all__ = [
    "LazySiteDraw",
    "MaskEdgePercolation",
    "MaskSitePercolation",
    "site_up_masks",
    "table_edge_masks",
]

_SCALE = float(2**64)


def table_edge_masks(
    p: float, seeds: Sequence[int], num_edges: int
) -> np.ndarray:
    """Draw every trial's edge mask; row ``i`` == trial ``seeds[i]``.

    Row-for-row identical to ``TablePercolation(graph, p, seed).mask``:
    same child-seed derivation, same generator, same threshold
    comparison, same :class:`ValueError` for ``p`` outside ``[0, 1]``
    — only the per-trial edge enumeration and set/dict builds are gone.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(
            f"retention probability must be in [0,1], got {p!r}"
        )
    out = np.empty((len(seeds), num_edges), dtype=bool)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(derive_seed(seed, "table-percolation"))
        out[i] = rng.random(num_edges) < p
    return out


def site_up_masks(
    p: float,
    seeds: Sequence[int],
    verts: Sequence[Vertex],
    pinned_codes: Sequence[int] = (),
) -> np.ndarray:
    """Draw every trial's vertex-up mask; row ``i`` == trial ``seeds[i]``.

    Entry ``[i, v]`` equals ``SitePercolation.is_up(verts[v])`` under
    ``seeds[i]``: the keyed-BLAKE2b uniform ``uniform_for(seed, "site",
    v) < p``, with pinned vertices forced up.  The ``repr`` key bytes
    are serialised once for the whole chunk.
    """
    blobs = [repr(("site", v)).encode("utf-8") for v in verts]
    out = np.empty((len(seeds), len(blobs)), dtype=bool)
    for i, seed in enumerate(seeds):
        out[i] = uniforms_for(seed, blobs) < p
    for code in pinned_codes:
        out[:, code] = True
    return out


class LazySiteDraw:
    """One chunk's site coins, drawn in frontier-demanded blocks.

    The eager matrix (:func:`site_up_masks`) hashes every ``(trial,
    vertex)`` coin up front — a loss when per-trial models would only
    have touched a dying cluster's fringe.  This draw keeps an
    undrawn/drawn ledger per coin and materialises exactly what each
    stage demands:

    * :meth:`connected` runs the chunk-wide layered BFS, drawing the
      coins of each sweep's candidate vertices just before expanding
      into them (verdicts equal the per-trial cluster BFS — coin
      values are pure functions of ``(seed, vertex)``, and
      reachability is order-independent);
    * :meth:`edge_masks_for` / :meth:`model` fill whole rows, but only
      for the trials that actually go on to route.

    ``node_view=True`` serves :class:`~repro.percolation.faults.
    NodeFaultPercolation` — the *same* ``"site"`` coin stream viewed as
    incident-edge kill — by handing per-trial rows out as
    :class:`MaskEdgePercolation` over ``up[u] & up[v]``.
    """

    def __init__(
        self,
        index: EdgeIndex,
        p: float,
        seeds: Sequence[int],
        pinned_codes: Sequence[int] = (),
        node_view: bool = False,
    ) -> None:
        self._index = index
        self._p = p
        self._seeds = list(seeds)
        self._node_view = node_view
        trials = len(self._seeds)
        num_vertices = index.num_vertices
        self._up = np.zeros((trials, num_vertices), dtype=bool)
        self._drawn = np.zeros((trials, num_vertices), dtype=bool)
        if pinned_codes:
            cols = list(pinned_codes)
            self._up[:, cols] = True
            self._drawn[:, cols] = True
        # Key-blob cache, one slot per vertex, serialised on first
        # demand: a dying subcritical chunk touches a handful of
        # vertices, so eagerly ``repr``-ing the whole vertex set would
        # dominate its runtime.
        self._blobs: list[bytes | None] = [None] * num_vertices
        self._keys: list[bytes | None] = [None] * trials

    def _key(self, i: int) -> bytes:
        key = self._keys[i]
        if key is None:
            seed = self._seeds[i]
            if not 0 <= seed <= MAX_SEED:
                raise ValueError(
                    f"seed must be a 64-bit unsigned int, got {seed!r}"
                )
            key = self._keys[i] = seed.to_bytes(8, "little")
        return key

    def _draw_pairs(self, rows: np.ndarray, cols: np.ndarray) -> None:
        blobs = self._blobs
        verts = self._index.verts
        keys = self._keys
        blake2b = hashlib.blake2b
        digests = []
        for i, j in zip(rows.tolist(), cols.tolist()):
            blob = blobs[j]
            if blob is None:
                blob = blobs[j] = repr(("site", verts[j])).encode("utf-8")
            key = keys[i]
            if key is None:
                key = self._key(i)
            digests.append(blake2b(blob, digest_size=8, key=key).digest())
        # uint64 -> float64 rounds to nearest and the /2**64 scaling is
        # exact, so this equals the per-probe ``int.from_bytes(...) /
        # 2**64`` bit for bit.
        vals = np.frombuffer(b"".join(digests), dtype="<u8")
        self._up[rows, cols] = vals / _SCALE < self._p
        self._drawn[rows, cols] = True

    def _fill_rows(self, rows: Sequence[int]) -> None:
        for i in rows:
            cols = np.nonzero(~self._drawn[i])[0]
            if cols.size:
                self._draw_pairs(
                    np.full(cols.size, i, dtype=np.int64), cols
                )

    def connected(
        self, source_code: int, target_code: int
    ) -> np.ndarray:
        """Per-row cluster verdicts, demanding only frontier coins."""
        trials = len(self._seeds)
        out = np.zeros(trials, dtype=bool)
        if source_code == target_code:
            out[:] = True
            return out
        index = self._index
        inc_nbr, inc_eid, inc_valid = index.incidence()
        num_vertices, width = inc_nbr.shape
        # The per-trial BFS opens with open_neighbors(source), which
        # needs the source coin first: a down source never expands.
        undrawn = np.nonzero(~self._drawn[:, source_code])[0]
        if undrawn.size:
            self._draw_pairs(
                undrawn, np.full(undrawn.size, source_code, dtype=np.int64)
            )
        block = block_rows(num_vertices, width)
        for lo in range(0, trials, block):
            hi = min(lo + block, trials)
            rows = np.arange(lo, hi, dtype=np.int64)
            live = self._up[lo:hi, source_code]
            rows = rows[live]
            if not rows.size:
                continue
            reached = np.zeros((rows.size, num_vertices), dtype=bool)
            reached[:, source_code] = True
            frontier = reached.copy()
            while rows.size:
                # Sweep only the columns adjacent to some row's
                # frontier: a dying subcritical cluster touches a
                # handful of vertices, so a whole-graph gather per
                # sweep would swamp the coins it saves.
                fcols = np.nonzero(frontier.any(axis=0))[0]
                seen = np.zeros(num_vertices, dtype=bool)
                seen[inc_nbr[fcols][inc_valid[fcols]]] = True
                cand_cols = np.nonzero(seen)[0]
                sub_nbr = inc_nbr[cand_cols]
                # A candidate has a frontier neighbour; every reached
                # vertex is up (the source was checked above), so the
                # candidate joins iff its own coin is up.
                cand = (
                    inc_valid[cand_cols] & frontier[:, sub_nbr]
                ).any(axis=2)
                cand &= ~reached[:, cand_cols]
                need = cand & ~self._drawn[np.ix_(rows, cand_cols)]
                if need.any():
                    r, c = np.nonzero(need)
                    self._draw_pairs(rows[r], cand_cols[c])
                new = cand & self._up[np.ix_(rows, cand_cols)]
                frontier[:] = False
                frontier[:, cand_cols] = new
                reached[:, cand_cols] |= new
                hit = reached[:, target_code]
                active = ~hit & new.any(axis=1)
                settled = ~active
                if settled.any():
                    out[rows[settled]] = hit[settled]
                    frontier[settled] = False
                    if not active.any():
                        break
                    if int(active.sum()) <= rows.size // 2:
                        reached = reached[active]
                        frontier = frontier[active]
                        rows = rows[active]
        return out

    def up_masks(self) -> np.ndarray:
        """The fully-drawn ``(trials, vertices)`` up matrix."""
        self._fill_rows(range(len(self._seeds)))
        return self._up

    def edge_masks(self) -> np.ndarray:
        up = self.up_masks()
        return up[:, self._index.edge_u] & up[:, self._index.edge_v]

    def edge_masks_for(self, rows: Sequence[int]) -> np.ndarray:
        """Open-edge rows for the given trials only (filled on demand)."""
        self._fill_rows(rows)
        up = self._up[list(rows)]
        return up[:, self._index.edge_u] & up[:, self._index.edge_v]

    def model(self, i: int) -> PercolationModel:
        self._fill_rows([i])
        if self._node_view:
            row = self._up[i]
            mask = row[self._index.edge_u] & row[self._index.edge_v]
            return MaskEdgePercolation(self._index, self._p, mask)
        return MaskSitePercolation(self._index, self._p, self._up[i])


class MaskEdgePercolation(PercolationModel):
    """One trial's row of a batched edge draw, as a model.

    Answers exactly like the ``TablePercolation`` it replaces: an edge
    of the graph is open iff its mask bit is set; a non-edge pair is
    closed (``TablePercolation`` answers via set membership of the
    canonical key, which a non-edge never has).
    """

    def __init__(
        self, index: EdgeIndex, p: float, mask: np.ndarray
    ) -> None:
        super().__init__(index.graph, p)
        self._index = index
        self._mask = mask
        # Probe-path cache: a Python list answers single-edge lookups
        # ~2x faster than numpy scalar indexing.  Materialised on the
        # first probe, so unrouted trials never pay for it.
        self._open_list: list[bool] | None = None

    def is_open(self, u: Vertex, v: Vertex) -> bool:
        eid = self._index.eid.get(self.graph.edge_key(u, v))
        if eid is None:
            return False
        open_list = self._open_list
        if open_list is None:
            open_list = self._open_list = self._mask.tolist()
        return open_list[eid]

    def open_neighbors(self, v: Vertex) -> list[Vertex]:
        index = self._index
        inc_nbr, inc_eid, inc_valid = index.incidence()
        row = index.code[v]
        keep = inc_valid[row] & self._mask[inc_eid[row]]
        verts = index.verts
        return [verts[c] for c in inc_nbr[row][keep].tolist()]

    def num_open_edges(self) -> int:
        """Return the number of open edges."""
        return int(self._mask.sum())


class MaskSitePercolation(PercolationModel):
    """One trial's row of a batched site draw, as a model.

    Mirrors :class:`~repro.percolation.site.SitePercolation` exactly —
    including ``is_open`` on non-adjacent pairs (both endpoints up),
    which the edge-mask view could not represent.
    """

    def __init__(
        self, index: EdgeIndex, p: float, up: np.ndarray
    ) -> None:
        super().__init__(index.graph, p)
        self._index = index
        self._up = up

    def is_up(self, v: Vertex) -> bool:
        """Return whether vertex ``v`` survived."""
        return bool(self._up[self._index.code[v]])

    def is_open(self, u: Vertex, v: Vertex) -> bool:
        return self.is_up(u) and self.is_up(v)

    def open_neighbors(self, v: Vertex) -> list[Vertex]:
        if not self.is_up(v):
            return []
        return [w for w in self.graph.neighbors(v) if self.is_up(w)]
