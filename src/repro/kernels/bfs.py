"""Chunk-wide reachability by batched frontier expansion, and
chunk-wide cluster labelling.

The conditioning step of a routing trial asks one bit — is the target
in the source's open cluster?  :func:`batched_connected` answers it for
a whole chunk at once: trials are rows of a boolean reach matrix, and
one sweep expands *every* trial's frontier with two array gathers (the
padded incidence arrays of the :class:`~repro.kernels.topology.
EdgeIndex` turn "neighbour reached through an open edge" into indexed
reads).  The answer equals :func:`repro.percolation.cluster.connected`
per row by construction — reachability is order-independent, so it
does not matter that the per-trial BFS visits vertices in a different
sequence.

Whole-cluster questions (component sizes, "is everything connected",
the target's cluster inside a region) need every cluster, not one
verdict: :func:`component_labels` labels each row's open clusters by
their smallest vertex code, hooking and pointer-jumping over the open
edges of all rows at once.

Memory is bounded by processing trials in blocks: each sweep keeps a
``(block, vertices, max_degree)`` boolean workspace, capped at roughly
:data:`BLOCK_BYTES`; labelling takes :data:`LABEL_EDGES` open edges
per block.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.topology import EdgeIndex

__all__ = [
    "BLOCK_BYTES",
    "LABEL_EDGES",
    "batched_connected",
    "block_rows",
    "component_labels",
]

#: Soft cap on the per-sweep boolean workspace, in bytes.
BLOCK_BYTES = 64 * 1024 * 1024

#: Open edges labelled per :func:`component_labels` block.
LABEL_EDGES = 1 << 15


def block_rows(num_vertices: int, width: int) -> int:
    """Trials per block for a ``(block, vertices, width)`` workspace.

    Shared by every chunk-wide sweep that keeps per-trial state of that
    shape — the eager BFS below, the lazy site-coin BFS in
    :mod:`repro.kernels.percolation` — so they all honour the same
    :data:`BLOCK_BYTES` soft cap.
    """
    per_row = max(1, num_vertices * width)
    return max(1, BLOCK_BYTES // per_row)


def batched_connected(
    index: EdgeIndex,
    masks: np.ndarray,
    source_code: int,
    target_code: int,
) -> np.ndarray:
    """Return ``connected(source, target)`` for every trial row.

    ``masks`` is the ``(trials, edges)`` open-edge matrix of the chunk.
    Equivalent to running the per-trial cluster BFS on each row.
    """
    trials = masks.shape[0]
    out = np.zeros(trials, dtype=bool)
    if source_code == target_code:
        out[:] = True
        return out
    inc_nbr, inc_eid, inc_valid = index.incidence()
    num_vertices, width = inc_nbr.shape
    block = block_rows(num_vertices, width)
    for lo in range(0, trials, block):
        hi = min(lo + block, trials)
        # Which incidence slots are open, per trial in the block.
        inc_open = masks[lo:hi, inc_eid] & inc_valid
        reached = np.zeros((hi - lo, num_vertices), dtype=bool)
        reached[:, source_code] = True
        rows = np.arange(lo, hi, dtype=np.int64)
        while rows.size:
            # A vertex joins when any incident open edge leads to a
            # reached neighbour — one gather + reduce for all trials.
            grown = (inc_open & reached[:, inc_nbr]).any(axis=2)
            grown |= reached
            hit = grown[:, target_code]
            # A row is settled once its target is reached or its
            # cluster stopped growing; its verdict is final either way
            # (reachability is monotone in the sweep count).
            active = ~hit & (grown != reached).any(axis=1)
            settled = ~active
            if settled.any():
                out[rows[settled]] = hit[settled]
                if not active.any():
                    break
                # Drop settled rows from the workspace once they are
                # the majority — sweeps then shrink with the slowest
                # clusters instead of paying for finished trials, and
                # the halving rule bounds total copy cost at ~2x one
                # workspace.
                if int(active.sum()) <= rows.size // 2:
                    reached = grown[active]
                    inc_open = inc_open[active]
                    rows = rows[active]
                    continue
            reached = grown
    return out


def component_labels(index: EdgeIndex, masks: np.ndarray) -> np.ndarray:
    """Return every trial row's cluster labels, ``(trials, vertices)``.

    Entry ``[i, v]`` is the smallest vertex code in ``v``'s open
    cluster under row ``i`` of the ``(trials, edges)`` open-edge
    matrix, so two vertices share a cluster iff their labels are
    equal.  Equivalent to the per-trial cluster BFS of
    :func:`repro.percolation.cluster.component` on each row.
    """
    trials = masks.shape[0]
    num_vertices = index.num_vertices
    labels = np.empty((trials, num_vertices), dtype=np.int64)
    # Rows of one block become one disjoint union: row r's vertex v is
    # node r * num_vertices + v.  The workspace is ~100 bytes per open
    # edge, so a block takes rows until LABEL_EDGES open edges (always
    # at least one row).
    ends = np.cumsum(masks.sum(axis=1))
    lo = 0
    while lo < trials:
        base = ends[lo - 1] if lo else 0
        hi = max(
            lo + 1,
            int(np.searchsorted(ends, base + LABEL_EDGES, side="right")),
        )
        rows, eids = np.nonzero(masks[lo:hi])
        offset = rows * num_vertices
        flat = _min_labels(
            (hi - lo) * num_vertices,
            index.edge_u[eids] + offset,
            index.edge_v[eids] + offset,
        )
        labels[lo:hi] = flat.reshape(hi - lo, num_vertices)
        labels[lo:hi] -= (
            np.arange(hi - lo, dtype=np.int64)[:, None] * num_vertices
        )
        lo = hi
    return labels


def _min_labels(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label nodes ``0..size-1`` joined by edges ``a[i]-b[i]`` with the
    smallest node of their component."""
    label = np.arange(size, dtype=np.int64)
    while True:
        la, lb = label[a], label[b]
        split = la != lb
        if not split.any():
            return label
        # An edge whose ends share a label stays joined: drop it.
        a, b, la, lb = a[split], b[split], la[split], lb[split]
        # Every label is a root (label[r] == r): hook each edge's larger
        # root under its smaller one.  Links strictly decrease, so the
        # forest stays acyclic and a component's root is its minimum.
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        # Pointer jumping until every node points at its root again.
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
