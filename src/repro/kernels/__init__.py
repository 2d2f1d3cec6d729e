"""Vectorized chunk kernels: whole-chunk trial execution with NumPy.

The runtime's schedulable unit is a single trial, but the *executable*
unit on a worker is a chunk of consecutive specs sharing one workload.
This package supplies batch kernels that execute such a chunk in one
call — i.i.d. percolation masks drawn as one seeded bit-matrix, the
conditioning BFS as chunk-wide frontier expansion over implicit
topologies compiled to index arithmetic — while preserving the
per-trial seed derivation, so every record is **bit-identical** to what
``spec.execute()`` produces.  Registration happens on import: pulling
this package in wires the ``run_trial`` compiler into
:mod:`repro.runtime.chunkexec` (which imports it lazily on the first
chunk it sees).

Layout
------

:mod:`~repro.kernels.topology`
    :class:`EdgeIndex` — a graph as flat edge/incidence arrays, edges
    in exact ``graph.edges()`` order (the mask-parity contract), built
    arithmetically for Hypercube/Mesh/Torus/DeBruijn.
:mod:`~repro.kernels.percolation`
    Batched seeded mask draws + mask-backed ``PercolationModel``\\ s
    that answer exactly like the per-trial models they replace.
:mod:`~repro.kernels.bfs`
    Chunk-wide reachability (the conditioning step) by batched
    frontier expansion, and chunk-wide cluster labelling.
:mod:`~repro.kernels.routing`
    Lockstep frontier-array routing kernels replaying the complete
    -information routers probe for probe, plus the router-kernel
    registry router types opt into.
:mod:`~repro.kernels.gnp`
    The event-driven ``G(n, p)`` kernel: sparse per-trial draws and
    the growth routers replayed one newly reached vertex at a time.
:mod:`~repro.kernels.complexity`
    The ``run_trial`` chunk compiler tying the above together, plus
    the model-kernel registry percolation factories opt into.
"""

from repro.kernels.bfs import batched_connected, component_labels
from repro.kernels.complexity import (
    compile_run_trial_chunk,
    node_model_kernel,
    register_model_kernel,
    site_model_kernel,
    table_model_kernel,
)
from repro.kernels.percolation import (
    LazySiteDraw,
    MaskEdgePercolation,
    MaskSitePercolation,
    site_up_masks,
    table_edge_masks,
)
from repro.kernels.routing import (
    PairRoutingUnsupported,
    pair_router_kernel_for,
    register_router_kernel,
    register_router_pair_kernel,
    router_kernel_for,
    routing_incidence,
)
from repro.kernels.topology import (
    EdgeIndex,
    build_edge_index,
    require_edge_index,
)
from repro.kernels.traffic import compile_traffic_chunk

__all__ = [
    "EdgeIndex",
    "LazySiteDraw",
    "MaskEdgePercolation",
    "MaskSitePercolation",
    "PairRoutingUnsupported",
    "batched_connected",
    "build_edge_index",
    "component_labels",
    "compile_run_trial_chunk",
    "compile_traffic_chunk",
    "node_model_kernel",
    "pair_router_kernel_for",
    "register_model_kernel",
    "register_router_kernel",
    "register_router_pair_kernel",
    "require_edge_index",
    "router_kernel_for",
    "routing_incidence",
    "site_model_kernel",
    "site_up_masks",
    "table_edge_masks",
    "table_model_kernel",
]


def _register_builtin_kernels() -> None:
    """Wire the shipped compilers into the runtime seam (idempotent)."""
    from repro.core.complexity import run_trial
    from repro.core.traffic import run_traffic_trial
    from repro.runtime.chunkexec import register_chunk_kernel

    register_chunk_kernel(run_trial, compile_run_trial_chunk)
    register_chunk_kernel(run_traffic_trial, compile_traffic_chunk)


_register_builtin_kernels()
