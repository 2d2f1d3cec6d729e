"""The vectorized chunk kernel for :func:`repro.core.complexity.run_trial`.

``complexity_specs`` freezes a sweep point's context (graph, p, router,
pair, factory, conditioning) into one workload whose specs differ only
in their ``(trial, seed)`` tail.  :func:`compile_run_trial_chunk`
inspects that context once and — when every ingredient has a vectorized
counterpart — returns a chunk runner that executes *all* tails in one
pass, stage by stage:

1. **topology** compiles to an :class:`~repro.kernels.topology.
   EdgeIndex` (implicit graphs arithmetically, other enumerable graphs
   via one ``edges()`` walk, amortised over the workload's lifetime);
2. **draw** — the percolation factory's *model kernel* draws every
   trial's mask as one matrix (or a lazily-demanded one), bit-identical
   per row to the per-trial model;
3. **conditioning** runs as chunk-wide batched BFS
   (:func:`~repro.kernels.bfs.batched_connected`, or the draw's own
   lazy variant — same verdicts, no per-trial Python BFS);
4. **routing** runs through the router's registered *routing kernel*
   (:mod:`repro.kernels.routing`): a lockstep frontier-array replay of
   the exact per-trial probe sequence, same counts, same paths.
   Unregistered routers keep the per-trial loop against cheap
   mask-backed models — behaviour, not speed, is the invariant.

The result is the same list of :class:`~repro.core.complexity.
TrialRecord` objects ``spec.execute()`` would produce, field for field.
Unsupported ingredients (a lazy :class:`~repro.percolation.models.
HashPercolation` factory, an unenumerable graph, an unregistered
factory) make the compiler return ``None`` and the runners fall back to
the per-trial loop.  The compiled runner reports its per-stage verdicts
through ``stages()`` — what ``repro info``'s kernel audit prints.

Workloads drawing ``G(n, p)`` through
:func:`~repro.percolation.models.gnp_factory` skip the edge index
altogether: :mod:`repro.kernels.gnp` compiles them, for the three
``G(n, p)`` growth routers only.

Model kernels are registered per factory *callable* with
:func:`register_model_kernel`; :class:`~repro.percolation.models.
TablePercolation` ships registered, site-percolation factories can opt
in through :func:`site_model_kernel` (experiment E14 does), and
node-fault factories — the same ``"site"`` coin stream viewed as
incident-edge kill — through :func:`node_model_kernel` (E15's node arm
does).
"""

from __future__ import annotations

import traceback
from collections.abc import Callable, Sequence

import numpy as np

from repro.graphs.base import Graph, Vertex
from repro.kernels.bfs import batched_connected
from repro.kernels.gnp import compile_gnp_chunk
from repro.kernels.percolation import (
    LazySiteDraw,
    MaskEdgePercolation,
    table_edge_masks,
)
from repro.kernels.routing import router_kernel_for
from repro.kernels.topology import EdgeIndex, build_edge_index
from repro.percolation.models import TablePercolation, gnp_factory
from repro.runtime.trial import TrialExecutionError
from repro.runtime.workload import Workload

__all__ = [
    "compile_run_trial_chunk",
    "node_model_kernel",
    "register_model_kernel",
    "site_model_kernel",
    "table_model_kernel",
]

#: Percolation factory callable -> model-kernel compiler.
_MODEL_KERNELS: dict = {}


def register_model_kernel(factory: Callable, compiler: Callable) -> None:
    """Register the vectorized counterpart of a percolation factory.

    ``factory`` is the exact callable workloads carry as
    ``model_factory`` (a class like ``TablePercolation``, or a
    module-level function).  ``compiler(graph, index, p)`` must return
    an object with two methods — ``draw(seeds) ->`` chunk draw with
    ``edge_masks()`` (a ``(trials, edges)`` open matrix for
    conditioning) and ``model(i)`` (a
    :class:`~repro.percolation.models.PercolationModel`
    response-identical to ``factory(graph, p, seeds[i])``) — or ``None``
    to decline this workload.  A draw may additionally expose
    ``connected(source_code, target_code)`` (lazy conditioning) and
    ``edge_masks_for(rows)`` (mask rows for the routed trials only);
    the chunk runner prefers them when present.  Registration is per
    process; do it at import time of the module defining the factory,
    so worker processes registering by unpickling the workload see it
    too.
    """
    _MODEL_KERNELS[factory] = compiler


class _TableDraw:
    def __init__(self, index: EdgeIndex, p: float, masks: np.ndarray):
        self._index = index
        self._p = p
        self._masks = masks

    def edge_masks(self) -> np.ndarray:
        return self._masks

    def model(self, i: int) -> MaskEdgePercolation:
        return MaskEdgePercolation(self._index, self._p, self._masks[i])


class _TableModelKernel:
    def __init__(self, index: EdgeIndex, p: float):
        self._index = index
        self._p = p

    def draw(self, seeds: Sequence[int]) -> _TableDraw:
        masks = table_edge_masks(self._p, seeds, self._index.num_edges)
        return _TableDraw(self._index, self._p, masks)


def table_model_kernel(graph: Graph, index: EdgeIndex, p: float):
    """Model kernel replaying ``TablePercolation`` row by row."""
    return _TableModelKernel(index, p)


class _SiteModelKernel:
    def __init__(
        self,
        index: EdgeIndex,
        p: float,
        pinned_codes: tuple,
        node_view: bool = False,
    ):
        self._index = index
        self._p = p
        self._pinned = pinned_codes
        self._node_view = node_view

    def draw(self, seeds: Sequence[int]) -> LazySiteDraw:
        return LazySiteDraw(
            self._index,
            self._p,
            seeds,
            self._pinned,
            node_view=self._node_view,
        )


def _site_compiler(pinned, node_view: bool):
    def compiler(graph: Graph, index: EdgeIndex, p: float):
        pinned_verts = () if pinned is None else tuple(pinned(graph))
        codes = []
        for v in pinned_verts:
            code = index.code.get(v)
            if code is None:
                return None  # pinned vertex outside the graph
            codes.append(code)
        return _SiteModelKernel(index, p, tuple(codes), node_view=node_view)

    return compiler


def site_model_kernel(
    pinned: Callable[[Graph], Sequence[Vertex]] | None = None,
):
    """Build a model-kernel compiler for a site-percolation factory.

    ``pinned`` maps the graph to the vertices the factory exempts from
    failure (``None`` = nothing pinned); it must produce the same set
    the factory passes to :class:`~repro.percolation.site.
    SitePercolation`, or the parity gate fails.
    """
    return _site_compiler(pinned, node_view=False)


def node_model_kernel(
    pinned: Callable[[Graph], Sequence[Vertex]] | None = None,
):
    """Build a model-kernel compiler for a node-fault factory.

    :class:`~repro.percolation.faults.NodeFaultPercolation` flips the
    *same* ``"site"`` BLAKE2b coin stream as ``SitePercolation`` — a
    vertex survives iff pinned or its coin lands under ``p`` — and an
    edge is open iff both endpoints survive.  That is exactly the site
    up-mask viewed as incident-edge kill, so the kernel reuses the lazy
    site draw and hands per-trial rows out as edge masks.  ``pinned``
    must return the vertices the factory pins (E15 pins the probe
    pair).
    """
    return _site_compiler(pinned, node_view=True)


register_model_kernel(TablePercolation, table_model_kernel)


class _RunTrialChunk:
    """A compiled chunk runner for one ``run_trial`` workload."""

    def __init__(
        self,
        index: EdgeIndex,
        model_kernel,
        router,
        router_kernel,
        source: Vertex,
        target: Vertex,
        source_code: int,
        target_code: int,
        budget: int | None,
        conditioning: str,
    ) -> None:
        self._index = index
        self._model_kernel = model_kernel
        self._router = router
        self._router_kernel = router_kernel
        self._source = source
        self._target = target
        self._source_code = source_code
        self._target_code = target_code
        self._budget = budget
        self._conditioning = conditioning

    def stages(self) -> dict[str, str]:
        """Per-stage execution verdicts for the kernel audit.

        ``conditioning`` under ``"router"``/``"none"`` *is* the routing
        attempt, so it reports whatever the routing stage does.
        """
        routing = (
            "kernel" if self._router_kernel is not None else "per-trial"
        )
        conditioning = (
            "kernel" if self._conditioning == "exact" else routing
        )
        return {
            "draw": "kernel",
            "conditioning": conditioning,
            "routing": routing,
        }

    def __call__(
        self, keys: Sequence[tuple], tails: Sequence[tuple]
    ) -> list:
        from repro.core.complexity import TrialRecord

        seeds = [seed for _, seed in tails]
        try:
            draw = self._model_kernel.draw(seeds)
            conn = None
            if self._conditioning == "exact":
                lazy = getattr(draw, "connected", None)
                if lazy is not None:
                    conn = lazy(self._source_code, self._target_code)
                else:
                    conn = batched_connected(
                        self._index,
                        draw.edge_masks(),
                        self._source_code,
                        self._target_code,
                    )
        except TrialExecutionError:
            raise
        except Exception as exc:
            raise TrialExecutionError(
                keys[0] if keys else ("<chunk-kernel>",),
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            ) from exc

        # Under "exact" conditioning only connected trials route; the
        # other modes route everything and read `connected` off the
        # attempt ("router" mode routes without a budget).
        if conn is not None:
            route_rows = [i for i in range(len(tails)) if conn[i]]
        else:
            route_rows = list(range(len(tails)))
        budget = None if self._conditioning == "router" else self._budget
        results: list = [None] * len(tails)
        if self._router_kernel is not None:
            if route_rows:
                try:
                    masks = self._row_masks(draw, route_rows)
                    routed = self._router_kernel.route_rows(masks)
                except TrialExecutionError:
                    raise
                except Exception as exc:
                    raise TrialExecutionError(
                        keys[route_rows[0]],
                        f"{type(exc).__name__}: {exc}\n"
                        f"{traceback.format_exc()}",
                    ) from exc
                for i, result in zip(route_rows, routed):
                    results[i] = result
        else:
            route = self._router.route
            for i in route_rows:
                try:
                    results[i] = route(
                        draw.model(i),
                        self._source,
                        self._target,
                        budget=budget,
                    )
                except TrialExecutionError:
                    raise
                except Exception as exc:
                    raise TrialExecutionError(
                        keys[i],
                        f"{type(exc).__name__}: {exc}\n"
                        f"{traceback.format_exc()}",
                    ) from exc
        records = []
        for i, (trial, seed) in enumerate(tails):
            result = results[i]
            if conn is not None:
                is_conn = bool(conn[i])
            else:
                is_conn = result.success
            records.append(
                TrialRecord(
                    trial=trial, seed=seed, connected=is_conn, result=result
                )
            )
        return records

    @staticmethod
    def _row_masks(draw, rows: list[int]) -> np.ndarray:
        rows_fn = getattr(draw, "edge_masks_for", None)
        if rows_fn is not None:
            return rows_fn(rows)
        return draw.edge_masks()[rows]


def compile_run_trial_chunk(workload: Workload):
    """Compile a ``run_trial`` workload to a chunk runner, or ``None``.

    ``None`` — the per-trial fallback — whenever any ingredient lacks a
    vectorized counterpart; anything the fallback would *reject* (bad
    ``p``, unknown conditioning) is also declined, so the error
    surfaces through the unchanged per-trial code path.  A registered
    model kernel with an unregistered *router* still compiles: draw and
    conditioning vectorize, routing takes the per-trial loop (the
    runner's ``stages()`` reports the split).
    """
    from repro.core.complexity import _default_factory, run_trial

    if workload.fn is not run_trial:
        return None
    if len(workload.args) != 5:
        return None
    allowed = {"budget", "model_factory", "conditioning"}
    if not set(workload.kwargs) <= allowed:
        return None
    graph, p, router, source, target = workload.args
    if not isinstance(graph, Graph):
        return None
    if not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
        return None
    budget = workload.kwargs.get("budget")
    conditioning = workload.kwargs.get("conditioning", "exact")
    if conditioning not in ("exact", "router", "none"):
        return None
    factory = workload.kwargs.get("model_factory") or _default_factory(graph)
    if factory is gnp_factory:
        # Sparse G(n, p): its own event-driven kernel, no edge index.
        return compile_gnp_chunk(
            graph, p, router, source, target, budget, conditioning
        )
    try:
        compiler = _MODEL_KERNELS.get(factory)
    except TypeError:
        # Unhashable factory (e.g. an unfrozen dataclass instance) —
        # it can't be registered, so it can't have a kernel: fall back.
        compiler = None
    if compiler is None:
        return None
    index = build_edge_index(graph)
    if index is None:
        return None
    source_code = index.code.get(source)
    target_code = index.code.get(target)
    if source_code is None or target_code is None:
        return None
    model_kernel = compiler(graph, index, p)
    if model_kernel is None:
        return None
    # "router" conditioning routes with no budget (run_trial's rule);
    # the effective budget is fixed per workload, so the routing kernel
    # compiles once against it.
    route_budget = None if conditioning == "router" else budget
    router_kernel = router_kernel_for(
        router, index, source_code, target_code, route_budget
    )
    return _RunTrialChunk(
        index,
        model_kernel,
        router,
        router_kernel,
        source,
        target,
        source_code,
        target_code,
        budget,
        conditioning,
    )
