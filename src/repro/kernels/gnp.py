"""The event-driven chunk kernel for the ``G(n, p)`` growth routers.

:class:`~repro.routers.gnp.GnpLocalRouter` (and its oracle twin
:class:`~repro.routers.gnp.GnpUnidirectionalRouter`) and
:class:`~repro.routers.gnp.GnpBidirectionalRouter` probe one pair at a
time, round-robin over growth *slots* (a reached vertex and the cursor
of its next candidate).  Almost every probe is closed, and a closed
probe changes nothing but the prober's cursor.  This kernel replays the
same probe sequence one *event* (one newly reached vertex) at a time:

* between two open probes the reached set is fixed, so every slot's
  candidates are the free vertices at or after its cursor, in vertex
  order — a prefix count over the free mask gives each slot's
  remaining candidates and the number of closed probes before its
  next open neighbour;
* the slot whose open probe comes first in round-robin order is the
  one with the fewest closed probes before it (ties to the earlier
  slot); every slot ahead of it in the deque probes once more, and
  each slot's new cursor is the position after its last probe;
* the deque is then reordered exactly as the per-trial code leaves
  it: the local engine's new slot goes just before the prober at the
  back, the bidirectional engine's new slot goes to the head;
* a bidirectional cross pair ``{y, z}`` is already known iff ``z``'s
  cursor is past ``y`` (``z`` probed ``y`` while it was free, and
  found it closed).

Slots with no candidates left are dropped: candidates only ever leave
the free set, so such a slot never probes again.  Each trial's open
pairs come from :func:`~repro.percolation.models.gnp_open_pairs`, the
sampler of :class:`~repro.percolation.models.GnpPercolation`, stored as
sorted per-vertex neighbour arrays; nothing of size ``C(n, 2)`` is
built.  Records are field-identical to ``spec.execute()``: same
queries, same paths, the same ``BUDGET`` cut (``queries == budget``
iff the run needs more probes than the budget).
"""

from __future__ import annotations

import traceback
from collections.abc import Sequence

import numpy as np

from repro.core.result import FailureReason, RoutingResult
from repro.graphs.complete import CompleteGraph
from repro.percolation.models import gnp_open_pairs
from repro.routers.gnp import (
    GnpBidirectionalRouter,
    GnpLocalRouter,
    GnpUnidirectionalRouter,
)
from repro.runtime.trial import TrialExecutionError

__all__ = ["compile_gnp_chunk", "gnp_adjacency"]


class _OverBudget(Exception):
    """A probe would exceed the budget (the oracle's raise)."""


def _charge(queries: int, probes: int, budget: int | None) -> int:
    queries += probes
    if budget is not None and queries > budget:
        raise _OverBudget
    return queries


def gnp_adjacency(
    n: int, p: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """One ``G(n, p)`` draw as CSR arrays ``(indptr, neighbours)``.

    Vertex ``v``'s open neighbours are ``neighbours[indptr[v]:
    indptr[v + 1]]``, in increasing order — the same graph
    ``GnpPercolation(n, p, seed)`` holds.
    """
    lows, highs = gnp_open_pairs(n, p, seed)
    heads = np.concatenate((highs, lows))
    tails = np.concatenate((lows, highs))
    # Pairs arrive in triangular order, so a stable sort by head lists
    # each vertex's lower neighbours, then its higher ones, ascending.
    neighbours = tails[np.argsort(heads, kind="stable")]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
    return indptr, neighbours


def _connected(
    indptr: np.ndarray, neighbours: np.ndarray, source: int, target: int
) -> bool:
    """Whether ``source ~ target``: a frontier BFS over the CSR arrays."""
    if source == target:
        return True
    seen = np.zeros(indptr.size - 1, dtype=bool)
    seen[source] = True
    frontier = np.array([source])
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if not total:
            break
        offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
        reached = neighbours[offsets + np.arange(total)]
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
    return bool(seen[target])


def _backtrack(parent: dict, v: int) -> list[int]:
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


class _Slots:
    """Growth slots over one draw, advanced one open probe at a time.

    ``cursor[x]`` is slot ``x``'s next candidate position and ``nb[x]``
    its first open neighbour that is free and at or after the cursor
    (``n`` if none).  Both only move forward: positions behind a cursor
    and vertices that left the free set never come back.
    """

    def __init__(
        self, indptr: list, neighbours: list, n: int, blocked: Sequence[int]
    ) -> None:
        self.indptr = indptr
        self.neighbours = neighbours
        self.n = n
        self.free = bytearray(b"\x01") * n
        for v in blocked:
            self.free[v] = 0
        self.free_view = np.frombuffer(self.free, dtype=np.uint8)
        self.prefix = np.zeros(n + 1, dtype=np.int64)
        self.cursor = np.zeros(n, dtype=np.int64)
        self.nb = np.full(n, n, dtype=np.int64)
        self.ptr = indptr[:-1]

    def advance(self, x: int) -> None:
        """Move ``nb[x]`` to its first free neighbour at/after the cursor."""
        ptr, end = self.ptr[x], self.indptr[x + 1]
        cursor = int(self.cursor[x])
        neighbours, free = self.neighbours, self.free
        while ptr < end and (
            neighbours[ptr] < cursor or not free[neighbours[ptr]]
        ):
            ptr += 1
        self.ptr[x] = ptr
        self.nb[x] = neighbours[ptr] if ptr < end else self.n

    def reach(self, y: int, order: np.ndarray) -> None:
        """``y`` leaves the free set and gets a slot at cursor 0."""
        self.free[y] = 0
        for x in order[self.nb[order] == y].tolist():
            self.advance(x)
        self.advance(y)

    def step(self, order: np.ndarray) -> tuple[int, int, np.ndarray]:
        """Probe ``order`` round-robin until one probe opens.

        Returns ``(probes, winner, remaining)``: the probes made, open
        one included; the deque index of the slot whose probe opened
        (``-1`` if every slot ran out of candidates first, every
        candidate then probed); and each slot's candidates left.
        Cursors are moved past every probed candidate.
        """
        n = self.n
        prefix = self.prefix
        np.cumsum(self.free_view, dtype=np.int64, out=prefix[1:])
        cursor = self.cursor[order]
        nb = self.nb[order]
        before = prefix[cursor]
        left = prefix[n] - before
        opened = nb < n
        if opened.any():
            closed = np.where(opened, prefix[nb] - before, n + 1)
            winner = int(closed.argmin())
            rounds = int(closed[winner])
            take = np.minimum(left, rounds)
            take[:winner] = np.minimum(left[:winner], rounds + 1)
        else:
            winner = -1
            take = left
        moved = take > 0
        if moved.any():
            positions = np.flatnonzero(self.free_view)
            cursor[moved] = positions[(before + take - 1)[moved]] + 1
        remaining = left - take
        probes = int(take.sum())
        if winner >= 0:
            cursor[winner] = nb[winner] + 1
            remaining[winner] -= 1
            probes += 1
        self.cursor[order] = cursor
        return probes, winner, remaining


def _rotate(order: np.ndarray, winner: int, keep: np.ndarray):
    """Split the deque after ``winner``'s open probe into three parts.

    ``(behind, ahead, prober)``: the slots behind the winner, now first
    in line; the slots ahead of it, rotated to the back; the winner.
    Slots with no candidates left (``keep`` false) are dropped.
    """
    return (
        order[winner + 1:][keep[winner + 1:]],
        order[:winner][keep[:winner]],
        order[winner:winner + 1][keep[winner:winner + 1]],
    )


def _route_local(
    indptr: list, neighbours: list, n: int, source: int, target: int,
    budget: int | None,
) -> tuple[int, list[int] | None]:
    """Replay ``_TargetFirstGrowth``; return ``(queries, path)``."""
    if source == target:
        return 0, [source]
    target_adjacent = bytearray(n)
    for w in neighbours[indptr[target]:indptr[target + 1]]:
        target_adjacent[w] = 1
    queries = _charge(0, 1, budget)
    if target_adjacent[source]:
        return queries, [source, target]
    slots = _Slots(indptr, neighbours, n, (source, target))
    slots.advance(source)
    parent: dict[int, int | None] = {source: None}
    order = np.array([source], dtype=np.int64)
    while True:
        probes, winner, remaining = slots.step(order)
        queries = _charge(queries, probes, budget)
        if winner < 0:
            return queries, None
        x = int(order[winner])
        y = int(slots.nb[x])
        parent[y] = x
        behind, ahead, prober = _rotate(order, winner, remaining > 0)
        order = np.concatenate((behind, ahead, [y], prober))
        slots.reach(y, order)
        # The new vertex probes its target edge first.
        queries = _charge(queries, 1, budget)
        if target_adjacent[y]:
            return queries, _backtrack(parent, y) + [target]


def _route_bidirectional(
    indptr: list, neighbours: list, n: int, source: int, target: int,
    budget: int | None,
) -> tuple[int, list[int] | None]:
    """Replay ``GnpBidirectionalRouter._route``; return ``(queries, path)``."""
    if source == target:
        return 0, [source]
    queries = _charge(0, 1, budget)
    if target in neighbours[indptr[source]:indptr[source + 1]]:
        return queries, [source, target]
    slots = _Slots(indptr, neighbours, n, (source, target))
    slots.advance(source)
    slots.advance(target)
    parent: dict[int, int | None] = {source: None, target: None}
    # Side 0 grows from the source (U), side 1 from the target (V).
    side = bytearray(b"\x02") * n
    side[source], side[target] = 0, 1
    members = ([source], [target])
    rank = {source: 0, target: 0}
    orders = [
        np.array([source], dtype=np.int64),
        np.array([target], dtype=np.int64),
    ]
    stuck = [False, False]
    while True:
        grow = 0 if len(members[0]) <= len(members[1]) else 1
        if stuck[grow]:
            grow = 1 - grow
            if stuck[grow]:
                return queries, None
        order = orders[grow]
        probes, winner, remaining = slots.step(order)
        queries = _charge(queries, probes, budget)
        if winner < 0:
            stuck[grow] = True
            orders[grow] = order[:0]
            continue
        x = int(order[winner])
        y = int(slots.nb[x])
        parent[y] = x
        side[y] = grow
        rank[y] = len(members[grow])
        members[grow].append(y)
        behind, ahead, prober = _rotate(order, winner, remaining > 0)
        orders[grow] = np.concatenate(([y], behind, ahead, prober))
        slots.reach(y, orders[grow])
        # Cross pairs {y, z}, z on the other side in join order; the
        # first open one joins the trees.
        other = 1 - grow
        partners = [
            rank[w]
            for w in neighbours[indptr[y]:indptr[y + 1]]
            if side[w] == other
        ]
        stop = min(partners) if partners else len(members[other])
        earlier = np.array(members[other][:stop], dtype=np.int64)
        unknown = int(np.count_nonzero(slots.cursor[earlier] <= y))
        queries = _charge(queries, unknown + bool(partners), budget)
        if partners:
            z = members[other][stop]
            u_end, v_end = (y, z) if grow == 0 else (z, y)
            return queries, (
                _backtrack(parent, u_end) + _backtrack(parent, v_end)[::-1]
            )


_ENGINES = {
    GnpLocalRouter: _route_local,
    GnpUnidirectionalRouter: _route_local,
    GnpBidirectionalRouter: _route_bidirectional,
}


class _GnpChunk:
    """A compiled chunk runner for one ``G(n, p)`` ``run_trial`` workload."""

    def __init__(
        self, n: int, p: float, router, engine, source: int, target: int,
        budget: int | None, conditioning: str,
    ) -> None:
        self._n = n
        self._p = p
        self._router = router
        self._engine = engine
        self._source = source
        self._target = target
        self._budget = budget
        self._conditioning = conditioning

    def stages(self) -> dict[str, str]:
        return dict.fromkeys(("draw", "conditioning", "routing"), "kernel")

    def __call__(self, keys: Sequence[tuple], tails: Sequence[tuple]) -> list:
        records = []
        for key, (trial, seed) in zip(keys, tails):
            try:
                records.append(self._trial(trial, seed))
            except Exception as exc:
                raise TrialExecutionError(
                    key,
                    f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
                ) from exc
        return records

    def _trial(self, trial: int, seed: int):
        from repro.core.complexity import TrialRecord

        indptr, neighbours = gnp_adjacency(self._n, self._p, seed)
        if self._conditioning == "exact":
            connected = _connected(
                indptr, neighbours, self._source, self._target
            )
            result = (
                self._route(indptr, neighbours, self._budget)
                if connected
                else None
            )
        else:
            # "router" conditioning routes without a budget (run_trial's
            # rule); both modes read `connected` off the attempt.
            budget = None if self._conditioning == "router" else self._budget
            result = self._route(indptr, neighbours, budget)
            connected = result.success
        return TrialRecord(
            trial=trial, seed=seed, connected=connected, result=result
        )

    def _route(self, indptr, neighbours, budget: int | None) -> RoutingResult:
        source, target = self._source, self._target
        name = self._router.name
        try:
            queries, path = self._engine(
                indptr.tolist(), neighbours.tolist(), self._n, source,
                target, budget,
            )
        except _OverBudget:
            return RoutingResult(
                source=source, target=target, success=False,
                queries=budget, failure=FailureReason.BUDGET, router=name,
            )
        if path is None:
            # All three routers are complete: giving up certifies it.
            return RoutingResult(
                source=source, target=target, success=False,
                queries=queries, failure=FailureReason.EXHAUSTED,
                router=name,
            )
        return RoutingResult(
            source=source, target=target, success=True, queries=queries,
            path=path, router=name,
        )


def compile_gnp_chunk(
    graph, p: float, router, source, target, budget, conditioning: str
) -> _GnpChunk | None:
    """Compile a ``gnp_factory`` workload to a chunk runner, or ``None``.

    Only the three ``G(n, p)`` routers, matched by exact type (a
    subclass may probe differently), on a :class:`CompleteGraph` with
    an in-range integer pair and a budget the per-trial oracle accepts.
    Anything else takes the per-trial path, where errors surface
    unchanged.
    """
    engine = _ENGINES.get(type(router))
    if engine is None or not isinstance(graph, CompleteGraph):
        return None
    n = graph.num_vertices()
    if not all(type(v) is int and 0 <= v < n for v in (source, target)):
        return None
    if budget is not None and (type(budget) is not int or budget < 1):
        return None
    return _GnpChunk(
        n, p, router, engine, source, target, budget, conditioning
    )
