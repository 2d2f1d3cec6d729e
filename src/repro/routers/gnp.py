"""Routers for the faulty complete graph ``G(n, p)`` (Section 5).

* :class:`GnpLocalRouter` — the natural local strategy whose analysis is
  Theorem 10's proof sketch: every newly reached vertex first probes its
  edge to the target; growth otherwise probes edges from the reached set
  to fresh vertices round-robin.  Each probe opens with probability
  ``c/n``, each reached vertex hits the target with probability ``c/n``,
  so the expected complexity is ``Θ(n²)`` — and Theorem 10 says no local
  algorithm can beat that order.
* :class:`GnpBidirectionalRouter` — Theorem 11's oracle algorithm:
  grow ``U_t`` (from ``u``) and ``V_t`` (from ``v``) one vertex at a
  time, always first probing unprobed ``U×V`` pairs.  A connection
  appears by the birthday paradox once ``|U| ≈ |V| ≈ √n``, giving
  ``Θ(n^{3/2})`` probes — better than any local router by exactly √n.
* :class:`GnpUnidirectionalRouter` — ablation A3: the same code as the
  local strategy but run in the *oracle* model.  Its complexity stays
  ``Θ(n²)``: the win of Theorem 11 comes from bidirectional growth, not
  from oracle access per se.

The chunk kernel :mod:`repro.kernels.gnp` replays these routers one
newly reached vertex at a time instead of one probe at a time.  It
rests on two invariants of the code below:

1. **Candidates between open probes.**  A closed probe changes nothing
   but the prober's cursor, so while no probe opens, every growth
   slot's candidates are the same *free* vertices (not reached, not
   the target, on neither side) at or after its cursor, in vertex
   order, and the slots probe them round-robin.
2. **Probed pairs.**  A pair of a reached vertex ``z`` and a free
   vertex ``y`` has been probed iff ``z``'s cursor is past ``y``:
   growth probes every free vertex it scans, and nothing else probes
   such a pair.  So the ``known_state`` check never skips a growth
   candidate, and a bidirectional cross pair ``{y, z}`` (``y`` just
   joined) is already known, closed, iff ``z``'s cursor is past ``y``.
"""

from __future__ import annotations

from collections import deque

from repro.core.probe import ProbeOracle
from repro.core.router import Router
from repro.graphs.base import Vertex

__all__ = [
    "GnpBidirectionalRouter",
    "GnpLocalRouter",
    "GnpUnidirectionalRouter",
]


def _backtrack(parent: dict, v: Vertex) -> list[Vertex]:
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


class _TargetFirstGrowth:
    """Shared engine: grow a reached set, target-edge first per vertex.

    ``grow_step`` probes one edge; the caller loops until success or
    exhaustion.  Kept separate from the Router classes so the local and
    oracle variants are *identical* code, probing through different
    oracles — that is the point of ablation A3.
    """

    def __init__(self, oracle: ProbeOracle, source: Vertex, target: Vertex):
        self.oracle = oracle
        self.target = target
        self.n = oracle.graph.num_vertices()
        self.parent: dict[Vertex, Vertex | None] = {source: None}
        self.pending_target_probe: deque[Vertex] = deque([source])
        # Round-robin growth state: (reached vertex, next candidate id).
        self.growth: deque[list] = deque([[source, 0]])

    def found(self) -> list[Vertex] | None:
        """Probe target edges of any newly reached vertices."""
        while self.pending_target_probe:
            x = self.pending_target_probe.popleft()
            if x == self.target:
                return _backtrack(self.parent, x)
            if self.oracle.probe(x, self.target):
                self.parent[self.target] = x
                return _backtrack(self.parent, self.target)
        return None

    def grow_step(self) -> bool:
        """Probe one growth edge; return False when fully exhausted."""
        while self.growth:
            slot = self.growth[0]
            x, candidate = slot
            # advance past vertices already reached or already probed
            while candidate < self.n:
                y = candidate
                candidate += 1
                if y == x or y == self.target or y in self.parent:
                    continue
                if self.oracle.known_state(x, y) is not None:
                    continue
                slot[1] = candidate
                if self.oracle.probe(x, y):
                    self.parent[y] = x
                    self.pending_target_probe.append(y)
                    self.growth.append([y, 0])
                # rotate for round-robin fairness
                self.growth.rotate(-1)
                return True
            self.growth.popleft()  # x has no candidates left
        return False


class GnpLocalRouter(Router):
    """Theorem 10's natural local algorithm (Θ(n²) expected probes)."""

    name = "gnp-local"
    is_local = True
    is_complete = True

    def _route(
        self, oracle: ProbeOracle, source: Vertex, target: Vertex
    ) -> list[Vertex] | None:
        if source == target:
            return [source]
        engine = _TargetFirstGrowth(oracle, source, target)
        while True:
            path = engine.found()
            if path is not None:
                return path
            if not engine.grow_step():
                return None


class GnpUnidirectionalRouter(GnpLocalRouter):
    """Ablation A3: the identical strategy with oracle-model access."""

    name = "gnp-unidirectional-oracle"
    is_local = False


class GnpBidirectionalRouter(Router):
    """Theorem 11's bidirectional oracle router (Θ(n^{3/2}) probes).

    Invariants per loop iteration:

    1. If any ``U×V`` pair is unprobed, probe one (success joins the
       trees).
    2. Otherwise grow the smaller side by probing edges to fresh
       vertices until it gains one vertex (new cross pairs appear).
    3. If neither is possible, the component of ``u`` has been fully
       probed — certify failure.
    """

    name = "gnp-bidirectional"
    is_local = False
    is_complete = True

    def _route(
        self, oracle: ProbeOracle, source: Vertex, target: Vertex
    ) -> list[Vertex] | None:
        if source == target:
            return [source]
        if oracle.probe(source, target):
            return [source, target]
        n = oracle.graph.num_vertices()
        parent_u: dict[Vertex, Vertex | None] = {source: None}
        parent_v: dict[Vertex, Vertex | None] = {target: None}
        cross: deque[tuple[Vertex, Vertex]] = deque()
        growth_u: deque[list] = deque([[source, 0]])
        growth_v: deque[list] = deque([[target, 0]])

        while True:
            # (1) drain unprobed cross pairs
            joined = self._drain_cross(oracle, cross, parent_u, parent_v)
            if joined is not None:
                return self._join(parent_u, parent_v, *joined)
            # (2) grow the smaller side
            if len(parent_u) <= len(parent_v):
                grew = self._grow(
                    oracle, n, parent_u, parent_v, growth_u, cross, False
                )
            else:
                grew = self._grow(
                    oracle, n, parent_v, parent_u, growth_v, cross, True
                )
            if grew:
                continue
            # smaller side stuck: try the other side before giving up
            if len(parent_u) <= len(parent_v):
                grew = self._grow(
                    oracle, n, parent_v, parent_u, growth_v, cross, True
                )
            else:
                grew = self._grow(
                    oracle, n, parent_u, parent_v, growth_u, cross, False
                )
            if not grew and not cross:
                return None

    @staticmethod
    def _drain_cross(
        oracle: ProbeOracle,
        cross: deque,
        parent_u: dict,
        parent_v: dict,
    ) -> tuple[Vertex, Vertex] | None:
        while cross:
            x, y = cross.popleft()
            # membership may have changed sides via growth; skip stale pairs
            if x not in parent_u or y not in parent_v:
                continue
            if oracle.known_state(x, y) is not None:
                continue
            if oracle.probe(x, y):
                return x, y
        return None

    @staticmethod
    def _grow(
        oracle: ProbeOracle,
        n: int,
        own: dict,
        other: dict,
        growth: deque,
        cross: deque,
        own_is_target_side: bool,
    ) -> bool:
        """Probe growth edges until ``own`` gains one vertex (or stuck)."""
        while growth:
            slot = growth[0]
            x, candidate = slot
            while candidate < n:
                y = candidate
                candidate += 1
                if y == x or y in own or y in other:
                    continue
                if oracle.known_state(x, y) is not None:
                    continue
                slot[1] = candidate
                growth.rotate(-1)
                if oracle.probe(x, y):
                    own[y] = x
                    growth.appendleft([y, 0])
                    for z in other:
                        pair = (y, z) if not own_is_target_side else (z, y)
                        cross.append(pair)
                    return True
                return True  # probed one growth edge (closed); keep looping
            growth.popleft()
        return False

    @staticmethod
    def _join(
        parent_u: dict, parent_v: dict, x: Vertex, y: Vertex
    ) -> list[Vertex]:
        left = _backtrack(parent_u, x)  # source … x
        right = _backtrack(parent_v, y)  # target … y
        right.reverse()  # y … target
        return left + right
