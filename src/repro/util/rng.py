"""Deterministic, keyed randomness.

Every random decision in the library is a *pure function* of a 64-bit seed
and a structured key.  This buys three properties that the reproduction
leans on heavily:

1. **Lazy sampling.**  The state of an edge in a percolated graph is
   computed on demand — ``is edge (u, v) open?`` is answered without ever
   materialising the graph, so the :math:`n`-dimensional hypercube with
   :math:`n 2^{n-1}` edges stays implicit.
2. **Monotone coupling.**  An edge is open iff its uniform variate is
   below ``p``.  Because the variate depends only on ``(seed, edge)`` and
   not on ``p``, raising ``p`` can only open more edges.  Threshold scans
   and several property tests exploit this coupling.
3. **Replayability.**  A trial is identified by ``(master_seed, labels...)``
   and can be re-run bit-for-bit, including across processes, because the
   hash does not depend on ``PYTHONHASHSEED`` or dict ordering.

The hash is BLAKE2b keyed with the seed; keys are serialised with
:func:`repr`, which is stable for the vertex types used by this library
(ints, strings, and nested tuples of those).
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from typing import Any

import numpy as np

__all__ = [
    "MAX_SEED",
    "derive_seed",
    "edge_coin",
    "uniform_for",
    "uniforms_for",
]

#: Seeds are 64-bit unsigned integers.
MAX_SEED = 2**64 - 1

_SCALE = float(2**64)


def _seed_key(seed: int) -> bytes:
    """Return the BLAKE2b key bytes of ``seed``.

    Raises :class:`ValueError` if ``seed`` is outside ``[0, MAX_SEED]``.
    """
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned int, got {seed!r}")
    return seed.to_bytes(8, "little")


def _digest(seed: int, key: tuple[Any, ...]) -> bytes:
    """Return an 8-byte keyed digest of ``key`` under ``seed``."""
    hasher = hashlib.blake2b(
        repr(key).encode("utf-8"), digest_size=8, key=_seed_key(seed)
    )
    return hasher.digest()


def uniform_for(seed: int, *key: Any) -> float:
    """Return a deterministic uniform variate in ``[0, 1)`` for ``key``.

    The variate is a pure function of ``(seed, key)``: calling it twice
    with the same arguments always yields the same value, and distinct
    keys yield (cryptographically) independent values.

    >>> u = uniform_for(7, "edge", (0, 1))
    >>> u == uniform_for(7, "edge", (0, 1))
    True
    >>> 0.0 <= u < 1.0
    True
    """
    return int.from_bytes(_digest(seed, key), "little") / _SCALE


def uniforms_for(seed: int, blobs: Sequence[bytes]) -> np.ndarray:
    """Return :func:`uniform_for` of many keys as one float64 array.

    ``blobs[i]`` is key ``i`` already serialised, ``repr(key).encode(
    "utf-8")``, so a caller drawing the same keys under many seeds pays
    for the ``repr`` once.  Entry ``i`` equals ``uniform_for(seed,
    *key)`` bit for bit: uint64 -> float64 rounds to nearest, like the
    int -> float conversion, and scaling by ``2**-64`` is exact.

    >>> blob = repr(("edge", (0, 1))).encode("utf-8")
    >>> float(uniforms_for(7, [blob])[0]) == uniform_for(7, "edge", (0, 1))
    True
    """
    key = _seed_key(seed)
    blake2b = hashlib.blake2b
    digests = b"".join(
        [blake2b(blob, digest_size=8, key=key).digest() for blob in blobs]
    )
    return np.frombuffer(digests, dtype="<u8") / _SCALE


def edge_coin(seed: int, edge: Any, p: float) -> bool:
    """Flip the deterministic coin for ``edge``: open with probability ``p``.

    The coin is *monotone-coupled* in ``p``: for fixed ``(seed, edge)``,
    if ``edge_coin(seed, edge, p1)`` is ``True`` and ``p2 >= p1``, then
    ``edge_coin(seed, edge, p2)`` is also ``True``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p!r}")
    return uniform_for(seed, "edge", edge) < p


def derive_seed(seed: int, *key: Any) -> int:
    """Derive a child 64-bit seed from ``seed`` and a structured ``key``.

    Used to give every trial of an experiment its own independent random
    stream:

    >>> s0 = derive_seed(42, "E1", "trial", 0)
    >>> s1 = derive_seed(42, "E1", "trial", 1)
    >>> s0 != s1
    True
    """
    return int.from_bytes(_digest(seed, ("derive",) + key), "little")
