"""Shared generators and comparators for the test suite."""

from __future__ import annotations

import cmath
import math
import random
from typing import Any, Callable, Sequence

from sgk.containers import (
    CompressedMatrix,
    CooMatrix,
    SparseVector,
    Triple,
    to_compressed,
    vector_entries,
)
from sgk.domains import ValueDomain
from sgk.oracle import DenseMatrix, to_dense, vector_to_dense

# ---------------------------------------------------------------------------
# Value samplers, one per canonical semiring


def sampler_for(semiring_name: str) -> Callable[[random.Random], Any]:
    """Random stored-value generator fitting a canonical semiring.

    plus_times floats stay well away from overflow and underflow so that
    products of products remain finite; tropical values stay finite so the
    encoded infinities only ever arise as identities.
    """
    family = semiring_name.partition("/")[0]
    if family == "plus_times":
        return lambda rng: rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 4.0)
    if family in ("max_plus", "min_plus"):
        return lambda rng: round(rng.uniform(-10.0, 10.0), 3)
    if family == "min_max":
        return lambda rng: rng.randint(-1000, 1000)
    if family == "or_and":
        return lambda rng: rng.random() < 0.85
    if family == "min_select2nd":
        return lambda rng: rng.randint(0, 1000)
    raise ValueError(f"no sampler for {semiring_name!r}")


def int_sampler(lo: int = -9, hi: int = 9) -> Callable[[random.Random], int]:
    return lambda rng: rng.randint(lo, hi)


# ---------------------------------------------------------------------------
# Random containers


def random_csr(nrows: int, ncols: int, density: float, domain: ValueDomain,
               sample: Callable[[random.Random], Any], rng: random.Random,
               orientation: str = "row") -> CompressedMatrix:
    triples = [
        Triple(i, j, sample(rng))
        for i in range(nrows)
        for j in range(ncols)
        if rng.random() < density
    ]
    return to_compressed(CooMatrix(nrows, ncols, tuple(triples), domain), orientation)


def random_vector(length: int, density: float, domain: ValueDomain,
                  sample: Callable[[random.Random], Any],
                  rng: random.Random) -> SparseVector:
    entries = tuple(
        (i, sample(rng)) for i in range(length) if rng.random() < density
    )
    return SparseVector(length, entries, domain)


# ---------------------------------------------------------------------------
# Random graphs (pattern matrices plus plain-python adjacency)


def random_digraph(n: int, p: float, rng: random.Random, domain: ValueDomain):
    """Directed graph: (pattern matrix with value 1, successor lists)."""
    adj = [[] for _ in range(n)]
    triples = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                adj[u].append(v)
                triples.append(Triple(u, v, 1))
    m = to_compressed(CooMatrix(n, n, tuple(triples), domain))
    return m, adj


def random_undirected(n: int, p: float, rng: random.Random, domain: ValueDomain):
    """Undirected simple graph: (symmetric pattern matrix, edge list u < v)."""
    edges = []
    triples = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
                triples.append(Triple(u, v, 1))
                triples.append(Triple(v, u, 1))
    triples.sort(key=lambda t: (t.row, t.col))
    m = to_compressed(CooMatrix(n, n, tuple(triples), domain))
    return m, edges


def random_weighted_digraph(n: int, p: float, rng: random.Random,
                            domain: ValueDomain, float_weights: bool):
    """Non-negative weighted digraph: (matrix, adjacency of (v, w) pairs)."""
    adj = [[] for _ in range(n)]
    triples = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                w = round(rng.uniform(0.0, 10.0), 3) if float_weights else rng.randint(0, 9)
                adj[u].append((v, w))
                triples.append(Triple(u, v, w))
    m = to_compressed(CooMatrix(n, n, tuple(triples), domain))
    return m, adj


def strongly_connected_digraph(n: int, extra_p: float, rng: random.Random,
                               domain: ValueDomain):
    """Directed cycle through all vertices plus random extra edges, so the
    graph is strongly connected and has no dangling vertex."""
    seen = set()
    triples = []
    edges = []
    for u in range(n):
        v = (u + 1) % n
        if u != v:
            seen.add((u, v))
    for u in range(n):
        for v in range(n):
            if u != v and (u, v) not in seen and rng.random() < extra_p:
                seen.add((u, v))
    for u, v in sorted(seen):
        triples.append(Triple(u, v, 1))
        edges.append((u, v))
    m = to_compressed(CooMatrix(n, n, tuple(triples), domain))
    return m, edges


# ---------------------------------------------------------------------------
# Structural snapshots (purity checks)


def snapshot(obj) -> tuple:
    """Full structural fingerprint of a container, for before/after equality."""
    if isinstance(obj, CompressedMatrix):
        return ("csr", obj.nrows, obj.ncols, obj.orientation, obj.offsets,
                obj.minor_indices, obj.values, obj.domain.kind)
    if isinstance(obj, CooMatrix):
        return ("coo", obj.nrows, obj.ncols, obj.triples, obj.domain.kind)
    if isinstance(obj, SparseVector):
        return ("vec", obj.length, obj.entries, obj.domain.kind)
    raise TypeError(f"no snapshot for {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Comparators


def values_match(a, b, domain: ValueDomain, rel: float = 1e-12) -> bool:
    if domain.is_float:
        return a == b or math.isclose(a, b, rel_tol=rel, abs_tol=0.0)
    if domain.is_complex:
        return a == b or cmath.isclose(a, b, rel_tol=rel, abs_tol=0.0)
    return a == b


def assert_matrix_equals_dense(m: CompressedMatrix, d: DenseMatrix, zero,
                               rel: float = 1e-12) -> None:
    got = to_dense(m, zero)
    assert (got.nrows, got.ncols) == (d.nrows, d.ncols)
    for i in range(d.nrows):
        for j in range(d.ncols):
            assert values_match(got.values[i][j], d.values[i][j], m.domain, rel), (
                f"cell ({i}, {j}): {got.values[i][j]!r} != {d.values[i][j]!r}"
            )


def assert_vector_equals_dense(v: SparseVector, dense: Sequence, zero,
                               rel: float = 1e-12) -> None:
    got = vector_to_dense(v, zero)
    assert len(got) == len(dense)
    for i in range(len(dense)):
        assert values_match(got[i], dense[i], v.domain, rel), (
            f"slot {i}: {got[i]!r} != {dense[i]!r}"
        )


def vector_as_dict(v: SparseVector) -> dict:
    return dict(vector_entries(v))
