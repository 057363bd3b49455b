"""Graph algorithms written as sequences of the primitive operations.

Every function here treats an n x n sparse matrix as a directed graph on
vertices 0..n-1 with an edge i -> j for each stored A(i, j).  No algorithm
touches the storage arrays of a container; everything is phrased through
the kernels, the semiring registry, and the public container helpers, so
each algorithm works unchanged for any storage layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .containers import (
    CompressedMatrix,
    SparseVector,
    build_from_triples,
    densify_vector,
    entries_of,
    is_symmetric,
    pattern_complement,
    to_compressed,
    vector_as_column,
    vector_entries,
    vector_from_entries,
)
from .domains import BOOLEAN, FLOAT64, INT64
from .errors import InternalInvariantError, PreconditionError
from .kernels import (_check_index_list, apply_unary, ewise_mult, mxm, mxv, reduce,
                      scale_matrix, scale_vector)
from .semirings import BinaryOp, Monoid, UnaryOp, registry_get


@dataclass(frozen=True)
class BfsResult:
    """Levels vector (entry = hop distance from the nearest source) and the
    number of reached vertices."""

    levels: SparseVector
    reached_count: int


@dataclass(frozen=True)
class PageRankResult:
    ranks: SparseVector
    iterations: int
    residual: float


def _require_square(a: CompressedMatrix, name: str) -> int:
    if a.nrows != a.ncols:
        raise PreconditionError(
            f"{name}: adjacency matrix must be square, got {a.nrows}x{a.ncols}"
        )
    return a.nrows


def _pattern(a: CompressedMatrix, domain, one):
    """Structure of a with every stored value replaced by `one`."""
    return apply_unary(a, UnaryOp("const_one", a.domain, domain, lambda _v: one))


def _vec_total(v: SparseVector, m: Monoid):
    """Fold all entries of a vector under a monoid (identity when empty)."""
    total = reduce(vector_as_column(v), m, "cols")
    ents = vector_entries(total)
    return ents[0][1] if ents else m.identity


def bfs(a: CompressedMatrix, sources) -> BfsResult:
    """Multi-source breadth-first search by repeated masked matrix-vector
    products over the boolean or_and semiring.

    Level 0 is the source set itself; each step expands the frontier one
    hop along out-edges and masks off everything already visited.
    """
    n = _require_square(a, "bfs")
    src = list(sources)
    if not src:
        raise PreconditionError("bfs: source list is empty")
    _check_index_list(src, n, "bfs source")
    sr = registry_get("or_and")
    pat = _pattern(a, BOOLEAN, True)
    frontier = vector_from_entries(n, [(i, True) for i in sorted(src)], BOOLEAN)
    visited = set(src)
    levels: dict[int, int] = {i: 0 for i in src}
    for level in range(1, n + 1):
        if not vector_entries(frontier):
            break
        visited_vec = vector_from_entries(
            n, [(i, True) for i in sorted(visited)], BOOLEAN
        )
        # w(j) = OR over i of (frontier(i) AND A(i, j)): one hop out.
        nxt = mxv(pat, frontier, sr, transpose_input=True)
        frontier = scale_vector(nxt, pattern_complement(visited_vec), sr.mul)
        for i, _v in vector_entries(frontier):
            visited.add(i)
            levels[i] = level
    else:
        if vector_entries(frontier):
            raise InternalInvariantError("bfs: frontier survived n expansion steps")
    lv = vector_from_entries(
        n, [(i, levels[i]) for i in sorted(levels)], INT64
    )
    return BfsResult(levels=lv, reached_count=len(levels))


def sssp_minplus(a: CompressedMatrix, source: int) -> SparseVector:
    """Single-source shortest paths by Bellman-Ford style relaxation over
    the min_plus semiring.

    Edge weights must be non-negative (and finite for float domains).  The
    distance vector is iterated to a fixed point; zero-weight self-loops
    added to the adjacency make each product keep the best distance found
    so far, so the vector only improves.
    """
    n = _require_square(a, "sssp_minplus")
    d = a.domain
    if d.is_boolean or d.is_complex or d.is_opaque:
        raise PreconditionError(
            f"sssp_minplus: weights must be a real numeric domain, got {d.kind}"
        )
    _check_index_list([source], n, "sssp source")
    for _r, _c, w in entries_of(a):
        if d.is_float and not math.isfinite(w):
            raise PreconditionError(f"sssp_minplus: non-finite edge weight {w!r}")
        if w < 0:
            raise PreconditionError(f"sssp_minplus: negative edge weight {w!r}")
    sr = registry_get(f"min_plus/{d.kind}")
    zero_w = 0.0 if d.is_float else 0
    loops = [(i, i, zero_w) for i in range(n)]
    aug = to_compressed(
        build_from_triples(n, n, list(entries_of(a)) + loops, sr.add),
        a.orientation,
    )
    dist = vector_from_entries(n, [(source, zero_w)], d)
    for _ in range(n):
        nxt = mxv(aug, dist, sr, transpose_input=True)
        if vector_entries(nxt) == vector_entries(dist):
            return dist
        dist = nxt
    raise InternalInvariantError(
        "sssp_minplus: distances failed to stabilize in n iterations"
    )


def connected_components(a: CompressedMatrix) -> SparseVector:
    """Label each vertex of an undirected graph with the smallest vertex
    index in its component.

    Labels spread along edges with min_select2nd: each product replaces a
    vertex's label by the minimum label among itself and its neighbors
    (self-loops carry the vertex's own label through).
    """
    n = _require_square(a, "connected_components")
    sr = registry_get("min_select2nd")
    ones = [(r, c, 1) for r, c, _v in entries_of(a)]
    pat = to_compressed(
        build_from_triples(n, n, ones + [(i, i, 1) for i in range(n)], sr.add),
        a.orientation,
    )
    if not is_symmetric(pat):
        raise PreconditionError(
            "connected_components: adjacency pattern is not symmetric"
        )
    labels = vector_from_entries(n, [(i, i) for i in range(n)], INT64)
    for _ in range(n + 1):
        nxt = mxv(pat, labels, sr, transpose_input=False)
        if vector_entries(nxt) == vector_entries(labels):
            return labels
        labels = nxt
    raise InternalInvariantError(
        "connected_components: labels failed to stabilize"
    )


def _corners(a: CompressedMatrix, name: str) -> tuple:
    """Semiring, 0/1 pattern P and P masked to (P.P) of a simple undirected
    graph: entry (i, j) counts the triangles through edge i-j."""
    _require_square(a, name)
    for r, c, _v in entries_of(a):
        if r == c:
            raise PreconditionError(f"{name}: graph must have no self-loops")
    sr = registry_get("plus_times/signed-int-64")
    pat = _pattern(a, INT64, 1)
    if not is_symmetric(pat):
        raise PreconditionError(f"{name}: adjacency pattern is not symmetric")
    return sr, pat, ewise_mult(pat, mxm(pat, pat, sr), sr.mul)


def triangle_count(a: CompressedMatrix) -> int:
    """Count triangles in a simple undirected graph.

    Sums the entries of A.A masked to A's own pattern; every triangle is
    counted once per ordered corner traversal, six times in all.
    """
    sr, _pat, corners = _corners(a, "triangle_count")
    total = _vec_total(reduce(corners, sr.add, "rows"), sr.add)
    if total % 6 != 0:
        raise InternalInvariantError(
            f"triangle_count: corner total {total} is not divisible by 6"
        )
    return total // 6


def clustering_coefficients(a: CompressedMatrix) -> SparseVector:
    """Local clustering coefficient per vertex: closed wedges over wedges.

    c(i) = 2 t(i) / (d(i) (d(i) - 1)) where t(i) is the number of triangles
    through i and d(i) its degree.  Vertices with degree below 2 have no
    wedges and get no entry, and neither do vertices with wedges but no
    triangle; an absent entry reads as a zero coefficient.
    """
    sr, pat, corners = _corners(a, "clustering_coefficients")
    # Row sums of the masked square give 2 t(i); d(i)(d(i)-1) counts
    # ordered wedges, so the ratio is the coefficient with no halving.
    tri2 = reduce(corners, sr.add, "rows")
    deg = reduce(pat, sr.add, "rows")
    wedges2 = apply_unary(
        deg,
        UnaryOp("ordered_wedges", INT64, INT64, lambda d: d * (d - 1)),
        drop_zeros_for=0,
    )
    to_f = UnaryOp("to_float", INT64, FLOAT64, float)
    ratio = BinaryOp("divide", FLOAT64, lambda x, y: x / y)
    return scale_vector(apply_unary(tri2, to_f), apply_unary(wedges2, to_f), ratio)


def pagerank(a: CompressedMatrix, alpha: float = 0.85, max_iters: int = 100,
             tol: float = 1e-8) -> PageRankResult:
    """Power iteration for PageRank on a graph with no dangling vertices.

    Ranks follow the recurrence r' = alpha P^T r + (1 - alpha)/n where
    P is the row-normalized adjacency pattern.  Iteration stops when the
    one-norm of the change is at most tol, or after max_iters sweeps.
    """
    n = _require_square(a, "pagerank")
    if n == 0:
        raise PreconditionError("pagerank: graph is empty")
    if not 0 < alpha < 1:
        raise PreconditionError("alpha out of range (0,1)")
    if max_iters < 1:
        raise PreconditionError("pagerank: max_iters must be at least 1")
    if not tol >= 0:
        raise PreconditionError("pagerank: tol must be non-negative")
    sr = registry_get("plus_times/float-double")
    pat = _pattern(a, FLOAT64, 1.0)
    outdeg = reduce(pat, sr.add, "rows")
    if len(vector_entries(outdeg)) != n:
        raise PreconditionError(
            "pagerank: graph has a vertex with no out-edges"
        )
    inv = apply_unary(outdeg, UnaryOp("reciprocal", FLOAT64, FLOAT64, lambda x: 1.0 / x))
    p = scale_matrix(pat, inv, sr.mul, "rows")
    base = (1.0 - alpha) / n
    damp = UnaryOp("damp", FLOAT64, FLOAT64, lambda x: alpha * x + base)
    absdiff = BinaryOp("absdiff", FLOAT64, lambda x, y: abs(x - y))
    ranks = vector_from_entries(n, [(i, 1.0 / n) for i in range(n)], FLOAT64)
    residual = float("inf")
    iterations = max_iters
    for k in range(1, max_iters + 1):
        pulled = densify_vector(mxv(p, ranks, sr, transpose_input=True), 0.0)
        nxt = apply_unary(pulled, damp)
        residual = _vec_total(scale_vector(nxt, ranks, absdiff), sr.add)
        ranks = nxt
        if residual <= tol:
            iterations = k
            break
    return PageRankResult(ranks=ranks, iterations=iterations, residual=residual)


def degrees(a: CompressedMatrix, direction: str) -> SparseVector:
    """Out-degrees (direction="out") or in-degrees (direction="in") of the
    stored pattern.  Rows or columns with no stored entry get no entry."""
    if direction not in ("in", "out"):
        raise PreconditionError(
            f'degrees: direction must be "in" or "out", got {direction!r}'
        )
    sr = registry_get("plus_times/signed-int-64")
    pat = _pattern(a, INT64, 1)
    return reduce(pat, sr.add, "rows" if direction == "out" else "cols")
