"""Graph algorithms written as sequences of the primitive operations.

Every function here treats an n x n sparse matrix as a directed graph on
vertices 0..n-1 with an edge i -> j for each stored A(i, j).  No algorithm
touches the storage arrays of a container; everything is phrased through
the kernels, the semiring registry, and the public container helpers, so
each algorithm works unchanged for any storage layout.  A vector built
from indices an algorithm generated itself, or took from a kernel's
result, goes through `containers._sorted_vector`, which re-checks nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from operator import ne

from .containers import (
    COL,
    ROW,
    CompressedMatrix,
    SparseVector,
    _check_index_list,
    _sorted_vector,
    densify_vector,
    is_symmetric,
    nvals,
    reorient,
    values_of,
    vector_as_column,
    vector_entries,
)
from .domains import BOOLEAN, FLOAT64, INT64
from .errors import InternalInvariantError, PreconditionError
from .kernels import apply_unary, ewise_mult, mxm, mxv, reduce, scale_matrix, scale_vector
from .semirings import BinaryOp, IndexUnaryOp, Monoid, UnaryOp, max_monoid, registry_get


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


def _symmetric_pattern(a: CompressedMatrix, name: str) -> CompressedMatrix:
    """The 0/1 INT64 pattern of a, which must be symmetric."""
    pat = _pattern(a, INT64, 1)
    if not is_symmetric(pat):
        raise PreconditionError(f"{name}: adjacency pattern is not symmetric")
    return pat


def _vec_total(v: SparseVector, m: Monoid):
    """Fold all entries of a vector under a monoid (identity when empty)."""
    total = reduce(vector_as_column(v), m, "cols")
    ents = vector_entries(total)
    return ents[0][1] if ents else m.identity


def bfs(a: CompressedMatrix, sources) -> BfsResult:
    """Multi-source breadth-first search by repeated matrix-vector products
    over the boolean or_and semiring.

    Level 0 is the source set itself; each step expands the frontier one
    hop along out-edges and drops everything already visited.  The pattern
    is put in rows once, so every level's transposed product pushes from
    the frontier along its out-edges and no level reorients or pulls.
    """
    n = _require_square(a, "bfs")
    src = list(sources)
    if not src:
        raise PreconditionError("bfs: source list is empty")
    _check_index_list(src, n, "bfs source")
    sr = registry_get("or_and")
    pat = reorient(_pattern(a, BOOLEAN, True), ROW)
    frontier = _sorted_vector(n, [(i, True) for i in src], BOOLEAN)
    levels: dict[int, int] = {i: 0 for i in src}
    # Visited means holding a level; each apply reads `levels` before that level's updates.
    unvisited = IndexUnaryOp("unvisited", BOOLEAN, BOOLEAN, lambda _x, i, _j: i not in levels)
    for level in range(1, n + 1):
        if not vector_entries(frontier):
            break
        # w(j) = OR over i of (frontier(i) AND A(i, j)): one hop out.
        nxt = mxv(pat, frontier, sr, transpose_input=True)
        frontier = apply_unary(nxt, unvisited, drop_zeros_for=False)
        for i, _v in vector_entries(frontier):
            levels[i] = level
    else:
        if vector_entries(frontier):
            raise InternalInvariantError("bfs: frontier survived n expansion steps")
    return BfsResult(levels=_sorted_vector(n, levels.items(), INT64), reached_count=len(levels))


def _relax(m: CompressedMatrix, x: SparseVector, sr, what: str):
    """Bellman-Ford relaxation x <- x (+) m^T x to a fixed point, each round
    multiplying only from the frontier: the entries of x whose value fell
    in the last round (all of x at first).  The add is an exact, idempotent
    min that keeps the current value on a tie, so a vertex whose value did
    not fall adds nothing the current values lack, and x after every round
    is the one the full product gives.  The values live in a dict (absent:
    the add identity).  m is stored in rows, so no round reorients and
    every round pushes along the frontier's out-edges.  sssp_minplus is
    the one caller."""
    add, zero = sr.add.op.eval, sr.zero
    cur = dict(vector_entries(x))

    def fell(pulled, i, _j):
        old = cur.get(i, zero)
        new = add(old, pulled)
        return zero if new == old else new

    fell_op = IndexUnaryOp("fell", x.domain, x.domain, fell)
    frontier = x
    for _ in range(x.length + 1):
        pulled = mxv(m, frontier, sr, transpose_input=True)
        frontier = apply_unary(pulled, fell_op, drop_zeros_for=zero)
        if not vector_entries(frontier):
            return _sorted_vector(x.length, cur.items(), x.domain)
        cur.update(vector_entries(frontier))
    raise InternalInvariantError(what)


def sssp_minplus(a: CompressedMatrix, source: int) -> SparseVector:
    """Single-source shortest paths by Bellman-Ford relaxation over the
    min_plus semiring.

    Edge weights must be non-negative (and finite for float domains); they
    are checked in C-speed passes over the stored values, and only a bad
    weight takes the ordered loop that names the first one in row-major
    order.  The matrix is put in rows once, for that check and for every
    round of `_relax`.  The distances start at the source alone, every
    other vertex reading as the min identity, and each round pushes along
    the out-edges of the vertices whose distance fell in the last round
    and keeps the smaller of each vertex's distance and those it is
    offered.  A reachable vertex whose shortest distance reaches the
    identity (the domain's infinity) cannot be represented and is refused.
    """
    n = _require_square(a, "sssp_minplus")
    d = a.domain
    if d.is_boolean or d.is_complex or d.is_opaque:
        raise PreconditionError(
            f"sssp_minplus: weights must be a real numeric domain, got {d.kind}"
        )
    _check_index_list([source], n, "sssp source")
    is_float = d.is_float
    zero_w = 0.0 if is_float else 0
    a = reorient(a, ROW)
    weights = values_of(a)
    if is_float and not all(map(math.isfinite, weights)) or min(weights, default=0) < 0:
        for w in weights:
            if is_float and not math.isfinite(w):
                raise PreconditionError(f"sssp_minplus: non-finite edge weight {w!r}")
            if w < 0:
                raise PreconditionError(f"sssp_minplus: negative edge weight {w!r}")
    # Seeded with the zero weight, so that no positive weight gives 0.0, not -0.0.
    heaviest = max(zero_w, max(weights, default=zero_w))
    sr = registry_get(f"min_plus/{d.kind}")
    dist = _relax(a, _sorted_vector(n, [(source, zero_w)], d), sr,
                  "sssp_minplus: distances failed to stabilize in n iterations")
    # Tropical + is monotone, so a sum reaches the identity only if the largest
    # distance plus the heaviest weight does; then an edge from a reached
    # vertex to an unreached one is a path whose distance overflowed.
    if sr.mul(_vec_total(dist, max_monoid(d)), heaviest) == sr.zero:
        heads = reduce(scale_matrix(a, dist, sr.mul, "rows"), sr.add, "cols")
        if nvals(scale_vector(heads, dist, sr.add.op)) < nvals(heads):
            raise PreconditionError(f"sssp_minplus: a shortest distance overflows {d.kind}")
    return dist


def connected_components(a: CompressedMatrix) -> SparseVector:
    """Label each vertex of an undirected graph with the smallest vertex
    index in its component.

    FastSV hooking and shortcutting (Zhang, Azad and Hu, arXiv:1910.05971)
    over a parent list f, starting from f(u) = u, and the grandparents
    gf = f o f.  Each round takes mngf(u), the smallest grandparent among
    u's neighbours, from one min_select2nd product, then hooks f(f(u)) and
    f(u) down to mngf(u) and shortcuts f(u) down to gf(u); it stops when no
    grandparent falls.  f only falls and f(u) <= u, so grandparents only
    fall too: the product pushes only the grandparents that fell in the
    last round (all of them in the first) and folds them by min into mngf,
    which equals the full product, and each hook or shortcut visits only
    the vertices whose mngf or gf fell, the rest being no-ops.  At the
    fixed point f(u) = f(f(u)) <= f(v) across every edge, so f is constant
    on each component, where it is the component's smallest vertex.  The
    rounds number O(log n) in practice, against one per hop of diameter
    for label propagation.
    """
    n = _require_square(a, "connected_components")
    sr = registry_get("min_select2nd")
    pat = reorient(_symmetric_pattern(a, "connected_components"), ROW)
    # One int object per vertex, shared by f, the products and the result.
    vertices = list(range(n))
    f = list(vertices)
    mngf = list(vertices)
    gf = fell = vertices
    for _ in range(n + 1):
        nbr = mxv(pat, _sorted_vector(n, [(v, gf[v]) for v in fell], INT64), sr,
                  transpose_input=True)
        hooked = [(u, x) for u, x in vector_entries(nbr) if x < mngf[u]]
        for u, x in hooked:
            mngf[u] = x
            parent = f[u]
            if x < f[parent]:
                f[parent] = x
        for u, x in hooked:
            if x < f[u]:
                f[u] = x
        for u in fell:
            if gf[u] < f[u]:
                f[u] = gf[u]
        new = list(map(f.__getitem__, f))
        fell = list(compress(vertices, map(ne, new, gf)))
        gf = new
        if not fell:
            # The labels are f; drop the round's lists before building them.
            del gf, mngf, new, nbr, hooked
            return _sorted_vector(n, zip(vertices, f), INT64)
    raise InternalInvariantError("connected_components: parents failed to stabilize")


def _simple_pattern(a: CompressedMatrix, name: str) -> tuple:
    """Semiring and 0/1 pattern of a simple undirected graph: square, with
    no self-loops and a symmetric pattern (checked in that order)."""
    _require_square(a, name)
    diagonal = IndexUnaryOp("diagonal", a.domain, BOOLEAN, lambda _x, i, j: i == j)
    if nvals(apply_unary(a, diagonal, drop_zeros_for=False)):
        raise PreconditionError(f"{name}: graph must have no self-loops")
    sr = registry_get("plus_times/signed-int-64")
    return sr, _symmetric_pattern(a, name)


def _upward(pat: CompressedMatrix, deg: SparseVector) -> CompressedMatrix:
    """The entries (i, j) of a symmetric 0/1 INT64 pattern whose column
    vertex j ranks above row vertex i, vertices ranking by (degree, index)
    with `deg` the pattern's row sums: one entry of each mirrored pair,
    pointing to the busier vertex, so a hub keeps few entries of its own."""
    ranked = sorted(vector_entries(deg), key=lambda e: (e[1], e[0]))
    rank = {i: r for r, (i, _d) in enumerate(ranked)}
    up = IndexUnaryOp("upward", INT64, INT64, lambda x, i, j: x if rank[j] > rank[i] else 0)
    return apply_unary(pat, up, drop_zeros_for=0)


def triangle_count(a: CompressedMatrix) -> int:
    """Count triangles in a simple undirected graph.

    With U the pattern oriented from each vertex to its neighbours of
    higher (degree, index) rank (`_upward`), (U.U)(i, k) masked to U counts
    the middle vertices j of each path i < j < k in rank closed by the edge
    i-k, so the masked entries sum to every triangle counted once.  Ranking
    by degree keeps a hub's row of U short, which bounds the products
    (Schank and Wagner, WEA 2005).
    """
    sr, pat = _simple_pattern(a, "triangle_count")
    up = _upward(pat, reduce(pat, sr.add, "rows"))
    corners = ewise_mult(up, mxm(up, up, sr), sr.mul)
    return _vec_total(reduce(corners, sr.add, "rows"), sr.add)


def clustering_coefficients(a: CompressedMatrix) -> SparseVector:
    """Local clustering coefficient per vertex: closed wedges over wedges.

    c(i) = t(i) / (d(i) (d(i) - 1) / 2) where t(i) is the number of triangles
    through i and d(i) its degree.  Vertices with degree below 2 have no
    wedges and get no entry, and neither do vertices with wedges but no
    triangle; an absent entry reads as a zero coefficient.
    """
    sr, pat = _simple_pattern(a, "clustering_coefficients")
    deg = reduce(pat, sr.add, "rows")
    # With U the pattern oriented up the (degree, index) rank (`_upward`),
    # (A.U)(i, k) masked to A counts the j adjacent to both i and k that
    # rank below k, so row i sums each triangle through i once.
    # t / (d (d - 1) / 2) halves both operands of 2 t / (d (d - 1)), which
    # leaves each correctly rounded float quotient unchanged.
    tri = reduce(ewise_mult(pat, mxm(pat, _upward(pat, deg), sr), sr.mul), sr.add, "rows")
    wedges = apply_unary(
        deg,
        UnaryOp("wedges", INT64, FLOAT64, lambda d: d * (d - 1) / 2),
        drop_zeros_for=0.0,
    )
    to_f = UnaryOp("to_float", INT64, FLOAT64, float)
    ratio = BinaryOp("divide", FLOAT64, lambda x, y: x / y)
    return scale_vector(apply_unary(tri, to_f), wedges, ratio)


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
    # Column-major once, so the transposed products below never reorient.
    p = reorient(scale_matrix(pat, inv, sr.mul, "rows"), COL)
    base = (1.0 - alpha) / n
    damp = UnaryOp("damp", FLOAT64, FLOAT64, lambda x: alpha * x + base)
    absdiff = BinaryOp("absdiff", FLOAT64, lambda x, y: abs(x - y))
    ranks = _sorted_vector(n, [(i, 1.0 / n) for i in range(n)], FLOAT64)
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
