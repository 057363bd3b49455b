import ast
import math
import re
from pathlib import Path

import pytest

from sgk.containers import CooMatrix, SparseVector, Triple, to_compressed, vector_entries
from sgk.domains import FLOAT64, INT64
from sgk.errors import DimensionMismatchError
from sgk.oracle import (
    DenseMatrix,
    dense_ewise,
    dense_from_rows,
    dense_mxm,
    dense_mxv,
    dense_reduce,
    from_dense,
    oracle_bfs,
    oracle_clustering,
    oracle_components,
    oracle_pagerank,
    oracle_sssp,
    oracle_triangles,
    to_dense,
    vector_from_dense,
    vector_to_dense,
)
from sgk.semirings import registry_get


def test_dense_matrix_shape_and_access():
    m = dense_from_rows([[1, 2], [3, 4]])
    assert (m.nrows, m.ncols) == (2, 2)
    assert m.at(1, 0) == 3


def test_dense_mxm_boolean_two_hop():
    s = registry_get("or_and")
    a = dense_from_rows([
        [False, True, False],
        [False, False, True],
        [False, False, False],
    ])
    c = dense_mxm(a, a, s)
    assert c.values == (
        (False, False, True),
        (False, False, False),
        (False, False, False),
    )


def test_dense_mxm_plus_times_identity():
    s = registry_get("plus_times/float-double")
    a = dense_from_rows([[1.5, 2.0], [0.0, -3.0]])
    eye = dense_from_rows([[1.0, 0.0], [0.0, 1.0]])
    assert dense_mxm(a, eye, s).values == a.values
    assert dense_mxm(eye, a, s).values == a.values


def test_dense_mxm_of_zeros_stays_zero():
    s = registry_get("min_plus/float-double")
    z = math.inf
    a = dense_from_rows([[z, z], [z, z]])
    assert dense_mxm(a, a, s).values == ((z, z), (z, z))


def test_dense_mxv_transpose_flag():
    s = registry_get("plus_times/signed-int-64")
    a = dense_from_rows([[0, 5], [0, 0]])
    assert dense_mxv(a, [1, 1], s) == (5, 0)
    assert dense_mxv(a, [1, 1], s, transpose_input=True) == (0, 5)


def test_dense_ewise_and_reduce():
    s = registry_get("plus_times/signed-int-64")
    a = dense_from_rows([[2, 0], [3, 4]])
    b = dense_from_rows([[5, 7], [0, 2]])
    assert dense_ewise(a, b, s).values == ((10, 0), (0, 8))
    assert dense_reduce(a, s.add, "rows") == (2, 7)
    assert dense_reduce(a, s.add, "cols") == (5, 4)


_ROW = dense_from_rows([[1, 2]])
_PLUS_TIMES = registry_get("plus_times/signed-int-64")


@pytest.mark.parametrize("call, error, text", [
    (lambda: DenseMatrix(-1, 0, ()), ValueError, "dimensions must be non-negative"),
    (lambda: DenseMatrix(2, 2, ((1, 2),)), ValueError, "row count does not match nrows"),
    (lambda: DenseMatrix(1, 3, ((1, 2),)), ValueError, "row width does not match ncols"),
    (lambda: dense_mxm(_ROW, _ROW, _PLUS_TIMES),
     DimensionMismatchError, "dense_mxm: inner dimensions differ (2 vs 1)"),
    (lambda: dense_mxv(_ROW, [1], _PLUS_TIMES),
     DimensionMismatchError, "dense_mxv: vector length 1 does not match 2"),
    (lambda: dense_ewise(_ROW, dense_from_rows([[1], [2]]), _PLUS_TIMES),
     DimensionMismatchError, "dense_ewise: shapes differ"),
    (lambda: dense_reduce(_ROW, _PLUS_TIMES.add, "diagonal"),
     ValueError, 'axis must be "rows" or "cols"'),
])
def test_dense_refusals_name_the_fault(call, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call()


def test_oracle_bfs_on_path():
    assert oracle_bfs([[1], [2], []], [0]) == {0: 0, 1: 1, 2: 2}
    assert oracle_bfs([[1], [2], []], [2]) == {2: 0}


def test_oracle_sssp_picks_shortest():
    adj = [[(1, 1.0), (2, 5.0)], [(2, 1.0)], []]
    assert oracle_sssp(adj, 0) == {0: 0, 1: 1.0, 2: 2.0}


def test_oracle_components_two_pairs():
    assert oracle_components(4, [(0, 1), (2, 3)]) == [0, 0, 2, 2]


def test_oracle_triangles_k4():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    assert oracle_triangles(4, edges) == 4


def test_oracle_clustering_triangle_with_pendant():
    c = oracle_clustering(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    assert c[1] == 1.0 and c[2] == 1.0
    assert abs(c[0] - 1.0 / 3.0) < 1e-15
    assert 3 not in c


def test_oracle_pagerank_cycle_uniform():
    ranks = oracle_pagerank(3, [(0, 1), (1, 2), (2, 0)], 0.85)
    for x in ranks:
        assert abs(x - 1.0 / 3.0) <= 1e-12


def test_oracle_pagerank_rejects_dangling():
    with pytest.raises(ValueError):
        oracle_pagerank(2, [(0, 1)], 0.85)


def test_to_dense_and_back_round_trip():
    m = to_compressed(
        CooMatrix(2, 3, (Triple(0, 2, 4), Triple(1, 0, -1)), INT64)
    )
    d = to_dense(m, 0)
    assert d.values == ((0, 0, 4), (-1, 0, 0))
    back = from_dense(d, 0, INT64)
    assert vector_entries_like(back) == ((0, 2, 4), (1, 0, -1))


def vector_entries_like(m):
    from sgk.containers import entries_of

    return tuple((t.row, t.col, t.val) for t in entries_of(m))


def test_vector_dense_bridges():
    v = SparseVector(4, ((1, 2.5), (3, -1.0)), FLOAT64)
    dense = vector_to_dense(v, 0.0)
    assert dense == (0.0, 2.5, 0.0, -1.0)
    back = vector_from_dense(dense, 0.0, FLOAT64)
    assert vector_entries(back) == vector_entries(v)


def test_from_dense_drops_the_given_zero():
    d = DenseMatrix(2, 2, ((math.inf, 3.0), (math.inf, math.inf)))
    m = from_dense(d, math.inf, FLOAT64)
    assert vector_entries_like(m) == ((0, 1, 3.0),)


def test_oracle_module_is_independent_of_kernels():
    src = Path(__file__).resolve().parents[1] / "src" / "sgk" / "oracle.py"
    tree = ast.parse(src.read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    forbidden = ("sgk.kernels", "sgk.algorithms", "sgk.cli", "sgk.io_formats")
    for m in modules:
        assert not m.startswith(forbidden), m
