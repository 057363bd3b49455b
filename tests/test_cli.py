import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import traced_lines
from sgk import __version__, algorithms, containers, io_formats
from sgk.cli import run
from sgk.errors import InternalInvariantError, LawCheckError, SgkError
from sgk.io_formats import read_matrix_market

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

K3_EDGES = "0 1\n0 2\n1 2\n"
PATH_EDGES = "0 1\n1 2\n"
TRIANGLE_MM = (
    "%%MatrixMarket matrix coordinate integer symmetric\n"
    "3 3 3\n"
    "2 1 1\n"
    "3 1 1\n"
    "3 2 1\n"
)
VECTOR_MM = (
    "%%MatrixMarket matrix coordinate integer general\n"
    "3 1 1\n"
    "1 1 1\n"
)
COMPLEX_MM = "%%MatrixMarket matrix coordinate complex general\n"


@pytest.fixture()
def k3_file(tmp_path):
    p = tmp_path / "k3.tsv"
    p.write_text(K3_EDGES)
    return str(p)


@pytest.fixture()
def triangle_mm_file(tmp_path):
    p = tmp_path / "k3.mm"
    p.write_text(TRIANGLE_MM)
    return str(p)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, (json.loads(out.out) if out.out else None), out.err


# ---------------------------------------------------------------------------
# Happy paths


def test_info_json_envelope(capsys, triangle_mm_file):
    code, payload, err = run_json(capsys, ["info", triangle_mm_file])
    assert code == 0 and err == ""
    assert payload["command"] == "info"
    assert isinstance(payload["elapsed_ms"], float)
    assert payload["result"] == {
        "nrows": 3, "ncols": 3, "nnz": 6,
        "symmetric": True, "domain": "signed-int-64",
    }


def test_info_tsv_rendering(capsys, triangle_mm_file):
    assert run(["info", triangle_mm_file, "--format", "tsv"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "nrows\t3\nncols\t3\nnnz\t6\nsymmetric\tTrue\ndomain\tsigned-int-64\n"
    )


def test_scalar_result_tsv_rendering(capsys, k3_file):
    assert run(["triangles", "--undirected", "--format", "tsv", k3_file]) == 0
    assert capsys.readouterr().out == "1\n"


def test_complex_results_print_as_real_imaginary_pairs(capsys, tmp_path):
    mat = tmp_path / "c.mtx"
    mat.write_text(COMPLEX_MM + "2 2 2\n1 1 1.5 -2\n2 1 0 1\n")
    vec = tmp_path / "v.mtx"
    vec.write_text(COMPLEX_MM + "2 1 1\n1 1 2 0\n")
    argv = ["mxv", "--semiring", "plus_times", str(mat), str(vec)]
    code, payload, _ = run_json(capsys, argv)
    assert code == 0
    assert payload["result"] == {"length": 2, "entries": [[0, [3.0, -4.0]], [1, [0.0, 2.0]]]}
    assert run(argv + ["--format", "tsv"]) == 0
    assert capsys.readouterr().out == (
        "length\t2\nentries\t0\t[3.0, -4.0]\nentries\t1\t[0.0, 2.0]\n"
    )


def test_bfs_levels_on_path(capsys, tmp_path):
    p = tmp_path / "path.tsv"
    p.write_text(PATH_EDGES)
    code, payload, _ = run_json(capsys, ["bfs", "--source", "0", str(p)])
    assert code == 0
    assert payload["result"] == {"levels": [[0, 0], [1, 1], [2, 2]], "reached": 3}


def test_bfs_multi_source(capsys, tmp_path):
    p = tmp_path / "path.tsv"
    p.write_text(PATH_EDGES)
    code, payload, _ = run_json(capsys, ["bfs", "--source", "0,2", str(p)])
    assert code == 0
    assert payload["result"]["levels"] == [[0, 0], [1, 1], [2, 0]]


def test_triangles_on_undirected_edge_list(capsys, k3_file):
    code, payload, _ = run_json(capsys, ["triangles", "--undirected", k3_file])
    assert code == 0
    assert payload["result"] == 1


def test_sssp_on_weighted_edge_list(capsys, tmp_path):
    p = tmp_path / "w.tsv"
    p.write_text("0 1 2.5\n1 2 1.5\n")
    code, payload, _ = run_json(capsys, ["sssp", "--source", "0", str(p)])
    assert code == 0
    assert payload["result"] == {"distances": [[0, 0.0], [1, 2.5], [2, 4.0]]}


def test_cc_counts_components(capsys, tmp_path):
    p = tmp_path / "two.tsv"
    p.write_text("0 1\n2 3\n")
    code, payload, _ = run_json(capsys, ["cc", "--undirected", str(p)])
    assert code == 0
    assert payload["result"] == {
        "labels": [[0, 0], [1, 0], [2, 2], [3, 2]], "components": 2,
    }


def test_clustering_output(capsys, k3_file):
    code, payload, _ = run_json(capsys, ["clustering", "--undirected", k3_file])
    assert code == 0
    assert payload["result"] == {"coefficients": [[0, 1.0], [1, 1.0], [2, 1.0]]}


def test_degrees_in_direction(capsys, tmp_path):
    p = tmp_path / "e.tsv"
    p.write_text("0 1\n")
    code, payload, _ = run_json(capsys, ["degrees", "--dir", "in", str(p)])
    assert code == 0
    assert payload["result"] == {"direction": "in", "degrees": [[1, 1]]}


def test_pagerank_cycle(capsys, tmp_path):
    p = tmp_path / "cycle.tsv"
    p.write_text("0 1\n1 2\n2 0\n")
    code, payload, _ = run_json(
        capsys, ["pagerank", "--tol", "1e-12", str(p)]
    )
    assert code == 0
    ranks = dict((i, x) for i, x in payload["result"]["ranks"])
    for i in range(3):
        assert abs(ranks[i] - 1.0 / 3.0) <= 1e-12
    assert payload["result"]["iterations"] >= 1
    assert payload["result"]["residual"] <= 1e-12


def test_convert_writes_matrix_market(capsys, tmp_path, k3_file):
    out = tmp_path / "out.mm"
    code, payload, _ = run_json(
        capsys, ["convert", "--undirected", k3_file, "-o", str(out)]
    )
    assert code == 0
    assert payload["result"]["nnz"] == 6
    with open(out, encoding="utf-8") as fh:
        m, _ = read_matrix_market(fh)
    assert len(m.triples) == 6


def test_mxm_writes_product_file(capsys, tmp_path, triangle_mm_file):
    out = tmp_path / "sq.mm"
    code, payload, _ = run_json(
        capsys,
        ["mxm", "--semiring", "plus_times", triangle_mm_file,
         triangle_mm_file, "-o", str(out)],
    )
    assert code == 0
    assert payload["result"]["nrows"] == 3
    assert payload["result"]["nnz"] == 9  # K3 squared is full
    with open(out, encoding="utf-8") as fh:
        m, _ = read_matrix_market(fh)
    diag = {t.val for t in m.triples if t.row == t.col}
    assert diag == {2}


def test_mxv_with_single_column_vector(capsys, tmp_path, triangle_mm_file):
    vec = tmp_path / "v.mm"
    vec.write_text(VECTOR_MM)
    code, payload, _ = run_json(
        capsys,
        ["mxv", "--semiring", "plus_times", triangle_mm_file, str(vec)],
    )
    assert code == 0
    assert payload["result"] == {"length": 3, "entries": [[1, 1], [2, 1]]}


def test_mxv_transpose_flag(capsys, tmp_path):
    mat = tmp_path / "m.mm"
    mat.write_text(
        "%%MatrixMarket matrix coordinate integer general\n"
        "2 2 1\n"
        "1 2 5\n"
    )
    vec = tmp_path / "v.mm"
    vec.write_text(
        "%%MatrixMarket matrix coordinate integer general\n"
        "2 1 1\n"
        "1 1 1\n"
    )
    code, payload, _ = run_json(
        capsys,
        ["mxv", "--semiring", "plus_times", "--transpose", str(mat), str(vec)],
    )
    assert code == 0
    assert payload["result"]["entries"] == [[1, 5]]


# One run of every subcommand on the K3 matrix, and the keys of its result
# (triangles returns a bare count).
DISPATCH_CASES = [
    (["info", "{mm}"], {"nrows", "ncols", "nnz", "symmetric", "domain"}),
    (["degrees", "--dir", "out", "{mm}"], {"direction", "degrees"}),
    (["bfs", "--source", "0", "{mm}"], {"levels", "reached"}),
    (["sssp", "--source", "0", "{mm}"], {"distances"}),
    (["cc", "{mm}"], {"labels", "components"}),
    (["triangles", "{mm}"], None),
    (["clustering", "{mm}"], {"coefficients"}),
    (["pagerank", "{mm}"], {"ranks", "iterations", "residual"}),
    (["mxm", "--semiring", "plus_times", "{mm}", "{mm}", "-o", "{out}"],
     {"output", "nrows", "ncols", "nnz"}),
    (["mxv", "--semiring", "plus_times", "{mm}", "{vec}"], {"length", "entries"}),
    (["convert", "{mm}", "-o", "{out}"], {"output", "nrows", "ncols", "nnz"}),
]


@pytest.mark.parametrize("argv, keys", DISPATCH_CASES,
                         ids=[argv[0] for argv, _keys in DISPATCH_CASES])
def test_every_command_reaches_its_handler(capsys, tmp_path, triangle_mm_file, argv, keys):
    vec = tmp_path / "v.mm"
    vec.write_text(VECTOR_MM)
    files = {"mm": triangle_mm_file, "vec": str(vec), "out": str(tmp_path / "o.mm")}
    code, payload, err = run_json(capsys, [a.format(**files) for a in argv])
    assert code == 0 and err == ""
    assert payload["command"] == argv[0]
    assert isinstance(payload["elapsed_ms"], float)
    result = payload["result"]
    if keys is None:
        assert isinstance(result, int)
    else:
        assert set(result) == keys


@pytest.mark.parametrize("source", ["tsv", "mm"])
@pytest.mark.parametrize("argv", [argv for argv, _keys in DISPATCH_CASES if argv[0] != "sssp"],
                         ids=[argv[0] for argv, _keys in DISPATCH_CASES if argv[0] != "sssp"])
def test_commands_build_no_triple(capsys, monkeypatch, tmp_path, k3_file, triangle_mm_file,
                                  argv, source):
    """Loads read straight into CSR, so no command makes a Triple on either
    input format.  sssp is left out: its weight check lists the entries."""
    def no_triples(*_args):
        raise AssertionError("a Triple was built")

    monkeypatch.setattr(containers, "_triples", no_triples)
    vec = tmp_path / "v.mm"
    vec.write_text(VECTOR_MM)
    files = {"mm": k3_file if source == "tsv" else triangle_mm_file, "vec": str(vec),
             "out": str(tmp_path / "o.mm")}
    undirected = ["--undirected"] if source == "tsv" else []
    code, _payload, err = run_json(capsys, [a.format(**files) for a in argv] + undirected)
    assert (code, err) == (0, "")


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_version_prints_the_package_version_and_exits_zero(capsys):
    assert _in_process(capsys, ["--version"]) == (f"sgk {__version__}\n", "", 0)
    assert _one_process(["--version"]) == ("sgk 0.1.0\n", "", 0)


def test_stdout_deterministic_across_runs(capsys, k3_file):
    code1, p1, _ = run_json(capsys, ["clustering", "--undirected", k3_file])
    code2, p2, _ = run_json(capsys, ["clustering", "--undirected", k3_file])
    assert code1 == code2 == 0
    p1.pop("elapsed_ms")
    p2.pop("elapsed_ms")
    assert p1 == p2


def test_module_entry_point_runs(tmp_path):
    p = tmp_path / "k3.tsv"
    p.write_text(K3_EDGES)
    proc = subprocess.run(
        [sys.executable, "-m", "sgk.cli", "triangles", "--undirected", str(p)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == 1


def _in_process(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return out.out, out.err, code


def _one_process(argv):
    """stdout, stderr and exit code of `sgk argv` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "sgk.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.stdout, proc.stderr, proc.returncode


def test_a_reused_parser_prints_what_a_fresh_one_prints(capsys, monkeypatch, k3_file):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    for argv in (["--help"], ["--version"], [], ["frobnicate"], ["bfs", "--help"],
                 ["bfs", k3_file], ["bfs", "--source", "1,x", k3_file],
                 ["sssp", "--source", "1.5", k3_file], ["degrees", "--dir", "up", k3_file],
                 ["info", "--format", "xml", k3_file], ["info", "--bogus", k3_file]):
        fresh = _one_process(argv)
        for _ in range(2):  # the second call parses with the parser the first one used
            assert _in_process(capsys, argv) == fresh, argv


def test_commands_in_one_process_print_what_one_process_each_prints(capsys, tmp_path,
                                                                     k3_file, triangle_mm_file):
    vec = tmp_path / "v.mm"
    vec.write_text(VECTOR_MM)
    out = tmp_path / "out.mm"
    sequence = [
        ["info", triangle_mm_file],
        ["bfs", "--source", "0", "--undirected", k3_file],
        ["frobnicate"],
        ["sssp", "--source", "0", k3_file],
        ["degrees", "--dir", "out", "--format", "tsv", k3_file],
        ["convert", k3_file, "-o", str(out)],
        ["pagerank", "--undirected", k3_file],
        ["cc", "--undirected", k3_file],
        ["triangles", "--undirected", k3_file],
        ["clustering", "--undirected", "--format", "tsv", k3_file],
        ["mxm", "--semiring", "plus_times", triangle_mm_file, triangle_mm_file, "-o", str(out)],
        ["mxv", "--semiring", "plus_times", triangle_mm_file, str(vec)],
        ["info", str(tmp_path / "missing.tsv")],
    ]

    def observed(stdout, stderr, code):
        if stdout.startswith("{"):
            stdout = json.loads(stdout)
            del stdout["elapsed_ms"]
        written = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        return stdout, stderr, code, written

    in_one = [observed(*_in_process(capsys, argv)) for argv in sequence]
    assert in_one == [observed(*_one_process(argv)) for argv in sequence]
    assert [obs[2] for obs in in_one] == [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]


# The commands whose Python work should follow the stored entries alone.
# cc is left out: its output holds one label per vertex, so its work grows
# with the declared size by design.
_DECLARED_SIZE_CASES = [
    (["info", "{a}"], 0),
    (["degrees", "--dir", "in", "{a}"], 0),
    (["degrees", "--dir", "out", "{a}"], 0),
    (["bfs", "--source", "0", "{a}"], 0),
    (["sssp", "--source", "0", "{a}"], 0),
    (["triangles", "{a}"], 0),
    (["clustering", "{a}"], 0),
    (["mxm", "--semiring", "plus_times", "{a}", "{a}", "-o", "{out}"], 0),
    (["mxv", "--semiring", "plus_times", "{a}", "{v}"], 0),
    (["convert", "{a}", "-o", "{out}"], 0),
    (["pagerank", "{a}"], 3),  # refused: most vertices have no out-edge
]


@pytest.mark.parametrize("argv, code", _DECLARED_SIZE_CASES,
                         ids=[" ".join(t for t in argv if t[0] != "{" and t != "-o")
                              for argv, _ in _DECLARED_SIZE_CASES])
def test_work_follows_the_stored_entries_not_the_declared_size(capsys, tmp_path, argv, code):
    """Two entries, the edge 0 - (n - 1) both ways, declared in n x n: the
    library lines a command runs are the same for n = 2^10 and n = 2^16."""
    def command(n):
        a, v = tmp_path / f"a{n}.mm", tmp_path / f"v{n}.mm"
        a.write_text(f"%%MatrixMarket matrix coordinate integer general\n{n} {n} 2\n"
                     f"1 {n} 1\n{n} 1 1\n")
        v.write_text(f"%%MatrixMarket matrix coordinate integer general\n{n} 1 2\n"
                     f"1 1 1\n{n} 1 1\n")
        args = [x.format(a=a, v=v, out=tmp_path / f"out{n}.mm") for x in argv]
        return lambda: codes.append(run(args))

    codes: list[int] = []
    command(2**10)()  # warm-up: the parser, the registry and imports are built once
    lines = [traced_lines(command(n)) for n in (2**10, 2**16)]
    capsys.readouterr()
    assert codes == [code] * 3
    assert lines[0] == lines[1]


# ---------------------------------------------------------------------------
# Exit codes


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_argument_is_usage_error(capsys, k3_file):
    assert run(["bfs", k3_file]) == 1


@pytest.mark.parametrize("name, resolved", [
    ("nope/float-double", "nope/float-double"),
    ("nope", "nope/signed-int-64"),  # a bare family resolves against the input's domain
])
def test_unknown_semiring_family_is_usage_error(capsys, triangle_mm_file, tmp_path,
                                                name, resolved):
    out = tmp_path / "x.mm"
    code = run(["mxm", "--semiring", name, triangle_mm_file,
                triangle_mm_file, "-o", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: unknown semiring {resolved!r}\n"
    assert not out.exists()


def test_non_integer_source_is_usage_error(capsys, k3_file):
    assert run(["bfs", "--source", "1,x", k3_file]) == 1
    assert capsys.readouterr().err == "error: --source expects integers, got 'x'\n"


def test_unsupported_domain_for_family_is_compute_error(capsys, tmp_path):
    mat = tmp_path / "c.mm"
    mat.write_text(
        "%%MatrixMarket matrix coordinate complex general\n"
        "1 1 1\n"
        "1 1 1.0 0.0\n"
    )
    code = run(["mxv", "--semiring", "min_plus", str(mat), str(mat)])
    assert code == 3


def test_undirected_with_matrix_market_is_usage_error(capsys, triangle_mm_file):
    assert run(["info", "--undirected", triangle_mm_file]) == 1
    assert "edge list" in capsys.readouterr().err


def test_missing_file_is_data_error(capsys, tmp_path):
    assert run(["info", str(tmp_path / "absent.tsv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_file_is_data_error(capsys, tmp_path):
    p = tmp_path / "b.tsv"
    p.write_bytes(b"\xff\xfe\x00\x01x\n")
    assert run(["info", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and err.count("\n") == 1


def test_unwritable_output_is_data_error(capsys, tmp_path, k3_file):
    out = tmp_path / "nodir" / "x.mm"
    assert run(["convert", k3_file, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {out}: No such file or directory\n"


def test_malformed_matrix_market_is_data_error(capsys, tmp_path):
    p = tmp_path / "bad.mm"
    p.write_text("%%MatrixMarket matrix coordinate real general\n2 2\n")
    assert run(["info", str(p)]) == 2
    err = capsys.readouterr().err
    assert str(p) in err


def test_out_of_bounds_entry_is_data_error(capsys, tmp_path):
    p = tmp_path / "oob.mm"
    p.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "5 1 1.0\n"
    )
    assert run(["info", str(p)]) == 2


def test_non_finite_matrix_market_value_is_data_error(capsys, tmp_path):
    p = tmp_path / "inf.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 inf\n"
        "2 2 nan\n"
    )
    v = tmp_path / "v.mtx"
    v.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 1 2\n"
        "1 1 1.0\n"
        "2 1 1.0\n"
    )
    out = tmp_path / "out.mtx"
    assert run(["mxv", "--semiring", "plus_times", str(p), str(v)]) == 2
    assert run(["convert", str(p), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {p}: line 3: non-finite value 'inf'\n" * 2
    assert not out.exists()


def test_non_finite_complex_part_is_data_error(capsys, tmp_path):
    p = tmp_path / "inf.mtx"
    p.write_text(COMPLEX_MM + "2 2 1\n1 1 inf 0\n")
    assert run(["info", str(p)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {p}: line 3: non-finite value 'inf' '0'\n")


@pytest.fixture()
def overflowing_files(tmp_path):
    """A matrix whose products overflow to inf, and a vector to multiply it by."""
    big = tmp_path / "big.mtx"
    big.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 1e308\n"
        "2 2 2.0\n"
    )
    v = tmp_path / "v.mtx"
    v.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 1 2\n"
        "1 1 10.0\n"
        "2 1 1.0\n"
    )
    return str(big), str(v)


def test_result_json_cannot_carry_is_data_error(capsys, overflowing_files):
    big, v = overflowing_files
    assert run(["mxv", "--semiring", "plus_times", big, v]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the mxv result holds inf or nan, which JSON cannot carry "
        "(--format tsv prints it)\n"
    )
    assert run(["mxv", "--semiring", "plus_times", "--format", "tsv", big, v]) == 0
    assert capsys.readouterr().out == "length\t2\nentries\t0\tinf\nentries\t1\t2.0\n"


def test_refused_write_leaves_output_path_untouched(capsys, tmp_path, overflowing_files):
    big, _v = overflowing_files
    fresh = tmp_path / "fresh.mtx"
    kept = tmp_path / "kept.mtx"
    kept.write_bytes(b"earlier contents\n")
    for out in (fresh, kept):
        assert run(["mxm", "--semiring", "plus_times", big, big, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: non-finite value inf has no Matrix Market form "
            "(at row 0, column 0)\n"
        )
    assert not fresh.exists()
    assert kept.read_bytes() == b"earlier contents\n"


def test_each_write_checks_its_values_once(capsys, monkeypatch, tmp_path):
    """The refusal before the path is opened is the writer's own check."""
    checks = []
    check = io_formats.serializable_field

    def counted(m):
        checks.append(m)
        return check(m)

    monkeypatch.setattr(io_formats, "serializable_field", counted)
    monkeypatch.setattr("sgk.cli.serializable_field", counted, raising=False)
    src = tmp_path / "w.tsv"
    src.write_text("0 1 0.5\n1 2 1.5\n2 0 2.5\n")
    out = tmp_path / "w.mtx"
    assert run(["convert", str(src), "-o", str(out)]) == 0
    assert len(checks) == 1
    assert run(["mxm", "--semiring", "plus_times", str(out), str(out),
                "-o", str(tmp_path / "sq.mtx")]) == 0
    assert len(checks) == 2
    capsys.readouterr()


def test_pagerank_alpha_out_of_range_is_exit_3(capsys, tmp_path):
    p = tmp_path / "cycle.tsv"
    p.write_text("0 1\n1 2\n2 0\n")
    assert run(["pagerank", "--alpha", "1.5", str(p)]) == 3
    assert "alpha out of range (0,1)" in capsys.readouterr().err


def test_pagerank_nan_tol_is_exit_3(capsys, tmp_path):
    p = tmp_path / "cycle.tsv"
    p.write_text("0 1\n1 2\n2 0\n")
    assert run(["pagerank", "--tol", "nan", str(p)]) == 3
    assert "tol must be non-negative" in capsys.readouterr().err


def test_sssp_negative_weight_is_exit_3(capsys, tmp_path):
    p = tmp_path / "neg.tsv"
    p.write_text("0 1 -2.0\n")
    assert run(["sssp", "--source", "0", str(p)]) == 3


@pytest.mark.parametrize("name, text, kind", [
    ("far.tsv", "0\t1\t1e308\n1\t2\t1e308\n", "float-double"),
    ("far.mtx", "%%MatrixMarket matrix coordinate integer general\n3 3 2\n"
                "1 2 4611686018427387904\n2 3 4611686018427387904\n", "signed-int-64"),
])
def test_sssp_distance_overflow_is_exit_3(capsys, tmp_path, name, text, kind):
    p = tmp_path / name
    p.write_text(text)
    code, payload, err = run_json(capsys, ["sssp", "--source", "0", str(p)])
    assert code == 3 and payload is None
    assert err == f"error: sssp_minplus: a shortest distance overflows {kind}\n"


def test_sssp_cheaper_path_past_an_overflowing_one(capsys, tmp_path):
    p = tmp_path / "detour.tsv"
    p.write_text("0\t1\t1e308\n1\t2\t1e308\n0\t3\t1\n3\t2\t1\n")
    code, payload, err = run_json(capsys, ["sssp", "--source", "0", str(p)])
    assert code == 0 and err == ""
    assert payload["result"] == {"distances": [[0, 0.0], [1, 1e308], [2, 2.0], [3, 1.0]]}


def test_cc_on_directed_graph_is_exit_3(capsys, tmp_path):
    p = tmp_path / "arrow.tsv"
    p.write_text("0 1\n")
    assert run(["cc", str(p)]) == 3


def test_mxm_shape_mismatch_is_exit_3(capsys, tmp_path, triangle_mm_file):
    rect = tmp_path / "r.mm"
    rect.write_text(
        "%%MatrixMarket matrix coordinate integer general\n"
        "2 4 1\n"
        "1 1 1\n"
    )
    out = tmp_path / "x.mm"
    code = run(["mxm", "--semiring", "plus_times", triangle_mm_file,
                str(rect), "-o", str(out)])
    assert code == 3


def test_mxv_rejects_non_column_vector(capsys, tmp_path, triangle_mm_file):
    code = run(["mxv", "--semiring", "plus_times", triangle_mm_file,
                triangle_mm_file])
    assert code == 3
    assert "single-column" in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    InternalInvariantError("triangle_count: a fixed point failed"),
    LawCheckError("associativity", (0, 0, 4)),
    SgkError("an error of no narrower class"),
], ids=lambda e: type(e).__name__)
def test_any_other_library_error_is_exit_3(capsys, monkeypatch, k3_file, error):
    def raising(_a):
        raise error
    monkeypatch.setattr(algorithms, "triangle_count", raising)
    code, payload, err = run_json(capsys, ["triangles", "--undirected", k3_file])
    assert code == 3 and payload is None
    assert err == f"error: {error}\n"


@pytest.mark.parametrize("name, text, where", [
    ("big.tsv", "0 1\n1 4\n", "line 2: vertex index 4 needs a dimension above the limit 3"),
    ("big.mtx", "%%MatrixMarket matrix coordinate pattern general\n4 1 0\n",
     "line 2: size 4x1 exceeds the dimension limit 3"),
])
def test_dimension_above_the_limit_is_data_error(capsys, monkeypatch, tmp_path, name, text, where):
    monkeypatch.setattr(io_formats, "MAX_DIMENSION", 3)
    p = tmp_path / name
    p.write_text(text)
    assert run(["info", str(p)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {p}: {where}\n")


# Lines of up to four tokens joined by spaces or tabs: small indices only,
# or mixed with banner words, values the readers refuse and comment
# markers; after no banner, a partial one or a complete one.
_FUZZ_NUMBERS = st.sampled_from(("0", "1", "2", "3"))
_FUZZ_WORDS = st.sampled_from((
    "%%MatrixMarket", "matrix", "coordinate", "real", "integer", "complex", "pattern",
    "general", "symmetric", "-1", "1.5", "inf", "nan", "x", "#", "%"))
_FUZZ_BANNERS = ("", "%%MatrixMarket matrix coordinate ", *(
    f"%%MatrixMarket matrix coordinate {field} {symmetry}\n"
    for field in ("real", "integer", "complex", "pattern")
    for symmetry in ("general", "symmetric")))
_FUZZ_LINES = st.tuples(
    st.lists(_FUZZ_NUMBERS, max_size=4) | st.lists(_FUZZ_NUMBERS | _FUZZ_WORDS, max_size=4),
    st.sampled_from((" ", "\t")),
).map(lambda t: t[1].join(t[0]))
_FUZZ_TEXTS = st.tuples(st.sampled_from(_FUZZ_BANNERS), st.lists(_FUZZ_LINES, max_size=6)).map(
    lambda t: t[0] + "".join(line + "\n" for line in t[1]))
_FUZZ_COMMANDS = (["info"], ["cc"], ["degrees", "--dir", "in"], ["info", "--undirected"],
                  ["convert", "-o", "{out}"], ["mxv", "--semiring", "plus_times", "{file}"])


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_FUZZ_TEXTS, command=st.sampled_from(_FUZZ_COMMANDS),
       block=st.sampled_from((io_formats._BLOCK, 1, 2)))
def test_fuzzed_inputs_end_in_an_exit_code_and_one_error_line(tmp_path, text, command, block):
    """Short texts mixing both formats' words through the CLI, read in the
    readers' default blocks or in blocks of one or two lines: no run raises,
    every run exits 0-3, and a failed run prints exactly one error line."""
    path = tmp_path / "fuzz.txt"
    path.write_text(text)
    argv = [command[0], str(path)] + [
        a.format(out=tmp_path / "out.mtx", file=path) for a in command[1:]]
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          mock.patch.object(io_formats, "_BLOCK", block)):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == "" and out.getvalue().count("\n") == 1
