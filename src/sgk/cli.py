"""Command-line front end.

Loads Matrix Market or TSV edge-list files, runs a primitive or a graph
algorithm, and prints a JSON object `{"command": ..., "result": ...,
"elapsed_ms": ...}` to stdout (or plain TSV with --format tsv).  Vertex
indices in all output are 0-based, regardless of the 1-based Matrix
Market encoding on disk.

Exit codes: 0 success, 1 usage error, 2 unreadable or malformed input
data, an unwritable output path or a result value JSON cannot carry, 3
any other library error, such as an algorithm precondition failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from operator import itemgetter

from . import __version__, algorithms
from .containers import (
    CompressedMatrix,
    SparseVector,
    _major_indices,
    _sorted_vector,
    is_symmetric,
    nvals,
    vector_entries,
)
from .errors import (
    DomainMismatchError,
    IndexRangeError,
    ParseError,
    PreconditionError,
    SgkError,
    UnknownSemiringError,
    UnserializableDomainError,
    UnsupportedDomainError,
    UsageError,
)
from .io_formats import _read_edge_list, _read_matrix_market, write_matrix_market
from .kernels import mxm, mxv
from .semirings import registry_get


class _DataError(Exception):
    """Marks errors raised while loading input files or writing an output
    file, so malformed data or an unusable path maps to exit code 2 no
    matter which error class the reader or the OS used."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _comma_indices(text: str) -> tuple:
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            out.append(int(part))
        except ValueError:
            raise UsageError(f"--source expects integers, got {part!r}") from None
    return tuple(out)


@cache
def _parser() -> _Parser:
    """The command-line parser, built at the first `run` of a process and
    reused by every later one: parsing leaves no state in it."""
    p = _Parser(
        prog="sgk",
        description="Sparse semiring graph kernels. Vertex indices in "
        "output are 0-based; Matrix Market files are 1-based on disk.",
    )
    p.add_argument("--version", action="version", version=f"sgk {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, handler, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        return sp

    def common(sp, files=1):
        for name in ("file", "file_b")[:files]:
            sp.add_argument(name, help="input matrix (Matrix Market or TSV edge list)")
        sp.add_argument("--format", choices=("json", "tsv"), default="json",
                        dest="output_format", help="output format (default json)")
        sp.add_argument("--undirected", action="store_true",
                        help="mirror edges when reading a TSV edge list")

    common(command("info", _info, "dimensions, entry count, symmetry, domain"))

    sp = command("degrees", _degrees, "per-vertex in or out degrees")
    sp.add_argument("--dir", choices=("in", "out"), required=True)
    common(sp)

    sp = command("bfs", _bfs, "breadth-first search levels")
    sp.add_argument("--source", required=True, type=_comma_indices,
                    help="source vertex, or comma-separated list")
    common(sp)

    sp = command("sssp", _sssp, "single-source shortest path distances")
    sp.add_argument("--source", required=True, type=int)
    common(sp)

    common(command("cc", _cc, "connected component labels"))
    common(command("triangles", _triangles, "triangle count"))
    common(command("clustering", _clustering, "local clustering coefficients"))

    sp = command("pagerank", _pagerank, "PageRank by power iteration")
    sp.add_argument("--alpha", type=float, default=0.85)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--max-iters", type=int, default=100)
    common(sp)

    sp = command("mxm", _mxm, "matrix-matrix multiply over a semiring")
    sp.add_argument("--semiring", required=True,
                    help='name like "min_plus" or "plus_times/float-double"')
    common(sp, files=2)
    sp.add_argument("-o", "--output", required=True, dest="output_path",
                    help="destination Matrix Market file")

    sp = command("mxv", _mxv, "matrix-vector multiply over a semiring")
    sp.add_argument("--semiring", required=True)
    sp.add_argument("--transpose", action="store_true",
                    help="multiply by the transpose of the matrix")
    common(sp, files=2)

    sp = command("convert", _convert, "rewrite any input as Matrix Market")
    common(sp)
    sp.add_argument("-o", "--output", required=True, dest="output_path",
                    help="destination Matrix Market file")

    return p


def _load_matrix(path: str, undirected: bool) -> CompressedMatrix:
    """Read a file as Matrix Market (sniffed from the banner) or as a TSV
    edge list, straight into CSR."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise _DataError(f"{path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise _DataError(f"{path}: {e}") from e
    first = lines[0] if lines else ""
    try:
        if first.lower().startswith("%%matrixmarket"):
            if undirected:
                raise UsageError(
                    "--undirected applies to TSV edge lists, not Matrix Market"
                )
            return _read_matrix_market(lines)[0]
        return _read_edge_list(lines, undirected)
    except (ParseError, IndexRangeError, DomainMismatchError) as e:
        raise _DataError(f"{path}: {e}") from e


def _load_vector(path: str) -> SparseVector:
    m = _load_matrix(path, undirected=False)
    if m.ncols != 1:
        raise PreconditionError(
            f"{path}: vector input must be a single-column matrix, "
            f"got {m.nrows}x{m.ncols}"
        )
    return _sorted_vector(m.nrows, zip(_major_indices(m.offsets), m.values), m.domain)


def _resolve_semiring(name: str, domain):
    if "/" in name:
        try:
            return registry_get(name)
        except (UnknownSemiringError, UnsupportedDomainError) as e:
            raise UsageError(str(e)) from e
    try:
        return registry_get(f"{name}/{domain.kind}")
    except UnknownSemiringError as e:
        raise UsageError(str(e)) from e


def _pairs(v: SparseVector) -> list:
    """The [index, value] pairs of a vector's entries; a complex value
    becomes [real, imag]."""
    if v.domain.is_complex:
        return [[i, [x.real, x.imag]] for i, x in vector_entries(v)]
    return list(map(list, vector_entries(v)))


# Command handlers: each takes the loaded first input and the parsed
# arguments, and returns the JSON-ready result.


def _info(m, ns):
    sym = is_symmetric(m) if m.nrows == m.ncols else False
    return {"nrows": m.nrows, "ncols": m.ncols, "nnz": nvals(m),
            "symmetric": sym, "domain": m.domain.kind}


def _degrees(m, ns):
    return {"direction": ns.dir, "degrees": _pairs(algorithms.degrees(m, ns.dir))}


def _bfs(m, ns):
    res = algorithms.bfs(m, list(ns.source))
    return {"levels": _pairs(res.levels), "reached": res.reached_count}


def _sssp(m, ns):
    return {"distances": _pairs(algorithms.sssp_minplus(m, ns.source))}


def _cc(m, ns):
    labels = algorithms.connected_components(m)
    components = len(set(map(itemgetter(1), vector_entries(labels))))
    return {"labels": _pairs(labels), "components": components}


def _triangles(m, ns):
    return algorithms.triangle_count(m)


def _clustering(m, ns):
    return {"coefficients": _pairs(algorithms.clustering_coefficients(m))}


def _pagerank(m, ns):
    res = algorithms.pagerank(m, ns.alpha, ns.max_iters, ns.tol)
    return {"ranks": _pairs(res.ranks), "iterations": res.iterations,
            "residual": res.residual}


class _OutputFile:
    """A text file that opens its path at the first write, so a writer that
    refuses before writing anything leaves the path as it was."""

    def __init__(self, path: str):
        self.path = path
        self.fh = None

    def _open(self):
        self.fh = open(self.path, "w", encoding="utf-8")
        return self.fh

    def write(self, text: str) -> None:
        (self.fh or self._open()).write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.fh is not None:
            self.fh.close()


def _write_output(m: CompressedMatrix, path: str) -> dict:
    try:
        with _OutputFile(path) as out:
            write_matrix_market(m, out)  # checks every value before its first write
    except OSError as e:
        raise _DataError(f"{path}: {e.strerror or e}") from e
    return {"output": path, "nrows": m.nrows, "ncols": m.ncols, "nnz": nvals(m)}


def _mxm(a, ns):
    b = _load_matrix(ns.file_b, ns.undirected)
    c = mxm(a, b, _resolve_semiring(ns.semiring, a.domain))
    return _write_output(c, ns.output_path)


def _mxv(a, ns):
    v = _load_vector(ns.file_b)
    w = mxv(a, v, _resolve_semiring(ns.semiring, a.domain), transpose_input=ns.transpose)
    return {"length": w.length, "entries": _pairs(w)}


def _convert(m, ns):
    return _write_output(m, ns.output_path)


def _render_tsv(result) -> str:
    if not isinstance(result, dict):
        return f"{result}\n"
    out = []
    for key, value in result.items():
        if isinstance(value, list):
            for item in value:
                out.append("\t".join(str(x) for x in [key, *item]))
        else:
            out.append(f"{key}\t{value}")
    return "".join(line + "\n" for line in out)


def run(argv=None) -> int:
    """Parse argv, execute one command, print its result; returns the
    process exit code instead of raising."""
    try:
        try:
            ns = _parser().parse_args(argv)
        except SystemExit as e:  # --help and --version exit via argparse
            return int(e.code or 0)
        started = time.perf_counter()
        result = ns.handler(_load_matrix(ns.file, ns.undirected), ns)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if ns.output_format == "tsv":
            sys.stdout.write(_render_tsv(result))
        else:
            payload = {
                "command": ns.command,
                "result": result,
                "elapsed_ms": round(elapsed_ms, 3),
            }
            try:
                text = json.dumps(payload, allow_nan=False)
            except ValueError:
                raise UnserializableDomainError(
                    f"the {ns.command} result holds inf or nan, which JSON "
                    "cannot carry (--format tsv prints it)"
                ) from None
            sys.stdout.write(text + "\n")
        return 0
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (_DataError, ParseError, UnserializableDomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SgkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
