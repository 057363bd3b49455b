"""Per-layer spans and work counters, installed on sgk from outside.

`Tracer.install` rebinds each public name in every sgk module that
imported it (a wrapper on `sgk.algorithms.mxm` alone would miss the CLI's
own `mxm` call), plus the `__post_init__` validation of the three container
classes; `uninstall` puts the originals back.  Calls inside a module, such
as `is_symmetric` -> `transpose` -> `reorient` within `sgk.containers`,
stay part of the caller's span.

Each span records name, start, end, parent span and command id; spans are
kept in memory and written out by the caller.  A layer's self time is its
span's duration minus its direct children's.  Counter bookkeeping runs in
a `trace.self` span of its own, so it is not charged to any sgk layer.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

# Rebound functions by attribute name, and the layer span each one records.
KERNELS = ("mxm", "mxv", "ewise_mult", "reduce", "scale_matrix", "scale_vector",
           "apply_unary")
ALGORITHMS = {"bfs": "bfs", "sssp_minplus": "sssp", "connected_components": "cc",
              "triangle_count": "triangles", "clustering_coefficients": "clustering",
              "pagerank": "pagerank", "degrees": "degrees"}
CONTAINERS = {"to_compressed": "build", "build_from_triples": "build",
              "vector_from_entries": "build", "is_symmetric": "symmetry",
              "to_tuples": "to_tuples", "entries_of": "to_tuples",
              "pattern_complement": "reshape", "densify_vector": "reshape",
              "vector_as_column": "reshape", "reorient": "reorient"}
IO = {"read_matrix_market": "read", "read_edge_list": "read",
      "write_matrix_market": "write"}
COMMANDS = ("bfs", "sssp", "pagerank", "cc", "triangles", "clustering", "mxm",
            "convert", "info", "degrees")

# Every per-layer metric the traced run reports, with its unit; layers a
# workload never calls report 0.
METRICS = {
    **{f"cli.{c}_s": "s" for c in COMMANDS},
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "io_formats.read_s": "s",
    "io_formats.read_entries": "count",
    "io_formats.read_bytes": "bytes",
    "io_formats.write_s": "s",
    "io_formats.write_entries": "count",
    "containers.reorient_s": "s",
    "containers.reorients": "count",
    "containers.reorient_entries": "count",
    "containers.build_s": "s",
    "containers.validate_s": "s",
    "containers.symmetry_s": "s",
    "containers.to_tuples_s": "s",
    "containers.reshape_s": "s",
    **{f"kernels.{k}_{x}": u for k in KERNELS for x, u in (("s", "s"), ("calls", "count"))},
    "kernels.mxm_flops": "count",
    "kernels.mxm_nnz_out": "count",
    "kernels.mxv_nnz_a": "count",
    "kernels.mxv_useful": "count",
    "kernels.mxv_useful_ratio": "ratio",
    **{f"algorithms.{a}_s": "s" for a in ALGORITHMS.values()},
    "algorithms.bfs_levels": "count",
    "algorithms.bfs_frontier_entries": "count",
    "algorithms.sssp_rounds": "count",
    "algorithms.cc_rounds": "count",
    "algorithms.pagerank_iters": "count",
    "semirings.registry_get_calls": "count",
    "trace.self_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_s": "s",
}

# Per-algorithm round counters: mxv calls under that algorithm's span.
_ROUNDS = {"algorithms.bfs": "algorithms.bfs_levels",
           "algorithms.sssp": "algorithms.sssp_rounds",
           "algorithms.cc": "algorithms.cc_rounds",
           "algorithms.pagerank": "algorithms.pagerank_iters"}


def _nnz(m) -> int:
    return len(m.values)


def _slice_lengths(m, along_major: bool) -> list:
    """Entries per major slice (along_major) or per minor index."""
    if along_major:
        off = m.offsets
        return [off[i + 1] - off[i] for i in range(len(off) - 1)]
    minor = m.ncols if m.orientation == "row" else m.nrows
    counts = [0] * minor
    for j in m.minor_indices:
        counts[j] += 1
    return counts


def row_lengths(m) -> list:
    return _slice_lengths(m, m.orientation == "row")


def col_lengths(m) -> list:
    return _slice_lengths(m, m.orientation == "col")


def mxm_flops(a, b) -> int:
    """Products Gustavson's method forms: sum over stored A(i, j) of the
    number of entries in row j of B."""
    b_rows = row_lengths(b)
    return sum(k * b_rows[j] for j, k in enumerate(col_lengths(a)))


def mxv_useful(a, v, transpose_input=False) -> int:
    """Stored entries of A whose vector-side index is in v's support: rows
    of A when multiplying by the transpose, columns otherwise."""
    lengths = row_lengths(a) if transpose_input else col_lengths(a)
    return sum(lengths[i] for i, _x in v.entries)


class Tracer:
    def __init__(self, sgk_modules):
        self.mods = sgk_modules  # {"cli": module, "algorithms": module, ...}
        self.spans: list = []  # [name, start, end, parent index, command id]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.command = None
        self._saved: list = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.command])
        self.stack.append(idx)
        return idx

    def end(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def enclosing(self, prefix):
        for idx in reversed(self.stack):
            if self.spans[idx][0].startswith(prefix):
                return self.spans[idx][0]
        return None

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.counts[name + "_calls"] += 1
            if count is not None:
                book = self.begin("trace.self")
                count(out, *args, **kwargs)
                self.end(book)
            return out
        traced.__wrapped__ = fn
        return traced

    # -- counters ------------------------------------------------------------

    def _count_reorient(self, out, m, orientation):
        if m.orientation != orientation:
            self.counts["containers.reorients"] += 1
            self.counts["containers.reorient_entries"] += _nnz(m)

    def _count_mxm(self, out, a, b, s):
        self.counts["kernels.mxm_flops"] += mxm_flops(a, b)
        self.counts["kernels.mxm_nnz_out"] += _nnz(out)

    def _count_mxv(self, out, a, v, s, transpose_input=False):
        self.counts["kernels.mxv_nnz_a"] += _nnz(a)
        self.counts["kernels.mxv_useful"] += mxv_useful(a, v, transpose_input)
        alg = self.enclosing("algorithms.")
        if alg in _ROUNDS:
            self.counts[_ROUNDS[alg]] += 1
        if alg == "algorithms.bfs":
            self.counts["algorithms.bfs_frontier_entries"] += len(v.entries)

    def _count_read(self, out, stream, *args, **kwargs):
        coo = out[0] if isinstance(out, tuple) else out
        self.counts["io_formats.read_entries"] += len(coo.triples)
        self.counts["io_formats.read_bytes"] += sum(len(line) for line in stream)

    def _count_write(self, out, m, stream):
        self.counts["io_formats.write_entries"] += (
            len(m.triples) if hasattr(m, "triples") else _nnz(m))

    # -- installation --------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, counter) for every rebinding: each
        name a module imported from another sgk module, each algorithm, and
        the container validators."""
        m = self.mods
        counters = {"reorient": self._count_reorient, "mxm": self._count_mxm,
                    "mxv": self._count_mxv, "read_matrix_market": self._count_read,
                    "read_edge_list": self._count_read,
                    "write_matrix_market": self._count_write}
        names = {**{k: f"kernels.{k}" for k in KERNELS},
                 **{k: f"containers.{v}" for k, v in CONTAINERS.items()},
                 **{k: f"io_formats.{v}" for k, v in IO.items()},
                 "registry_get": "semirings.registry_get"}
        for owner in ("cli", "algorithms", "kernels", "io_formats"):
            mod = m[owner]
            for attr, span in names.items():
                fn = vars(mod).get(attr)
                if fn is not None and fn.__module__ != mod.__name__:
                    yield mod, attr, span, counters.get(attr)
        for attr, short in ALGORITHMS.items():
            yield m["algorithms"], attr, f"algorithms.{short}", None
        for cls in ("CompressedMatrix", "SparseVector", "CooMatrix"):
            yield getattr(m["containers"], cls), "__post_init__", "containers.validate", None

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, span, count in self._targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(span, fn, count))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    # -- aggregation ---------------------------------------------------------

    def pass_metrics(self) -> dict:
        """Per-layer values of the spans and counts recorded since reset."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for idx, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[idx]
        out = {k: 0.0 if u == "s" else 0 for k, u in METRICS.items()}
        for idx, s in enumerate(self.spans):
            name = s[0]
            if name.startswith("cli."):
                out[name + "_s"] += dur[idx]
                out["cli.self_s"] += dur[idx] - child[idx]
            elif name + "_s" in out:
                out[name + "_s"] += dur[idx] - child[idx]
        for key, value in self.counts.items():
            if key in out:
                out[key] = value
        if out["kernels.mxv_nnz_a"]:
            out["kernels.mxv_useful_ratio"] = out["kernels.mxv_useful"] / out["kernels.mxv_nnz_a"]
        return out


# Measured values: times, and the stdout size, which varies with the digits
# of elapsed_ms.  Every other metric is an exact count, identical on every
# pass of a seed.
MEASURED = {k for k, u in METRICS.items() if u == "s"} | {"cli.stdout_bytes"}
EXACT = [k for k in METRICS if k not in MEASURED]


def combine(passes: list) -> dict:
    """Median over traced passes of each measured value; exact counts from
    the first pass (the caller checks that every pass has the same)."""
    return {k: statistics.median(p[k] for p in passes) if k in MEASURED else passes[0][k]
            for k in METRICS}
