"""The README's quick example, its semiring table and the scripts still
match what the code does."""

import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sgk
from sgk.semirings import CANONICAL_NAMES

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_example_prints_what_its_comments_show():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick example\s+```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == ["((1, True),)", "((0, 0), (1, 1), (2, 2))"]


def test_demo_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_algorithms.py"), "--n", "20", "--seed", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_export_list_is_sorted_unique_and_complete():
    public = {name for name, value in vars(sgk).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sgk.__all__ == sorted(sgk.__all__)
    assert len(sgk.__all__) == len(set(sgk.__all__))
    assert set(sgk.__all__) == public


def test_readme_semiring_table_matches_the_registry():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = re.search(r"## Semirings\n.*?(\| Family .*?)\n\n", readme, re.S).group(1)
    header, _rule, *rows = [
        [cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()
    ]
    family, domain = header.index("Family"), header.index("Canonical domain")
    documented = tuple(f"{row[family].strip('`')}/{row[domain]}" for row in rows)
    assert documented == CANONICAL_NAMES


def _module(path):
    spec = importlib.util.spec_from_file_location(Path(path).stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ab_pairs():
    return _module(ROOT / "scripts" / "ab_pairs.py")


def test_untested_lines_names_the_branch_a_run_never_takes(tmp_path):
    script = _module(ROOT / "scripts" / "untested_lines.py")
    path = tmp_path / "sign.py"
    path.write_text("def sign(x):\n    if x < 0:\n        return -1\n    return 1\n")
    result, missing = script.untested([path], lambda: _module(path).sign(2))
    assert (result, missing) == (1, [(path, 3)])


def test_ab_pairs_counts_wins_and_applies_the_gain_rule():
    ab = _ab_pairs()
    base = [1.50, 1.47, 1.52, 1.49, 1.55, 1.48, 1.51, 1.50, 1.53, 1.46]
    change = [1.03, 1.05, 1.01, 1.49, 1.06, 1.02, 1.04, 1.00, 1.07, 1.05]
    c = ab.compare(base, change)
    assert (c["change_wins"], c["base_wins"], c["ties"]) == (9, 0, 1)
    assert c["base"] == ab.quartiles(base)
    assert c["base"][1] == 1.50 and c["change"][1] == 1.045
    assert c["gain"]
    # Eight wins of ten is not enough, however large the difference.
    c = ab.compare(base, change[:8] + [2.0, 2.0])
    assert (c["change_wins"], c["base_wins"], c["gain"]) == (7, 2, False)
    # Every pair won, but the medians differ by less than the base's spread.
    c = ab.compare([1.0, 2.0, 3.0, 4.0], [0.9, 1.9, 2.9, 3.9])
    assert c["change_wins"] == 4 and not c["gain"]


def test_ab_pairs_verdict_applies_the_no_regression_bound():
    ab = _ab_pairs()
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert ab.verdict(base, [x * 1.2 for x in base], 0.25) == "ok"
    assert ab.verdict(base, [x * 1.3 for x in base], 0.25) == "regressed"
    assert ab.verdict(base, [x * 1.1 for x in base], 0.25) == "ok"
    assert ab.verdict(base, [x * 1.12 for x in base], 0.1) == "regressed"
    # The base spread is wider than the bound: only a change whose every
    # run beats every base run is resolved.
    wide = [1.0, 1.5, 2.0, 2.5, 3.0]
    assert ab.verdict(wide, [1.9, 2.0, 2.1, 2.2, 2.3], 0.25) == "unresolved"
    assert ab.verdict(wide, [0.5, 0.6, 0.7, 0.8, 0.9], 0.25) == "ok"
    # A regression beyond the bound is reported even when the spread is wide.
    assert ab.verdict(wide, [x * 2 for x in wide], 0.25) == "regressed"


def test_ab_pairs_reads_bounds_from_the_benchmark_declaration():
    ab = _ab_pairs()
    seconds, bounds = ab.declared(str(ROOT))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert seconds == spec["run_seconds"]
    assert bounds == {m["name"]: m["bound"] for m in spec["end_to_end"]}


def test_ab_pairs_quartiles():
    ab = _ab_pairs()
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)
    with pytest.raises(ValueError):
        ab.compare([1.0], [])


def test_ab_pairs_takes_the_workload_option_more_than_once():
    ab = _ab_pairs()
    args = ab.parse_args(["A", "B", "--workload", "traverse", "--workload", "products",
                          "--seed", "23"])
    assert args.workload == ["traverse", "products"]
    assert (args.base, args.change, args.seed, args.pairs, args.counters) == (
        "A", "B", 23, 10, False)
    assert ab.parse_args(["A", "B", "--workload", "ingest", "--seed", "3",
                          "--counters"]).workload == ["ingest"]
    with pytest.raises(SystemExit):
        ab.parse_args(["A", "B", "--seed", "3"])


def test_ab_pairs_counter_diff_lists_changed_exact_counters():
    ab = _ab_pairs()

    def metric(value, unit="count"):
        return {"value": value, "unit": unit}

    base = {"kernels.mxv_s": metric(0.5, "s"), "kernels.mxv_calls": metric(7),
            "kernels.mxv_nnz_a": metric(100), "cli.stdout_bytes": metric(900, "bytes"),
            "kernels.mxv_useful_ratio": metric(0.5, "ratio")}
    change = {**base, "kernels.mxv_s": metric(0.4, "s"), "kernels.mxv_nnz_a": metric(93),
              "cli.stdout_bytes": metric(901, "bytes"),
              "kernels.mxv_useful_ratio": metric(0.25, "ratio"),
              "algorithms.cc_rounds": metric(3)}
    # Times and the byte count of the rendered output are left out.
    assert ab.counter_diff(base, change) == [
        ("kernels.mxv_nnz_a", 100, 93),
        ("kernels.mxv_useful_ratio", 0.5, 0.25),
        ("algorithms.cc_rounds", None, 3),
    ]
    assert ab.counter_diff(base, base) == []


def test_ab_pairs_reads_the_raw_wall_times_of_a_run():
    ab = _ab_pairs()
    lines = [
        "# setup wall time 0.8123 s (import 0.0412 s)",
        '# provenance {"seed": 3}',
        "# pass_s median of 31 passes; p90 0.7000 s; pass times [0.61, 0.62]",
        "# pass wall time median 0.6021 s; reference loop median 4.311 ms over 29 probes",
    ]
    assert ab.raw_walls(lines) == {"setup_s": 0.8123, "pass_s": 0.6021}
    assert ab.raw_walls(lines[1:3]) == {}
    assert ab.raw_medians([0.5, 0.7, 0.6], [0.4, 0.3, 0.5], 3) == (
        "  raw wall: base 0.6000 change 0.4000")
    # A side with a run that printed no raw time shows no medians.
    assert ab.raw_medians([0.5, 0.7], [0.4, 0.3, 0.5], 3) == ""


def test_ab_pairs_resolves_both_revisions_to_commit_ids_before_any_run(tmp_path, monkeypatch,
                                                                       capsys):
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                               "-c", "user.email=t@example.invalid", *args],
                              check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "f.txt").write_text("x\n")
    git("add", "f.txt")
    git("commit", "-q", "-m", "one")
    head = git("rev-parse", "HEAD")
    ab = _ab_pairs()
    monkeypatch.setattr(ab, "ROOT", str(tmp_path))
    assert ab.resolve("HEAD") == ab.resolve(head[:7]) == head
    extracted = []
    monkeypatch.setattr(ab, "extract", lambda rev, dest: extracted.append((rev, dest)))
    with pytest.raises(SystemExit) as exc:
        ab.main(["HEAD", "no-such-rev", "--workload", "products", "--seed", "3"])
    assert exc.value.code == "error: revision 'no-such-rev' names no commit"
    # The tree of HEAD is a tree, not a commit.
    with pytest.raises(SystemExit):
        ab.resolve("HEAD^{tree}")
    assert extracted == []
    # Reports name the commit ids, not the revisions given.
    monkeypatch.setattr(ab, "run_once", lambda *a, **k: {
        "correct": True, "failed": 0, "attempted": 1, "metrics": {}})
    assert ab.main(["HEAD", head[:7], "--workload", "products", "--seed", "3",
                    "--counters"]) == 0
    assert [rev for rev, _dest in extracted] == [head, head]
    # Both trees lie at paths of equal length, which peak_rss_mb depends on.
    (_, base_dest), (_, change_dest) = extracted
    assert base_dest != change_dest and len(base_dest) == len(change_dest)
    assert f"products seed 3, base {head} vs change {head}:" in capsys.readouterr().out
    monkeypatch.setattr(ab, "run_once", lambda *a, **k: {
        "correct": True, "failed": 0, "attempted": 1,
        "metrics": {"pass_s": {"value": 0.5}}, "raw_walls": {}})
    args = ab.parse_args([head, head, "--workload", "products", "--seed", "3", "--pairs", "1"])
    trees = {"base": "b", "change": "c"}
    assert ab.compare_pairs(trees, "products", args, 1.0, {"pass_s": 0.25})
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == f"products seed 3, 1 pairs of 1 s runs, base {head} vs change {head}"
    assert json.loads(lines[-1])["commits"] == {"base": head, "change": head}
