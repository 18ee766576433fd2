"""Unit tests for ``tools/ab_pairs.py``, the paired A/B benchmark tool.

A stub runner stands in for perfbench: it prints a progress line and
then a fixed JSON result line per (side, seed), so the medians, each
side's interquartile range, the wins and losses and the
"resolved" verdict are checked on known numbers without running the
benchmark.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name,
                                                  TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # ab_pairs imports bench_trajectory by name.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


trajectory = _load("bench_trajectory")
ab = _load("ab_pairs")
catalogue = trajectory.perfbench_catalogue()


def result_line(failed: int = 0, attempted: int = 100,
                **values: float) -> str:
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": "ms"}
                    for name, value in values.items()}})


class StubRunner:
    """Prints perfbench-shaped output: per side, one value per seed
    (in pair order) for each metric; records every call."""

    def __init__(self, roots: dict[str, Path], values: dict):
        self.side_of = {root: side for side, root in roots.items()}
        self.values = values
        self.calls: list[tuple[str, int, float, bool]] = []

    def __call__(self, root, workload, seed, seconds, trace) -> str:
        side = self.side_of[root]
        self.calls.append((side, seed, seconds, trace))
        index = seed - ab.SEED_BASE
        metrics = {name: by_side[side][index]
                   for name, by_side in self.values.items()}
        return (f"perfbench: workload={workload} seed={seed}\n"
                f"{result_line(**metrics)}\n")


ROOTS = {"base": Path("/base"), "head": Path("/head")}

#: Ten pairs.  Base p50 has quartiles 11 and 13 (IQR 2, median 12);
#: the head wins nine of them.
VALUES = {
    "p50_ms": {"base": [10, 11, 12, 13, 14] * 2,
               "head": [7, 8, 9, 10, 15, 7, 8, 9, 10, 9]},
    "ops_per_s": {"base": [100] * 10,
                  "head": [100, 101, 99, 100, 102] * 2},
    "p99_ms": {"base": [20, 22, 24, 26, 28] * 2,
               "head": [19, 21, 23, 25, 27] * 2},
}


def comparisons(values=VALUES, pairs=10) -> dict:
    runner = StubRunner(ROOTS, values)
    results = ab.run_pairs(runner, ROOTS, "batch-warm", pairs, 2.0, False)
    return {row.metric: row
            for row in ab.compare(results, catalogue.END_TO_END)}, runner


def test_pairs_alternate_order_and_derive_seeds_from_a_fixed_base():
    _, runner = comparisons(pairs=5)
    assert [call[:2] for call in runner.calls] == [
        ("base", 101), ("head", 101), ("head", 102), ("base", 102),
        ("base", 103), ("head", 103), ("head", 104), ("base", 104),
        ("base", 105), ("head", 105)]
    assert {call[2:] for call in runner.calls} == {(2.0, False)}
    assert ab.pair_plan(2) == [(101, ("base", "head")),
                               (102, ("head", "base"))]


def test_median_iqr_wins_and_a_resolved_gain():
    rows, _ = comparisons()
    p50 = rows["p50_ms"]
    assert (p50.base_median, p50.head_median) == (12, 9)
    assert p50.base_iqr == 2
    assert p50.change == -3 and p50.change_pct == -25
    assert (p50.wins, p50.losses, p50.pairs) == (9, 1, 10)
    assert p50.resolved and p50.verdict == "resolved better"


def test_a_change_within_the_base_iqr_is_unresolved():
    rows, _ = comparisons()
    p99 = rows["p99_ms"]
    assert p99.change == -1 and p99.base_iqr == 4
    assert p99.wins == 10
    assert not p99.resolved and p99.verdict == "unresolved"


def test_ties_count_for_neither_side_and_direction_follows_the_metric():
    rows, _ = comparisons()
    ops = rows["ops_per_s"]
    # Higher is better: 101 and 102 win, 99 loses, two ties, twice.
    assert (ops.wins, ops.losses) == (4, 2)
    # Equal medians are unresolved, even over a zero-width range.
    assert ops.base_iqr == 0 and ops.change == 0 and not ops.resolved


def test_a_resolved_regression_reads_worse():
    """Nine losses in ten pairs, beyond the base IQR."""
    values = {"p50_ms": {"base": [10, 10, 11, 11, 10] * 2,
                         "head": [13, 14, 12, 15, 13] * 2}}
    values["p50_ms"]["head"][9] = 9
    rows, _ = comparisons(values)
    assert (rows["p50_ms"].wins, rows["p50_ms"].losses) == (1, 9)
    assert rows["p50_ms"].verdict == "resolved worse"


def test_three_pairs_beyond_the_iqr_are_unresolved():
    """Three runs give a narrow range by chance: every pair won and the
    medians apart by more than the IQR is still too few pairs."""
    values = {"p50_ms": {"base": [10, 10.5, 11], "head": [5, 5, 5]}}
    rows, _ = comparisons(values, pairs=3)
    p50 = rows["p50_ms"]
    assert p50.wins == 3 and abs(p50.change) > p50.base_iqr
    assert not p50.resolved and p50.verdict == "unresolved"


def test_eight_wins_in_ten_pairs_are_unresolved():
    values = {"p50_ms": {"base": [10, 11, 12, 13, 14] * 2,
                         "head": [7, 8, 9, 10, 15, 7, 8, 9, 10, 15]}}
    rows, _ = comparisons(values)
    p50 = rows["p50_ms"]
    assert (p50.wins, p50.losses) == (8, 2)
    assert abs(p50.change) > p50.base_iqr
    assert p50.verdict == "unresolved"


def test_one_pair_has_no_range_and_resolves_nothing():
    rows, _ = comparisons({"p50_ms": {"base": [10], "head": [5]}}, pairs=1)
    assert rows["p50_ms"].base_iqr is None
    assert rows["p50_ms"].verdict == "unresolved"
    assert "n/a" in ab.render(list(rows.values()))


def test_only_metrics_both_sides_report_are_compared():
    rows, _ = comparisons({"p50_ms": VALUES["p50_ms"]})
    assert list(rows) == ["p50_ms"]


def test_the_last_line_is_the_result():
    assert ab.parse_result("noise\n{\"x\": 1}\n" + result_line(p50_ms=3)
                           + "\n\n")["metrics"]["p50_ms"]["value"] == 3
    for bad in ("", "no json here", "[1, 2]", '{"correct": true}'):
        with pytest.raises(ValueError):
            ab.parse_result(bad)


def test_the_head_side_range_is_reported_next_to_the_base_side_range():
    """A head side that spreads more than its base shows it, and the
    verdict stays the one the base side's range gives."""
    values = {"p50_ms": {"base": [10, 11, 12, 13, 14] * 2,
                         "head": [4, 6, 8, 10, 12] * 2}}
    rows, _ = comparisons(values)
    p50 = rows["p50_ms"]
    assert (p50.base_iqr, p50.head_iqr) == (2, 4)
    assert p50.verdict == "resolved better"
    table = ab.render([p50]).splitlines()
    assert table[0].split()[-5:] == ["base", "IQR", "head", "IQR",
                                     "verdict"]
    assert table[1].split()[7:] == ["2", "4", "resolved", "better"]
    one_pair, _ = comparisons({"p50_ms": {"base": [10], "head": [5]}},
                              pairs=1)
    assert one_pair["p50_ms"].head_iqr is None
    assert ab.render(list(one_pair.values())).splitlines()[1].split()[7:9] \
        == ["n/a", "n/a"]


def test_render_lists_every_row():
    rows, _ = comparisons()
    table = ab.render(list(rows.values())).splitlines()
    assert table[0].split()[:2] == ["metric", "unit"]
    assert [line.split()[0] for line in table[1:]] \
        == ["p50_ms", "p99_ms", "ops_per_s"]
    assert table[1].split()[4:7] == ["-25.0%", "9/10", "1/10"]


def _in_git_checkout() -> bool:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"],
                              cwd=TOOLS.parent, capture_output=True,
                              ).returncode == 0
    except OSError:
        return False


def test_peak_memory_is_marked_when_the_sides_ran_different_op_counts():
    """The row is starred and a note names both op counts; the verdict
    is computed as for every other metric."""
    values = {"peak_rss_mb": {"base": [50.0] * 10, "head": [51.0] * 10},
              "p50_ms": VALUES["p50_ms"]}
    results = ab.run_pairs(StubRunner(ROOTS, values), ROOTS, "grid", 10,
                           2.0, False)
    rows = ab.compare(results, catalogue.END_TO_END)
    assert ab.op_counts(results) == {"base": 100, "head": 100}
    assert "*" not in ab.render(rows, ab.op_counts(results))
    for run in results["head"]:
        run["attempted"] = 110
    table = ab.render(rows, ab.op_counts(results)).splitlines()
    assert [line.split()[0] for line in table[1:3]] \
        == ["p50_ms", "peak_rss_mb*"]
    assert table[2].endswith("resolved worse")
    assert table[-1].startswith("* not comparable: the sides ran 100 "
                                "(base) and 110 (head) ops per run")
    assert "*" not in ab.render(rows)


def test_the_head_side_copies_tracked_files_with_their_edits(tmp_path):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    for name in ("pkg/kept.py", "pkg/edited.py", "pkg/deleted.py"):
        (repo / name).write_text("committed\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
    try:
        subprocess.run(git + ["init", "-q"], cwd=repo, check=True)
        subprocess.run(git + ["add", "-A"], cwd=repo, check=True)
        subprocess.run(git + ["commit", "-qm", "c"], cwd=repo, check=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("needs git")
    (repo / "pkg/edited.py").write_text("uncommitted\n")
    (repo / "pkg/deleted.py").unlink()
    (repo / "untracked.py").write_text("untracked\n")
    (repo / "pkg/__pycache__").mkdir()
    (repo / "pkg/__pycache__/kept.pyc").write_bytes(b"\0")

    head = tmp_path / "head"
    ab.working_tree(head, repo)
    assert sorted(str(path.relative_to(head)) for path in head.rglob("*")
                  if path.is_file()) == ["pkg/edited.py", "pkg/kept.py"]
    assert (head / "pkg/edited.py").read_text() == "uncommitted\n"


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout")
def test_main_archives_the_base_and_writes_no_bench_file(capsys):
    before = sorted(path.name for path in TOOLS.parent.glob("BENCH_*"))
    roots = {}

    def runner(root, workload, seed, seconds, trace):
        side = root.name
        assert (root / "perfbench" / "run.py").is_file()
        roots.setdefault(side, root)
        value = {"base": 10.0, "head": 8.0}[side]
        return result_line(failed=1 if side == "head" else 0,
                           attempted={"base": 100, "head": 120}[side],
                           p50_ms=value, p99_ms=value, peak_rss_mb=value)

    code = ab.main(["--base", "HEAD", "--workload", "batch-warm",
                    "--pairs", "2", "--seconds", "1"], runner=runner)
    out = capsys.readouterr().out
    # Both sides are unpacked trees, next to each other and outside
    # the working tree.
    assert sorted(roots) == ["base", "head"]
    assert roots["base"].parent == roots["head"].parent
    assert ab.REPO_ROOT not in roots["head"].parents
    assert code == 1  # the head side reported a failed op
    assert "failed ops: base 0, head 2" in out
    assert out.splitlines()[1].startswith("head: ")
    assert "peak_rss_mb*" in out and "* not comparable" in out
    assert sorted(path.name for path in TOOLS.parent.glob("BENCH_*")) \
        == before


@pytest.mark.skipif(not _in_git_checkout(), reason="needs a git checkout")
def test_main_rejects_an_unknown_revision():
    with pytest.raises(SystemExit):
        ab.main(["--base", "no-such-revision-anywhere", "--workload",
                 "batch-warm", "--pairs", "1", "--seconds", "1"],
                runner=lambda *args: pytest.fail("must not run"))
