"""Unit tests for the perf-trajectory layer (tools/).

``tools/bench_trajectory.py`` records labelled runs -- the solver
micro-suite plus one traced perfbench run per workload -- into
``BENCH_<n>.json``; ``tools/check_bench_regression.py`` gates a fresh
run against the committed one (exact perfbench counts, ``failed``, the
solver benches' wall time) and proves speedups between two labelled
runs.  These tests cover the pure parts on JSON -- schema round-trip,
run upsert/lookup, gate pass/fail/tolerance edges, the speedup
geomean -- without ever spawning pytest-benchmark or perfbench.
"""

import importlib.util
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name,
                                                  TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # bench_trajectory must be importable by check_bench_regression.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


trajectory = _load("bench_trajectory")
gate = _load("check_bench_regression")
catalogue = trajectory.perfbench_catalogue()
REPO_ROOT = TOOLS.parent
WORKLOADS = [workload.name for workload in catalogue.WORKLOADS]


def make_entries(**seconds: float) -> dict:
    return {name: {"seconds": value, "mean_seconds": value * 1.1,
                   "rounds": 5}
            for name, value in seconds.items()}


def make_workloads(failed: int = 0) -> dict:
    """A perfbench ``workloads`` map: every workload's result line, one
    distinct value per metric."""
    return {
        name: {"correct": failed == 0, "attempted": 100,
               "failed": failed,
               "metrics": {metric.name: {"value": float(index),
                                         "unit": metric.unit}
                           for index, metric in
                           enumerate(catalogue.PER_LAYER)}}
        for name in WORKLOADS}


def edited(workloads: dict, workload: str, metric: str,
           value=12345.5) -> dict:
    copy = json.loads(json.dumps(workloads))
    copy[workload]["metrics"][metric]["value"] = value
    return copy


class TestTrajectorySchema:
    def test_round_trip(self, tmp_path):
        record = trajectory.empty_trajectory()
        run = trajectory.build_run(
            "before", make_entries(bench_a=0.5, bench_b=0.01),
            make_workloads(), note="seed state")
        trajectory.upsert_run(record, run)
        path = tmp_path / "BENCH_T.json"
        trajectory.save_trajectory(path, record)

        loaded = trajectory.load_trajectory(path)
        assert loaded["schema"] == trajectory.TRAJECTORY_SCHEMA
        got = trajectory.get_run(loaded, "before")
        assert got["entries"] == run["entries"]
        assert got["workloads"] == run["workloads"]
        assert got["note"] == "seed state"
        assert "machine" in got and "git_rev" in got

    def test_save_is_deterministic(self, tmp_path):
        record = trajectory.empty_trajectory()
        run = trajectory.build_run("x", make_entries(b=1.0, a=2.0),
                                   make_workloads())
        trajectory.upsert_run(record, run)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        trajectory.save_trajectory(first, record)
        trajectory.save_trajectory(second, record)
        assert first.read_bytes() == second.read_bytes()

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_T.json"
        path.write_text('{"schema": 999, "runs": []}', encoding="utf-8")
        with pytest.raises(ValueError, match="schema"):
            trajectory.load_trajectory(path)

    def test_malformed_runs_rejected(self, tmp_path):
        path = tmp_path / "BENCH_T.json"
        path.write_text(
            f'{{"schema": {trajectory.TRAJECTORY_SCHEMA}, '
            f'"runs": "oops"}}', encoding="utf-8")
        with pytest.raises(ValueError, match="runs"):
            trajectory.load_trajectory(path)

    def test_upsert_replaces_same_label(self):
        record = trajectory.empty_trajectory()
        trajectory.upsert_run(record, trajectory.build_run(
            "ci", make_entries(a=1.0), {}))
        trajectory.upsert_run(record, trajectory.build_run(
            "ci", make_entries(a=2.0), {}))
        assert len(record["runs"]) == 1
        assert trajectory.get_run(record, "ci")["entries"]["a"][
            "seconds"] == 2.0

    def test_get_run_default_is_last(self):
        record = trajectory.empty_trajectory()
        trajectory.upsert_run(record, trajectory.build_run(
            "before", make_entries(a=1.0), {}))
        trajectory.upsert_run(record, trajectory.build_run(
            "after", make_entries(a=0.5), {}))
        assert trajectory.get_run(record)["label"] == "after"
        with pytest.raises(ValueError, match="no run labelled"):
            trajectory.get_run(record, "nope")

    def test_get_run_on_empty_trajectory(self):
        with pytest.raises(ValueError, match="no runs"):
            trajectory.get_run(trajectory.empty_trajectory())

    def test_entries_from_pytest_benchmark(self):
        data = {"benchmarks": [
            {"name": "bench_z", "stats": {"min": 0.2, "mean": 0.3,
                                          "rounds": 7}},
            {"name": "bench_a", "stats": {"min": 0.1, "mean": 0.15,
                                          "rounds": 9}},
        ]}
        entries = trajectory.entries_from_pytest_benchmark(data)
        assert list(entries) == ["bench_a", "bench_z"]  # sorted
        assert entries["bench_z"] == {"seconds": 0.2,
                                      "mean_seconds": 0.3, "rounds": 7}

    @pytest.mark.parametrize("name, runs", [
        ("BENCH_6.json", ("before", "after")),
        ("BENCH_7.json", ("before-trace", "no-fleet")),
    ])
    def test_schema_1_files_still_load_for_compare(self, name, runs,
                                                    capsys):
        path = REPO_ROOT / name
        assert trajectory.load_trajectory(path)["schema"] == 1
        assert gate.main(["--trajectory", str(path), "--compare", *runs,
                          "--match", "solver"]) == 0
        assert "geometric-mean speedup" in capsys.readouterr().out

    def test_recording_into_a_schema_1_file_is_refused(self, tmp_path,
                                                       capsys):
        """Checked before anything is measured."""
        old = tmp_path / "BENCH_7.json"
        shutil.copy(REPO_ROOT / "BENCH_7.json", old)
        with pytest.raises(SystemExit) as exit_info:
            trajectory.main(["--label", "x", "--output", str(old)])
        assert exit_info.value.code == 2
        assert "schema-1" in capsys.readouterr().err

    def test_the_committed_baseline_covers_every_workload(self):
        path = trajectory.default_trajectory_path()
        record = trajectory.load_trajectory(path)
        assert record["schema"] == trajectory.TRAJECTORY_SCHEMA
        run = trajectory.get_run(record)
        assert run["entries"] and all(
            "solver" in name for name in run["entries"])
        assert sorted(run["workloads"]) == sorted(WORKLOADS)
        for result in run["workloads"].values():
            assert result["failed"] == 0
            assert set(gate.exact_metrics()) <= set(result["metrics"])


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestGitRevision:
    @staticmethod
    def git(root, *args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
             "-c", "commit.gpgsign=false", *args], cwd=root, check=True,
            capture_output=True, text=True).stdout.strip()

    @pytest.fixture
    def repo(self, tmp_path):
        self.git(tmp_path, "init", "-q")
        (tmp_path / "tracked.txt").write_text("one\n", encoding="utf-8")
        self.git(tmp_path, "add", "tracked.txt")
        self.git(tmp_path, "commit", "-q", "-m", "initial")
        return tmp_path

    def test_a_clean_tree_gives_the_bare_sha(self, repo):
        sha = self.git(repo, "rev-parse", "HEAD")
        assert trajectory.git_revision(repo) == sha

    def test_an_untracked_file_keeps_the_tree_clean(self, repo):
        (repo / "notes.txt").write_text("x\n", encoding="utf-8")
        assert not trajectory.git_revision(repo).endswith("-dirty")

    def test_an_edited_tracked_file_marks_the_sha_dirty(self, repo):
        sha = self.git(repo, "rev-parse", "HEAD")
        (repo / "tracked.txt").write_text("two\n", encoding="utf-8")
        assert trajectory.git_revision(repo) == f"{sha}-dirty"


class TestRegressionGate:
    def test_pass_when_within_tolerance(self):
        base = make_entries(a=0.100, b=0.010)
        cur = make_entries(a=0.250, b=0.005)
        lines, failures = gate.compare_entries(base, cur, tolerance=3.0)
        assert failures == []
        assert len(lines) == 2

    def test_fail_past_tolerance(self):
        base = make_entries(a=0.100)
        cur = make_entries(a=0.301)
        _lines, failures = gate.compare_entries(base, cur, tolerance=3.0)
        assert len(failures) == 1
        assert "a" in failures[0]

    def test_exact_tolerance_boundary_passes(self):
        """The gate fails strictly past the tolerance, not at it."""
        base = make_entries(a=0.100)
        cur = make_entries(a=0.300)
        _lines, failures = gate.compare_entries(base, cur, tolerance=3.0)
        assert failures == []

    def test_new_bench_never_fails(self):
        base = make_entries(a=0.1)
        cur = make_entries(a=0.1, brand_new=5.0)
        _lines, failures = gate.compare_entries(base, cur, tolerance=3.0)
        assert failures == []

    def test_missing_bench_fails_only_under_require_all(self):
        base = make_entries(a=0.1, gone=0.1)
        cur = make_entries(a=0.1)
        _lines, lax = gate.compare_entries(base, cur, tolerance=3.0)
        assert lax == []
        _lines, strict = gate.compare_entries(base, cur, tolerance=3.0,
                                              require_all=True)
        assert len(strict) == 1 and "gone" in strict[0]

    def test_zero_baseline_always_fails(self):
        base = make_entries(a=0.0)
        cur = make_entries(a=0.001)
        _lines, failures = gate.compare_entries(base, cur, tolerance=3.0)
        assert len(failures) == 1

    def test_speedup_geomean(self):
        base = make_entries(solver_a=0.4, solver_b=0.1, other=1.0)
        cur = make_entries(solver_a=0.1, solver_b=0.025, other=1.0)
        lines, geomean = gate.speedup_report(base, cur, match="solver")
        assert len(lines) == 2
        assert geomean == pytest.approx(4.0)

    def test_speedup_requires_a_match(self):
        base = make_entries(a=1.0)
        cur = make_entries(a=1.0)
        with pytest.raises(ValueError, match="no common benches"):
            gate.speedup_report(base, cur, match="nothing-like-this")


class TestCountGate:
    def test_identical_runs_pass(self):
        lines, failures = gate.compare_workloads(make_workloads(),
                                                 make_workloads())
        assert failures == []
        assert len(lines) == len(WORKLOADS)

    def test_editing_any_exact_count_fails_naming_it(self):
        base = make_workloads()
        for workload in WORKLOADS:
            for metric in gate.exact_metrics():
                _lines, failures = gate.compare_workloads(
                    base, edited(base, workload, metric))
                assert len(failures) == 1
                assert failures[0].startswith(f"{workload}: {metric} ")

    def test_times_and_timing_dependent_counts_never_fail(self):
        free = [metric.name for metric in catalogue.PER_LAYER
                if metric.name not in gate.exact_metrics()]
        assert any(name.endswith("_ms") for name in free)
        assert any(metric.timing_dependent
                   for metric in catalogue.PER_LAYER)
        current = make_workloads()
        for workload in WORKLOADS:
            for metric in free:
                current = edited(current, workload, metric, value=1e9)
        assert gate.compare_workloads(make_workloads(), current)[1] == []

    def test_a_missing_workload_fails(self):
        current = make_workloads()
        del current["batch-warm"]
        _lines, failures = gate.compare_workloads(make_workloads(),
                                                  current)
        assert failures == ["batch-warm: missing from current run"]

    def test_failed_operations_fail(self):
        _lines, failures = gate.compare_workloads(
            make_workloads(), make_workloads(failed=2))
        assert sorted(failures) == sorted(
            f"{name}: failed = 2 of 100" for name in WORKLOADS)

    def test_a_new_workload_passes_unless_it_failed(self):
        base = make_workloads()
        del base["serve"]
        assert gate.compare_workloads(base, make_workloads())[1] == []
        current = make_workloads()
        current["serve"]["failed"] = 1
        assert gate.compare_workloads(base, current)[1] \
            == ["serve: failed = 1 of 100"]

    def test_exact_metrics_are_read_from_the_catalogue(self, monkeypatch):
        assert set(gate.exact_metrics()) == {
            metric.name for metric in catalogue.PER_LAYER
            if metric.unit in ("count", "ratio")
            and not metric.timing_dependent}
        added = catalogue.Metric("new.calls", "count", "lower", "new")
        monkeypatch.setattr(catalogue, "PER_LAYER",
                            (*catalogue.PER_LAYER, added))
        assert "new.calls" in gate.exact_metrics()


class TestGateCli:
    def _write(self, tmp_path, name, runs, workloads=None):
        record = trajectory.empty_trajectory()
        for label, entries in runs:
            trajectory.upsert_run(record, trajectory.build_run(
                label, entries, workloads or make_workloads()))
        path = tmp_path / name
        trajectory.save_trajectory(path, record)
        return path

    def test_gate_mode_fails_on_one_edited_count(self, tmp_path, capsys):
        committed = self._write(tmp_path, "BENCH_T.json",
                                [("baseline", make_entries(a=0.1))])
        fresh = self._write(
            tmp_path, "fresh.json", [("ci", make_entries(a=0.1))],
            edited(make_workloads(), "library", "merge.steps"))
        assert gate.main(["--trajectory", str(committed),
                          "--current", str(fresh)]) == 1
        assert "library: merge.steps" in capsys.readouterr().err

    def test_gate_mode_defaults_to_the_newest_trajectory(
            self, tmp_path, capsys, monkeypatch):
        """Without ``--trajectory`` the gate reads the highest-numbered
        ``BENCH_<n>.json`` (numerically, so 12 after 3)."""
        self._write(tmp_path, "BENCH_3.json",
                    [("baseline", make_entries(a=0.1))])
        self._write(tmp_path, "BENCH_12.json",
                    [("baseline", make_entries(a=0.1))],
                    edited(make_workloads(), "grid", "merge.steps"))
        fresh = self._write(tmp_path, "fresh.json",
                            [("ci", make_entries(a=0.1))])
        monkeypatch.setattr(
            gate, "default_trajectory_path",
            lambda: trajectory.default_trajectory_path(tmp_path))
        assert gate.main(["--current", str(fresh)]) == 1
        captured = capsys.readouterr()
        assert "regression gate vs BENCH_12.json" in captured.out
        assert "grid: merge.steps" in captured.err

    def test_gate_mode_needs_a_schema_2_baseline(self, tmp_path, capsys):
        fresh = self._write(tmp_path, "fresh.json",
                            [("ci", make_entries(a=0.1))])
        with pytest.raises(SystemExit) as exit_info:
            gate.main(["--trajectory", str(REPO_ROOT / "BENCH_7.json"),
                       "--current", str(fresh)])
        assert exit_info.value.code == 2
        assert "no perfbench workloads" in capsys.readouterr().err

    def test_gate_mode_pass_and_fail(self, tmp_path, capsys):
        committed = self._write(tmp_path, "BENCH_T.json",
                                [("before", make_entries(a=0.1))])
        fresh_ok = self._write(tmp_path, "fresh_ok.json",
                               [("ci", make_entries(a=0.15))])
        fresh_bad = self._write(tmp_path, "fresh_bad.json",
                                [("ci", make_entries(a=0.9))])
        assert gate.main(["--trajectory", str(committed),
                          "--current", str(fresh_ok)]) == 0
        assert gate.main(["--trajectory", str(committed),
                          "--current", str(fresh_bad)]) == 1
        # A looser tolerance turns the same numbers into a pass.
        assert gate.main(["--trajectory", str(committed),
                          "--current", str(fresh_bad),
                          "--tolerance", "10"]) == 0
        capsys.readouterr()

    def test_compare_mode_min_speedup(self, tmp_path, capsys):
        committed = self._write(
            tmp_path, "BENCH_T.json",
            [("before", make_entries(solver_a=0.4)),
             ("after", make_entries(solver_a=0.1))])
        assert gate.main(["--trajectory", str(committed),
                          "--compare", "before", "after",
                          "--match", "solver",
                          "--min-speedup", "3.0"]) == 0
        assert gate.main(["--trajectory", str(committed),
                          "--compare", "before", "after",
                          "--match", "solver",
                          "--min-speedup", "5.0"]) == 1
        capsys.readouterr()


class TestGateProperties:
    def test_identical_runs_always_pass_any_tolerance_above_one(self):
        """Property: re-gating a run against itself can never fail --
        the gate must be reflexive for any tolerance > 1."""
        rng = random.Random(17)
        for _ in range(50):
            entries = make_entries(**{
                f"bench_{i}": rng.uniform(1e-6, 10.0)
                for i in range(rng.randint(1, 8))})
            tolerance = rng.uniform(1.0001, 10.0)
            _lines, failures = gate.compare_entries(
                entries, dict(entries), tolerance=tolerance,
                require_all=True)
            assert failures == []

    def test_scaling_by_factor_flips_exactly_at_tolerance(self):
        rng = random.Random(23)
        for _ in range(50):
            seconds = rng.uniform(1e-4, 2.0)
            tolerance = rng.uniform(1.5, 4.0)
            base = make_entries(a=seconds)
            slow = make_entries(a=seconds * tolerance * 1.01)
            fast = make_entries(a=seconds * tolerance * 0.99)
            assert gate.compare_entries(base, slow, tolerance)[1]
            assert not gate.compare_entries(base, fast, tolerance)[1]
