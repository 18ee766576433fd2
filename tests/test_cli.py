"""Tests of the command-line interface."""

import json

import pytest

from repro.analysis.experiments import run_experiment
from repro.analysis.points import (
    experiment_point_jobs,
    get_experiment,
    registered_experiments,
)
from repro.analysis.report import load_report, to_jsonable
from repro.cli.main import main

PAPER_SOURCE = """
for (i = 2; i <= N; i++) {
    A[i+1]; A[i]; A[i+2]; A[i-1]; A[i+1]; A[i]; A[i-2];
}
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "example.c"
    path.write_text(PAPER_SOURCE)
    return str(path)


class TestCompile:
    def test_compile_prints_summary_and_listing(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "-k", "2", "-m", "1"]) == 0
        out = capsys.readouterr().out
        assert "K~ (virtual):    3 (exact)" in out
        assert "USE" in out
        assert "simulation:" in out

    def test_compile_no_sim(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--no-sim"]) == 0
        assert "simulation:" not in capsys.readouterr().out

    def test_compile_with_preset(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--preset",
                     "ti_c25_like"]) == 0
        assert "ti_c25_like" in capsys.readouterr().out

    def test_compile_preset_with_overrides(self, kernel_file, capsys):
        assert main(["compile", kernel_file, "--preset", "ti_c25_like",
                     "-k", "2"]) == 0
        assert "K=2" in capsys.readouterr().out

    def test_compile_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(PAPER_SOURCE))
        assert main(["compile", "-"]) == 0
        assert "allocation of 7 accesses" in capsys.readouterr().out

    def test_missing_file_reports_error(self, capsys):
        assert main(["compile", "/nonexistent/file.c"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("for (i = 0; i < 3; i++) { A[i] }")
        assert main(["compile", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-1"])
@pytest.mark.parametrize("command", ["compile", "verify"])
def test_an_iteration_count_that_verifies_nothing_is_refused(
        command, count, kernel_file, capsys):
    assert main([command, kernel_file, "--iterations", count]) == 1
    captured = capsys.readouterr()
    assert f"error: --iterations must be >= 1, got {count}" in captured.err
    assert "verified" not in captured.out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_a_sweep_over_no_register_count_is_refused(count, kernel_file,
                                                   capsys):
    assert main(["sweep", kernel_file, "--max-registers", count]) == 1
    captured = capsys.readouterr()
    assert f"error: --max-registers must be >= 1, got {count}" \
        in captured.err
    assert "register-pressure sweep" not in captured.out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_a_selftest_of_no_instance_is_refused(count, capsys):
    assert main(["selftest", "--instances", count]) == 1
    captured = capsys.readouterr()
    assert f"error: --instances must be >= 1, got {count}" in captured.err
    assert "self-test passed" not in captured.out


class TestGraph:
    def test_ascii(self, kernel_file, capsys):
        assert main(["graph", kernel_file]) == 0
        out = capsys.readouterr().out
        assert "a_1" in out and "->" in out

    def test_dot_with_wrap(self, kernel_file, capsys):
        assert main(["graph", kernel_file, "--dot", "--wrap"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "dashed" in out


class TestKernels:
    def test_list(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "fir8" in out and "paper_example" in out

    def test_show(self, capsys):
        assert main(["kernels", "fir8"]) == 0
        out = capsys.readouterr().out
        assert "for (" in out and "h[0]" in out

    def test_unknown_kernel(self, capsys):
        assert main(["kernels", "nope"]) == 1
        assert "unknown kernel" in capsys.readouterr().err


class TestBatch:
    def test_suite_batch_prints_report(self, capsys):
        assert main(["batch", "--suite", "core8", "--iterations",
                     "2"]) == 0
        out = capsys.readouterr().out
        assert "fir8" in out and "paper_example" in out
        assert "8 job(s): 8 compiled, 0 cache hit(s)" in out

    def test_explicit_kernels_with_baseline(self, capsys):
        assert main(["batch", "--kernels", "fir8,dot_product", "-k", "2",
                     "--iterations", "2", "--baseline"]) == 0
        out = capsys.readouterr().out
        assert "2 job(s)" in out and "base/iter" in out

    def test_disk_cache_makes_second_run_hit(self, tmp_path, capsys):
        cache = f"dir:{tmp_path / 'cache'}"
        assert main(["batch", "--suite", "core8", "--iterations", "2",
                     "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["batch", "--suite", "core8", "--iterations", "2",
                     "--cache", cache, "--executor", "local:2"]) == 0
        out = capsys.readouterr().out
        assert "0 compiled, 8 cache hit(s)" in out

    def test_json_report(self, tmp_path, capsys):
        target = tmp_path / "batch.json"
        assert main(["batch", "--suite", "core8", "--no-sim",
                     "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert len(payload["results"]) == 8
        assert payload["results"][0]["digest"]

    def test_json_results_say_which_accesses_share_a_register(
            self, tmp_path, capsys):
        """Each result carries its allocation as the register of each
        access: a cost is explained from the result alone."""
        from repro.agu.model import AguSpec
        from repro.core.pipeline import compile_kernel
        from repro.workloads.kernels import get_kernel
        from repro.workloads.suite import SUITES

        target = tmp_path / "batch.json"
        assert main(["batch", "--suite", "core8", "--no-sim",
                     "--json", str(target)]) == 0
        results = json.loads(target.read_text())["results"]
        assert [result["name"] for result in results] \
            == list(SUITES["core8"])
        for result in results:
            direct = compile_kernel(get_kernel(result["name"]).source,
                                    AguSpec(4, 1), run_simulation=False)
            assert result["assignment"] \
                == list(direct.allocation.cover.assignment())

    def test_unknown_suite_fails_cleanly(self, capsys):
        assert main(["batch", "--suite", "nope"]) == 1
        assert "unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["batch", "experiment", "serve"])
def test_executor_is_the_one_placement_flag(command, capsys):
    """Where jobs run is chosen by --executor alone: no -j/--workers
    shorthand, and serve's warm tier has no size flag.  serve has no
    --executor: it compiles inline, since a pool started per
    micro-batch only slowed it down."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    placeable = command != "serve"
    assert ("--executor" in out) == placeable
    assert ("local:N" in out) == placeable
    for removed in ("[-j", "--workers", "--warm-capacity"):
        assert removed not in out


class TestExperimentStats:
    """EXP-S1 through ``experiment stats``: its grid axes, counts and
    seed are ``--set`` config fields."""

    TINY = ["experiment", "stats", "--set", "n_values=10,14",
            "--set", "m_values=1", "--set", "k_values=2",
            "--set", "patterns_per_config=3", "--set", "naive_repeats=2"]

    def test_tiny_grid_streams_and_summarizes(self, capsys):
        assert main(self.TINY) == 0
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out
        assert "EXP-S1" in out and "EXP-S2" in out
        assert "average reduction" in out
        assert "2 point(s): 2 compiled, 0 cache hit(s)" in out

    def test_no_progress_suppresses_streaming_lines(self, capsys):
        assert main([*self.TINY, "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "[1/2]" not in out
        assert "EXP-S1" in out

    def test_cached_rerun_recomputes_nothing(self, tmp_path, capsys):
        cache = str(tmp_path / "grid-cache")
        assert main([*self.TINY, "--cache", cache]) == 0
        capsys.readouterr()
        assert main([*self.TINY, "--cache", cache, "--executor",
                     "local:2"]) == 0
        out = capsys.readouterr().out
        assert "0 compiled, 2 cache hit(s)" in out
        assert "[cached]" in out

    def test_json_report(self, tmp_path, capsys):
        target = tmp_path / "stats.json"
        assert main([*self.TINY, "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert len(payload["rows"]) == 2
        assert payload["n_points_compiled"] == 2

    def test_quick_flag_uses_scaled_down_grid(self, capsys):
        assert main(["experiment", "stats", "--quick", "--set",
                     "patterns_per_config=2", "--set", "naive_repeats=2",
                     "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "8 point(s): 8 compiled" in out

    def test_unknown_distribution_fails_before_any_point_runs(
            self, capsys):
        assert main([*self.TINY, "--set", "distribution=bogus"]) == 1
        captured = capsys.readouterr()
        assert "unknown distribution 'bogus'" in captured.err
        assert "clustered, mixed, sweep, uniform" in captured.err
        assert "[1/" not in captured.out


class TestExperimentOverrides:
    """Config overrides, caching and output of ``experiment`` on the
    per-point ablations."""

    TINY = ["experiment", "pathcover", "--set", "n_values=8,12",
            "--set", "m_values=1", "--set", "patterns_per_config=3"]

    def test_tiny_grid_streams_and_summarizes(self, capsys):
        assert main(self.TINY) == 0
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out
        assert "EXP-A1" in out
        assert "2 point(s): 2 compiled, 0 cache hit(s)" in out

    def test_no_progress_suppresses_streaming_lines(self, capsys):
        assert main([*self.TINY, "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "[1/2]" not in out
        assert "EXP-A1" in out

    def test_cached_rerun_recomputes_nothing(self, tmp_path, capsys):
        cache = str(tmp_path / "point-cache")
        assert main([*self.TINY, "--cache", cache]) == 0
        capsys.readouterr()
        assert main([*self.TINY, "--cache", cache, "--executor",
                     "local:2"]) == 0
        out = capsys.readouterr().out
        assert "0 compiled, 2 cache hit(s)" in out
        assert "[cached]" in out

    def test_quick_flag_uses_scaled_down_grid(self, capsys):
        assert main(["experiment", "reorder", "--quick", "--set",
                     "patterns_per_config=3", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "EXP-X2" in out
        assert "2 point(s): 2 compiled" in out

    def test_headline_and_tables_render(self, capsys):
        assert main(["experiment", "offset", "--quick", "--set",
                     "sequences_per_config=3", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "EXP-O1a" in out and "EXP-O1b" in out
        assert "mean SOA reduction vs OFU" in out

    def test_json_report(self, tmp_path, capsys):
        target = tmp_path / "pathcover.json"
        assert main([*self.TINY, "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert len(payload["rows"]) == 2
        assert payload["n_points_compiled"] == 2

    def test_enum_override_round_trips(self, capsys):
        assert main(["experiment", "merging", "--quick", "--set",
                     "patterns_per_config=2", "--set",
                     "cost_model=intra", "--no-progress"]) == 0
        assert "EXP-A3" in capsys.readouterr().out

    def test_empty_tuple_field_takes_its_declared_element_type(
            self, capsys):
        """EXP-K1's ``kernel_names`` defaults to ``()``: the override
        still parses kernel names, not integers."""
        assert main(["experiment", "kernels", "--set",
                     "kernel_names=fir8,paper_example", "--set",
                     "simulate_iterations=4", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "fir8" in out and "paper_example" in out
        assert "2 point(s): 2 compiled" in out

    def test_structured_field_fails_cleanly(self, capsys):
        assert main(["experiment", "kernels", "--set", "spec=4"]) == 1
        assert "invalid value '4' for config field 'spec'" \
            in capsys.readouterr().err

    def test_unknown_field_fails_cleanly(self, capsys):
        assert main(["experiment", "pathcover", "--set", "bogus=1"]) == 1
        assert "unknown config field" in capsys.readouterr().err

    def test_malformed_override_fails_cleanly(self, capsys):
        assert main(["experiment", "pathcover", "--set",
                     "n_values"]) == 1
        assert "field=value" in capsys.readouterr().err

    def test_bad_value_fails_cleanly(self, capsys):
        assert main(["experiment", "pathcover", "--set",
                     "patterns_per_config=lots"]) == 1
        assert "invalid value" in capsys.readouterr().err

    def test_empty_grid_fails_cleanly(self, capsys):
        assert main(["experiment", "pathcover", "--set",
                     "n_values="]) == 1
        assert "zero points" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, field", [
        ("pathcover", "patterns_per_config"),
        ("kernels", "simulate_iterations"),
    ])
    def test_zero_count_fails_cleanly(self, experiment, field, capsys):
        assert main(["experiment", experiment, "--quick", "--set",
                     f"{field}=0"]) == 1
        captured = capsys.readouterr()
        assert "must be >= 1" in captured.err
        assert "[1/" not in captured.out


@pytest.mark.parametrize("experiment", registered_experiments())
def test_every_registered_experiment_runs_quick(experiment, capsys):
    """``experiment ID --quick`` prints the definition's tables, its
    headline, and the point accounting for every registered id."""
    definition = get_experiment(experiment)
    config = definition.quick_config()
    summary = run_experiment(experiment, config)
    assert main(["experiment", experiment, "--quick",
                 "--no-progress"]) == 0
    out = capsys.readouterr().out
    for table in definition.render(summary):
        title, header = table.render().splitlines()[:2]
        assert title in out and header in out
    if definition.headline is not None:
        assert definition.headline(summary) in out
    n_points = len(experiment_point_jobs(experiment, config))
    assert f"{n_points} point(s): {n_points} compiled, 0 cache hit(s)" \
        in out


class TestOneExperimentSubcommand:
    @pytest.mark.parametrize("removed", ["stats", "ablate"])
    def test_removed_subcommands_are_invalid_choices(self, removed,
                                                     capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([removed, "--quick"])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{removed}'" in capsys.readouterr().err

    def test_unknown_experiment_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "bogus"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


class TestNoCacheServer:
    @pytest.mark.parametrize("command", [
        ["experiment", "stats", "--quick", "--set",
         "patterns_per_config=2"],
        ["experiment", "reorder", "--quick"],
        ["batch", "--suite", "core8", "--iterations", "4"],
    ], ids=["experiment-stats", "experiment-reorder", "batch"])
    def test_tcp_cache_fails_before_any_point_runs(
            self, command, tmp_path, monkeypatch, capsys):
        """A ``tcp://`` cache is an unknown scheme: the run stops with
        the scheme error before it computes or writes anything."""
        monkeypatch.chdir(tmp_path)
        assert main([*command, "--cache", "tcp://127.0.0.1:1"]) != 0
        captured = capsys.readouterr()
        assert "unknown cache scheme 'tcp'" in captured.err
        assert "known schemes: mem, dir;" in captured.err
        assert "[1/" not in captured.out
        assert "compiled" not in captured.out
        assert not list(tmp_path.iterdir())

    def test_serve_refuses_a_tcp_cache_before_binding(self, capsys):
        assert main(["serve", "--port", "0", "--cache",
                     "tcp://127.0.0.1:1"]) == 1
        captured = capsys.readouterr()
        assert "unknown cache scheme 'tcp'" in captured.err
        assert "compile service at" not in captured.out

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_serve_rejects_a_port_out_of_range(self, port, capsys):
        assert main(["serve", "--port", port]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: port must be in 0..65535, "
                                f"got {port}\n")
        assert "compile service at" not in captured.out

    def test_cache_serve_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["cache-serve", "--store", "mem"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'cache-serve'" in capsys.readouterr().err


class TestModuleEntryPoints:
    """Both ``python -m`` spellings run the command line once."""

    @staticmethod
    def run_module(*argv: str):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        return subprocess.run([sys.executable, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    def test_cli_main_runs_without_a_double_import_warning(self):
        completed = self.run_module("-W", "error::RuntimeWarning", "-m",
                                    "repro.cli.main", "--help")
        assert completed.returncode == 0, completed.stderr
        assert "usage: repro-agu" in completed.stdout
        assert "RuntimeWarning" not in completed.stderr

    def test_the_cli_package_is_runnable(self):
        completed = self.run_module("-m", "repro.cli", "--help")
        assert completed.returncode == 0, completed.stderr
        assert "usage: repro-agu" in completed.stdout


class TestExperiment:
    def test_quick_stats_with_json(self, tmp_path, capsys):
        target = tmp_path / "stats.json"
        assert main(["experiment", "stats", "--quick", "--json",
                     str(target)]) == 0
        out = capsys.readouterr().out
        assert "EXP-S1" in out
        assert "average reduction" in out
        written = load_report(target)
        expected = to_jsonable(run_experiment(
            "stats", get_experiment("stats").quick_config()))
        for payload in (written, expected):
            del payload["elapsed_seconds"]
        assert written == expected


class TestNoFleet:
    def test_subcommands_are_the_single_host_set(self, capsys):
        """No subcommand queues jobs for, or runs as, a remote
        worker."""
        import argparse

        from repro.cli.main import build_parser

        commands = next(
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
        assert set(commands) == {
            "compile", "graph", "kernels", "experiment", "batch",
            "serve", "verify", "sweep", "selftest", "trace", "report"}
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "worker" not in capsys.readouterr().out

    def test_tcp_executor_fails_before_any_point_runs(self, capsys):
        assert main(["experiment", "stats", "--quick", "--set",
                     "patterns_per_config=2",
                     "--executor", "tcp://127.0.0.1:1"]) != 0
        captured = capsys.readouterr()
        assert "unknown executor scheme 'tcp'" in captured.err
        assert "known schemes: inline, local" in captured.err
        assert "[1/" not in captured.out


class TestEngineTraceCli:
    RUN = ["experiment", "stats", "--quick", "--set",
           "patterns_per_config=2", "--set", "naive_repeats=2",
           "--no-progress"]

    def test_rerun_with_the_same_trace_path_stays_readable(
            self, tmp_path, capsys):
        """One run owns one trace file: a second run replaces it, so
        the analyzer reads exactly that run's jobs."""
        path = str(tmp_path / "t.jsonl")
        for _ in range(2):
            assert main([*self.RUN, "--trace", path]) == 0
        capsys.readouterr()
        assert main(["trace", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.batch.trace-report/2"
        assert payload["jobs"]["enqueued"] == 8
        assert payload["jobs"]["completed"] == 8
        assert payload["jobs"]["cache_hits"] == 0

    def test_text_report(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        assert main(["batch", "--kernels", "fir8,fir8", "--no-sim",
                     "--trace", path]) == 0
        capsys.readouterr()
        assert main(["trace", path]) == 0
        out = capsys.readouterr().out
        assert "1 enqueued, 1 completed, 0 failed, 1 cache hit(s)" in out

    def test_help_offers_no_scheduler_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "--help"])
        out = capsys.readouterr().out
        assert "--json" in out
        for removed in ("--top", "--straggler-factor", "--timeline"):
            assert removed not in out
