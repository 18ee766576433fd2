"""Tests of the command-line interface."""

import json

import pytest

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
        cache = str(tmp_path / "cache.json")
        assert main(["batch", "--suite", "core8", "--iterations", "2",
                     "--cache", cache]) == 0
        capsys.readouterr()
        assert main(["batch", "--suite", "core8", "--iterations", "2",
                     "--cache", cache, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 compiled, 8 cache hit(s)" in out

    def test_json_report(self, tmp_path, capsys):
        target = tmp_path / "batch.json"
        assert main(["batch", "--suite", "core8", "--no-sim",
                     "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert len(payload["results"]) == 8
        assert payload["results"][0]["digest"]

    def test_unknown_suite_fails_cleanly(self, capsys):
        assert main(["batch", "--suite", "nope"]) == 1
        assert "unknown suite" in capsys.readouterr().err


class TestStats:
    TINY = ["stats", "--n", "10,14", "--m", "1", "--k", "2",
            "--patterns", "3", "--repeats", "2"]

    def test_tiny_grid_streams_and_summarizes(self, capsys):
        assert main(self.TINY) == 0
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out
        assert "EXP-S1" in out and "EXP-S2" in out
        assert "average reduction" in out
        assert "2 grid point(s): 2 compiled, 0 cache hit(s)" in out

    def test_no_progress_suppresses_streaming_lines(self, capsys):
        assert main([*self.TINY, "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "[1/2]" not in out
        assert "EXP-S1" in out

    def test_cached_rerun_recomputes_nothing(self, tmp_path, capsys):
        cache = str(tmp_path / "grid-cache")
        assert main([*self.TINY, "--cache", cache]) == 0
        capsys.readouterr()
        assert main([*self.TINY, "--cache", cache, "--workers",
                     "2"]) == 0
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
        assert main(["stats", "--quick", "--patterns", "2",
                     "--repeats", "2", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "8 grid point(s): 8 compiled" in out


class TestAblate:
    TINY = ["ablate", "pathcover", "--set", "n_values=8,12",
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
        assert main([*self.TINY, "--cache", cache, "--workers",
                     "2"]) == 0
        out = capsys.readouterr().out
        assert "0 compiled, 2 cache hit(s)" in out
        assert "[cached]" in out

    def test_quick_flag_uses_scaled_down_grid(self, capsys):
        assert main(["ablate", "reorder", "--quick", "--set",
                     "patterns_per_config=3", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "EXP-X2" in out
        assert "2 point(s): 2 compiled" in out

    def test_headline_and_tables_render(self, capsys):
        assert main(["ablate", "offset", "--quick", "--set",
                     "sequences_per_config=3", "--no-progress"]) == 0
        out = capsys.readouterr().out
        assert "EXP-O1a" in out and "EXP-O1b" in out
        assert "mean SOA reduction vs OFU" in out

    def test_json_report(self, tmp_path, capsys):
        target = tmp_path / "ablate.json"
        assert main([*self.TINY, "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert len(payload["rows"]) == 2
        assert payload["n_points_compiled"] == 2

    def test_enum_override_round_trips(self, capsys):
        assert main(["ablate", "merging", "--quick", "--set",
                     "patterns_per_config=2", "--set",
                     "cost_model=intra", "--no-progress"]) == 0
        assert "EXP-A3" in capsys.readouterr().out

    def test_unknown_field_fails_cleanly(self, capsys):
        assert main(["ablate", "pathcover", "--set", "bogus=1"]) == 1
        assert "unknown config field" in capsys.readouterr().err

    def test_malformed_override_fails_cleanly(self, capsys):
        assert main(["ablate", "pathcover", "--set", "n_values"]) == 1
        assert "field=value" in capsys.readouterr().err

    def test_bad_value_fails_cleanly(self, capsys):
        assert main(["ablate", "pathcover", "--set",
                     "patterns_per_config=lots"]) == 1
        assert "invalid value" in capsys.readouterr().err

    def test_empty_grid_fails_cleanly(self, capsys):
        assert main(["ablate", "pathcover", "--set", "n_values="]) == 1
        assert "zero points" in capsys.readouterr().err

    def test_zero_patterns_fails_cleanly(self, capsys):
        assert main(["ablate", "pathcover", "--set",
                     "patterns_per_config=0"]) == 1
        assert "must be >= 1" in capsys.readouterr().err

    def test_experiment_subcommand_delegates_to_registry(self, capsys):
        """`experiment <id> --quick` and `ablate <id> --quick` render
        the same tables and headline for registered ablations."""
        assert main(["experiment", "reorder", "--quick"]) == 0
        via_experiment = capsys.readouterr().out
        assert main(["ablate", "reorder", "--quick",
                     "--no-progress"]) == 0
        via_ablate = capsys.readouterr().out
        assert "EXP-X2" in via_experiment
        assert "mean reduction from reordering" in via_experiment
        table_and_headline = via_experiment.strip().splitlines()
        assert all(line in via_ablate for line in table_and_headline)


class TestCacheServe:
    def test_rejects_a_remote_backing_store(self, capsys):
        assert main(["cache-serve", "--store",
                     "tcp://127.0.0.1:8741"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_rejects_an_unknown_store_scheme(self, capsys):
        assert main(["cache-serve", "--store", "redis://x:1"]) == 1
        assert "unknown cache scheme" in capsys.readouterr().err

    def test_port_in_use_reports_a_clean_error(self, capsys):
        from repro.batch.cache import InMemoryLRUCache
        from repro.batch.service import CacheServer

        with CacheServer(InMemoryLRUCache()) as occupant:
            assert main(["cache-serve", "--store", "mem", "--port",
                         str(occupant.address[1])]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "cannot serve" in err

    def test_stats_through_a_live_server(self, tmp_path, capsys):
        """The multi-host flow end to end: two `stats` runs sharing
        one `cache-serve` store; the second recompiles nothing."""
        from repro.batch.cache import ShardedDirectoryCache
        from repro.batch.service import CacheServer

        store = ShardedDirectoryCache(tmp_path / "served")
        with CacheServer(store) as server:
            spec = server.endpoint
            assert main([*TestStats.TINY, "--cache", spec]) == 0
            first = capsys.readouterr().out
            assert "2 grid point(s): 2 compiled" in first
            assert main([*TestStats.TINY, "--cache", spec,
                         "--workers", "2"]) == 0
            second = capsys.readouterr().out
            assert "0 compiled, 2 cache hit(s)" in second
            assert "[cached]" in second
        assert len(store) == 2  # persisted in the backing store

    def test_serve_lifecycle_over_a_subprocess(self, tmp_path):
        """`cache-serve` as deployed: ephemeral port announced on
        stdout, clients served, SIGTERM → graceful shutdown with a
        stats line and exit code 0."""
        import os
        import re
        import signal
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.batch.cache import ShardedDirectoryCache
        from repro.batch.service import RemoteCache

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main", "cache-serve",
             "--store", str(tmp_path / "store"), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        try:
            match = None
            seen = []
            for _ in range(10):  # skip interpreter noise (warnings)
                line = process.stdout.readline()
                seen.append(line)
                match = re.search(r"tcp://([0-9.]+):(\d+)", line)
                if match or not line:
                    break
            assert match, f"no endpoint announced in: {seen!r}"
            client = RemoteCache(match[1], int(match[2]))
            client.put("a" * 64, {"v": 1})
            assert client.get("a" * 64) == {"v": 1}
        finally:
            process.send_signal(signal.SIGTERM)
            out, _err = process.communicate(timeout=30)
        assert process.returncode == 0
        assert "cache server stopped" in out
        assert "1 hit(s), 0 miss(es), 1 store(s)" in out
        # The backing store outlives the server.
        survivor = ShardedDirectoryCache(tmp_path / "store")
        assert survivor.get("a" * 64) == {"v": 1}


class TestExperiment:
    def test_quick_stats_with_json(self, tmp_path, capsys):
        target = tmp_path / "stats.json"
        assert main(["experiment", "stats", "--quick", "--json",
                     str(target)]) == 0
        out = capsys.readouterr().out
        assert "EXP-S1" in out
        assert "average reduction" in out
        payload = json.loads(target.read_text())
        assert "rows" in payload and "average_reduction_pct" in payload


class TestJobServe:
    def test_help_offers_no_scheduling_policy_flags(self, capsys):
        """The job server has one schedule: no order, speculation, or
        adaptive-lease switches on the command line."""
        with pytest.raises(SystemExit) as exit_info:
            main(["job-serve", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "--lease-timeout" in out and "--max-attempts" in out
        for removed in ("--order", "--speculate", "--adaptive-lease"):
            assert removed not in out
