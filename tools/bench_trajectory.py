"""Record a performance-trajectory run into a ``BENCH_<n>.json`` file.

One run measures two things:

* the ``-k solver`` micro-suite of ``benchmarks/bench_perf_scaling.py``
  under pytest-benchmark, lowered to per-bench wall seconds;
* the repository benchmark, ``perfbench/run.py --trace 1``, once per
  workload in ``perfbench/catalogue.py`` at a fixed seed and run
  length, kept as the result line that run prints (its exact work
  counts, per-layer times, and ``failed``).

The run -- labelled, with a machine fingerprint and the git revision --
is merged into a schema-versioned trajectory file at the repo root.
``tools/check_bench_regression.py`` consumes the same file: CI records
a fresh run and gates it against the committed one.  See
``docs/BENCHMARKS.md`` for the full workflow.

Usage::

    python tools/bench_trajectory.py --label baseline
    python tools/bench_trajectory.py --label ci --output /tmp/fresh.json
"""

from __future__ import annotations

import argparse
import datetime
import functools
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import ModuleType

#: Version of the trajectory record layout; bump on breaking changes.
#: Schema 2 added the perfbench ``workloads`` map to each run.
TRAJECTORY_SCHEMA = 2
#: Schemas :func:`load_trajectory` reads.  Schema-1 runs hold only
#: bench ``entries``, which ``--compare`` still works on.
READABLE_SCHEMAS = (1, 2)

#: The bench module and ``-k`` selection every trajectory run records.
BENCH_FILE = "benchmarks/bench_perf_scaling.py"
BENCH_SELECTION = "solver"

#: perfbench's seed and run length.  The exact counts are per round and
#: do not depend on the run length (every run times at least two traced
#: rounds); two seconds keeps a recording to about half a minute.
PERFBENCH_SEED = 3
PERFBENCH_SECONDS = 2

REPO_ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def perfbench_catalogue() -> ModuleType:
    """``perfbench/catalogue.py``: the workloads and the metrics, with
    their units and which counts are timing-dependent.

    Loaded from its file under a name of its own, so the benchmark's
    directory never joins ``sys.path``.
    """
    name = "perfbench_catalogue"
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "perfbench" / "catalogue.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def machine_fingerprint() -> dict:
    """A stable identification of the machine a run was measured on.

    Trajectory comparisons across different fingerprints are still
    possible (wall-clock ratios transfer roughly, counts exactly), but
    the gate warns.
    """
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def git_revision(repo_root: Path = REPO_ROOT) -> str:
    """The current git commit hash, ``<hash>-dirty`` when tracked files
    have uncommitted changes (the run measured code no commit holds),
    or ``"unknown"`` outside a repo."""
    def git(*args: str) -> str | None:
        try:
            out = subprocess.run(["git", *args], cwd=repo_root,
                                 capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    if head is None:
        return "unknown"
    changes = git("status", "--porcelain", "--untracked-files=no")
    return f"{head}-dirty" if changes else head


def run_solver_suite(repo_root: Path = REPO_ROOT) -> dict:
    """Run the solver micro-suite under pytest-benchmark, return its
    JSON report.

    Raises ``RuntimeError`` when pytest fails or selects nothing.
    """
    env = dict(os.environ)
    src = str(repo_root / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([existing] if existing else []))

    with tempfile.TemporaryDirectory(prefix="bench-trajectory-") as tmp:
        report = Path(tmp) / "benchmark.json"
        command = [
            sys.executable, "-m", "pytest", BENCH_FILE,
            "-o", "python_files=bench_*.py",
            "-o", "python_functions=bench_*",
            "--benchmark-only", "-q", "-p", "no:cacheprovider",
            f"--benchmark-json={report}",
            "-k", BENCH_SELECTION,
        ]
        proc = subprocess.run(command, cwd=repo_root, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0 or not report.exists():
            raise RuntimeError(
                f"benchmark run failed (exit {proc.returncode}):\n"
                f"{proc.stdout}\n{proc.stderr}")
        data = json.loads(report.read_text(encoding="utf-8"))
    if not data.get("benchmarks"):
        raise RuntimeError(
            f"selection {BENCH_SELECTION!r} matched no benchmarks")
    return data


def entries_from_pytest_benchmark(data: dict) -> dict[str, dict]:
    """Lower a pytest-benchmark JSON report to trajectory entries.

    One entry per bench, keyed by the parametrized bench name; wall
    times are seconds.  ``seconds`` (the per-round minimum) is what the
    regression gate compares -- it is the most machine-noise-resistant
    single number pytest-benchmark reports.
    """
    entries: dict[str, dict] = {}
    for bench in data["benchmarks"]:
        stats = bench["stats"]
        entries[bench["name"]] = {
            "seconds": stats["min"],
            "mean_seconds": stats["mean"],
            "rounds": stats["rounds"],
        }
    return dict(sorted(entries.items()))


def run_perfbench(workload: str, repo_root: Path = REPO_ROOT) -> dict:
    """One traced perfbench run of ``workload``: its result line
    (``{"correct", "attempted", "failed", "metrics"}``).

    Raises ``RuntimeError`` when the run exits nonzero or its last
    line is not a JSON result.
    """
    command = [sys.executable, str(repo_root / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(PERFBENCH_SEED),
               "--seconds", str(PERFBENCH_SECONDS), "--trace", "1"]
    proc = subprocess.run(command, cwd=repo_root, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        raise RuntimeError(
            f"perfbench {workload} failed (exit {proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}")
    return result


def build_run(label: str, entries: dict[str, dict],
              workloads: dict[str, dict], *,
              note: str | None = None,
              repo_root: Path = REPO_ROOT) -> dict:
    """Assemble one labelled trajectory run record."""
    run = {
        "label": label,
        "created": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "git_rev": git_revision(repo_root),
        "machine": machine_fingerprint(),
        "entries": entries,
        "workloads": workloads,
    }
    if note:
        run["note"] = note
    return run


def empty_trajectory() -> dict:
    """A fresh trajectory record with no runs."""
    return {"schema": TRAJECTORY_SCHEMA, "runs": []}


def load_trajectory(path: Path) -> dict:
    """Load and schema-check a trajectory file (schema 1 or 2)."""
    record = json.loads(path.read_text(encoding="utf-8"))
    schema = record.get("schema")
    if schema not in READABLE_SCHEMAS:
        raise ValueError(
            f"{path}: unsupported trajectory schema {schema!r} "
            f"(this tool reads schemas {READABLE_SCHEMAS})")
    if not isinstance(record.get("runs"), list):
        raise ValueError(f"{path}: malformed trajectory (no runs list)")
    return record


def save_trajectory(path: Path, record: dict) -> None:
    """Write a trajectory record as stable, diff-friendly JSON."""
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")


def upsert_run(record: dict, run: dict) -> dict:
    """Insert a run, replacing any previous run with the same label."""
    runs = [r for r in record["runs"] if r.get("label") != run["label"]]
    runs.append(run)
    record["runs"] = runs
    return record


def get_run(record: dict, label: str | None = None) -> dict:
    """Fetch a run by label (or the last run when ``label`` is None)."""
    runs = record["runs"]
    if not runs:
        raise ValueError("trajectory contains no runs")
    if label is None:
        return runs[-1]
    for run in runs:
        if run.get("label") == label:
            return run
    known = ", ".join(sorted(str(r.get("label")) for r in runs))
    raise ValueError(f"no run labelled {label!r} (have: {known})")


def default_trajectory_path(repo_root: Path = REPO_ROOT) -> Path:
    """The highest-numbered ``BENCH_<n>.json`` at the repo root.

    Falls back to ``BENCH_6.json`` (the first PR that had a committed
    trajectory) when none exists yet.
    """
    best: tuple[int, Path] | None = None
    for candidate in repo_root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", candidate.name)
        if match and (best is None or int(match.group(1)) > best[0]):
            best = (int(match.group(1)), candidate)
    return best[1] if best else repo_root / "BENCH_6.json"


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        description="record a labelled run (solver micro-suite plus "
                    "traced perfbench workloads) into the perf "
                    "trajectory (BENCH_<n>.json)")
    parser.add_argument("--label", required=True,
                        help="run label (e.g. baseline, ci)")
    parser.add_argument("--output", type=Path, default=None,
                        help="trajectory file (default: the highest-"
                             "numbered BENCH_<n>.json at the repo root)")
    parser.add_argument("--fresh", action="store_true",
                        help="start a new trajectory file instead of "
                             "merging into an existing one")
    parser.add_argument("--note", default=None,
                        help="free-form annotation stored on the run")
    args = parser.parse_args(argv)

    output: Path = args.output if args.output is not None \
        else default_trajectory_path()
    record = empty_trajectory()
    if output.exists() and not args.fresh:
        record = load_trajectory(output)
        if record["schema"] != TRAJECTORY_SCHEMA:
            parser.error(f"{output} is a schema-{record['schema']} "
                         f"trajectory; record into a new file (--fresh)")

    names = [workload.name for workload in perfbench_catalogue().WORKLOADS]
    print(f"running: pytest {BENCH_FILE} -k {BENCH_SELECTION!r} ...")
    entries = entries_from_pytest_benchmark(run_solver_suite())
    workloads = {}
    for name in names:
        print(f"running: perfbench/run.py --workload {name} --seed "
              f"{PERFBENCH_SEED} --seconds {PERFBENCH_SECONDS} "
              f"--trace 1 ...")
        workloads[name] = run_perfbench(name)
    run = build_run(args.label, entries, workloads, note=args.note)
    upsert_run(record, run)
    save_trajectory(output, record)

    width = max(len(name) for name in [*entries, *workloads])
    print(f"\ntrajectory run {args.label!r} ({len(entries)} benches, "
          f"{len(workloads)} workloads) -> {output}")
    for name, entry in entries.items():
        print(f"  {name:<{width}}  {entry['seconds'] * 1000:10.3f} ms")
    for name, result in workloads.items():
        print(f"  {name:<{width}}  {result['attempted']} attempted, "
              f"{result['failed']} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
