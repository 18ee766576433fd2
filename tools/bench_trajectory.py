"""Record a performance-trajectory run into a ``BENCH_<n>.json`` file.

The repo's benchmarks (``benchmarks/bench_perf_scaling.py``) measure the
solver hot paths and the batch/cluster throughput, but a bench run that
is not *recorded* cannot prove a speedup or catch a regression.  This
runner executes a selection of those benchmarks under pytest-benchmark,
lowers the result to a schema-versioned *trajectory record* -- per-bench
wall seconds, a machine fingerprint, the git revision -- and merges it
into a ``BENCH_<n>.json`` file at the repo root, one labelled run per
measurement campaign (e.g. ``before`` / ``after`` an optimization PR).

``tools/check_bench_regression.py`` consumes the same file: CI re-runs
the suite and compares fresh numbers against the committed trajectory.
See ``docs/BENCHMARKS.md`` for the full workflow.

Usage::

    python tools/bench_trajectory.py --label after            # default -k
    python tools/bench_trajectory.py --label before -k solver
    python tools/bench_trajectory.py --label ci --output /tmp/fresh.json
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

#: Version of the trajectory record layout; bump on breaking changes.
TRAJECTORY_SCHEMA = 1

#: The default bench selection: the solver hot-path micro-suite, the
#: cold EXP-S1 grid (the end-to-end number the solvers feed), the
#: compile-service latency benches (whose p50/p95/p99 SLO numbers ride
#: along in ``extra_info``), and the cluster scheduling benches (whose
#: trace-derived makespan/utilization ride along the same way).
DEFAULT_SELECTION = "solver or stats_grid_cold or bench_serve or sched"

#: The bench module every trajectory run executes.
BENCH_FILE = "benchmarks/bench_perf_scaling.py"

REPO_ROOT = Path(__file__).resolve().parent.parent


def machine_fingerprint() -> dict:
    """A stable identification of the machine a run was measured on.

    Trajectory comparisons across different fingerprints are still
    possible (wall-clock ratios transfer roughly), but the gate warns,
    and regenerating the committed trajectory on the CI machine class
    is the supported way to tighten tolerances.
    """
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def git_revision(repo_root: Path = REPO_ROOT) -> str:
    """The current git commit hash, or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root,
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_benchmarks(selection: str,
                   repo_root: Path = REPO_ROOT,
                   bench_file: str = BENCH_FILE) -> dict:
    """Run the bench suite under pytest-benchmark, return its JSON.

    Raises ``RuntimeError`` when pytest fails or selects nothing.
    """
    env = dict(os.environ)
    src = str(repo_root / "src")
    benches = str(repo_root / "benchmarks")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, benches] + ([existing] if existing else []))

    with tempfile.TemporaryDirectory(prefix="bench-trajectory-") as tmp:
        report = Path(tmp) / "benchmark.json"
        command = [
            sys.executable, "-m", "pytest", bench_file,
            "-o", "python_files=bench_*.py",
            "-o", "python_functions=bench_*",
            "--benchmark-only", "-q", "-p", "no:cacheprovider",
            f"--benchmark-json={report}",
            "-k", selection,
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
            f"selection {selection!r} matched no benchmarks")
    return data


def entries_from_pytest_benchmark(data: dict) -> dict[str, dict]:
    """Lower a pytest-benchmark JSON report to trajectory entries.

    One entry per bench, keyed by the parametrized bench name; wall
    times are seconds.  ``seconds`` (the per-round minimum) is what the
    regression gate compares -- it is the most machine-noise-resistant
    single number pytest-benchmark reports.  A bench's ``extra_info``
    (e.g. the serve SLO's p50/p95/p99 milliseconds) is carried through
    verbatim so the committed trajectory archives it.
    """
    entries: dict[str, dict] = {}
    for bench in data["benchmarks"]:
        stats = bench["stats"]
        entry = {
            "seconds": stats["min"],
            "mean_seconds": stats["mean"],
            "rounds": stats["rounds"],
        }
        if bench.get("extra_info"):
            entry["extra_info"] = bench["extra_info"]
        entries[bench["name"]] = entry
    return dict(sorted(entries.items()))


def build_run(label: str, entries: dict[str, dict], *,
              selection: str,
              note: str | None = None,
              repo_root: Path = REPO_ROOT) -> dict:
    """Assemble one labelled trajectory run record."""
    run = {
        "label": label,
        "created": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "git_rev": git_revision(repo_root),
        "selection": selection,
        "machine": machine_fingerprint(),
        "entries": entries,
    }
    if note:
        run["note"] = note
    return run


def empty_trajectory() -> dict:
    """A fresh trajectory record with no runs."""
    return {"schema": TRAJECTORY_SCHEMA,
            "suite": Path(BENCH_FILE).stem, "runs": []}


def load_trajectory(path: Path) -> dict:
    """Load and schema-check a trajectory file."""
    record = json.loads(path.read_text(encoding="utf-8"))
    schema = record.get("schema")
    if schema != TRAJECTORY_SCHEMA:
        raise ValueError(
            f"{path}: unsupported trajectory schema {schema!r} "
            f"(this tool speaks schema {TRAJECTORY_SCHEMA})")
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
        description="record a labelled benchmark run into the perf "
                    "trajectory (BENCH_<n>.json)")
    parser.add_argument("--label", required=True,
                        help="run label (e.g. before, after, ci)")
    parser.add_argument("-k", "--selection", default=DEFAULT_SELECTION,
                        help=f"pytest -k bench selection "
                             f"(default: {DEFAULT_SELECTION!r})")
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
    print(f"running: pytest {BENCH_FILE} -k {args.selection!r} ...")
    data = run_benchmarks(args.selection)
    entries = entries_from_pytest_benchmark(data)
    run = build_run(args.label, entries, selection=args.selection,
                    note=args.note)

    if output.exists() and not args.fresh:
        record = load_trajectory(output)
    else:
        record = empty_trajectory()
    upsert_run(record, run)
    save_trajectory(output, record)

    width = max(len(name) for name in entries)
    print(f"\ntrajectory run {args.label!r} "
          f"({len(entries)} benches) -> {output}")
    for name, entry in entries.items():
        print(f"  {name:<{width}}  {entry['seconds'] * 1000:10.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
