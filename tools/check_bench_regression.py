"""Gate the committed perf trajectory against a fresh run.

Two modes over the ``BENCH_<n>.json`` files that
``tools/bench_trajectory.py`` writes:

* **gate** (default): compare a freshly recorded run against the
  committed trajectory's baseline run (``--trajectory`` defaults to
  the highest-numbered ``BENCH_<n>.json``, where the recorder
  writes).  It fails when an exact perfbench metric -- unit
  ``count`` or ``ratio`` and not ``timing_dependent`` in
  ``perfbench/catalogue.py`` -- differs from the baseline on any
  workload, when a baseline workload is missing or any workload
  reports ``failed`` above 0, or when a solver micro-bench is slower
  than ``tolerance x`` its committed wall time.  Per-layer
  times are recorded but not gated: the benchmark's bounds apply to
  untraced end-to-end metrics, and their spread on a CI runner is
  unmeasured.

* **compare** (``--compare A B``): print the per-bench speedup between
  two labelled runs of one trajectory file (e.g. ``before`` vs
  ``after``), optionally enforcing a minimum geometric-mean speedup
  over a name filter -- how this repo proves "the solver micro-suite
  got >= 3x faster" in CI rather than in prose.  Schema-1 files load
  here too.

See ``docs/BENCHMARKS.md`` for the workflow.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from bench_trajectory import (
    default_trajectory_path,
    get_run,
    load_trajectory,
    perfbench_catalogue,
)

#: Default slowdown factor tolerated before the gate fails.  Generous
#: on purpose: CI machines are noisy and heterogenous; real hot-path
#: regressions are well above this.
DEFAULT_TOLERANCE = 3.0


def exact_metrics() -> tuple[str, ...]:
    """The per-layer metrics the gate holds equal, in catalogue order:
    every count or ratio perfbench does not mark timing-dependent."""
    return tuple(
        metric.name for metric in perfbench_catalogue().PER_LAYER
        if metric.unit in ("count", "ratio")
        and not metric.timing_dependent)


def compare_workloads(baseline: dict[str, dict], current: dict[str, dict]
                      ) -> tuple[list[str], list[str]]:
    """Compare two perfbench ``workloads`` maps; returns
    ``(report_lines, failures)``, each failure naming the workload and,
    when one moved, the metric.  A workload or metric newer than the
    baseline has nothing to equal yet, but must not fail either.
    """
    lines: list[str] = []
    failures: list[str] = []
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            failures.append(f"{name}: missing from current run")
            continue
        result = current[name]
        if result["failed"] > 0:
            failures.append(f"{name}: failed = {result['failed']} "
                            f"of {result['attempted']}")
        base = baseline.get(name, {}).get("metrics", {})
        checked = [metric for metric in exact_metrics() if metric in base]
        for metric in checked:
            was = base[metric]["value"]
            now = result["metrics"].get(metric, {}).get("value")
            if now != was:
                failures.append(f"{name}: {metric} {was} -> {now}")
        lines.append(f"  {name}: {len(checked)} exact metrics checked, "
                     f"failed = {result['failed']}")
    return lines, failures


def compare_entries(baseline: dict[str, dict], current: dict[str, dict],
                    tolerance: float,
                    require_all: bool = False) -> tuple[list[str], list[str]]:
    """Compare two entry maps; returns ``(report_lines, failures)``.

    A bench fails when ``current / baseline > tolerance``.  Benches
    missing from the current run fail only under ``require_all``;
    benches new in the current run are reported but never fail (they
    have no baseline yet).
    """
    lines: list[str] = []
    failures: list[str] = []
    names = sorted(set(baseline) | set(current))
    width = max((len(name) for name in names), default=4)
    for name in names:
        base = baseline.get(name)
        cur = current.get(name)
        if base is None:
            lines.append(f"  {name:<{width}}  (new bench, no baseline)")
            continue
        if cur is None:
            message = f"  {name:<{width}}  missing from current run"
            if require_all:
                failures.append(f"{name}: missing from current run")
                message += "  FAIL"
            lines.append(message)
            continue
        ratio = cur["seconds"] / base["seconds"] \
            if base["seconds"] > 0 else math.inf
        verdict = "ok"
        if ratio > tolerance:
            verdict = f"FAIL (> {tolerance:g}x)"
            failures.append(
                f"{name}: {cur['seconds'] * 1000:.3f} ms vs committed "
                f"{base['seconds'] * 1000:.3f} ms ({ratio:.2f}x)")
        lines.append(
            f"  {name:<{width}}  {base['seconds'] * 1000:10.3f} ms -> "
            f"{cur['seconds'] * 1000:10.3f} ms  {ratio:6.2f}x  {verdict}")
    return lines, failures


def speedup_report(baseline: dict[str, dict], current: dict[str, dict],
                   match: str | None = None) -> tuple[list[str], float]:
    """Per-bench speedup lines plus the geometric-mean speedup.

    ``speedup = baseline_seconds / current_seconds`` (>1 is faster).
    ``match`` filters bench names by substring before aggregating.
    """
    names = [name for name in sorted(set(baseline) & set(current))
             if match is None or match in name]
    if not names:
        raise ValueError(
            f"no common benches match {match!r} between the two runs")
    lines = []
    log_sum = 0.0
    width = max(len(name) for name in names)
    for name in names:
        speedup = baseline[name]["seconds"] / current[name]["seconds"]
        log_sum += math.log(speedup)
        lines.append(
            f"  {name:<{width}}  "
            f"{baseline[name]['seconds'] * 1000:10.3f} ms -> "
            f"{current[name]['seconds'] * 1000:10.3f} ms  "
            f"{speedup:6.2f}x")
    return lines, math.exp(log_sum / len(names))


def _warn_on_machine_mismatch(baseline_run: dict, current_run: dict) -> None:
    base, cur = baseline_run.get("machine"), current_run.get("machine")
    if base and cur and base != cur:
        print("warning: machine fingerprints differ between runs; "
              "wall-clock comparisons are approximate", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code (0 pass, 1 fail)."""
    parser = argparse.ArgumentParser(
        description="compare benchmark trajectory runs and gate "
                    "regressions")
    parser.add_argument("--trajectory", type=Path,
                        default=default_trajectory_path(),
                        help="the committed BENCH_<n>.json (default: "
                             "the highest-numbered one at the repo "
                             "root)")
    parser.add_argument("--baseline-label", default=None,
                        help="baseline run label inside --trajectory "
                             "(default: the last run)")
    parser.add_argument("--current", type=Path, default=None,
                        help="trajectory file holding the fresh run to "
                             "gate (gate mode)")
    parser.add_argument("--current-label", default=None,
                        help="run label inside --current "
                             "(default: the last run)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed solver-bench slowdown factor "
                             "before the gate fails (default "
                             f"{DEFAULT_TOLERANCE:g})")
    parser.add_argument("--require-all", action="store_true",
                        help="fail when a committed bench is missing "
                             "from the current run")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        default=None,
                        help="compare two labelled runs of --trajectory "
                             "instead of gating")
    parser.add_argument("--match", default=None,
                        help="substring filter on bench names "
                             "(compare mode)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the geometric-mean speedup "
                             "of A -> B reaches this factor "
                             "(compare mode)")
    args = parser.parse_args(argv)

    trajectory = load_trajectory(args.trajectory)

    if args.compare is not None:
        label_a, label_b = args.compare
        run_a = get_run(trajectory, label_a)
        run_b = get_run(trajectory, label_b)
        _warn_on_machine_mismatch(run_a, run_b)
        lines, geomean = speedup_report(run_a["entries"],
                                        run_b["entries"],
                                        match=args.match)
        scope = f" (matching {args.match!r})" if args.match else ""
        print(f"speedup {label_a!r} -> {label_b!r}{scope}:")
        print("\n".join(lines))
        print(f"geometric-mean speedup: {geomean:.2f}x")
        if args.min_speedup is not None and geomean < args.min_speedup:
            print(f"FAIL: geomean {geomean:.2f}x is below the required "
                  f"{args.min_speedup:g}x", file=sys.stderr)
            return 1
        return 0

    if args.current is None:
        parser.error("gate mode needs --current (or use --compare)")
    baseline_run = get_run(trajectory, args.baseline_label)
    if not baseline_run.get("workloads"):
        parser.error(f"run {baseline_run['label']!r} of "
                     f"{args.trajectory} records no perfbench workloads; "
                     f"gate against a schema-2 trajectory")
    current_run = get_run(load_trajectory(args.current),
                          args.current_label)
    _warn_on_machine_mismatch(baseline_run, current_run)
    count_lines, count_failures = compare_workloads(
        baseline_run["workloads"], current_run.get("workloads", {}))
    bench_lines, bench_failures = compare_entries(
        baseline_run["entries"], current_run["entries"],
        tolerance=args.tolerance, require_all=args.require_all)
    print(f"regression gate vs {args.trajectory.name} "
          f"run {baseline_run['label']!r}")
    print("perfbench exact counts (seed and run length fixed):")
    print("\n".join(count_lines))
    print(f"solver micro-suite (tolerance {args.tolerance:g}x):")
    print("\n".join(bench_lines))
    failures = count_failures + bench_failures
    if failures:
        print(f"\nFAIL: {len(failures)} check(s) failed:",
              file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nOK: every exact count equals the baseline, no workload "
          "failed, no bench regressed past the tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
