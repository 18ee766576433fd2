"""The repository's benchmark: one workload, one run, one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload library --seed 1 --seconds 20 \\
        --trace 0
    python3 perfbench/run.py --list     # every metric, by name and unit

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``catalogue.py``).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.  The
program under test is imported from ``src/`` next to this directory,
never from an installed copy; without it the run fails before
measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402


def _percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _finite(value: float) -> float:
    """JSON has no infinity; a failed request's latency (infinite)
    reads as a very large number instead."""
    return value if math.isfinite(value) else 1e12


def _rate(rounds, scaled: bool = True) -> float:
    """Median ops per second over rounds (at the reference host speed
    unless ``scaled`` is false)."""
    return statistics.median(
        outcome.ops / outcome.elapsed / (outcome.speed if scaled else 1)
        for outcome in rounds)


def end_to_end(report) -> dict[str, float]:
    """The e2e metrics; each round's times are scaled by its own host
    speed."""
    latencies = [latency * outcome.speed for outcome in report.rounds
                 for latency in outcome.latencies_ms]
    return {
        "p50_ms": _percentile(latencies, 0.50),
        "p99_ms": _percentile(latencies, 0.99),
        "ops_per_s": _rate(report.rounds),
        "peak_rss_mb": report.peak_rss_mb,
        "setup_s": report.setup_s,
    }


def _exact(metric) -> bool:
    return metric.unit in ("count", "ratio") and not metric.timing_dependent


def per_layer(report) -> dict[str, float]:
    """Per-layer values: exact counts from the first traced round
    (checked equal across rounds that repeat the same work), timings
    as medians over traced rounds at the reference host speed."""
    traced = report.traced
    for outcome in traced:
        outcome.layers["trace.round_ms"] = 1000 * outcome.elapsed
        if outcome.layers["trace.self_sum_ms"] > 1000 * outcome.elapsed:
            report.failures.append(
                f"self times ({outcome.layers['trace.self_sum_ms']:.1f} "
                f"ms) exceed the traced round "
                f"({1000 * outcome.elapsed:.1f} ms)")
        hits = outcome.layers.get("access_graph.memo_hits", 0)
        lookups = hits + outcome.layers.get("access_graph.memo_misses", 0)
        outcome.layers["access_graph.memo_hit_ratio"] = \
            hits / lookups if lookups else 0.0
    values: dict[str, float] = {}
    for metric in catalogue.PER_LAYER:
        if metric.name in report.layers:
            value = report.layers[metric.name]
        elif _exact(metric):
            seen: dict = {}
            for outcome in traced:
                value = outcome.layers.get(metric.name, 0)
                if seen.setdefault(outcome.extra.get("key"), value) \
                        != value:
                    report.failures.append(
                        f"{metric.name} differs between identical "
                        f"rounds: {seen[outcome.extra.get('key')]} vs "
                        f"{value}")
            value = traced[0].layers.get(metric.name, 0)
        else:
            scale = metric.unit == "ms"
            value = statistics.median(
                outcome.layers.get(metric.name, 0)
                * (outcome.speed if scale else 1) for outcome in traced)
        values[metric.name] = value
    values["trace.overhead_pct"] = 100 * (
        _rate(report.rounds) / _rate(traced) - 1)
    return values


def check_manifest() -> list[str]:
    """Differences between ``BENCHMARK.json`` and the catalogue."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        manifest = json.load(stream)
    found = {
        "workloads": [entry["name"] for entry in manifest["workloads"]],
        "end_to_end": [(entry["name"], entry["unit"], entry["better"],
                        entry["bound"]) for entry in manifest["end_to_end"]],
        "per_layer": [(entry["name"], entry["unit"], entry["better"])
                      for entry in manifest["per_layer"]],
    }
    expected = catalogue.manifest_lists()
    return [f"BENCHMARK.json {key} differ from perfbench/catalogue.py"
            for key in expected if expected[key] != found[key]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w.name for w in catalogue.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every workload and metric and check "
                             "BENCHMARK.json against them")
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.list:
        print(catalogue.render())
        problems = check_manifest()
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1 if problems else 0

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.probe:
        workload = workloads.WORKLOADS[args.probe](
            args.seed, ROOT, Path(args.work))
        workload.probe(Path(args.work))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    scratch = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT,
                                                      scratch)
        report = workload.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        values = per_layer(report)
        metrics = catalogue.PER_LAYER
    else:
        values = end_to_end(report)
        metrics = catalogue.END_TO_END
    rounds = report.rounds + report.traced
    failed = sum(outcome.failed for outcome in rounds) \
        + len(report.failures)
    for failure in report.failures:
        print(f"gate failed: {failure}", file=sys.stderr)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"rounds={len(report.rounds)}+{len(report.traced)} traced "
          f"host_speed={statistics.median(o.speed for o in rounds):.3f} "
          f"measured ops_per_s={_rate(report.rounds, scaled=False):.2f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(outcome.ops for outcome in rounds)
        + len(report.failures),
        "failed": failed,
        "metrics": {metric.name: {"value": _finite(values[metric.name]),
                                  "unit": metric.unit}
                    for metric in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
