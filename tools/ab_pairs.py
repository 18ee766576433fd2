"""Paired A/B runs of the repository benchmark: a base revision against
the working tree.

Each pair runs ``perfbench/run.py`` once per side with one seed.  Both
sides are the same kind of tree, unpacked side by side into one
temporary directory: the base side is ``git archive REV`` of the local
repository, and the head side is a copy of the working tree's tracked
files as they stand, uncommitted edits included (marked ``-dirty``, as
``bench_trajectory.git_revision`` does).  Untracked files, caches and
build leftovers of the working tree stay out of it.  Pairs alternate
which side runs first, and pair ``i`` uses seed ``SEED_BASE + i``, so
two invocations with the same arguments run the same inputs.

Per metric the report gives both sides' medians, the median change
(head median minus base median, and that as a share of the base), the
pairs the head side won and lost (ties count for neither side), the
interquartile range of each side's runs, and a verdict.  It reads
"resolved better" or "resolved worse" only when all of these hold, and
"unresolved" otherwise:

* at least :data:`MIN_PAIRS` pairs ran;
* the head side won (or lost) at least nine of every ten pairs;
* the medians differ by more than the base side's interquartile range.

A few pairs have a narrow range by chance, so noise alone would
otherwise read "resolved".  The head side's range plays no part in the
verdict; it is shown because a change can widen the spread of its own
runs, which the base side's range cannot show.

Peak memory grows with the operations a run completes, so when the two
sides' median op counts differ the report marks ``peak_rss_mb`` as not
comparable (the verdict itself is computed as for every metric).

Untraced runs (the default) compare the end-to-end metrics; ``--trace``
runs compare the per-layer ones.

Usage::

    python tools/ab_pairs.py --base HEAD --workload batch-warm \\
        --pairs 10 --seconds 20
    python tools/ab_pairs.py --base main~1 --workload serve --pairs 4 \\
        --seconds 8 --trace

The tool writes no file in the repository: both sides run, and keep
perfbench's scratch directory, in the temporary directory.  Trajectory
files (``BENCH_<n>.json``) are recorded by ``bench_trajectory.py``
only.  It exits 1 when a run's correctness gate failed
(``failed > 0``).
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from bench_trajectory import REPO_ROOT, git_revision, perfbench_catalogue

#: Pair ``i`` runs both sides with seed ``SEED_BASE + i``.
SEED_BASE = 101

#: A verdict needs this many pairs, and one side winning nine tenths
#: of them.
MIN_PAIRS = 10

SIDES = ("base", "head")

#: Metrics that grow with the ops a run completes: comparable only
#: between sides that completed as many.
PER_OP_METRICS = ("peak_rss_mb",)

#: ``runner(root, workload, seed, seconds, trace)``: the standard output
#: of one perfbench run in the checkout at ``root``.
Runner = Callable[[Path, str, int, float, bool], str]


@dataclass(frozen=True)
class Comparison:
    """One metric over all pairs."""

    metric: str
    unit: str
    better: str
    base_median: float
    head_median: float
    #: Pairs whose head value beat the base value (ties excluded).
    wins: int
    #: Pairs whose base value beat the head value (ties excluded).
    losses: int
    pairs: int
    #: Interquartile range of the base side; ``None`` below two pairs.
    base_iqr: float | None
    #: Interquartile range of the head side; ``None`` below two pairs.
    head_iqr: float | None

    @property
    def change(self) -> float:
        """Head median minus base median."""
        return self.head_median - self.base_median

    @property
    def change_pct(self) -> float | None:
        """The change as a percentage of the base median."""
        if not self.base_median:
            return None
        return 100 * self.change / self.base_median

    @property
    def improved(self) -> bool:
        """The head median is on the better side of the base median."""
        return (self.change < 0) == (self.better == "lower")

    @property
    def resolved(self) -> bool:
        """At least :data:`MIN_PAIRS` pairs, the side the medians favour
        winning nine tenths of them, and the medians differing by more
        than the base side's IQR."""
        decisive = self.wins if self.improved else self.losses
        return (self.pairs >= MIN_PAIRS
                and 10 * decisive >= 9 * self.pairs
                and self.base_iqr is not None
                and abs(self.change) > self.base_iqr)

    @property
    def verdict(self) -> str:
        """``resolved better``/``resolved worse`` or ``unresolved``."""
        if not self.resolved:
            return "unresolved"
        return f"resolved {'better' if self.improved else 'worse'}"


def pair_plan(pairs: int) -> list[tuple[int, tuple[str, str]]]:
    """Each pair's seed and side order; the first side alternates."""
    return [(SEED_BASE + index, SIDES if index % 2 == 0 else SIDES[::-1])
            for index in range(pairs)]


def parse_result(stdout: str) -> dict:
    """perfbench's result: the JSON object on its last output line.

    Raises ``ValueError`` when the last line is not a result object.
    """
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"no perfbench result line in {stdout!r}")
    return result


def perfbench_runner(root: Path, workload: str, seed: int,
                     seconds: float, trace: bool) -> str:
    """Run ``perfbench/run.py`` of the checkout at ``root``."""
    command = [sys.executable, str(root / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(command, cwd=root, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"perfbench in {root} failed (exit {proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}")
    return proc.stdout


def run_pairs(runner: Runner, roots: dict[str, Path], workload: str,
              pairs: int, seconds: float, trace: bool,
              log: Callable[[str], None] = lambda line: None
              ) -> dict[str, list[dict]]:
    """Both sides' results, in pair order."""
    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    for number, (seed, order) in enumerate(pair_plan(pairs), 1):
        for side in order:
            result = parse_result(runner(roots[side], workload, seed,
                                         seconds, trace))
            results[side].append(result)
            log(f"pair {number}/{pairs} seed {seed} {side}: "
                f"{result['failed']} of {result['attempted']} failed")
    return results


def interquartile_range(values: list[float]) -> float | None:
    """Q3 minus Q1 (inclusive quartiles); ``None`` below two values."""
    if len(values) < 2:
        return None
    first, _, third = statistics.quantiles(values, n=4,
                                           method="inclusive")
    return third - first


def compare(results: dict[str, list[dict]], metrics) -> list[Comparison]:
    """One :class:`Comparison` per catalogue metric both sides report.

    ``metrics`` are perfbench catalogue metrics (name, unit, better).
    """
    rows = []
    for metric in metrics:
        try:
            base, head = ([run["metrics"][metric.name]["value"]
                           for run in results[side]] for side in SIDES)
        except KeyError:
            continue
        lower = metric.better == "lower"
        wins = sum(h < b if lower else h > b for b, h in zip(base, head))
        losses = sum(h > b if lower else h < b
                     for b, h in zip(base, head))
        rows.append(Comparison(
            metric=metric.name, unit=metric.unit, better=metric.better,
            base_median=statistics.median(base),
            head_median=statistics.median(head), wins=wins,
            losses=losses, pairs=len(base),
            base_iqr=interquartile_range(base),
            head_iqr=interquartile_range(head)))
    return rows


def op_counts(results: dict[str, list[dict]]) -> dict[str, float]:
    """Each side's median number of ops per run."""
    return {side: statistics.median(run["attempted"]
                                    for run in results[side])
            for side in SIDES}


def render(rows: list[Comparison],
           ops: dict[str, float] | None = None) -> str:
    """The comparison as an aligned text table.

    ``ops`` are the sides' median op counts (:func:`op_counts`); when
    they differ, the :data:`PER_OP_METRICS` rows are starred and a note
    under the table says why they are not comparable.
    """
    header = ("metric", "unit", "base median", "head median", "change",
              "wins", "losses", "base IQR", "head IQR", "verdict")
    table = [header]
    uneven = ops is not None and ops["base"] != ops["head"]
    starred = False
    for row in rows:
        pct = "n/a" if row.change_pct is None else f"{row.change_pct:+.1f}%"
        iqrs = ["n/a" if iqr is None else f"{iqr:.4g}"
                for iqr in (row.base_iqr, row.head_iqr)]
        metric = row.metric
        if uneven and metric in PER_OP_METRICS:
            metric += "*"
            starred = True
        table.append((metric, row.unit, f"{row.base_median:.4g}",
                      f"{row.head_median:.4g}", pct,
                      f"{row.wins}/{row.pairs}",
                      f"{row.losses}/{row.pairs}", *iqrs, row.verdict))
    widths = [max(len(line[column]) for line in table)
              for column in range(len(header))]
    lines = ["  ".join(cell.ljust(width)
                       for cell, width in zip(line, widths)).rstrip()
             for line in table]
    if starred:
        lines.append(
            f"* not comparable: the sides ran {ops['base']:g} (base) and "
            f"{ops['head']:g} (head) ops per run in the median, and "
            f"this metric grows with the ops a run completes")
    return "\n".join(lines)


def resolve_revision(rev: str, repo_root: Path = REPO_ROOT) -> str:
    """The commit hash ``rev`` names; raises ``ValueError`` if none."""
    proc = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        cwd=repo_root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise ValueError(f"not a commit: {rev!r}")
    return proc.stdout.strip()


def archive(commit: str, dest: Path, repo_root: Path = REPO_ROOT) -> None:
    """Unpack the tree of ``commit`` into ``dest`` (``git archive``)."""
    proc = subprocess.run(["git", "archive", "--format=tar", commit],
                          cwd=repo_root, capture_output=True, check=True)
    with tarfile.TarFile(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, filter="data")


def working_tree(dest: Path, repo_root: Path = REPO_ROOT) -> None:
    """Copy the working tree's tracked files into ``dest``.

    Each file is copied as it stands, uncommitted edits included; a
    tracked file deleted from the working tree is left out, and so is
    everything untracked.
    """
    proc = subprocess.run(["git", "ls-files", "-z"], cwd=repo_root,
                          capture_output=True, check=True)
    for name in proc.stdout.decode().split("\0"):
        source = repo_root / name
        if not name or not source.is_file():
            continue
        target = dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(source, target)
        shutil.copymode(source, target)


def main(argv: list[str] | None = None,
         runner: Runner = perfbench_runner) -> int:
    """CLI entry point; returns a process exit code."""
    catalogue = perfbench_catalogue()
    parser = argparse.ArgumentParser(
        description="run perfbench in alternating pairs on a base "
                    "revision and the working tree, and report per "
                    "metric whether the difference is resolved")
    parser.add_argument("--base", required=True,
                        help="the revision to compare against "
                             "(e.g. HEAD, main~1, a commit hash)")
    parser.add_argument("--workload", required=True,
                        choices=[w.name for w in catalogue.WORKLOADS])
    parser.add_argument("--pairs", type=int, required=True,
                        help="number of base/head pairs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="perfbench run length per run")
    parser.add_argument("--trace", action="store_true",
                        help="compare per-layer metrics of traced runs "
                             "instead of the end-to-end ones")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        commit = resolve_revision(args.base)
    except ValueError as error:
        parser.error(str(error))

    metrics = catalogue.PER_LAYER if args.trace else catalogue.END_TO_END
    print(f"base: {commit} ({args.base})")
    print(f"head: {git_revision()} (working tree)")
    print(f"workload {args.workload}, {args.pairs} pair(s) of "
          f"{args.seconds:g} s, seeds {SEED_BASE}.."
          f"{SEED_BASE + args.pairs - 1}, "
          f"{'traced' if args.trace else 'untraced'}", flush=True)
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as scratch:
        roots = {side: Path(scratch) / side for side in SIDES}
        archive(commit, roots["base"])
        working_tree(roots["head"])
        results = run_pairs(
            runner, roots, args.workload, args.pairs, args.seconds,
            args.trace,
            log=lambda line: print(line, file=sys.stderr, flush=True))
    print(render(compare(results, metrics), op_counts(results)))
    failed = {side: sum(run["failed"] for run in results[side])
              for side in SIDES}
    print(f"failed ops: base {failed['base']}, head {failed['head']}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
