"""The benchmark's traced call paths still reach the real code.

``perfbench/tracing.py:install`` wraps module-global names such as
``repro.batch.jobs.parse_kernel``.  A refactor that takes a wrapped
name off the call path would not crash a traced run; its counts would
silently drop.  This pins some of them end to end: a traced batch of
2 kernels x 2 specs must count exactly one parse per distinct source,
one digest and one phase-1 call per job, and one access-graph lookup
per distinct phase-1 group.

``install`` patches process-wide, so the traced batch runs in a child
interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_BATCH = """
import importlib.util
import json
import sys

spec = importlib.util.spec_from_file_location(
    "tracing", sys.argv[1] + "/perfbench/tracing.py")
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

from repro.agu.model import AguSpec
from repro.batch.engine import BatchCompiler
from repro.batch.jobs import job_matrix, jobs_from_kernels
from repro.graph.access_graph import cached_access_graph
from repro.pathcover.branch_and_bound import DEFAULT_NODE_BUDGET, _group_key

recorder = tracing.Recorder()
tracing.install(recorder)
jobs = job_matrix(jobs_from_kernels(["fir8", "saxpy"], AguSpec(2, 1),
                                    n_iterations=4),
                  [AguSpec(2, 1), AguSpec(4, 1)])
report = BatchCompiler().compile(jobs)
layers = tracing.round_layers(recorder.take())
lookups = cached_access_graph.cache_info()
groups = []
for job in jobs:
    pattern = job.kernel().pattern
    for array, coefficient in pattern.group_keys():
        groups.append(_group_key(
            pattern, coefficient,
            pattern.positions_in_group((array, coefficient)),
            job.spec.modify_range, DEFAULT_NODE_BUDGET))
print(json.dumps({"compiled": report.n_compiled,
                  "parse_calls": layers["parse.calls"],
                  "digest_calls": layers["digest.calls"],
                  "exact_calls": layers["pathcover.exact_calls"],
                  "graph_lookups": lookups.hits + lookups.misses,
                  "groups": len(groups),
                  "distinct_groups": len(set(groups))}))
"""


def test_a_traced_batch_counts_one_parse_per_source():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run(
        [sys.executable, "-c", TRACED_BATCH, str(ROOT)], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    counts = json.loads(child.stdout)
    assert counts["compiled"] == 4
    assert counts["parse_calls"] == 2
    assert counts["digest_calls"] == 4
    assert counts["exact_calls"] == 4
    assert counts["graph_lookups"] == counts["distinct_groups"]
    assert counts["distinct_groups"] < counts["groups"]
