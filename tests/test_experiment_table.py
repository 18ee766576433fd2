"""The experiment table of :mod:`repro.analysis.points`.

The goldens, digests and cache round trips of every experiment are
pinned in ``tests/test_experiment_sharding.py``; this module checks the
table itself, and that a fresh interpreter resolves a point's
experiment id with no set-up.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro.analysis.points import (
    EXPERIMENTS,
    experiment_point_jobs,
    get_experiment,
    registered_experiments,
)
from repro.batch.engine import execute_any


def test_ids_are_unique_and_listed_sorted():
    ids = [definition.experiment for definition in EXPERIMENTS]
    assert len(set(ids)) == len(ids) == 10
    assert registered_experiments() == tuple(sorted(ids))
    assert all(get_experiment(name).experiment == name for name in ids)


def test_a_spawned_worker_runs_a_point_like_the_inline_run():
    """A spawned worker imports only what unpickling the job and
    ``execute_any`` pull in, so it finds the table because the job's
    class lives in the module that holds it.  (A ``local:N`` pool forks
    a parent that has already imported the table.)"""
    job = experiment_point_jobs(
        "reorder", get_experiment("reorder").quick_config())[0]
    inline = execute_any(job)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        spawned = pool.submit(execute_any, job).result(timeout=120)
    assert spawned.values == inline.values
    assert spawned.digest == inline.digest
