"""Batch compilation: suites in, cached per-kernel summaries out.

The scaling layer on top of :func:`repro.core.pipeline.compile_kernel`:

* :mod:`repro.batch.jobs` -- the job contract: picklable
  :class:`BatchJob` units (which compile into a :class:`JobResult`), the
  factories that mass-produce them (suites, kernel lists, random
  families, spec/config matrices), and :class:`ExperimentPointJob`
  (one point of a registered experiment as a cacheable work unit);
* :mod:`repro.batch.registry` -- the experiment registry:
  :class:`ExperimentDefinition` contracts that let any experiment
  shard as :class:`ExperimentPointJob` points;
* :mod:`repro.batch.digest` -- stable content digests that key the
  result cache;
* :mod:`repro.batch.cache` -- in-memory LRU and sharded multi-host
  directory stores behind one backend protocol (processes and hosts
  share results through one ``dir:`` store);
* :mod:`repro.batch.service` -- the serve wire format: framing, frame
  limits and endpoint specs, shared by the compile service and its
  client;
* :mod:`repro.batch.engine` -- :class:`BatchCompiler` (cache
  orchestration, streaming ``as_completed`` delivery),
  the aggregated :class:`BatchReport`, and the :class:`Executor` seam
  (:class:`InlineExecutor`, :class:`LocalPoolExecutor`,
  :func:`open_executor`) that decides where cache misses run;
* :mod:`repro.batch.serving` -- compile-as-a-service:
  :class:`CompileService` (the ``repro-agu serve`` subcommand) answers
  single-kernel compile requests over TCP -- admission-controlled,
  micro-batched through the engine, fronted by a warm
  :class:`TieredCache` -- and :class:`ServeClient` is the matching
  pooled client.
"""

from repro.batch.cache import (
    CacheBackend,
    CacheStats,
    InMemoryLRUCache,
    ShardedDirectoryCache,
    TieredCache,
    open_cache,
)
from repro.batch.digest import DIGEST_VERSION, job_digest
from repro.batch.registry import (
    ExperimentDefinition,
    experiment_point_jobs,
    get_experiment,
    register_experiment,
    registered_experiments,
)
from repro.batch.engine import (
    BatchCompiler,
    BatchReport,
    Executor,
    InlineExecutor,
    LocalPoolExecutor,
    execute_any,
    execute_job,
    open_executor,
)
from repro.batch.serving import (
    CompileService,
    ServeClient,
    ServeResult,
    ServeStats,
    ServerBusyError,
)
from repro.batch.jobs import (
    BatchJob,
    ExperimentPointJob,
    ExperimentPointResult,
    JobResult,
    job_matrix,
    jobs_from_kernels,
    jobs_from_random,
    jobs_from_suite,
    naive_baseline_seed,
)

__all__ = [
    "BatchCompiler",
    "BatchJob",
    "BatchReport",
    "CacheBackend",
    "CacheStats",
    "CompileService",
    "DIGEST_VERSION",
    "Executor",
    "ExperimentDefinition",
    "ExperimentPointJob",
    "ExperimentPointResult",
    "InMemoryLRUCache",
    "InlineExecutor",
    "JobResult",
    "LocalPoolExecutor",
    "ServeClient",
    "ServeResult",
    "ServeStats",
    "ServerBusyError",
    "ShardedDirectoryCache",
    "TieredCache",
    "execute_any",
    "experiment_point_jobs",
    "get_experiment",
    "execute_job",
    "job_digest",
    "job_matrix",
    "jobs_from_kernels",
    "jobs_from_random",
    "jobs_from_suite",
    "naive_baseline_seed",
    "register_experiment",
    "registered_experiments",
    "open_cache",
    "open_executor",
]
