"""Batch compilation: suites in, cached per-kernel summaries out.

The scaling layer on top of :func:`repro.core.pipeline.compile_kernel`:

* :mod:`repro.batch.jobs` -- picklable :class:`BatchJob` units, the
  factories that mass-produce them (suites, kernel lists, random
  families, spec/config matrices), and :class:`ExperimentPointJob`
  (one point of a registered experiment as a cacheable work unit);
* :mod:`repro.batch.registry` -- the experiment registry:
  :class:`ExperimentDefinition` contracts that let any experiment
  shard as :class:`ExperimentPointJob` points;
* :mod:`repro.batch.digest` -- stable content digests that key the
  result cache;
* :mod:`repro.batch.cache` -- in-memory LRU, on-disk JSON, and sharded
  multi-host directory stores behind one backend protocol;
* :mod:`repro.batch.service` -- the remote cache service:
  :class:`CacheServer` fronts any store over TCP (the ``repro-agu
  cache-serve`` subcommand) and :class:`RemoteCache` is the matching
  ``tcp://host:port`` client backend;
* :mod:`repro.batch.engine` -- :class:`BatchCompiler` (cache
  orchestration, streaming ``as_completed``/``run_iter`` delivery),
  the aggregated :class:`BatchReport`, and the :class:`Executor` seam
  (:class:`InlineExecutor`, :class:`LocalPoolExecutor`,
  :func:`open_executor`) that decides where cache misses run;
* :mod:`repro.batch.cluster` -- the distributed execution service:
  :class:`JobServer` (the ``repro-agu job-serve`` subcommand) leases
  jobs to :class:`Worker` processes (``repro-agu worker``) on any
  number of hosts, and :class:`ClusterExecutor` is the matching
  ``tcp://host:port`` execution backend;
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
    JsonFileCache,
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
    JobResult,
    LocalPoolExecutor,
    execute_any,
    execute_job,
    open_executor,
)
from repro.batch.cluster import ClusterExecutor, JobServer, Worker
from repro.batch.service import CacheServer, RemoteCache
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
    "CacheServer",
    "CacheStats",
    "ClusterExecutor",
    "CompileService",
    "DIGEST_VERSION",
    "Executor",
    "ExperimentDefinition",
    "ExperimentPointJob",
    "ExperimentPointResult",
    "InMemoryLRUCache",
    "InlineExecutor",
    "JobResult",
    "JobServer",
    "JsonFileCache",
    "LocalPoolExecutor",
    "RemoteCache",
    "ServeClient",
    "ServeResult",
    "ServeStats",
    "ServerBusyError",
    "ShardedDirectoryCache",
    "TieredCache",
    "Worker",
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
