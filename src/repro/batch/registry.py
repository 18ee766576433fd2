"""The experiment registry: named per-point experiment definitions.

An :class:`ExperimentDefinition` is the contract that lets the batch
engine shard an experiment without knowing anything about it:

* ``enumerate_points(config)`` lowers a config to an ordered list of
  JSON-able parameter dicts -- one per independently computable,
  cacheable point.  Everything a point's outcome depends on (grid
  coordinates, *derived seeds*, allocator/solver settings) must appear
  in its params, because the params are the point's cache identity
  (see :meth:`~repro.batch.jobs.ExperimentPointJob.cache_key`).
* ``run_point(params)`` computes one point and returns its measured
  values as a JSON-able dict.  It must be a pure function of its
  params: no hidden config, no shared RNG state.
* ``assemble(config, results)`` rebuilds the experiment's summary
  dataclass from the streamed
  :class:`~repro.batch.jobs.ExperimentPointResult`s (in enumeration
  order) -- bit-identically, whatever mix of workers and cache hits
  produced them.

Definitions register themselves by id via :func:`register_experiment`
(the standard ones live in :mod:`repro.analysis.points`, imported on
first lookup, so worker processes resolve ids without any setup), and
:func:`experiment_point_jobs` turns (definition, config) into the
picklable jobs :class:`~repro.batch.engine.BatchCompiler` runs.

Adding a new experiment is: write the three functions above, wrap them
in an :class:`ExperimentDefinition`, call :func:`register_experiment`
at module import, and make sure that module is reachable from the
autoload list.  The generic runner
(:func:`repro.analysis.experiments.run_experiment`), the ``repro-agu
ablate`` CLI, worker fan-out, and every cache backend then work
unchanged.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import BatchError

#: Modules imported on first registry lookup.  This is what lets a
#: freshly spawned worker process (which only unpickles an
#: :class:`~repro.batch.jobs.ExperimentPointJob`) resolve experiment
#: ids without explicit registration calls.
AUTOLOAD_MODULES = ("repro.analysis.points",)


@dataclass(frozen=True)
class ExperimentDefinition:
    """Everything the engine and CLI need to shard one experiment."""

    #: Stable registry id (also the CLI name); enters every point
    #: digest, so renaming an experiment invalidates its cache entries.
    experiment: str
    #: One-line human description (CLI listings).
    title: str
    #: The frozen config dataclass this experiment is parameterized by.
    config_type: type
    #: The experiment's full-size default configuration.
    default_config: Callable[[], Any]
    #: A scaled-down configuration for smokes, tests, and CI.
    quick_config: Callable[[], Any]
    #: config -> ordered JSON-able params dicts, one per point.
    enumerate_points: Callable[[Any], Sequence[dict]]
    #: params -> JSON-able measured values for one point.
    run_point: Callable[[dict], dict]
    #: (config, results in enumeration order) -> summary dataclass.
    assemble: Callable[[Any, Sequence[Any]], Any]
    #: summary -> display label per point params (optional).
    point_label: Callable[[dict], str] | None = None
    #: summary -> renderable tables (optional; used by the CLI).
    render: Callable[[Any], tuple] | None = None
    #: summary -> one-line headline (optional; used by the CLI).
    headline: Callable[[Any], str] | None = None
    #: params -> advisory size estimate (bigger = slower) for
    #: size-aware cluster scheduling (optional; see
    #: :meth:`repro.batch.jobs.ExperimentPointJob.size_hint` for the
    #: generic fallback used when this is ``None``).
    size_hint: Callable[[dict], float | None] | None = None


_REGISTRY: dict[str, ExperimentDefinition] = {}
_autoloaded = False


def _autoload() -> None:
    global _autoloaded
    if _autoloaded:
        return
    for module in AUTOLOAD_MODULES:
        importlib.import_module(module)
    # Only mark success once every module imported: a failed import
    # must surface its real error again on the next lookup instead of
    # being cached as an empty registry.
    _autoloaded = True


def register_experiment(
        definition: ExperimentDefinition) -> ExperimentDefinition:
    """Add a definition to the registry.

    Re-registering an id overwrites the previous definition (latest
    wins), so re-imports -- a reloaded notebook module, or an autoload
    retry after a partially failed import -- stay harmless.
    """
    _REGISTRY[definition.experiment] = definition
    return definition


def registered_experiments() -> tuple[str, ...]:
    """All registered experiment ids, sorted."""
    _autoload()
    return tuple(sorted(_REGISTRY))


def get_experiment(experiment: str) -> ExperimentDefinition:
    """Look an experiment up by id (imports the standard set first)."""
    _autoload()
    try:
        return _REGISTRY[experiment]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise BatchError(
            f"unknown experiment {experiment!r} (registered: {known})")


def experiment_point_jobs(experiment: str | ExperimentDefinition,
                          config: Any = None) -> list:
    """The experiment's points as picklable, cacheable batch jobs.

    ``config`` defaults to the definition's full-size configuration.
    Job order is enumeration order; summaries are reassembled in it.
    """
    from repro.batch.jobs import ExperimentPointJob

    definition = experiment if isinstance(experiment,
                                          ExperimentDefinition) \
        else get_experiment(experiment)
    if config is None:
        config = definition.default_config()
    if not isinstance(config, definition.config_type):
        raise BatchError(
            f"experiment {definition.experiment!r} expects a "
            f"{definition.config_type.__name__}, got "
            f"{type(config).__name__}")
    jobs = []
    for index, params in enumerate(definition.enumerate_points(config)):
        # Catch empty-work configs up front with the offending knob
        # named, instead of dying mid-experiment on an empty mean.
        for count_key in ("patterns", "sequences", "naive_repeats"):
            if count_key in params and params[count_key] < 1:
                raise BatchError(
                    f"experiment {definition.experiment!r}: "
                    f"{count_key} per point must be >= 1, got "
                    f"{params[count_key]}")
        label = definition.point_label(params) \
            if definition.point_label is not None else f"p{index:03d}"
        jobs.append(ExperimentPointJob(
            name=f"{definition.experiment}-{label}",
            experiment=definition.experiment, index=index,
            params=params))
    if not jobs:
        raise BatchError(
            f"experiment {definition.experiment!r}: the configuration "
            f"enumerates zero points -- check the grid axes")
    return jobs
