"""``repro-agu``: compile kernels, inspect graphs, run experiments.

Subcommands
-----------
compile
    Parse a kernel (file or stdin), run the two-phase allocator, print
    the allocation summary and the address-code listing, and verify by
    simulation.
graph
    Print the access graph of a kernel (ASCII or Graphviz DOT).
kernels
    List or show the bundled DSP kernel library.
experiment
    Run one of the paper's experiments and print its table(s).
batch
    Compile a whole kernel suite through the batch engine: process-pool
    fan-out, content-addressed result caching, aggregate report.
stats
    Run the EXP-S1 statistical grid: shorthand for ``ablate stats``
    with the grid axes, pattern/repeat counts, seed, and distribution
    as flags.
ablate
    Run any registered experiment (EXP-S1, EXP-S3, EXP-A1..A3, EXP-O1,
    EXP-X1..X3) sharded through the batch engine: per-point streaming
    progress, grid overrides (``--set``), worker fan-out, persistent
    (optionally shared) point caches, and zero-recompile cached
    re-runs.
cache-serve
    Run a remote result-cache server in front of any cache store, so
    batch/stats/ablate runs on other processes or hosts can share one
    store via ``--cache tcp://HOST:PORT``.
job-serve
    Run the distributed execution service: a job server that queues
    batch jobs and leases them to connected workers (with lease
    timeouts and requeue on worker death), so batch/stats/ablate runs
    can execute on many hosts via ``--executor tcp://HOST:PORT``.
worker
    Serve a running job server: lease jobs, execute them with the
    standard engine contract, stream results back; any number of
    workers on any number of hosts may serve one server.
serve
    Run the compile-as-a-service front door: a persistent TCP endpoint
    that answers single-kernel compile requests -- admission-controlled
    and micro-batched through the batch engine, with a warm in-process
    cache tier in front of any cache store and any executor backend.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from repro import __version__
from repro.agu.model import PRESETS, AguSpec
from repro.analysis import reports
from repro.analysis import render
from repro.analysis.experiments import (
    KernelComparisonConfig,
    run_kernel_comparison,
)
from repro.core.pipeline import compile_kernel
from repro.errors import ReproError
from repro.graph.access_graph import AccessGraph
from repro.graph.dot import graph_to_ascii, graph_to_dot
from repro.ir.parser import parse_kernel
from repro.workloads.kernels import KERNELS, get_kernel
from repro.workloads.random_patterns import DISTRIBUTIONS
from repro.workloads.suite import SUITES


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _spec_from_args(args: argparse.Namespace) -> AguSpec:
    if args.preset:
        base = PRESETS[args.preset]
        spec = base
        if args.registers is not None:
            spec = spec.with_registers(args.registers)
        if args.modify_range is not None:
            spec = spec.with_modify_range(args.modify_range)
        return spec
    return AguSpec(args.registers if args.registers is not None else 4,
                   args.modify_range if args.modify_range is not None else 1)


def _executor_from_args(args: argparse.Namespace):
    """The ``executor=`` value for a batch-engine entry point.

    ``--executor`` and a non-default ``-j/--workers`` are mutually
    exclusive (an executor spec carries its own parallelism width);
    reject the combination here with CLI-flavored wording instead of
    letting the engine's generic error surface.
    """
    if args.executor is not None and args.workers != 1:
        raise ReproError(
            "--executor and -j/--workers are mutually exclusive: an "
            "executor spec carries its own width (use --executor "
            f"local:{args.workers} for a local pool)")
    return args.executor


def _add_executor_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--executor", default=None,
                        help="execution backend: inline, local:N "
                             "(process pool), or tcp://HOST:PORT (a "
                             "running job-serve with workers); "
                             "overrides -j/--workers")


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="append structured scheduler events as "
                             "JSONL to PATH (analyze with "
                             "'repro-agu trace PATH'; default: off, "
                             "zero overhead)")


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-k", "--registers", type=int, default=None,
                        help="number of address registers (default 4)")
    parser.add_argument("-m", "--modify-range", type=int, default=None,
                        help="auto-modify range M (default 1)")
    parser.add_argument("--preset", choices=sorted(PRESETS), default=None,
                        help="start from a named AGU preset")


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_compile(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    spec = _spec_from_args(args)
    artifacts = compile_kernel(source, spec,
                               run_simulation=not args.no_sim,
                               n_iterations=args.iterations,
                               name=Path(args.file).stem
                               if args.file != "-" else "stdin")
    print(artifacts.allocation.summary())
    print()
    print(artifacts.listing)
    if artifacts.simulation is not None:
        sim = artifacts.simulation
        print(f"; simulation: {sim.n_accesses_verified} accesses verified "
              f"over {sim.n_iterations} iterations, "
              f"{sim.overhead_per_iteration} unit-cost instructions "
              f"per iteration")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    kernel = parse_kernel(source)
    modify_range = args.modify_range if args.modify_range is not None else 1
    graph = AccessGraph(kernel.pattern, modify_range)
    if args.dot:
        print(graph_to_dot(graph, include_inter=args.wrap), end="")
    else:
        print(graph_to_ascii(graph, include_inter=args.wrap), end="")
    return 0


def _cluster_trace_report(args: argparse.Namespace, text: str) -> int:
    """Analyze a JSONL scheduler trace (see :mod:`repro.batch.trace`)."""
    import io
    import json

    from repro.batch.trace import analyze_trace, read_trace

    trace = read_trace(io.StringIO(text))
    report = analyze_trace(trace,
                           straggler_factor=args.straggler_factor)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return 0
    print(report.render(top=args.top))
    if args.timeline:
        print()
        print(report.render_timeline())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.allocator import AddressRegisterAllocator
    from repro.workloads.trace import parse_trace

    text = _read_source(args.file)
    # Two trace dialects share this subcommand: JSONL scheduler traces
    # (every line a JSON object, so the file starts with '{') and the
    # legacy plain-text access traces (which never do).
    if text.lstrip().startswith("{"):
        return _cluster_trace_report(args, text)
    pattern = parse_trace(text)
    spec = _spec_from_args(args)
    allocator = AddressRegisterAllocator(spec)
    result = allocator.allocate(pattern)
    print(result.summary())
    if args.listing:
        from repro.agu.codegen import generate_address_code
        from repro.agu.listing import program_listing
        program = generate_address_code(pattern, result.cover, spec)
        print()
        print(program_listing(program,
                              title=f"trace {args.file}"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import ReportConfig, save_report_markdown

    config = ReportConfig(quick=args.quick)
    if args.only:
        config = ReportConfig(quick=args.quick,
                              include=tuple(args.only.split(",")))
    target = save_report_markdown(args.output, config)
    print(f"report written to {target}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    spec = _spec_from_args(args)
    artifacts = compile_kernel(source, spec,
                               n_iterations=args.iterations,
                               name=Path(args.file).stem
                               if args.file != "-" else "stdin")
    simulation = artifacts.simulation
    assert simulation is not None
    print(f"ok: {simulation.n_accesses_verified} addresses verified over "
          f"{simulation.n_iterations} iterations on {spec}; "
          f"{simulation.overhead_per_iteration} unit-cost "
          f"instruction(s)/iteration (model agrees)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.tables import Column, Table
    from repro.core.allocator import AddressRegisterAllocator

    source = _read_source(args.file)
    kernel = parse_kernel(source)
    modify_range = args.modify_range if args.modify_range is not None else 1
    table = Table([
        Column("K", "k"), Column("K~", "k_tilde"),
        Column("registers used", "used"),
        Column("cost/iter", "cost"),
    ], title=f"register-pressure sweep (M={modify_range}, "
             f"N={len(kernel.pattern)})")
    for k in range(args.max_registers, 0, -1):
        allocator = AddressRegisterAllocator(AguSpec(k, modify_range))
        result = allocator.allocate(kernel)
        table.add_row(k=k, k_tilde=result.k_tilde,
                      used=result.n_registers_used,
                      cost=result.total_cost)
    print(table.render())
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from repro.analysis.selftest import run_self_test

    report = run_self_test(n_instances=args.instances, seed=args.seed)
    print(report.summary())
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    if args.name is None:
        width = max(len(name) for name in KERNELS)
        for name in sorted(KERNELS):
            entry = KERNELS[name]
            print(f"{name:<{width}}  [{entry.category}] "
                  f"{entry.description}")
        return 0
    entry = get_kernel(args.name)
    print(f"// {entry.name} [{entry.category}]: {entry.description}")
    print(entry.source.strip())
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.batch import BatchCompiler, jobs_from_kernels, open_cache
    from repro.batch.jobs import jobs_from_suite

    spec = _spec_from_args(args)
    if args.kernels:
        names = [name.strip() for name in args.kernels.split(",")]
        jobs = jobs_from_kernels(names, spec,
                                 run_simulation=not args.no_sim,
                                 n_iterations=args.iterations,
                                 include_baseline=args.baseline)
    else:
        jobs = jobs_from_suite(args.suite, spec,
                               run_simulation=not args.no_sim,
                               n_iterations=args.iterations,
                               include_baseline=args.baseline)
    cache = open_cache(args.cache) if args.cache else None
    compiler = BatchCompiler(cache=cache, n_workers=args.workers,
                             executor=_executor_from_args(args),
                             trace=args.trace)
    report = compiler.compile(jobs)
    title = f"batch: {args.kernels or args.suite} on {spec}"
    print(report.render(title=title))
    print(report.summary())
    if args.json:
        path = reports.save_report(report, args.json)
        print(f"(report saved to {path})")
    return 0 if report.all_audits_ok else 1


def _cmd_cache_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.batch.cache import open_cache
    from repro.batch.service import CacheServer

    store = open_cache(args.store)
    try:
        server = CacheServer(store, args.host, args.port,
                             readonly=args.readonly,
                             idle_timeout=args.idle_timeout or None)
    except OSError as error:
        # Port in use, unresolvable host, privileged port, ...
        raise ReproError(
            f"cannot serve on tcp://{args.host}:{args.port}: {error}")
    print(f"serving cache store {args.store!r} at {server.endpoint}"
          f"{' (read-only)' if args.readonly else ''}; "
          f"stop with SIGINT/SIGTERM", flush=True)

    def terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.shutdown()
        print(f"cache server stopped; {store.stats}", flush=True)
    return 0


def _cmd_job_serve(args: argparse.Namespace) -> int:
    """Run the distributed execution service's job server."""
    import signal

    from repro.batch.cluster import JobServer

    try:
        server = JobServer(args.host, args.port,
                           lease_timeout=args.lease_timeout,
                           max_attempts=args.max_attempts,
                           idle_timeout=args.idle_timeout or None,
                           trace=args.trace)
    except OSError as error:
        # Port in use, unresolvable host, privileged port, ...
        raise ReproError(
            f"cannot serve on tcp://{args.host}:{args.port}: {error}")
    print(f"job server at {server.endpoint} (lease timeout "
          f"{args.lease_timeout:.0f} s); start workers with: "
          f"repro-agu worker {server.endpoint}; point runs at it with "
          f"--executor {server.endpoint}; stop with SIGINT/SIGTERM",
          flush=True)
    if args.trace:
        print(f"tracing scheduler events to {args.trace} "
              f"(analyze with: repro-agu trace {args.trace})", flush=True)

    def terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.shutdown()
        print(f"job server stopped; {server.stats}", flush=True)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the compile-as-a-service front door."""
    import signal

    from repro.batch.serving import CompileService

    try:
        service = CompileService(
            args.cache, host=args.host, port=args.port,
            executor=_executor_from_args(args), n_workers=args.workers,
            batch_window=args.batch_window, max_batch=args.max_batch,
            max_pending=args.max_pending,
            warm_capacity=args.warm_capacity,
            idle_timeout=args.idle_timeout or None)
    except OSError as error:
        # Port in use, unresolvable host, privileged port, ...
        raise ReproError(
            f"cannot serve on tcp://{args.host}:{args.port}: {error}")
    print(f"compile service at {service.endpoint} "
          f"(window {1000 * args.batch_window:.0f} ms, "
          f"max {args.max_pending} in flight); connect with "
          f"ServeClient({service.endpoint!r}); stop with "
          f"SIGINT/SIGTERM", flush=True)

    def terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, terminate)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        service.shutdown()
        print(f"compile service stopped; {service.stats}; cache: "
              f"{service.cache.stats}", flush=True)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Serve a job server: lease, execute, stream results back."""
    import signal

    from repro.batch.cluster import Worker, parse_endpoint

    host, port, _options = parse_endpoint(args.server, options={})

    def on_event(kind: str, detail: str) -> None:
        if args.quiet:
            return
        if kind == "connected":
            print(f"worker serving {detail}; leasing jobs "
                  f"(stop with SIGINT/SIGTERM)", flush=True)
        elif kind in ("executed", "failed"):
            print(f"[{kind}] {detail}", flush=True)

    worker = Worker(host, port, poll=args.poll, max_jobs=args.max_jobs,
                    idle_exit=args.idle_exit,
                    connect_retry=args.connect_retry, on_event=on_event,
                    trace=args.trace)

    def terminate(signum, frame):
        worker.stop()

    previous = signal.signal(signal.SIGTERM, terminate)
    try:
        worker.run()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        worker.close()
        print(f"worker stopped; {worker.jobs_executed} job(s) executed",
              flush=True)
    return 0


def _int_tuple(text: str) -> tuple[int, ...]:
    """Argparse ``type=``: a comma-separated int list (clean usage
    errors -- argparse turns the ValueError into one)."""
    return tuple(int(part) for part in text.split(",") if part.strip())


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.batch.registry import get_experiment

    definition = get_experiment("stats")
    config = definition.quick_config() if args.quick \
        else definition.default_config()
    overrides = {
        key: value for key, value in (
            ("n_values", args.n_values), ("m_values", args.m_values),
            ("k_values", args.k_values),
            ("patterns_per_config", args.patterns),
            ("naive_repeats", args.repeats), ("seed", args.seed),
            ("distribution", args.distribution))
        if value is not None}
    return _run_and_print(args, definition,
                          dataclasses.replace(config, **overrides),
                          unit="grid point")


def _convert_override(current, text: str):
    """Convert an ``--set`` value to the type of the field's current
    value (configs are frozen dataclasses with fully typed defaults)."""
    from enum import Enum

    if isinstance(current, bool):
        return text.lower() in ("1", "true", "yes", "on")
    if isinstance(current, Enum):
        return type(current)(text)
    if isinstance(current, int):
        return int(text)
    if isinstance(current, float):
        return float(text)
    if isinstance(current, tuple):
        element = current[0] if current else 0
        cast = str if isinstance(element, str) else \
            float if isinstance(element, float) else int
        return tuple(cast(part) for part in text.split(",")
                     if part.strip())
    if current is None:
        return int(text)
    return text


def _apply_overrides(config, assignments):
    """Apply ``field=value`` grid overrides to a config dataclass."""
    names = {field.name for field in dataclasses.fields(config)}
    overrides = {}
    for assignment in assignments:
        key, sep, text = assignment.partition("=")
        if not sep:
            raise ReproError(
                f"override {assignment!r} is not of the form "
                f"field=value")
        if key not in names:
            raise ReproError(
                f"unknown config field {key!r} (available: "
                f"{', '.join(sorted(names))})")
        try:
            overrides[key] = _convert_override(getattr(config, key), text)
        except ValueError:
            raise ReproError(
                f"invalid value {text!r} for config field {key!r}")
    return dataclasses.replace(config, **overrides)


def _cmd_ablate(args: argparse.Namespace) -> int:
    from repro.batch.registry import get_experiment

    definition = get_experiment(args.which)
    config = definition.quick_config() if args.quick \
        else definition.default_config()
    if args.set:
        config = _apply_overrides(config, args.set)
    return _run_and_print(args, definition, config)


def _run_and_print(args: argparse.Namespace, definition, config,
                   unit: str = "point") -> int:
    """Run a registered experiment sharded through the batch engine as
    the CLI flags ask (workers, executor, cache, progress, trace), then
    print its tables, headline, and point accounting."""
    from repro.analysis.experiments import run_experiment
    from repro.batch.cache import open_cache

    def progress(done: int, total: int, result) -> None:
        state = "cached" if result.from_cache \
            else f"{1000 * result.wall_seconds:.0f} ms"
        print(f"[{done}/{total}] {result.name} [{state}]", flush=True)

    summary = run_experiment(
        definition.experiment, config, n_workers=args.workers,
        cache=open_cache(args.cache) if args.cache else None,
        progress=None if args.no_progress else progress,
        executor=_executor_from_args(args), trace=args.trace)

    print()
    if definition.render is not None:
        for table in definition.render(summary):
            print(table.render())
    if definition.headline is not None:
        print(definition.headline(summary))
    n_points = summary.n_points_compiled + summary.n_points_cached
    print(f"{n_points} {unit}(s): "
          f"{summary.n_points_compiled} compiled, "
          f"{summary.n_points_cached} cache hit(s); "
          f"{summary.elapsed_seconds:.3f} s on "
          f"{args.executor or f'{args.workers} worker(s)'}")
    if args.json:
        path = reports.save_report(summary, args.json)
        print(f"(report saved to {path})")
    return 0


def _experiment_choices() -> tuple[str, ...]:
    """`experiment` subcommand ids: the suite-level EXP-K1 plus
    whatever the registry holds (a newly registered experiment appears
    here and under `ablate` automatically)."""
    from repro.batch.registry import registered_experiments

    return ("kernels",) + registered_experiments()


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.batch.registry import registered_experiments

    tables = []
    if args.which == "kernels":
        summary = run_kernel_comparison(KernelComparisonConfig())
        tables.append(render.kernel_table(summary))
        headline = (f"mean addressing-overhead reduction "
                    f"{summary.mean_overhead_reduction_pct:.1f} %, mean "
                    f"speed improvement "
                    f"{summary.mean_speed_improvement_pct:.1f} %")
    elif args.which in registered_experiments():
        # The registry is the single source of presentation truth for
        # the per-point experiments ('ablate' and 'experiment' agree).
        from repro.analysis.experiments import run_experiment
        from repro.batch.registry import get_experiment

        definition = get_experiment(args.which)
        config = definition.quick_config() if args.quick \
            else definition.default_config()
        summary = run_experiment(args.which, config)
        if definition.render is not None:
            tables.extend(definition.render(summary))
        headline = definition.headline(summary) \
            if definition.headline is not None else ""
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown experiment {args.which!r}")

    for table in tables:
        print(table.render())
    if headline:
        print(headline)
    if args.json:
        path = reports.save_report(summary, args.json)
        print(f"(report saved to {path})")
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-agu`` argument parser (every subcommand).
    """
    parser = argparse.ArgumentParser(
        prog="repro-agu",
        description="Register-constrained address computation for DSP "
                    "programs (Basu/Leupers/Marwedel, DATE 1998)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    compile_parser = commands.add_parser(
        "compile", help="allocate registers and emit address code")
    compile_parser.add_argument("file", help="kernel source ('-' = stdin)")
    _add_spec_arguments(compile_parser)
    compile_parser.add_argument("--no-sim", action="store_true",
                                help="skip the simulator audit")
    compile_parser.add_argument("--iterations", type=int, default=None,
                                help="simulated iterations (symbolic "
                                     "bounds default to 16)")
    compile_parser.set_defaults(func=_cmd_compile)

    graph_parser = commands.add_parser(
        "graph", help="print a kernel's access graph")
    graph_parser.add_argument("file", help="kernel source ('-' = stdin)")
    graph_parser.add_argument("-m", "--modify-range", type=int,
                              default=None, help="auto-modify range M")
    graph_parser.add_argument("--dot", action="store_true",
                              help="emit Graphviz DOT instead of ASCII")
    graph_parser.add_argument("--wrap", action="store_true",
                              help="include inter-iteration edges")
    graph_parser.set_defaults(func=_cmd_graph)

    kernels_parser = commands.add_parser(
        "kernels", help="list or show the bundled DSP kernels")
    kernels_parser.add_argument("name", nargs="?", default=None,
                                help="kernel to show (omit to list)")
    kernels_parser.set_defaults(func=_cmd_kernels)

    experiment_parser = commands.add_parser(
        "experiment", help="run one of the paper's experiments")
    experiment_parser.add_argument("which",
                                   choices=_experiment_choices())
    experiment_parser.add_argument("--quick", action="store_true",
                                   help="scaled-down grid (registered "
                                        "experiments)")
    experiment_parser.add_argument("--json", default=None,
                                   help="also save the summary as JSON")
    experiment_parser.set_defaults(func=_cmd_experiment)

    batch_parser = commands.add_parser(
        "batch", help="compile a kernel suite through the batch engine")
    batch_parser.add_argument("--suite", default="core8",
                              help="kernel suite to compile (default "
                                   "core8; available: "
                                   f"{', '.join(sorted(SUITES))})")
    batch_parser.add_argument("--kernels", default=None,
                              help="comma-separated kernel names "
                                   "(overrides --suite; see the "
                                   "'kernels' subcommand)")
    _add_spec_arguments(batch_parser)
    batch_parser.add_argument("-j", "--workers", type=int, default=1,
                              help="process-pool width (default 1: "
                                   "compile inline)")
    _add_executor_argument(batch_parser)
    batch_parser.add_argument("--cache", default=None,
                              help="result cache spec: PATH.json, a "
                                   "directory, or tcp://HOST:PORT (a "
                                   "running cache-serve); re-runs skip "
                                   "recompilation")
    batch_parser.add_argument("--iterations", type=int, default=None,
                              help="simulated iterations per kernel")
    batch_parser.add_argument("--no-sim", action="store_true",
                              help="skip the simulator audits")
    batch_parser.add_argument("--baseline", action="store_true",
                              help="also measure the unoptimized "
                                   "baseline overhead")
    batch_parser.add_argument("--json", default=None,
                              help="also save the report as JSON")
    _add_trace_argument(batch_parser)
    batch_parser.set_defaults(func=_cmd_batch)

    stats_parser = commands.add_parser(
        "stats", help="EXP-S1 statistical grid, sharded through the "
                      "batch engine with streaming progress")
    stats_parser.add_argument("--quick", action="store_true",
                              help="start from the scaled-down grid")
    stats_parser.add_argument("--n", dest="n_values", type=_int_tuple,
                              default=None,
                              help="comma-separated N values")
    stats_parser.add_argument("--m", dest="m_values", type=_int_tuple,
                              default=None,
                              help="comma-separated M values")
    stats_parser.add_argument("--k", dest="k_values", type=_int_tuple,
                              default=None,
                              help="comma-separated K values")
    stats_parser.add_argument("--patterns", type=int, default=None,
                              help="random patterns per grid point")
    stats_parser.add_argument("--repeats", type=int, default=None,
                              help="naive merge orders per pattern")
    stats_parser.add_argument("--seed", type=int, default=None,
                              help="base seed of the grid")
    stats_parser.add_argument("--distribution", default=None,
                              choices=sorted(DISTRIBUTIONS),
                              help="offset distribution")
    stats_parser.add_argument("-j", "--workers", type=int, default=1,
                              help="process-pool width (default 1: "
                                   "compute inline)")
    _add_executor_argument(stats_parser)
    stats_parser.add_argument("--cache", default=None,
                              help="grid-point cache: PATH.json (single "
                                   "JSON store), a directory (sharded "
                                   "store, shareable across hosts), or "
                                   "tcp://HOST:PORT (a running "
                                   "cache-serve); re-runs skip solved "
                                   "points")
    stats_parser.add_argument("--no-progress", action="store_true",
                              help="suppress per-point streaming output")
    stats_parser.add_argument("--json", default=None,
                              help="also save the summary as JSON")
    _add_trace_argument(stats_parser)
    stats_parser.set_defaults(func=_cmd_stats)

    from repro.batch.registry import get_experiment, registered_experiments

    ablate_parser = commands.add_parser(
        "ablate", help="run a registered experiment sharded through "
                       "the batch engine")
    ablate_parser.add_argument(
        "which", choices=registered_experiments(),
        help="experiment id; descriptions: " + "; ".join(
            f"{name} = {get_experiment(name).title}"
            for name in registered_experiments()))
    ablate_parser.add_argument("--quick", action="store_true",
                               help="scaled-down grid for smokes and CI")
    ablate_parser.add_argument("--set", action="append", default=[],
                               metavar="FIELD=VALUE",
                               help="override a config field (repeatable; "
                                    "grid axes take comma-separated "
                                    "values, e.g. --set n_values=8,12)")
    ablate_parser.add_argument("-j", "--workers", type=int, default=1,
                               help="process-pool width (default 1: "
                                    "compute inline)")
    _add_executor_argument(ablate_parser)
    ablate_parser.add_argument("--cache", default=None,
                               help="point cache: PATH.json (single JSON "
                                    "store), a directory (sharded "
                                    "store, shareable across hosts), or "
                                    "tcp://HOST:PORT (a running "
                                    "cache-serve); re-runs skip solved "
                                    "points")
    ablate_parser.add_argument("--no-progress", action="store_true",
                               help="suppress per-point streaming output")
    ablate_parser.add_argument("--json", default=None,
                               help="also save the summary as JSON")
    _add_trace_argument(ablate_parser)
    ablate_parser.set_defaults(func=_cmd_ablate)

    serve_parser = commands.add_parser(
        "cache-serve", help="serve a shared result cache over TCP for "
                            "multi-process / multi-host runs")
    serve_parser.add_argument("--store", default="mem:65536",
                              help="backing store spec: mem[:CAPACITY], "
                                   "PATH.json, json:PATH, or a directory "
                                   "(default mem:65536)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1; "
                                   "use 0.0.0.0 to serve other hosts)")
    serve_parser.add_argument("--port", type=int, default=8741,
                              help="TCP port (default 8741; 0 picks an "
                                   "ephemeral port, printed on startup)")
    serve_parser.add_argument("--readonly", action="store_true",
                              help="serve cache hits but reject stores "
                                   "(clients keep working and skip "
                                   "their puts)")
    serve_parser.add_argument("--idle-timeout", type=float, default=300.0,
                              help="seconds an idle connection may sit "
                                   "between requests before the server "
                                   "closes it (default 300; 0 disables)")
    serve_parser.set_defaults(func=_cmd_cache_serve)

    job_serve_parser = commands.add_parser(
        "job-serve", help="serve a job queue to a fleet of workers for "
                          "multi-host batch execution")
    job_serve_parser.add_argument("--host", default="127.0.0.1",
                                  help="bind address (default "
                                       "127.0.0.1; use 0.0.0.0 to "
                                       "serve other hosts)")
    job_serve_parser.add_argument("--port", type=int, default=8742,
                                  help="TCP port (default 8742; 0 "
                                       "picks an ephemeral port, "
                                       "printed on startup)")
    job_serve_parser.add_argument("--lease-timeout", type=float,
                                  default=60.0,
                                  help="seconds a worker may hold a "
                                       "job before it is requeued "
                                       "(default 60; size above the "
                                       "slowest expected job)")
    job_serve_parser.add_argument("--max-attempts", type=int, default=3,
                                  help="leases per job before the "
                                       "server gives up on it "
                                       "(default 3)")
    job_serve_parser.add_argument("--idle-timeout", type=float,
                                  default=600.0,
                                  help="seconds an idle connection may "
                                       "sit between frames before the "
                                       "server closes it (default 600; "
                                       "0 disables; size above the "
                                       "slowest job and the lease "
                                       "timeout)")
    _add_trace_argument(job_serve_parser)
    job_serve_parser.set_defaults(func=_cmd_job_serve)

    worker_parser = commands.add_parser(
        "worker", help="execute jobs leased from a running job-serve")
    worker_parser.add_argument("server",
                               help="the job server, as tcp://HOST:PORT "
                                    "(printed by job-serve on startup)")
    worker_parser.add_argument("--poll", type=float, default=2.0,
                               help="seconds one lease request waits "
                                    "for work before re-polling "
                                    "(default 2)")
    worker_parser.add_argument("--max-jobs", type=int, default=None,
                               help="exit after executing this many "
                                    "jobs (default: run until "
                                    "stopped)")
    worker_parser.add_argument("--idle-exit", type=float, default=None,
                               help="exit after this many consecutive "
                                    "idle seconds (default: run until "
                                    "stopped)")
    worker_parser.add_argument("--connect-retry", type=float,
                               default=10.0,
                               help="seconds to keep retrying the "
                                    "initial connection, so workers "
                                    "may start before their server "
                                    "(default 10)")
    worker_parser.add_argument("--quiet", action="store_true",
                               help="suppress per-job log lines")
    _add_trace_argument(worker_parser)
    worker_parser.set_defaults(func=_cmd_worker)

    compile_serve_parser = commands.add_parser(
        "serve", help="serve single-kernel compile requests over TCP "
                      "(compile-as-a-service front door)")
    compile_serve_parser.add_argument(
        "--cache", default=None,
        help="result store behind the warm tier: PATH.json, a "
             "directory, or tcp://HOST:PORT (a running cache-serve); "
             "default: warm in-process LRU only")
    compile_serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; use 0.0.0.0 to serve "
             "other hosts)")
    compile_serve_parser.add_argument(
        "--port", type=int, default=8743,
        help="TCP port (default 8743; 0 picks an ephemeral port, "
             "printed on startup)")
    compile_serve_parser.add_argument(
        "-j", "--workers", type=int, default=1,
        help="process-pool width for cache misses (default 1: "
             "compile inline)")
    _add_executor_argument(compile_serve_parser)
    compile_serve_parser.add_argument(
        "--batch-window", type=float, default=0.005,
        help="seconds to wait for concurrent requests to coalesce "
             "into one engine batch (default 0.005)")
    compile_serve_parser.add_argument(
        "--max-batch", type=int, default=16,
        help="requests per micro-batch at most (default 16)")
    compile_serve_parser.add_argument(
        "--max-pending", type=int, default=64,
        help="bound of the in-flight queue; further requests get an "
             "explicit busy rejection (default 64)")
    compile_serve_parser.add_argument(
        "--warm-capacity", type=int, default=4096,
        help="entries in the warm in-process cache tier (default 4096)")
    compile_serve_parser.add_argument(
        "--idle-timeout", type=float, default=300.0,
        help="seconds an idle connection may sit between requests "
             "before the server closes it (default 300; 0 disables)")
    compile_serve_parser.set_defaults(func=_cmd_serve)

    verify_parser = commands.add_parser(
        "verify", help="compile a kernel and fail on any audit mismatch")
    verify_parser.add_argument("file", help="kernel source ('-' = stdin)")
    _add_spec_arguments(verify_parser)
    verify_parser.add_argument("--iterations", type=int, default=None)
    verify_parser.set_defaults(func=_cmd_verify)

    sweep_parser = commands.add_parser(
        "sweep", help="register-pressure sweep for a kernel")
    sweep_parser.add_argument("file", help="kernel source ('-' = stdin)")
    sweep_parser.add_argument("-m", "--modify-range", type=int,
                              default=None)
    sweep_parser.add_argument("--max-registers", type=int, default=8)
    sweep_parser.set_defaults(func=_cmd_sweep)

    selftest_parser = commands.add_parser(
        "selftest", help="random end-to-end audit of the whole pipeline")
    selftest_parser.add_argument("--instances", type=int, default=100)
    selftest_parser.add_argument("--seed", type=int, default=0)
    selftest_parser.set_defaults(func=_cmd_selftest)

    trace_parser = commands.add_parser(
        "trace", help="allocate registers for a plain-text access "
                      "trace, or analyze a JSONL scheduler trace "
                      "(from --trace; auto-detected)")
    trace_parser.add_argument("file", help="trace file ('-' = stdin)")
    _add_spec_arguments(trace_parser)
    trace_parser.add_argument("--listing", action="store_true",
                              help="also print the address-code listing")
    trace_parser.add_argument("--json", action="store_true",
                              help="scheduler traces: emit the report "
                                   "as JSON instead of text")
    trace_parser.add_argument("--top", type=int, default=5,
                              help="scheduler traces: stragglers and "
                                   "critical-path jobs to list "
                                   "(default 5)")
    trace_parser.add_argument("--straggler-factor", type=float,
                              default=2.0,
                              help="scheduler traces: flag jobs slower "
                                   "than this multiple of the median "
                                   "execution time (default 2.0)")
    trace_parser.add_argument("--timeline", action="store_true",
                              help="scheduler traces: also render the "
                                   "per-worker busy/idle timeline")
    trace_parser.set_defaults(func=_cmd_trace)

    report_parser = commands.add_parser(
        "report", help="run all experiments into one Markdown report")
    report_parser.add_argument("-o", "--output",
                               default="results/REPORT.md")
    report_parser.add_argument("--quick", action="store_true",
                               help="scaled-down statistical grid")
    report_parser.add_argument("--only", default=None,
                               help="comma-separated experiment keys "
                                    "(e.g. 's1,k1,x2')")
    report_parser.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
