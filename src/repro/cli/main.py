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
    Run any experiment of the table (EXP-S1, EXP-S3, EXP-K1, EXP-A1..A3,
    EXP-O1, EXP-X1..X3) sharded through the batch engine and print its
    tables: per-point streaming progress, config overrides (``--set``),
    process-pool fan-out (``--executor local:N``), persistent
    (optionally shared) point caches, and zero-recompile cached re-runs.
batch
    Compile a whole kernel suite through the batch engine: process-pool
    fan-out, content-addressed result caching, aggregate report.
report
    Run the table's experiments (all, or the ``--only`` ids) into one
    Markdown report, through the same definitions as ``experiment``.
serve
    Run the compile-as-a-service front door: a persistent TCP endpoint
    that answers single-kernel compile requests -- admission-controlled
    and micro-batched through the batch engine (compiling inline on
    the service process), with a warm in-process cache tier in front
    of any cache store.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing
from pathlib import Path

from repro import __version__
from repro.agu.model import PRESETS, AguSpec
from repro.analysis import reports
from repro.core.pipeline import compile_kernel
from repro.errors import ReproError
from repro.graph.access_graph import AccessGraph
from repro.graph.dot import graph_to_ascii, graph_to_dot
from repro.ir.parser import parse_kernel
from repro.workloads.kernels import KERNELS, get_kernel
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


def _add_executor_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--executor", default=None,
                        help="execution backend: inline (the "
                             "default) or local:N (an N-process pool)")


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write the engine's per-job events as "
                             "JSONL to PATH, replacing any earlier "
                             "trace there (analyze with 'repro-agu "
                             "trace PATH'; default: off, zero "
                             "overhead)")


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
def _at_least_one(value: int | None, option: str) -> int | None:
    """``option``'s ``value``, refusing a count that would check
    nothing."""
    if value is not None and value < 1:
        raise ReproError(f"{option} must be >= 1, got {value}")
    return value


def _cmd_compile(args: argparse.Namespace) -> int:
    n_iterations = _at_least_one(args.iterations, "--iterations")
    source = _read_source(args.file)
    spec = _spec_from_args(args)
    artifacts = compile_kernel(source, spec,
                               run_simulation=not args.no_sim,
                               n_iterations=n_iterations,
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


def _engine_trace_report(args: argparse.Namespace, text: str) -> int:
    """Analyze a JSONL engine trace (see :mod:`repro.batch.trace`)."""
    import io
    import json

    from repro.batch.trace import analyze_trace, read_trace

    report = analyze_trace(read_trace(io.StringIO(text)))
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        return 0
    print(report.render())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.allocator import AddressRegisterAllocator
    from repro.workloads.trace import parse_trace

    text = _read_source(args.file)
    # Two trace dialects share this subcommand: JSONL engine traces
    # (every line a JSON object, so the file starts with '{') and the
    # legacy plain-text access traces (which never do).
    if text.lstrip().startswith("{"):
        return _engine_trace_report(args, text)
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
    n_iterations = _at_least_one(args.iterations, "--iterations")
    source = _read_source(args.file)
    spec = _spec_from_args(args)
    artifacts = compile_kernel(source, spec,
                               n_iterations=n_iterations,
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
    from repro.core.allocator import AddressRegisterAllocator
    from repro.tables import Column, Table

    max_registers = _at_least_one(args.max_registers, "--max-registers")
    source = _read_source(args.file)
    kernel = parse_kernel(source)
    modify_range = args.modify_range if args.modify_range is not None else 1
    table = Table([
        Column("K", "k"), Column("K~", "k_tilde"),
        Column("registers used", "used"),
        Column("cost/iter", "cost"),
    ], title=f"register-pressure sweep (M={modify_range}, "
             f"N={len(kernel.pattern)})")
    for k in range(max_registers, 0, -1):
        allocator = AddressRegisterAllocator(AguSpec(k, modify_range))
        result = allocator.allocate(kernel)
        table.add_row(k=k, k_tilde=result.k_tilde,
                      used=result.n_registers_used,
                      cost=result.total_cost)
    print(table.render())
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from repro.analysis.selftest import run_self_test

    report = run_self_test(
        n_instances=_at_least_one(args.instances, "--instances"),
        seed=args.seed)
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
    compiler = BatchCompiler(cache=cache, executor=args.executor,
                             trace=args.trace)
    try:
        report = compiler.compile(jobs)
    finally:
        compiler.close()
    title = f"batch: {args.kernels or args.suite} on {spec}"
    print(report.render(title=title))
    print(report.summary())
    if args.json:
        path = reports.save_report(report, args.json)
        print(f"(report saved to {path})")
    return 0 if report.all_audits_ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the compile-as-a-service front door."""
    import signal

    from repro.batch.serving import CompileService

    try:
        service = CompileService(
            args.cache, host=args.host, port=args.port,
            batch_window=args.batch_window, max_batch=args.max_batch,
            max_pending=args.max_pending,
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


def _convert_override(current, text: str, declared: type):
    """Convert an ``--set`` value to the type of the field's current
    value (configs are frozen dataclasses with fully typed defaults; an
    empty tuple takes its element type from ``declared``, the field's
    annotation).  Structured fields such as an ``AguSpec`` cannot be
    set from text."""
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
        element = type(current[0]) if current \
            else typing.get_args(declared)[0]
        cast = element if element in (str, float) else int
        return tuple(cast(part) for part in text.split(",")
                     if part.strip())
    if current is None:
        return int(text)
    if isinstance(current, str):
        return text
    raise ValueError(f"a {type(current).__name__} cannot be set from text")


def _apply_overrides(config, assignments):
    """Apply ``field=value`` overrides to a config dataclass."""
    declared = typing.get_type_hints(type(config))
    overrides = {}
    for assignment in assignments:
        key, sep, text = assignment.partition("=")
        if not sep:
            raise ReproError(
                f"override {assignment!r} is not of the form "
                f"field=value")
        if key not in declared:
            raise ReproError(
                f"unknown config field {key!r} (available: "
                f"{', '.join(sorted(declared))})")
        try:
            overrides[key] = _convert_override(getattr(config, key), text,
                                               declared[key])
        except ValueError:
            raise ReproError(
                f"invalid value {text!r} for config field {key!r}")
    return dataclasses.replace(config, **overrides)


def _cmd_experiment(args: argparse.Namespace) -> int:
    """Run an experiment of the table sharded through the batch engine
    as the CLI flags ask (config, executor, cache, progress, trace),
    then print its tables, headline, and point accounting."""
    from repro.analysis.experiments import run_experiment
    from repro.analysis.points import get_experiment
    from repro.batch.cache import open_cache

    definition = get_experiment(args.which)
    config = definition.quick_config() if args.quick \
        else definition.default_config()
    if args.set:
        config = _apply_overrides(config, args.set)

    def progress(done: int, total: int, result) -> None:
        state = "cached" if result.from_cache \
            else f"{1000 * result.wall_seconds:.0f} ms"
        print(f"[{done}/{total}] {result.name} [{state}]", flush=True)

    summary = run_experiment(
        definition.experiment, config,
        cache=open_cache(args.cache) if args.cache else None,
        progress=None if args.no_progress else progress,
        executor=args.executor, trace=args.trace)

    print()
    for table in definition.render(summary):
        print(table.render())
    if definition.headline is not None:
        print(definition.headline(summary))
    n_points = summary.n_points_compiled + summary.n_points_cached
    print(f"{n_points} point(s): "
          f"{summary.n_points_compiled} compiled, "
          f"{summary.n_points_cached} cache hit(s); "
          f"{summary.elapsed_seconds:.3f} s on "
          f"{args.executor or 'inline'}")
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

    from repro.analysis.points import get_experiment, registered_experiments

    experiment_parser = commands.add_parser(
        "experiment", help="run an experiment sharded through the batch "
                           "engine")
    experiment_parser.add_argument(
        "which", choices=registered_experiments(),
        help="experiment id; descriptions: " + "; ".join(
            f"{name} = {get_experiment(name).title}"
            for name in registered_experiments()))
    experiment_parser.add_argument("--quick", action="store_true",
                                   help="scaled-down config for smokes "
                                        "and CI")
    experiment_parser.add_argument(
        "--set", action="append", default=[], metavar="FIELD=VALUE",
        help="override a config field (repeatable; tuple fields take "
             "comma-separated values, e.g. --set n_values=8,12)")
    _add_executor_argument(experiment_parser)
    experiment_parser.add_argument("--cache", default=None,
                                   help="point cache: a directory "
                                        "(dir:PATH; sharded store, "
                                        "shareable across processes "
                                        "and hosts); re-runs skip "
                                        "solved points")
    experiment_parser.add_argument("--no-progress", action="store_true",
                                   help="suppress per-point streaming "
                                        "output")
    experiment_parser.add_argument("--json", default=None,
                                   help="also save the summary as JSON")
    _add_trace_argument(experiment_parser)
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
    _add_executor_argument(batch_parser)
    batch_parser.add_argument("--cache", default=None,
                              help="result cache spec: a directory "
                                   "(dir:PATH; shareable by concurrent "
                                   "runs) or mem[:CAPACITY]; re-runs "
                                   "skip recompilation")
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

    compile_serve_parser = commands.add_parser(
        "serve", help="serve single-kernel compile requests over TCP "
                      "(compile-as-a-service front door)")
    compile_serve_parser.add_argument(
        "--cache", default=None,
        help="result store behind the warm tier: a directory "
             "(dir:PATH); default: warm in-process LRU only")
    compile_serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; use 0.0.0.0 to serve "
             "other hosts)")
    compile_serve_parser.add_argument(
        "--port", type=int, default=8743,
        help="TCP port (default 8743; 0 picks an ephemeral port, "
             "printed on startup)")
    compile_serve_parser.add_argument(
        "--batch-window", type=float, default=0.005,
        help="seconds to wait at most for concurrent requests to "
             "coalesce into one engine batch; the dispatcher waits "
             "only while another open connection could still join the "
             "batch (default 0.005)")
    compile_serve_parser.add_argument(
        "--max-batch", type=int, default=16,
        help="requests per micro-batch at most (default 16)")
    compile_serve_parser.add_argument(
        "--max-pending", type=int, default=64,
        help="bound of the in-flight queue; further requests get an "
             "explicit busy rejection (default 64)")
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
                      "trace, or analyze a JSONL engine trace "
                      "(from --trace; auto-detected)")
    trace_parser.add_argument("file", help="trace file ('-' = stdin)")
    _add_spec_arguments(trace_parser)
    trace_parser.add_argument("--listing", action="store_true",
                              help="also print the address-code listing")
    trace_parser.add_argument("--json", action="store_true",
                              help="engine traces: emit the report "
                                   "as JSON instead of text")
    trace_parser.set_defaults(func=_cmd_trace)

    report_parser = commands.add_parser(
        "report", help="run all experiments into one Markdown report")
    report_parser.add_argument("-o", "--output",
                               default="results/REPORT.md")
    report_parser.add_argument("--quick", action="store_true",
                               help="each experiment's scaled-down "
                                    "config")
    report_parser.add_argument("--only", default=None,
                               help="comma-separated experiment ids "
                                    "(e.g. 'stats,kernels,reorder')")
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
