"""In-memory spans around the pipeline's layers, for traced runs only.

:func:`install` replaces functions at the sites where the pipeline
imports them (``repro.core.pipeline.parse_kernel``,
``repro.core.allocator.minimum_zero_cost_cover``, ...) and a few
methods (the result caches, ``BatchCompiler.compile``,
``CompileService.handle_request``) with wrappers that record one span
per call.  Nothing under ``src/`` is edited; an untraced run never calls
:func:`install` and pays nothing.

A span is ``(name, start_ns, end_ns, self_cpu_ns, attrs)``.  Start and
end come from ``time.perf_counter_ns`` -- ``CLOCK_MONOTONIC`` on Linux,
shared by every process, so a client can cut a server's spans into its
own rounds.  Self time is the calling thread's CPU time
(``time.thread_time_ns``) minus that of the spans nested inside it on
the same thread.  CPU rather than wall time keeps self times additive
across the serve process's threads: with one interpreter lock, their
sum cannot exceed the wall time of the round.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
from time import perf_counter_ns, thread_time_ns

#: Span names whose self times are summed into ``trace.self_sum_ms``,
#: mapped to the metric they report as.
SELF_SPANS = {
    "parse": "parse.self_ms",
    "access_graph": "access_graph.self_ms",
    "pathcover.exact": "pathcover.self_ms",
    "pathcover.greedy": "pathcover.self_ms",
    "pathcover.intra": "pathcover.self_ms",
    "merge": "merge.self_ms",
    "naive_merge": "naive_merge.self_ms",
    "codegen": "codegen.self_ms",
    "listing": "listing.self_ms",
    "simulate": "simulate.self_ms",
    "digest": "digest.self_ms",
    "cache.get": "cache.get_ms",
    "cache.put": "cache.put_ms",
    "engine.compile": "engine.overhead_ms",
}


class _Frame:
    __slots__ = ("name", "child_cpu", "attrs")

    def __init__(self, name: str):
        self.name = name
        self.child_cpu = 0
        self.attrs: dict | None = None


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()

    def stack(self) -> list[_Frame]:
        """The calling thread's open spans, outermost first."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, count=None):
        """Run ``fn`` inside a span; ``count(result, args)`` may return
        counters to attach to it."""
        stack = self.stack()
        frame = _Frame(name)
        stack.append(frame)
        start = perf_counter_ns()
        cpu_start = thread_time_ns()
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                extra = count(result, args)
                frame.attrs = extra if frame.attrs is None \
                    else {**frame.attrs, **extra}
            return result
        finally:
            cpu = thread_time_ns() - cpu_start
            end = perf_counter_ns()
            stack.pop()
            if stack:
                stack[-1].child_cpu += cpu
            self.spans.append((name, start, end, cpu - frame.child_cpu,
                               frame.attrs))

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and start afresh."""
        spans, self.spans = self.spans, []
        return spans

    def dump(self, path: str) -> None:
        """Write every span as one JSON list (the serve launcher's way
        of handing spans to the benchmark at exit)."""
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.spans, stream)


def _wrap(recorder: Recorder, name: str, fn, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, count)
    return traced


def _patch(owner, attr: str, recorder: Recorder, name: str, count=None):
    setattr(owner, attr, _wrap(recorder, name, getattr(owner, attr), count))


def _wrap_cache_method(recorder: Recorder, name: str, fn, count):
    """Cache methods nest (a tiered cache calls its tiers, ``put_many``
    calls ``put``); only the outermost call is a span."""
    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        stack = recorder.stack()
        if stack and stack[-1].name.startswith("cache."):
            return fn(self, *args, **kwargs)
        return recorder.call(name, fn, (self, *args), kwargs, count)
    return traced


def _wrap_generator(recorder: Recorder, name: str, fn):
    """Each resumption of the generator is one span."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            try:
                item = recorder.call(name, next, (inner,), {})
            except StopIteration:
                return
            yield item
    return traced


def _steps(result, _args) -> dict:
    return {"steps": len(result.steps)}


def _instructions(result, _args) -> dict:
    return {"instructions": len(result.prologue) + len(result.body)}


def _verified(result, _args) -> dict:
    return {"verified": result.n_accesses_verified}


def _got(result, _args) -> dict:
    return {"hits": 1} if result is not None else {"misses": 1}


def _got_many(result, args) -> dict:
    asked = len(set(args[1]))
    return {"hits": len(result), "misses": asked - len(result)}


def _stored(_result, _args) -> dict:
    return {"stores": 1}


def _stored_many(_result, args) -> dict:
    return {"stores": len(args[1])}


def _engine_jobs(_result, args) -> dict:
    return {"jobs": [id(job) for job in args[1]]}


def install(recorder: Recorder) -> None:
    """Wrap every traced layer at its import sites (process-wide)."""
    import repro.batch.cache as cache
    import repro.batch.engine as engine
    import repro.batch.jobs as jobs
    import repro.batch.serving as serving
    import repro.core.allocator as allocator
    import repro.core.pipeline as pipeline
    import repro.pathcover.branch_and_bound as branch_and_bound

    for module in (pipeline, jobs):
        _patch(module, "parse_kernel", recorder, "parse")
    for module in (allocator, branch_and_bound):
        _patch(module, "cached_access_graph", recorder, "access_graph")
    _patch(allocator, "minimum_zero_cost_cover", recorder,
           "pathcover.exact")
    _patch(allocator, "greedy_zero_cost_cover", recorder,
           "pathcover.greedy")
    _patch(allocator, "min_intra_path_cover", recorder, "pathcover.intra")
    for module in (allocator, jobs):
        _patch(module, "best_pair_merge", recorder, "merge", _steps)
        _patch(module, "naive_merge", recorder, "naive_merge")
    _patch(pipeline, "generate_address_code", recorder, "codegen",
           _instructions)
    _patch(pipeline, "program_listing", recorder, "listing")
    _patch(pipeline, "simulate", recorder, "simulate", _verified)
    for module in (engine, jobs):
        _patch(module, "job_digest", recorder, "digest")
    _patch(serving, "job_digest", recorder, "digest", _link_request(
        recorder))
    _patch(engine, "execute_any", recorder, "engine.execute")

    for store in (cache.InMemoryLRUCache, cache.ShardedDirectoryCache,
                  cache.TieredCache):
        for attr, name, count in (("get", "cache.get", _got),
                                  ("get_many", "cache.get", _got_many),
                                  ("put", "cache.put", _stored),
                                  ("put_many", "cache.put", _stored_many)):
            if attr in vars(store):
                setattr(store, attr, _wrap_cache_method(
                    recorder, name, getattr(store, attr), count))

    compiler = engine.BatchCompiler
    compile_batch = compiler.compile

    @functools.wraps(compile_batch)
    def traced_compile(self, batch):
        return recorder.call("engine.compile", compile_batch,
                             (self, list(batch)), {}, _engine_jobs)
    compiler.compile = traced_compile
    compiler.as_completed = _wrap_generator(
        recorder, "engine.compile", compiler.as_completed)

    service = serving.CompileService
    service.handle_request = _wrap(
        recorder, "serve.handle", service.handle_request,
        lambda result, args: {"op": args[1].get("op")})


def _link_request(recorder: Recorder):
    """On a serve handler thread, remember which job the open request
    built, so its engine batch can be found later."""
    def count(_result, args) -> dict:
        stack = recorder.stack()
        if stack and stack[0].name == "serve.handle":
            request = stack[0]
            request.attrs = {**(request.attrs or {}), "job": id(args[0])}
        return {}
    return count


# ----------------------------------------------------------------------
# From spans to per-layer metrics
# ----------------------------------------------------------------------
def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def round_layers(spans, start_ns: int | None = None,
                 end_ns: int | None = None) -> dict[str, float]:
    """Per-layer totals of one round: the spans inside the window
    (every span when no window is given)."""
    if start_ns is not None:
        spans = [span for span in spans
                 if span[1] >= start_ns and span[2] <= end_ns]
    out: dict[str, float] = {
        "parse.calls": 0, "pathcover.exact_calls": 0,
        "pathcover.greedy_calls": 0, "pathcover.intra_calls": 0,
        "merge.steps": 0, "codegen.instructions": 0,
        "simulate.accesses_verified": 0, "digest.calls": 0,
        "cache.hits": 0, "cache.misses": 0, "cache.stores": 0,
        "engine.execute_ms": 0.0}
    self_ns: dict[str, int] = dict.fromkeys(set(SELF_SPANS.values()), 0)
    handles, batches = [], []
    for name, start, end, self_cpu, attrs in spans:
        metric = SELF_SPANS.get(name)
        if metric is not None:
            self_ns[metric] += self_cpu
        if name == "parse":
            out["parse.calls"] += 1
        elif name.startswith("pathcover."):
            out[f"{name}_calls"] += 1
        elif name == "merge":
            out["merge.steps"] += attrs["steps"]
        elif name == "codegen":
            out["codegen.instructions"] += attrs["instructions"]
        elif name == "simulate":
            out["simulate.accesses_verified"] += attrs["verified"]
        elif name == "digest":
            out["digest.calls"] += 1
        elif name.startswith("cache.") and attrs:
            for key, value in attrs.items():
                out[f"cache.{key}"] += value
        elif name == "engine.execute":
            out["engine.execute_ms"] += (end - start) / 1e6
        elif name == "engine.compile" and attrs:
            batches.append((start, end, set(attrs["jobs"])))
        elif name == "serve.handle" and attrs \
                and attrs.get("op") == "compile":
            handles.append((start, end, attrs.get("job")))
    for metric, total in self_ns.items():
        out[metric] = total / 1e6
    out["trace.self_sum_ms"] = sum(self_ns.values()) / 1e6
    if handles:
        out.update(_serve_spans(handles, batches))
    return out


def _serve_spans(handles, batches) -> dict[str, float]:
    """Server-side request metrics: each cold request is matched to the
    engine batch that compiled its job (by job identity, within the
    request's span)."""
    waits = []
    for start, end, job in handles:
        for batch_start, batch_end, members in batches:
            if job in members and batch_start >= start \
                    and batch_end <= end:
                waits.append(((end - start) - (batch_end - batch_start))
                             / 1e6)
                break
    return {
        "serve.handle_ms": _median([(end - start) / 1e6
                                    for start, end, _job in handles]),
        "serve.engine_batch_ms": _median([(end - start) / 1e6
                                          for start, end, _m in batches]),
        "serve.dispatch_wait_ms": _median(waits),
        "serve.cold_requests_matched": len(waits),
    }
