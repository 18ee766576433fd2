"""Tests of compile-as-a-service: the serve protocol, admission
control, micro-batching, the warm cache tier, and the bit-identity of
served output against direct batch compilation."""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time

import pytest

from repro.agu.model import AguSpec
from repro.batch import serving
from repro.batch.cache import InMemoryLRUCache, TieredCache
from repro.batch.engine import (
    BatchCompiler,
    Executor,
    JobFailure,
    execute_any,
    execute_job,
)
from repro.batch.digest import job_digest
from repro.batch.jobs import BatchJob
from repro.batch.serving import (
    CompileService,
    Op,
    ServeClient,
    ServerBusyError,
)
from repro.batch.service import FrameTooLargeError, recv_frame, send_frame
from repro.core import allocator
from repro.core.pipeline import compile_kernel
from repro.errors import BatchError
from repro.workloads.kernels import get_kernel

SPEC = AguSpec(4, 1)

#: Small distinct sources so tests control digest identity precisely.
SOURCES = {
    "saxpy": get_kernel("saxpy").source,
    "fir8": get_kernel("fir8").source,
    "energy": get_kernel("energy").source,
    "vector_add": get_kernel("vector_add").source,
    "dot_product": get_kernel("dot_product").source,
}


def payload_modulo_timing(result) -> dict:
    """A JobResult payload with the only nondeterministic field
    (wall-clock) removed -- the bit-identity comparison key."""
    payload = result.payload()
    payload.pop("wall_seconds")
    return payload


@pytest.fixture
def cover_calls(monkeypatch):
    """Every phase-1 exact cover search the allocator runs, by pattern.
    """
    calls = []
    exact_cover = allocator.minimum_zero_cost_cover

    def counting_cover(*args, **kwargs):
        calls.append(args[0])
        return exact_cover(*args, **kwargs)

    monkeypatch.setattr(allocator, "minimum_zero_cost_cover",
                        counting_cover)
    return calls


@pytest.fixture
def service():
    with CompileService(batch_window=0.01) as running:
        yield running


@pytest.fixture
def client(service):
    with ServeClient(service.endpoint, timeout=30.0) as connected:
        yield connected


class _Gate(Executor):
    """Test double executor: optionally blocks inside ``run`` (to pin
    the dispatcher while tests stage the queue) and fails jobs whose
    name starts with ``poison`` (to exercise failure isolation)."""

    def __init__(self):
        self.hold = threading.Event()
        self.entered = threading.Event()
        self.release = threading.Event()

    def run(self, jobs):
        self.entered.set()
        if self.hold.is_set():
            assert self.release.wait(timeout=30.0)
        return _GateStream(jobs)


class _GateStream:
    def __init__(self, jobs):
        self._jobs = list(jobs)

    def __iter__(self):
        for index, job in enumerate(self._jobs):
            if job.name.startswith("poison"):
                raise JobFailure(index, RuntimeError("injected failure"))
            yield index, execute_any(job)

    def shutdown(self):
        return {}


def compile_request(kernel: str, **extra) -> dict:
    request = {"op": "compile", "source": SOURCES[kernel],
               "name": kernel}
    request.update(extra)
    return request


class TestServeProtocol:
    def test_ping_and_stats(self, service, client):
        assert client.ping()
        stats = client.server_stats()
        assert stats["requests"] == 0
        assert stats["cache"] == {"hits": 0, "misses": 0, "stores": 0}

    def test_cold_then_warm_round_trip(self, service, client):
        cold = client.compile(SOURCES["saxpy"], name="saxpy")
        assert not cold.cached
        assert not cold.result.from_cache
        warm = client.compile(SOURCES["saxpy"], name="saxpy")
        assert warm.cached
        assert warm.result.from_cache
        assert warm.digest == cold.digest
        # Warm answers replay the stored payload bit-for-bit.
        assert warm.result.payload() == cold.result.payload()
        stats = client.server_stats()
        assert stats["served_warm"] == 1
        assert stats["compiled"] == 1

    def test_a_warm_hit_answers_under_the_requests_name(self, service):
        cold = service.handle_request(compile_request("saxpy"))
        warm = service.handle_request(
            {**compile_request("saxpy"), "name": "renamed"})
        assert (cold["cached"], warm["cached"]) == (False, True)
        assert warm["digest"] == cold["digest"]
        # The stored payload, renamed: same keys in the same order, so
        # the answer frame is byte-identical apart from the name.
        assert json.dumps(warm["result"]) \
            == json.dumps({**cold["result"], "name": "renamed"})

    def test_library_kernel_request(self, service, client):
        by_name = client.compile(kernel="fir8")
        by_source = client.compile(SOURCES["fir8"], name="fir8")
        assert by_source.digest == by_name.digest
        assert by_source.cached  # same digest: second request was warm

    def test_served_result_is_bit_identical_to_direct_batch(
            self, service, client):
        """With or without a listing, the answer is the job's result,
        under the job's digest."""
        job = BatchJob(name="saxpy", spec=SPEC,
                       source=SOURCES["saxpy"])
        direct = BatchCompiler().compile([job]).results[0]
        for listing in (False, True):
            answer = client.compile(SOURCES["saxpy"], name="saxpy",
                                    listing=listing)
            assert answer.digest == job_digest(job)
            assert payload_modulo_timing(answer.result) \
                == payload_modulo_timing(direct)

    def test_spec_and_execution_options_reach_the_job(self, service,
                                                      client):
        wide = client.compile(SOURCES["fir8"], name="fir8",
                              registers=6, modify_range=2,
                              iterations=16, baseline=True)
        job = BatchJob(name="fir8", spec=AguSpec(6, 2),
                       source=SOURCES["fir8"], n_iterations=16,
                       include_baseline=True)
        direct = BatchCompiler().compile([job]).results[0]
        assert payload_modulo_timing(wide.result) \
            == payload_modulo_timing(direct)
        assert wide.result.baseline_overhead is not None

    def test_listing_is_bit_identical_to_compile_kernel(self, service,
                                                        client):
        """Cold, warm, and warm under another name: each listing is
        rendered titled with its own request's name, like its result."""
        for name, cached in (("alpha", False), ("alpha", True),
                             ("beta", True)):
            answer = client.compile(SOURCES["energy"], name=name,
                                    listing=True)
            direct = compile_kernel(SOURCES["energy"], SPEC,
                                    run_simulation=False, name=name)
            assert answer.cached is cached
            assert answer.listing == direct.listing
            assert answer.result.name == name

    def test_a_listing_request_leaves_the_plain_request_warm(
            self, service, client, cover_calls):
        """A listing request is the plain request's job under the same
        digest: a plain repeat is warm and compiles nothing, so the
        kernel's cover is searched once in all."""
        answer = client.compile(kernel="fir8", listing=True)
        repeat = client.compile(kernel="fir8")
        assert not answer.cached and repeat.cached
        assert repeat.digest == answer.digest
        assert repeat.result.payload() == answer.result.payload()
        assert service.stats.compiled == 1
        assert len(cover_calls) == 1

    def test_a_listing_after_a_plain_request_is_warm(self, service,
                                                     client, cover_calls):
        """The listing is rendered from the stored result's assignment:
        no cover search, no merge, no simulation."""
        plain = client.compile(kernel="fir8")
        assert not plain.cached and len(cover_calls) == 1
        listed = client.compile(kernel="fir8", listing=True)
        assert listed.cached
        assert len(cover_calls) == 1
        assert service.stats.compiled == 1
        assert listed.listing == compile_kernel(
            SOURCES["fir8"], SPEC, run_simulation=False,
            name="fir8").listing

    def test_a_warm_listing_under_a_second_name(self, service, client):
        client.compile(SOURCES["energy"], name="first")
        second = client.compile(SOURCES["energy"], name="second",
                                listing=True)
        assert second.cached and second.result.name == "second"
        assert second.listing == compile_kernel(
            SOURCES["energy"], SPEC, run_simulation=False,
            name="second").listing

    def test_a_result_without_a_listing_has_no_listing_key(self, service):
        """A listing is rendered for its request, never stored: neither
        the answer's result nor the stored entry carries one."""
        plain = service.handle_request(compile_request("saxpy"))
        listed = service.handle_request(
            compile_request("fir8", listing=True))
        for answer in (plain, listed):
            assert "listing" not in answer["result"]
            assert "listing" not in service.cache.get(answer["digest"])

    @pytest.mark.parametrize("listing", [False, True],
                             ids=["plain", "listing"])
    @pytest.mark.parametrize("stored", [None, 7],
                             ids=["absent", "not-iterable"])
    def test_a_stored_result_without_an_assignment_is_a_miss(
            self, stored, listing):
        """A shared store is outside input, and every entry written
        before results carried their assignment lacks one: such an
        entry is compiled again and overwritten."""
        job = BatchJob(name="energy", spec=SPEC, source=SOURCES["energy"])
        payload = execute_job(job).payload()
        del payload["assignment"]
        if stored is not None:
            payload["assignment"] = stored
        store = InMemoryLRUCache()
        store.put(job_digest(job), payload)
        with CompileService(store) as poisoned:
            answer = poisoned.handle_request(
                compile_request("energy", listing=listing))
            assert poisoned.stats.served_warm == 0
            assert poisoned.stats.compiled == 1
        assert answer["ok"] and not answer["cached"]
        direct = execute_job(job).payload()
        assert {**answer["result"], "wall_seconds": 0} \
            == {**direct, "wall_seconds": 0}
        if listing:
            assert answer["listing"] == compile_kernel(
                SOURCES["energy"], SPEC, run_simulation=False,
                name="energy").listing
        assert store.get(job_digest(job))["assignment"] \
            == direct["assignment"]

    @pytest.mark.parametrize("assignment, match", [
        ([0, 1, 0], "cover is over 3 accesses"),
        (list(range(len(get_kernel("fir8").kernel().pattern))),
         "address registers"),
    ], ids=["wrong-length", "too-many-registers"])
    def test_a_stored_assignment_that_does_not_render_is_an_error_frame(
            self, assignment, match):
        """A stored assignment is not checked on a hit; one that fails
        to render answers an error frame naming the digest, and the
        connection keeps serving."""
        job = BatchJob(name="fir8", spec=SPEC, source=SOURCES["fir8"])
        digest = job_digest(job)
        store = InMemoryLRUCache()
        store.put(digest, {**execute_job(job).payload(),
                           "assignment": assignment})
        with CompileService(store) as poisoned, \
                socket.create_connection(poisoned.address,
                                         timeout=5) as sock:
            send_frame(sock, compile_request("fir8", listing=True))
            answer = recv_frame(sock)
            assert answer["ok"] is False
            assert digest in answer["error"]
            assert match in answer["error"]
            send_frame(sock, compile_request("fir8"))
            plain = recv_frame(sock)
            assert plain["ok"] and plain["cached"]
            assert poisoned.stats.failures == 1
            assert poisoned.stats.served_warm == 1

    def test_no_listing_unless_asked(self, service, client):
        assert client.compile(SOURCES["saxpy"]).listing is None

    def test_malformed_requests_answer_errors_on_a_live_connection(
            self, service):
        with socket.create_connection(service.address, timeout=5) as sock:
            send_frame(sock, {"op": "frobnicate"})
            assert "unknown op" in recv_frame(sock)["error"]
            send_frame(sock, {"op": "compile"})  # neither source/kernel
            assert "exactly one" in recv_frame(sock)["error"]
            send_frame(sock, {"op": "compile", "source": "x",
                              "kernel": "fir8"})  # both
            assert recv_frame(sock)["ok"] is False
            send_frame(sock, {"op": "compile", "kernel": "no-such"})
            assert "unknown kernel" in recv_frame(sock)["error"]
            send_frame(sock, {"op": "compile",
                              "source": "not a kernel ("})
            assert recv_frame(sock)["ok"] is False
            send_frame(sock, {"op": "compile", "source": "x",
                              "registers": "four"})
            assert "integer" in recv_frame(sock)["error"]
            # ...and the connection is still alive afterwards:
            send_frame(sock, {"op": "ping"})
            assert recv_frame(sock)["ok"] is True

    def test_request_errors_raise_batch_error_in_the_client(
            self, service, client):
        with pytest.raises(BatchError, match="unknown kernel"):
            client.compile(kernel="no-such-kernel")
        with pytest.raises(BatchError, match="rejected"):
            client.compile("not a kernel (")

    def test_concurrent_clients_get_identical_answers(self, service):
        answers: list = []
        errors: list = []

        def one_request():
            try:
                with ServeClient(service.endpoint,
                                 busy_retries=5) as mine:
                    answers.append(
                        mine.compile(SOURCES["saxpy"], name="saxpy"))
            # The thread must capture, not die: pytest cannot see
            # exceptions raised off the main thread.
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=one_request)
                   for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert len(answers) == 6
        digests = {answer.digest for answer in answers}
        assert len(digests) == 1
        payloads = [answer.result.payload() for answer in answers]
        assert all(payload == payloads[0] for payload in payloads)

    def test_rejects_invalid_configuration(self):
        for kwargs in ({"port": 65536}, {"port": -1},
                       {"batch_window": -0.1}, {"max_batch": 0},
                       {"max_pending": 0}, {"idle_timeout": 0},
                       {"idle_timeout": -1.0}):
            with pytest.raises(BatchError):
                CompileService(**kwargs)
        for kwargs in ({"timeout": 0}, {"pool_size": 0},
                       {"busy_retries": -1}, {"busy_backoff": -0.1}):
            with pytest.raises(BatchError):
                ServeClient("tcp://127.0.0.1:8743", **kwargs)


def assert_declared(op: str, answer: dict) -> None:
    """``answer`` carries only the envelope and ``op``'s declared
    response keys."""
    allowed = {"ok", "error", *CompileService.OPS[op].response}
    assert set(answer) <= allowed, sorted(set(answer) - allowed)


class TestOpTable:
    """``OPS`` is the schema both ways: requests are checked against
    it, and every answer stays inside its declared response keys."""

    def test_a_missing_required_field_is_named(self):
        op = Op("Answer `text` back.", required={"text": "string"},
                optional={"times": "integer"}, response=("text",))
        assert op.check("echo", {}) == "'echo' needs a string 'text'"
        assert op.check("echo", {"text": None}) \
            == "'echo' needs a string 'text'"
        assert op.check("echo", {"text": "a", "times": True}) \
            == "'echo' field 'times' must be an integer"
        assert op.check("echo", {"text": "a", "times": 2}) is None

    def test_answers_carry_only_declared_keys(self, service):
        ping = service.handle_request({"op": "ping"})
        assert ping["ok"] is True
        assert_declared("ping", ping)
        cold = service.handle_request(compile_request("saxpy"))
        warm = service.handle_request(compile_request("saxpy"))
        listing = service.handle_request(
            compile_request("fir8", listing=True))
        assert (cold["cached"], warm["cached"]) == (False, True)
        assert "listing" in listing
        error = service.handle_request(
            {"op": "compile", "source": "for (i = 0;"})
        assert error["ok"] is False
        for answer in (cold, warm, listing, error):
            assert_declared("compile", answer)
        stats = service.handle_request({"op": "stats"})
        assert set(stats) == {"ok", *CompileService.OPS["stats"].response}
        assert stats["requests"] == 4
        # A busy rejection is checked in TestAdmissionControl's
        # full-queue test.


@pytest.fixture
def digested(monkeypatch):
    """Every job digested on the serve path, in call order: by the
    handler, the engine's scan or execution."""
    calls = []

    def counting_digest(job):
        calls.append(job)
        return job_digest(job)

    for module in ("repro.batch.serving", "repro.batch.engine",
                   "repro.batch.jobs"):
        monkeypatch.setattr(f"{module}.job_digest", counting_digest)
    return calls


class TestDigestOnce:
    """A served compile request is digested by its handler once, with
    or without a listing; the engine batch reuses the digest the queued
    job carries."""

    def test_one_digest_per_compile_request(self, service, digested):
        kernels = ["saxpy", "fir8", "saxpy", "energy", "fir8"]
        answers = [service.handle_request(compile_request(kernel))
                   for kernel in kernels]
        assert [answer["cached"] for answer in answers] \
            == [False, False, True, False, True]
        assert len(digested) == len(kernels)
        assert [answer["digest"] for answer in answers] \
            == [job_digest(job) for job in digested]

    def test_the_digested_job_is_the_one_compiled(self, service,
                                                  digested,
                                                  monkeypatch):
        compiled = []
        engine_compile = BatchCompiler.compile

        def recording(compiler, jobs):
            jobs = list(jobs)
            compiled.extend(jobs)
            return engine_compile(compiler, jobs)

        monkeypatch.setattr(BatchCompiler, "compile", recording)
        answer = service.handle_request(
            compile_request("energy", listing=True))
        assert len(compiled) == 1
        [queued] = digested
        assert queued is compiled[0]
        assert answer["digest"] == answer["result"]["digest"] \
            == compiled[0].digest == job_digest(queued)


def free_port() -> int:
    """A port nothing is listening on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestClientTransport:
    """The pooled client's transport contract: stale connections are
    replaced, and every transport failure is a ``BatchError``."""

    def test_a_stale_pool_is_replaced_by_a_fresh_connection(self):
        """Two pooled connections the server idle-closed must not make
        a live server look unreachable: the retry connects afresh and
        the rest of the stale pool is dropped."""
        with CompileService(idle_timeout=0.3) as service, \
                ServeClient(service.endpoint, timeout=30.0) as client:
            for _ in range(2):
                client._release(client._connect())
            time.sleep(0.8)  # the server closes both idle connections
            answer = client.compile(kernel="fir8")
            assert answer.result.audit_ok
            assert len(client._pool) == 1  # only the fresh connection
            assert client.ping()

    def test_an_oversized_request_keeps_the_pool(self, service, client,
                                                 monkeypatch):
        """A request over the frame limit is the caller's error: it is
        raised as such, on the pooled connection, which stays."""
        assert client.ping()
        pooled = list(client._pool)
        monkeypatch.setattr("repro.batch.service.MAX_FRAME_BYTES", 1024)
        with pytest.raises(FrameTooLargeError, match="1024-byte limit"):
            client.compile("/*" + "x" * 2048 + "*/ " + SOURCES["saxpy"])
        assert client._pool == pooled
        assert client.ping()
        assert client._pool == pooled
        assert service.n_connections == 1

    def test_ping_is_false_against_a_closed_port(self):
        client = ServeClient(f"tcp://127.0.0.1:{free_port()}",
                             timeout=5.0)
        assert client.ping() is False

    def test_compile_against_a_closed_port_raises_batch_error(self):
        endpoint = f"tcp://127.0.0.1:{free_port()}"
        client = ServeClient(endpoint, timeout=5.0)
        with pytest.raises(BatchError, match="unreachable") as caught:
            client.compile(kernel="fir8")
        assert endpoint in str(caught.value)
        assert isinstance(caught.value.__cause__, OSError)

    def test_the_client_reconnects_after_a_server_restart(self):
        first = CompileService().start()
        port = first.address[1]
        with ServeClient(first.endpoint, timeout=30.0) as client:
            assert client.compile(kernel="saxpy").result.audit_ok
            first.shutdown()
            with CompileService(port=port) as second:
                answer = client.compile(kernel="saxpy")
                assert answer.result.audit_ok
                assert second.stats.requests == 1

    def test_sequential_requests_share_one_connection(self, service,
                                                      client):
        for _ in range(20):
            assert client.ping()
        assert service.n_connections == 1


def wide_kernel(n_arrays: int, n_accesses: int) -> str:
    """Frontend source with the given array and access counts."""
    decls = ", ".join(f"a{index}[64]" for index in range(n_arrays))
    body = " ".join(f"a{position % n_arrays}[i];"
                    for position in range(n_accesses))
    return f"int {decls}; for (i = 0; i < 8; i++) {{ {body} }}"


class TestFrontDoorLimits:
    """Untrusted requests have bounded cost: oversized ones are
    answered an error frame before anything is queued."""

    @pytest.mark.parametrize("source, match", [
        ("/*" + "x" * serving.MAX_SOURCE_BYTES + "*/ "
         + SOURCES["saxpy"], "bytes"),
        (wide_kernel(1, serving.MAX_ACCESSES + 1), "array accesses"),
        (wide_kernel(serving.MAX_ARRAYS + 1, serving.MAX_ARRAYS + 1),
         "declares"),
    ])
    def test_over_limit_request_gets_an_error_frame(self, service,
                                                    source, match):
        with socket.create_connection(service.address, timeout=5) as sock:
            send_frame(sock, {"op": "compile", "source": source})
            answer = recv_frame(sock)
            assert answer["ok"] is False
            assert match in answer["error"]
            # The connection and the server keep serving.
            send_frame(sock, compile_request("saxpy"))
            assert recv_frame(sock)["ok"] is True
        assert service.stats.failures == 1
        assert service.stats.batches == 1

    @pytest.mark.parametrize("source, listing, match", [
        (wide_kernel(1, serving.MAX_ACCESSES + 4), False,
         "array accesses"),
        (wide_kernel(1, serving.MAX_ACCESSES + 4), True,
         "array accesses"),
        (wide_kernel(serving.MAX_ARRAYS + 1, serving.MAX_ARRAYS + 1),
         True, "declares"),
    ], ids=["accesses", "accesses-listing", "arrays-listing"])
    def test_a_stored_over_limit_result_gets_the_cold_error_frame(
            self, source, listing, match):
        """A shared store may hold a result that a batch run computed
        without the serve bounds.  A warm hit over MAX_ACCESSES, and a
        listing compiled for a warm hit, are answered as cold."""
        request = {"op": "compile", "source": source, "listing": listing}
        with CompileService() as cold:
            cold_answer = cold.handle_request(dict(request))
        store = InMemoryLRUCache()
        BatchCompiler(cache=store).compile(
            [BatchJob(name="wide", spec=SPEC, source=source)])
        with CompileService(store) as warm:
            answer = warm.handle_request(dict(request))
            assert warm.stats.failures == 1
            assert warm.stats.served_warm == 0
        assert match in answer["error"]
        assert answer == cold_answer

    def test_kernels_at_the_limits_compile(self, service, client):
        at_limit = wide_kernel(serving.MAX_ARRAYS, serving.MAX_ACCESSES)
        answer = client.compile(at_limit, registers=8)
        assert answer.result.n_accesses == serving.MAX_ACCESSES

    def test_billion_trip_kernel_is_served_in_under_a_second(
            self, service, client):
        source = ("int x[64], y[64]; for (i = 0; i < 1000000000; i++) "
                  "{ y[i] = x[i+1] + x[i]; }")
        started = time.perf_counter()
        served = client.compile(source, name="long", baseline=True)
        assert time.perf_counter() - started < 1.0
        direct = execute_job(BatchJob(name="long", spec=SPEC,
                                      source=source,
                                      include_baseline=True))
        assert payload_modulo_timing(served.result) \
            == payload_modulo_timing(direct)


class TestWarmPathSkipsTheParse:
    def test_only_cache_misses_parse(self, service, client, parse_calls):
        client.compile(SOURCES["fir8"], name="fir8")
        # Cold: once at the front door; the compile reuses that kernel.
        assert len(parse_calls) == 1
        for _ in range(3):
            assert client.compile(SOURCES["fir8"], name="fir8").cached
        assert len(parse_calls) == 1

    def test_a_cold_listing_request_parses_once(self, service, client,
                                                parse_calls, cover_calls):
        """...and compiles once; the listing renders from that parse.
        A warm listing parses once, to render, and compiles nothing."""
        cold = client.compile(SOURCES["energy"], name="energy",
                              listing=True)
        assert not cold.cached and cold.listing
        assert parse_calls == [SOURCES["energy"]]
        assert len(cover_calls) == 1
        warm = client.compile(SOURCES["energy"], name="energy",
                              listing=True)
        assert warm.cached and warm.listing == cold.listing
        assert parse_calls == [SOURCES["energy"]] * 2
        assert len(cover_calls) == 1

    def test_syntax_errors_still_get_their_own_error_frame(self, service):
        with socket.create_connection(service.address, timeout=5) as sock:
            send_frame(sock, {"op": "compile", "source": "for (i = 0;"})
            answer = recv_frame(sock)
            assert answer["ok"] is False
            assert "Error" in answer["error"]
        assert service.stats.failures == 1
        assert service.stats.batches == 0


class TestAdmissionControl:
    def staged_service(self, gate, **kwargs):
        kwargs.setdefault("executor", gate)
        return CompileService(**kwargs)

    def wait_for_queue(self, service, depth: int) -> None:
        deadline = time.monotonic() + 10.0
        while service._queue.qsize() < depth:
            assert time.monotonic() < deadline, "queue never filled"
            time.sleep(0.005)

    def test_full_queue_answers_busy_instead_of_queueing(self):
        gate = _Gate()
        gate.hold.set()
        with self.staged_service(gate, max_pending=1,
                                 batch_window=0.0) as service:
            responses: list[dict] = []
            # First request: pulled by the dispatcher, which then
            # blocks inside the executor -- the queue is empty again.
            blocker = threading.Thread(
                target=lambda: responses.append(service.handle_request(
                    compile_request("saxpy"))))
            blocker.start()
            assert gate.entered.wait(timeout=10.0)
            # Second request fills the (size-1) queue...
            queued = threading.Thread(
                target=lambda: responses.append(service.handle_request(
                    compile_request("fir8"))))
            queued.start()
            self.wait_for_queue(service, 1)
            # ...so the third is rejected with an explicit busy frame,
            # synchronously, instead of growing the backlog.
            busy = service.handle_request(compile_request("energy"))
            assert busy == {"ok": False, "busy": True,
                            "error": "server busy: 1 compile(s) "
                                     "already in flight"}
            assert_declared("compile", busy)
            gate.hold.clear()
            gate.release.set()
            blocker.join(timeout=30.0)
            queued.join(timeout=30.0)
            assert [r["ok"] for r in responses] == [True, True]
            assert service.stats.busy_rejections == 1

    def test_busy_client_retries_then_raises_server_busy_error(self):
        gate = _Gate()
        gate.hold.set()
        with self.staged_service(gate, max_pending=1,
                                 batch_window=0.0) as service:
            threads = [threading.Thread(
                target=service.handle_request,
                args=(compile_request(kernel),))
                for kernel in ("saxpy", "fir8")]
            threads[0].start()
            assert gate.entered.wait(timeout=10.0)
            threads[1].start()
            self.wait_for_queue(service, 1)
            impatient = ServeClient(service.endpoint, busy_retries=2,
                                    busy_backoff=0.01)
            with pytest.raises(ServerBusyError, match="at capacity"):
                impatient.compile(SOURCES["energy"], name="energy")
            # Three attempts: the original and two retries.
            assert service.stats.busy_rejections == 3
            gate.hold.clear()
            gate.release.set()
            for thread in threads:
                thread.join(timeout=30.0)

    def test_warm_requests_bypass_admission_entirely(self):
        """A cache hit is served even while the queue is saturated:
        the warm path never competes for in-flight slots."""
        gate = _Gate()
        with self.staged_service(gate, max_pending=1,
                                 batch_window=0.0) as service:
            warm = service.handle_request(compile_request("saxpy"))
            assert warm["ok"] is True
            gate.hold.set()
            gate.entered.clear()
            gate.release.clear()
            blocker = threading.Thread(
                target=service.handle_request,
                args=(compile_request("fir8"),))
            blocker.start()
            assert gate.entered.wait(timeout=10.0)
            queued = threading.Thread(
                target=service.handle_request,
                args=(compile_request("energy"),))
            queued.start()
            self.wait_for_queue(service, 1)
            again = service.handle_request(compile_request("saxpy"))
            assert again["ok"] is True
            assert again["cached"] is True
            gate.hold.clear()
            gate.release.set()
            blocker.join(timeout=30.0)
            queued.join(timeout=30.0)


class TestMicroBatching:
    def test_staged_requests_coalesce_into_one_engine_batch(self):
        gate = _Gate()
        gate.hold.set()
        with CompileService(executor=gate, batch_window=0.25,
                            max_batch=8) as service:
            responses: list[dict] = []

            def request(kernel: str) -> None:
                responses.append(
                    service.handle_request(compile_request(kernel)))

            blocker = threading.Thread(target=request, args=("saxpy",))
            blocker.start()
            assert gate.entered.wait(timeout=10.0)
            followers = [threading.Thread(target=request, args=(k,))
                         for k in ("fir8", "energy", "vector_add",
                                   "dot_product")]
            for thread in followers:
                thread.start()
            deadline = time.monotonic() + 10.0
            while service._queue.qsize() < 4:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            gate.hold.clear()
            gate.release.set()
            for thread in [blocker, *followers]:
                thread.join(timeout=60.0)
            assert [r["ok"] for r in responses] == [True] * 5
            # 5 requests, 2 engine batches: the blocker alone, then
            # the 4 staged requests coalesced into one batch.
            assert service.stats.requests == 5
            assert service.stats.batches == 2
            assert service.stats.compiled == 5

    def test_a_lone_client_does_not_wait_out_the_window(self):
        """With one connection open nobody can join the batch, so a
        cold request is dispatched at once, not after batch_window."""
        with CompileService(batch_window=30.0) as service:
            with ServeClient(service.endpoint, timeout=60.0) as client:
                started = time.monotonic()
                answer = client.compile(kernel="fir8")
                elapsed = time.monotonic() - started
        assert not answer.cached
        assert elapsed < 5.0

    @staticmethod
    def pinged(service, stack: contextlib.ExitStack,
               n: int) -> list[ServeClient]:
        """``n`` clients, each holding one open connection."""
        clients = [stack.enter_context(
            ServeClient(service.endpoint, timeout=60.0))
            for _ in range(n)]
        for connected in clients:
            assert connected.ping()
        assert service.n_connections == n
        return clients

    def test_a_full_batch_does_not_wait_out_the_window(self):
        """A batch holding a request from every open connection is
        dispatched at once: no further request can join it."""
        with CompileService(batch_window=30.0) as service, \
                contextlib.ExitStack() as stack:
            clients = self.pinged(service, stack, 2)
            answers = {}

            def request(connected: ServeClient, kernel: str) -> None:
                answers[kernel] = connected.compile(SOURCES[kernel],
                                                    name=kernel)

            threads = [threading.Thread(target=request, args=pair)
                       for pair in zip(clients, ("saxpy", "fir8"))]
            started = time.monotonic()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            elapsed = time.monotonic() - started
            assert sorted(answers) == ["fir8", "saxpy"]
            assert not any(answer.cached for answer in answers.values())
            assert elapsed < 5.0
            assert service.stats.batches == 1

    def test_the_window_waits_while_a_connection_could_join(self):
        """With a second connection open, a lone cold request waits
        out the window for a batch-mate that could still come."""
        with CompileService(batch_window=0.3) as service, \
                contextlib.ExitStack() as stack:
            clients = self.pinged(service, stack, 2)
            started = time.monotonic()
            answer = clients[0].compile(kernel="fir8")
            elapsed = time.monotonic() - started
        assert not answer.cached
        assert elapsed >= 0.3

    def test_failed_job_only_fails_its_own_requests(self):
        """Failure isolation inside a micro-batch: the culprit's
        request gets the error frame; batch-mates are rerun and
        resolve from the engine's salvage cache."""
        gate = _Gate()
        gate.hold.set()
        with CompileService(executor=gate, batch_window=0.25,
                            max_batch=8) as service:
            responses: dict[str, dict] = {}

            def request(label: str, message: dict) -> None:
                responses[label] = service.handle_request(message)

            blocker = threading.Thread(
                target=request,
                args=("blocker", compile_request("saxpy")))
            blocker.start()
            assert gate.entered.wait(timeout=10.0)
            # Stage strictly in order so the poisoned job is first in
            # the coalesced batch (nothing salvages ahead of it).
            staged = []
            for depth, (label, message) in enumerate(
                    [("poison", compile_request(
                        "fir8", name="poison-fir8")),
                     ("good-1", compile_request("energy")),
                     ("good-2", compile_request("vector_add"))],
                    start=1):
                thread = threading.Thread(target=request,
                                          args=(label, message))
                thread.start()
                deadline = time.monotonic() + 10.0
                while service._queue.qsize() < depth:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                staged.append(thread)
            gate.hold.clear()
            gate.release.set()
            for thread in [blocker, *staged]:
                thread.join(timeout=60.0)
            assert responses["blocker"]["ok"] is True
            assert responses["poison"]["ok"] is False
            assert "injected failure" in responses["poison"]["error"]
            assert responses["good-1"]["ok"] is True
            assert responses["good-2"]["ok"] is True
            assert service.stats.failures == 1
            # Still 2 batches: the culprit's removal reruns the batch,
            # it does not count a new one.
            assert service.stats.batches == 2

    def test_shutdown_drains_admitted_requests_and_rejects_new_ones(
            self):
        gate = _Gate()
        gate.hold.set()
        service = CompileService(executor=gate, batch_window=0.0,
                                 max_pending=4).start()
        responses: list[dict] = []
        blocker = threading.Thread(
            target=lambda: responses.append(service.handle_request(
                compile_request("saxpy"))))
        blocker.start()
        assert gate.entered.wait(timeout=10.0)
        queued = threading.Thread(
            target=lambda: responses.append(service.handle_request(
                compile_request("fir8"))))
        queued.start()
        deadline = time.monotonic() + 10.0
        while service._queue.qsize() < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        shutter = threading.Thread(target=service.shutdown)
        shutter.start()
        time.sleep(0.1)
        gate.hold.clear()
        gate.release.set()
        for thread in (blocker, queued, shutter):
            thread.join(timeout=30.0)
        assert len(responses) == 2
        # Admission is a promise: both the in-flight request and the
        # queued one complete (the bounded queue keeps the drain
        # bounded); no handler thread is left waiting.
        assert [r["ok"] for r in responses] == [True, True]
        # New work after shutdown is refused outright.
        late = service.handle_request(compile_request("energy"))
        assert late["ok"] is False
        assert "shutting down" in late["error"]


class CountingBackend:
    """A backend that counts how often the service actually reaches
    past the warm tier."""

    def __init__(self):
        self.inner = InMemoryLRUCache()
        self.lookups = 0
        self.stores = 0

    def get(self, digest):
        """The stored payload (counting the backend round trip)."""
        self.lookups += 1
        return self.inner.get(digest)

    def put(self, digest, payload):
        """Store one payload (counting the backend write)."""
        self.stores += 1
        self.inner.put(digest, payload)


class TestWarmTier:
    def test_hot_kernels_never_touch_the_backend(self):
        backend = CountingBackend()
        with CompileService(backend, batch_window=0.0) as service:
            client = ServeClient(service.endpoint)
            client.compile(SOURCES["saxpy"], name="saxpy")
            cold_lookups = backend.lookups
            assert cold_lookups > 0  # the cold path did consult it
            for _ in range(5):
                assert client.compile(SOURCES["saxpy"],
                                      name="saxpy").cached
            assert backend.lookups == cold_lookups
            assert service.stats.served_warm == 5

    def test_backend_entries_are_promoted_not_recompiled(self):
        """A restart with the same backing store serves warm from the
        store: zero recompiles, one backend fetch, then in-process."""
        backend = CountingBackend()
        with CompileService(backend, batch_window=0.0) as first:
            ServeClient(first.endpoint).compile(SOURCES["saxpy"],
                                                name="saxpy")
        with CompileService(backend, batch_window=0.0) as second:
            client = ServeClient(second.endpoint)
            answer = client.compile(SOURCES["saxpy"], name="saxpy")
            assert answer.cached
            promoted_lookups = backend.lookups
            assert client.compile(SOURCES["saxpy"], name="saxpy").cached
            assert backend.lookups == promoted_lookups
            assert second.stats.compiled == 0


class TestTieredCache:
    def test_get_promotes_backend_entries_into_the_warm_tier(self):
        backend = CountingBackend()
        backend.inner.put("k", {"v": 1})
        tiered = TieredCache(backend)
        assert tiered.get("k") == {"v": 1}
        assert backend.lookups == 1
        assert tiered.get("k") == {"v": 1}  # warm now
        assert backend.lookups == 1
        assert tiered.stats.hits == 2

    def test_gets_split_between_tiers(self):
        backend = CountingBackend()
        backend.inner.put("cold", {"v": 1})
        tiered = TieredCache(backend)
        tiered.put("warm", {"v": 2})
        found = {digest: tiered.get(digest)
                 for digest in ("warm", "cold", "absent")}
        assert found == {"warm": {"v": 2}, "cold": {"v": 1},
                         "absent": None}
        assert tiered.stats.hits == 2
        assert tiered.stats.misses == 1
        assert tiered.get("cold") == {"v": 1}  # promoted: warm now
        assert backend.lookups == 2  # "cold" + "absent" only, once

    def test_writes_reach_both_tiers(self):
        backend = CountingBackend()
        tiered = TieredCache(backend)
        for key, value in (("a", 1), ("b", 2), ("c", 3)):
            tiered.put(key, {"v": value})
        assert backend.stores == 3
        assert backend.inner.get("b") == {"v": 2}
        assert tiered.stats.stores == 3
        assert len(tiered) == 3

    def test_eviction_falls_through_to_the_backend(self):
        backend = CountingBackend()
        tiered = TieredCache(backend, capacity=2)
        for index in range(3):
            tiered.put(f"k{index}", {"v": index})
        assert len(tiered) == 2  # k0 evicted from the warm tier...
        assert tiered.get("k0") == {"v": 0}  # ...but not lost
        assert backend.lookups == 1

    def test_standalone_without_a_backend(self):
        tiered = TieredCache()
        assert tiered.get("k") is None
        tiered.put("k", {"v": 1})
        assert tiered.get("k") == {"v": 1}
        assert [tiered.get("k"), tiered.get("absent")] \
            == [{"v": 1}, None]
        assert (tiered.stats.hits, tiered.stats.misses,
                tiered.stats.stores) == (2, 2, 1)

    def test_refuses_to_front_another_tier(self):
        with pytest.raises(BatchError, match="cannot front"):
            TieredCache(TieredCache())

    def test_is_a_valid_engine_cache(self):
        """The tier drops into BatchCompiler unchanged: cold compile,
        then a different compiler on the same backend is all hits."""
        backend = InMemoryLRUCache()
        job = BatchJob(name="saxpy", spec=SPEC,
                       source=SOURCES["saxpy"])
        cold = BatchCompiler(cache=TieredCache(backend)).compile([job])
        assert cold.n_compiled == 1
        warm = BatchCompiler(cache=TieredCache(backend)).compile([job])
        assert warm.n_cache_hits == 1
        assert payload_modulo_timing(warm.results[0]) \
            == payload_modulo_timing(cold.results[0])
