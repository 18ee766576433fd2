"""The repro-lint framework and every project rule, fixture-tested.

Each rule gets at least one true-positive fixture (the violation is
reported) and one true-negative (the compliant spelling is not);
suppression comments and the JSON reporter are round-tripped; and the
repository itself must lint clean -- the same gate CI's
static-analysis job enforces, so a regression fails both identically.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from lint.reporters import (  # noqa: E402
    parse_json_report,
    render_json,
    render_text,
)
from lint.runner import (  # noqa: E402
    PARSE_ERROR,
    lint_paths,
    lint_source,
    lint_sources,
)

#: The relpath that triggers the strict broad-except tier.
ENGINE_PATH = "src/repro/batch/engine.py"


def rule_ids(result) -> list[str]:
    return [diag.rule_id for diag in result.diagnostics]


# ----------------------------------------------------------------------
# IO-ENCODING
# ----------------------------------------------------------------------
class TestIoEncoding:
    def test_read_text_without_encoding_is_flagged(self):
        result = lint_source(
            "from pathlib import Path\n"
            "text = Path('x.json').read_text()\n",
            rule_ids=["IO-ENCODING"])
        assert rule_ids(result) == ["IO-ENCODING"]
        assert result.diagnostics[0].line == 2

    def test_explicit_encoding_is_clean(self):
        result = lint_source(
            "from pathlib import Path\n"
            "text = Path('x.json').read_text(encoding='utf-8')\n"
            "Path('y.json').write_text(text, encoding='utf-8')\n"
            "with open('z.txt', encoding='utf-8') as handle:\n"
            "    handle.read()\n",
            rule_ids=["IO-ENCODING"])
        assert result.clean

    def test_binary_mode_open_is_clean(self):
        result = lint_source(
            "with open('x.bin', 'rb') as handle:\n"
            "    handle.read()\n",
            rule_ids=["IO-ENCODING"])
        assert result.clean

    def test_text_mode_tempfile_is_flagged(self):
        result = lint_source(
            "import tempfile\n"
            "handle = tempfile.NamedTemporaryFile('w', delete=False)\n",
            rule_ids=["IO-ENCODING"])
        assert rule_ids(result) == ["IO-ENCODING"]


# ----------------------------------------------------------------------
# BROAD-EXCEPT
# ----------------------------------------------------------------------
class TestBroadExcept:
    def test_bare_except_is_flagged_everywhere(self):
        result = lint_source(
            "try:\n    work()\nexcept:\n    pass\n",
            relpath="src/repro/analysis/report.py",
            rule_ids=["BROAD-EXCEPT"])
        assert rule_ids(result) == ["BROAD-EXCEPT"]

    def test_swallowed_exception_in_engine_is_flagged(self):
        result = lint_source(
            "try:\n    work()\nexcept Exception:\n    pass\n",
            relpath=ENGINE_PATH, rule_ids=["BROAD-EXCEPT"])
        assert rule_ids(result) == ["BROAD-EXCEPT"]

    def test_swallowed_exception_outside_engine_is_clean(self):
        result = lint_source(
            "try:\n    work()\nexcept Exception:\n    pass\n",
            relpath="tools/bench_trajectory.py",
            rule_ids=["BROAD-EXCEPT"])
        assert result.clean

    def test_wrap_and_rethrow_is_clean(self):
        result = lint_source(
            "try:\n"
            "    work()\n"
            "except Exception as error:\n"
            "    raise JobFailure(0, error) from error\n",
            relpath=ENGINE_PATH, rule_ids=["BROAD-EXCEPT"])
        assert result.clean

    def test_base_exception_needs_bare_reraise(self):
        flagged = lint_source(
            "try:\n"
            "    work()\n"
            "except BaseException as error:\n"
            "    raise RuntimeError('wrapped') from error\n",
            rule_ids=["BROAD-EXCEPT"])
        assert rule_ids(flagged) == ["BROAD-EXCEPT"]
        clean = lint_source(
            "try:\n"
            "    work()\n"
            "except BaseException:\n"
            "    cleanup()\n"
            "    raise\n",
            rule_ids=["BROAD-EXCEPT"])
        assert clean.clean


# ----------------------------------------------------------------------
# SOCKET-HYGIENE
# ----------------------------------------------------------------------
class TestSocketHygiene:
    def test_unclosed_socket_is_flagged(self):
        result = lint_source(
            "import socket\n"
            "def talk(host, port):\n"
            "    sock = socket.create_connection((host, port))\n"
            "    sock.sendall(b'x')\n",
            rule_ids=["SOCKET-HYGIENE"])
        assert rule_ids(result) == ["SOCKET-HYGIENE"]

    def test_finally_close_is_clean(self):
        result = lint_source(
            "import socket\n"
            "def talk(host, port):\n"
            "    sock = socket.create_connection((host, port))\n"
            "    try:\n"
            "        sock.sendall(b'x')\n"
            "    finally:\n"
            "        sock.close()\n",
            rule_ids=["SOCKET-HYGIENE"])
        assert result.clean

    def test_returned_socket_is_clean(self):
        result = lint_source(
            "import socket\n"
            "def connect(host, port):\n"
            "    sock = socket.create_connection((host, port))\n"
            "    sock.settimeout(1.0)\n"
            "    return sock\n",
            rule_ids=["SOCKET-HYGIENE"])
        assert result.clean

    def test_attribute_handoff_is_clean(self):
        result = lint_source(
            "import socket\n"
            "class Stream:\n"
            "    def _open(self, host, port):\n"
            "        sock = socket.create_connection((host, port))\n"
            "        self._sock = sock\n",
            rule_ids=["SOCKET-HYGIENE"])
        assert result.clean


# ----------------------------------------------------------------------
# PICKLE-JOB
# ----------------------------------------------------------------------
class TestPickleJob:
    def test_instance_lambda_is_flagged(self):
        result = lint_source(
            "class GridJob(BatchJob):\n"
            "    def __init__(self, scale):\n"
            "        self.transform = lambda x: x * scale\n",
            rule_ids=["PICKLE-JOB"])
        assert rule_ids(result) == ["PICKLE-JOB"]

    def test_local_closure_is_flagged(self):
        result = lint_source(
            "class GridJob(BatchJob):\n"
            "    def __init__(self, scale):\n"
            "        def transform(x):\n"
            "            return x * scale\n"
            "        self.transform = transform\n",
            rule_ids=["PICKLE-JOB"])
        assert rule_ids(result) == ["PICKLE-JOB"]

    def test_open_handle_is_flagged(self):
        result = lint_source(
            "class GridJob(BatchJob):\n"
            "    def __init__(self, path):\n"
            "        self.handle = open(path, encoding='utf-8')\n",
            rule_ids=["PICKLE-JOB"])
        assert rule_ids(result) == ["PICKLE-JOB"]

    def test_module_level_mutable_alias_is_flagged(self):
        result = lint_source(
            "_REGISTRY = {}\n"
            "class GridJob(BatchJob):\n"
            "    def __init__(self):\n"
            "        self.registry = _REGISTRY\n",
            rule_ids=["PICKLE-JOB"])
        assert rule_ids(result) == ["PICKLE-JOB"]

    def test_subclass_chain_is_tracked(self):
        result = lint_source(
            "class Base(ExperimentPointJob):\n"
            "    pass\n"
            "class Derived(Base):\n"
            "    def __init__(self):\n"
            "        self.fn = lambda: 1\n",
            rule_ids=["PICKLE-JOB"])
        assert rule_ids(result) == ["PICKLE-JOB"]

    def test_plain_fields_and_non_job_classes_are_clean(self):
        result = lint_source(
            "class GridJob(BatchJob):\n"
            "    def __init__(self, points, seed):\n"
            "        self.points = tuple(points)\n"
            "        self.seed = seed\n"
            "class Helper:\n"
            "    def __init__(self):\n"
            "        self.fn = lambda: 1\n",  # not a job class
            rule_ids=["PICKLE-JOB"])
        assert result.clean


# ----------------------------------------------------------------------
# DIGEST-DETERMINISM
# ----------------------------------------------------------------------
class TestDigestDeterminism:
    def test_clock_in_digest_payload_is_flagged(self):
        result = lint_source(
            "import time\n"
            "from repro.batch.digest import canonical\n"
            "def key(job):\n"
            "    return canonical({'job': job, 'at': time.time()})\n",
            rule_ids=["DIGEST-DETERMINISM"])
        assert rule_ids(result) == ["DIGEST-DETERMINISM"]

    def test_tainted_local_is_flagged(self):
        result = lint_source(
            "import time\n"
            "from repro.batch.digest import canonical\n"
            "def key(job):\n"
            "    stamp = time.time()\n"
            "    return canonical({'job': job, 'at': stamp})\n",
            rule_ids=["DIGEST-DETERMINISM"])
        assert rule_ids(result) == ["DIGEST-DETERMINISM"]

    def test_cache_key_returning_id_is_flagged(self):
        result = lint_source(
            "class GridJob:\n"
            "    def cache_key(self):\n"
            "        return f'{id(self)}'\n",
            rule_ids=["DIGEST-DETERMINISM"])
        assert rule_ids(result) == ["DIGEST-DETERMINISM"]

    def test_set_order_materialization_is_flagged(self):
        result = lint_source(
            "from repro.batch.digest import canonical\n"
            "def key(names):\n"
            "    return canonical({'names': list(set(names))})\n",
            rule_ids=["DIGEST-DETERMINISM"])
        assert rule_ids(result) == ["DIGEST-DETERMINISM"]

    def test_sorted_set_and_clock_outside_digest_are_clean(self):
        result = lint_source(
            "import time\n"
            "from repro.batch.digest import canonical\n"
            "def key(names, job):\n"
            "    started = time.perf_counter()\n"  # timing, not keying
            "    digest = canonical({'names': sorted(set(names))})\n"
            "    elapsed = time.perf_counter() - started\n"
            "    return digest, elapsed\n",
            rule_ids=["DIGEST-DETERMINISM"])
        assert result.clean


# ----------------------------------------------------------------------
# LOCK-DISCIPLINE
# ----------------------------------------------------------------------
LOCKED_CLASS_HEADER = (
    "import threading\n"
    "class Server:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._count = 0\n"
)


class TestLockDiscipline:
    def test_unlocked_read_of_shared_attr_is_flagged(self):
        result = lint_source(
            LOCKED_CLASS_HEADER +
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._count += 1\n"
            "    def peek(self):\n"
            "        return self._count\n",
            rule_ids=["LOCK-DISCIPLINE"])
        assert rule_ids(result) == ["LOCK-DISCIPLINE"]
        assert "_count" in result.diagnostics[0].message

    def test_locked_access_is_clean(self):
        result = lint_source(
            LOCKED_CLASS_HEADER +
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._count += 1\n"
            "    def peek(self):\n"
            "        with self._lock:\n"
            "            return self._count\n",
            rule_ids=["LOCK-DISCIPLINE"])
        assert result.clean

    def test_config_attrs_are_not_shared(self):
        # host/port are written only in __init__: immutable-after-
        # publish, free to read anywhere.
        result = lint_source(
            "import threading\n"
            "class Server:\n"
            "    def __init__(self, host, port):\n"
            "        self._lock = threading.Lock()\n"
            "        self.host = host\n"
            "        self.port = port\n"
            "    def endpoint(self):\n"
            "        return f'{self.host}:{self.port}'\n",
            rule_ids=["LOCK-DISCIPLINE"])
        assert result.clean

    def test_locked_suffix_methods_are_exempt(self):
        result = lint_source(
            LOCKED_CLASS_HEADER +
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._bump_locked()\n"
            "    def _bump_locked(self):\n"
            "        self._count += 1\n",
            rule_ids=["LOCK-DISCIPLINE"])
        assert result.clean

    def test_event_attrs_are_exempt(self):
        result = lint_source(
            "import threading\n"
            "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._serving = threading.Event()\n"
            "        self._count = 0\n"
            "    def stop(self):\n"
            "        self._serving.clear()\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._count += 1\n",
            rule_ids=["LOCK-DISCIPLINE"])
        assert result.clean

    def test_lockless_classes_are_skipped(self):
        result = lint_source(
            "class Accumulator:\n"
            "    def __init__(self):\n"
            "        self._count = 0\n"
            "    def bump(self):\n"
            "        self._count += 1\n",
            rule_ids=["LOCK-DISCIPLINE"])
        assert result.clean


class TestLockSelfDeadlock:
    """The inter-procedural half of LOCK-DISCIPLINE: calls that
    re-enter a held non-reentrant lock, found without running code."""

    def test_reentrant_call_under_held_lock_is_flagged(self):
        result = lint_source(
            LOCKED_CLASS_HEADER +
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._count += 1\n"
            "    def bump_twice(self):\n"
            "        with self._lock:\n"
            "            self._count += 2\n"
            "            self.bump()\n",
            rule_ids=["LOCK-DISCIPLINE"])
        assert rule_ids(result) == ["LOCK-DISCIPLINE"]
        assert "deadlocks the thread" in result.diagnostics[0].message

    def test_transitive_reentry_is_followed_through_helpers(self):
        result = lint_source(
            LOCKED_CLASS_HEADER +
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._count += 1\n"
            "    def relay(self):\n"
            "        self.bump()\n"
            "    def outer(self):\n"
            "        with self._lock:\n"
            "            self._count += 2\n"
            "            self.relay()\n",
            rule_ids=["LOCK-DISCIPLINE"])
        assert rule_ids(result) == ["LOCK-DISCIPLINE"]
        assert "calls into" in result.diagnostics[0].message

    def test_rlock_reentry_is_clean(self):
        result = lint_source(
            "import threading\n"
            "class Server:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "        self._count = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._count += 1\n"
            "    def bump_twice(self):\n"
            "        with self._lock:\n"
            "            self._count += 2\n"
            "            self.bump()\n",
            rule_ids=["LOCK-DISCIPLINE"])
        assert result.clean

    def test_locked_variant_call_is_clean(self):
        result = lint_source(
            LOCKED_CLASS_HEADER +
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._bump_locked()\n"
            "    def bump_twice(self):\n"
            "        with self._lock:\n"
            "            self._bump_locked()\n"
            "            self._bump_locked()\n"
            "    def _bump_locked(self):\n"
            "        self._count += 1\n",
            rule_ids=["LOCK-DISCIPLINE"])
        assert result.clean


# ----------------------------------------------------------------------
# LOCK-ORDER
# ----------------------------------------------------------------------
class TestLockOrder:
    """Cycles in the global acquisition-order graph -- seeded-deadlock
    fixtures must be detected statically, without executing anything."""

    def test_inverted_pair_in_one_class_is_flagged(self):
        result = lint_source(
            "import threading\n"
            "class Broker:\n"
            "    def __init__(self):\n"
            "        self._jobs = threading.Lock()\n"
            "        self._stats = threading.Lock()\n"
            "    def submit(self):\n"
            "        with self._jobs:\n"
            "            with self._stats:\n"
            "                pass\n"
            "    def report(self):\n"
            "        with self._stats:\n"
            "            with self._jobs:\n"
            "                pass\n",
            rule_ids=["LOCK-ORDER"])
        assert rule_ids(result) == ["LOCK-ORDER"]
        message = result.diagnostics[0].message
        assert "lock-order cycle" in message
        assert "Broker._jobs" in message and "Broker._stats" in message

    def test_cross_module_cycle_through_calls_is_flagged(self):
        # The cycle only exists in the composition: Engine.flush takes
        # Engine._lock then (via Store.save) Store._lock, while
        # Store.sync takes Store._lock then (via Engine.flush)
        # Engine._lock.  Neither file is suspicious alone.
        result = lint_sources({
            "src/proj/engine.py":
                "import threading\n"
                "from proj.store import Store\n"
                "class Engine:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._store = Store()\n"
                "    def flush(self):\n"
                "        with self._lock:\n"
                "            self._store.save()\n",
            "src/proj/store.py":
                "import threading\n"
                "from proj.engine import Engine\n"
                "class Store:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._engine = Engine()\n"
                "    def save(self):\n"
                "        with self._lock:\n"
                "            pass\n"
                "    def sync(self):\n"
                "        with self._lock:\n"
                "            self._engine.flush()\n",
        }, rule_ids=["LOCK-ORDER"])
        assert "LOCK-ORDER" in rule_ids(result)
        message = result.diagnostics[0].message
        assert "Engine._lock" in message and "Store._lock" in message
        assert "witnesses:" in message

    def test_consistent_global_order_is_clean(self):
        result = lint_source(
            "import threading\n"
            "class Broker:\n"
            "    def __init__(self):\n"
            "        self._jobs = threading.Lock()\n"
            "        self._stats = threading.Lock()\n"
            "    def submit(self):\n"
            "        with self._jobs:\n"
            "            with self._stats:\n"
            "                pass\n"
            "    def report(self):\n"
            "        with self._jobs:\n"
            "            with self._stats:\n"
            "                pass\n",
            rule_ids=["LOCK-ORDER"])
        assert result.clean

    def test_one_directional_cross_module_calls_are_clean(self):
        result = lint_sources({
            "src/proj/engine.py":
                "import threading\n"
                "from proj.store import Store\n"
                "class Engine:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self._store = Store()\n"
                "    def flush(self):\n"
                "        with self._lock:\n"
                "            self._store.save()\n",
            "src/proj/store.py":
                "import threading\n"
                "class Store:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "    def save(self):\n"
                "        with self._lock:\n"
                "            pass\n",
        }, rule_ids=["LOCK-ORDER"])
        assert result.clean


# ----------------------------------------------------------------------
# WIRE-PROTOCOL (checks against the real op table in src/)
# ----------------------------------------------------------------------
def wire_lint(source: str):
    return lint_source(source, relpath="src/proj/client.py",
                       rule_ids=["WIRE-PROTOCOL"])


class TestWireProtocol:
    def test_undeclared_op_is_flagged(self):
        result = wire_lint("def evict(sock):\n"
                           "    send_frame(sock, {'op': 'evict'})\n")
        assert rule_ids(result) == ["WIRE-PROTOCOL"]
        assert "op 'evict' is not declared" \
            in result.diagnostics[0].message
        assert result.diagnostics[0].path == "src/proj/client.py"

    def test_undeclared_field_is_flagged(self):
        result = wire_lint("def build(sock, source):\n"
                           "    send_frame(sock, {'op': 'compile',\n"
                           "                      'sorce': source})\n")
        assert rule_ids(result) == ["WIRE-PROTOCOL"]
        assert "does not declare field 'sorce'" \
            in result.diagnostics[0].message

    @pytest.mark.parametrize("op", ["get", "get_many", "put"])
    def test_the_retired_cache_ops_are_undeclared(self, op):
        result = wire_lint("def fetch(sock, digest):\n"
                           f"    send_frame(sock, {{'op': '{op}',\n"
                           "                      'digest': digest})\n")
        assert rule_ids(result) == ["WIRE-PROTOCOL"]
        assert f"op '{op}' is not declared" \
            in result.diagnostics[0].message

    def test_declared_ops_and_fields_are_clean(self):
        result = wire_lint(
            "def calls(sock, kernel, source):\n"
            "    send_frame(sock, {'op': 'ping'})\n"
            "    send_frame(sock, {'op': 'stats'})\n"
            "    send_frame(sock, {'op': 'compile', 'kernel': kernel})\n"
            "    send_frame(sock, {'op': 'compile', 'source': source,\n"
            "                      'listing': True})\n")
        assert result.clean

    def test_computed_op_and_spread_literals_are_skipped(self):
        result = wire_lint("def call(sock, op, extra):\n"
                           "    send_frame(sock, {'op': op})\n"
                           "    send_frame(sock, {'op': 'compile', **extra})\n")
        assert result.clean


# ----------------------------------------------------------------------
# DOCSTRING-PUBLIC
# ----------------------------------------------------------------------
class TestDocstringPublic:
    def test_missing_public_docstring_in_strict_package_is_flagged(self):
        result = lint_source(
            '"""Module docstring."""\n'
            "def compile_batch(jobs):\n"
            "    return jobs\n",
            relpath="src/repro/batch/newmod.py",
            rule_ids=["DOCSTRING-PUBLIC"])
        # Both tiers fire: the strict-package miss and (at 1/2 names
        # documented) the tree-wide coverage floor.
        assert set(rule_ids(result)) == {"DOCSTRING-PUBLIC"}
        assert any("compile_batch" in diag.message
                   for diag in result.diagnostics)
        assert any("floor" in diag.message
                   for diag in result.diagnostics)

    def test_documented_module_is_clean(self):
        result = lint_source(
            '"""Module docstring."""\n'
            "def compile_batch(jobs):\n"
            '    """Compile the batch."""\n'
            "    return jobs\n"
            "def _private(jobs):\n"
            "    return jobs\n",
            relpath="src/repro/batch/newmod.py",
            rule_ids=["DOCSTRING-PUBLIC"])
        assert result.clean

    def test_non_source_files_do_not_participate(self):
        result = lint_source(
            "def helper():\n    return 1\n",
            relpath="tools/somescript.py",
            rule_ids=["DOCSTRING-PUBLIC"])
        assert result.clean


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    SOURCE = ("from pathlib import Path\n"
              "text = Path('x.json').read_text()\n")

    def test_trailing_disable_suppresses_own_line(self):
        result = lint_source(
            "from pathlib import Path\n"
            "text = Path('x.json').read_text()"
            "  # repro-lint: disable=IO-ENCODING -- fixture\n",
            rule_ids=["IO-ENCODING"])
        assert result.clean
        assert result.n_suppressed == 1

    def test_standalone_disable_suppresses_next_line(self):
        result = lint_source(
            "from pathlib import Path\n"
            "# repro-lint: disable=IO-ENCODING -- fixture\n"
            "text = Path('x.json').read_text()\n",
            rule_ids=["IO-ENCODING"])
        assert result.clean
        assert result.n_suppressed == 1

    def test_disable_file_suppresses_whole_file(self):
        result = lint_source(
            "# repro-lint: disable-file=IO-ENCODING -- fixture\n"
            "from pathlib import Path\n"
            "a = Path('x.json').read_text()\n"
            "b = Path('y.json').read_text()\n",
            rule_ids=["IO-ENCODING"])
        assert result.clean
        assert result.n_suppressed == 2

    def test_unrelated_rule_id_does_not_suppress(self):
        result = lint_source(
            "from pathlib import Path\n"
            "text = Path('x.json').read_text()"
            "  # repro-lint: disable=BROAD-EXCEPT -- wrong rule\n",
            rule_ids=["IO-ENCODING"])
        assert rule_ids(result) == ["IO-ENCODING"]

    def test_all_sentinel_suppresses_everything(self):
        result = lint_source(
            "from pathlib import Path\n"
            "# repro-lint: disable=all -- fixture\n"
            "text = Path('x.json').read_text()\n",
            rule_ids=["IO-ENCODING"])
        assert result.clean

    def test_parse_errors_cannot_be_suppressed(self):
        result = lint_source(
            "# repro-lint: disable-file=all -- nice try\n"
            "def broken(:\n")
        assert rule_ids(result) == [PARSE_ERROR]


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
class TestReporters:
    def _result(self):
        return lint_source(
            "from pathlib import Path\n"
            "text = Path('x.json').read_text()\n",
            rule_ids=["IO-ENCODING"])

    def test_json_report_round_trips(self):
        result = self._result()
        report = render_json(result.diagnostics, n_files=result.n_files,
                             n_suppressed=result.n_suppressed,
                             suppressed_by_rule=result.suppressed_by_rule)
        parsed = parse_json_report(report)
        assert parsed == result.diagnostics
        payload = json.loads(report)
        assert payload["tool"] == "repro-lint"
        assert payload["schema"] == 2
        assert payload["files_checked"] == 1
        assert payload["suppressed_by_rule"] == {}
        assert payload["diagnostics"][0]["rule_id"] == "IO-ENCODING"

    def test_per_rule_suppression_counts_reach_the_report(self):
        result = lint_source(
            "from pathlib import Path\n"
            "a = Path('x.json').read_text()"
            "  # repro-lint: disable=IO-ENCODING -- fixture\n"
            "b = Path('y.json').read_text()"
            "  # repro-lint: disable=IO-ENCODING -- fixture\n",
            rule_ids=["IO-ENCODING"])
        assert result.suppressed_by_rule == {"IO-ENCODING": 2}
        payload = json.loads(render_json(
            result.diagnostics, n_files=result.n_files,
            n_suppressed=result.n_suppressed,
            suppressed_by_rule=result.suppressed_by_rule))
        assert payload["suppressed"] == 2
        assert payload["suppressed_by_rule"] == {"IO-ENCODING": 2}

    def test_schema_mismatch_is_rejected(self):
        report = json.dumps({"schema": 999, "diagnostics": []})
        with pytest.raises(ValueError):
            parse_json_report(report)

    def test_text_report_carries_location_and_summary(self):
        result = self._result()
        text = render_text(result.diagnostics, n_files=result.n_files,
                           n_suppressed=result.n_suppressed)
        assert "fixture.py:2:" in text
        assert "IO-ENCODING" in text
        assert "1 issue(s)" in text

    def test_clean_text_report_says_clean(self):
        text = render_text([], n_files=3, n_suppressed=2)
        assert "clean" in text
        assert "2 finding(s) suppressed" in text


# ----------------------------------------------------------------------
# Rule selection (--select / --rule)
# ----------------------------------------------------------------------
class TestRuleSelection:
    TARGET = str(ROOT / "tools" / "run_lint.py")

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, str(ROOT / "tools" / "run_lint.py"),
             *argv], capture_output=True, text=True, timeout=300)

    def test_select_runs_only_named_rules(self):
        completed = self._run("--select", "IO-ENCODING,BROAD-EXCEPT",
                              "--format", "json", self.TARGET)
        assert completed.returncode == 0, completed.stderr
        payload = json.loads(completed.stdout)
        assert payload["files_checked"] == 1
        assert payload["diagnostics"] == []

    def test_unknown_rule_id_exits_two_without_scanning(self):
        completed = self._run("--select", "NO-SUCH-RULE", self.TARGET)
        assert completed.returncode == 2
        assert "NO-SUCH-RULE" in completed.stderr
        assert completed.stdout == ""

    def test_unknown_rule_via_rule_flag_also_exits_two(self):
        completed = self._run("--rule", "NO-SUCH-RULE", self.TARGET)
        assert completed.returncode == 2

    def test_select_and_rule_flags_combine(self):
        result = lint_source(
            "from pathlib import Path\n"
            "try:\n"
            "    text = Path('x.json').read_text()\n"
            "except:\n"
            "    text = ''\n",
            rule_ids=["IO-ENCODING", "BROAD-EXCEPT"])
        assert sorted(rule_ids(result)) == \
            ["BROAD-EXCEPT", "IO-ENCODING"]


# ----------------------------------------------------------------------
# The repository itself
# ----------------------------------------------------------------------
class TestRepositoryIsClean:
    def test_default_targets_lint_clean(self):
        result = lint_paths()
        assert result.clean, "\n".join(
            f"{diag.location()}: {diag.rule_id} {diag.message}"
            for diag in result.diagnostics)
        assert result.n_files > 50

    def test_examples_are_in_the_default_surface(self):
        result = lint_paths(["examples"])
        assert result.clean, "\n".join(
            f"{diag.location()}: {diag.rule_id} {diag.message}"
            for diag in result.diagnostics)
        assert result.n_files > 0

    def test_cli_front_door_exits_zero(self):
        completed = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "run_lint.py"),
             "--format", "json"],
            capture_output=True, text=True, timeout=300)
        assert completed.returncode == 0, completed.stdout
        payload = json.loads(completed.stdout)
        assert payload["diagnostics"] == []
