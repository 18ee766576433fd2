"""Tests of the batch result cache: digests, stores, invalidation."""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.agu.model import AguSpec
from repro.analysis.points import ExperimentPointResult
from repro.batch.cache import (
    CacheStats,
    InMemoryLRUCache,
    ShardedDirectoryCache,
    TieredCache,
    _READ_CHUNK,
    open_cache,
)
from repro.batch.digest import job_digest
from repro.batch.engine import BatchCompiler
from repro.batch.jobs import BatchJob, jobs_from_suite
from repro.core.config import AllocatorConfig
from repro.errors import BatchError
from repro.ir.builder import pattern_from_offsets

SOURCE = """
for (i = 2; i <= 100; i++) {
    A[i+1]; A[i]; A[i+2]; A[i-1]; A[i+1]; A[i]; A[i-2];
}
"""


def _fill_store(root: str, digests: list[str], start) -> None:
    """One writer process of the shared-store test: wait for the
    other writer, then put every digest (payload derived from it)."""
    store = ShardedDirectoryCache(root)
    start.wait(timeout=30)
    for digest in digests:
        store.put(digest, {"digest": digest, "body": [digest] * 20})


def make_job(**overrides) -> BatchJob:
    fields = dict(name="example", spec=AguSpec(2, 1), source=SOURCE,
                  n_iterations=8)
    fields.update(overrides)
    return BatchJob(**fields)


class TestDigest:
    def test_digest_is_deterministic(self):
        assert job_digest(make_job()) == job_digest(make_job())

    def test_digest_is_content_addressed_not_name_addressed(self):
        """Renaming a job must not invalidate its cache entry."""
        assert job_digest(make_job(name="a")) \
            == job_digest(make_job(name="b"))

    def test_source_change_invalidates(self):
        changed = SOURCE.replace("A[i+2]", "A[i+3]")
        assert job_digest(make_job()) \
            != job_digest(make_job(source=changed))

    def test_spec_change_invalidates(self):
        assert job_digest(make_job()) \
            != job_digest(make_job(spec=AguSpec(3, 1)))
        assert job_digest(make_job()) \
            != job_digest(make_job(spec=AguSpec(2, 2)))

    def test_config_change_invalidates(self):
        default = make_job(config=AllocatorConfig())
        tweaked = make_job(config=AllocatorConfig(exact_cover_limit=5))
        assert job_digest(default) != job_digest(tweaked)
        assert job_digest(make_job()) != job_digest(default)

    def test_option_change_invalidates(self):
        assert job_digest(make_job()) \
            != job_digest(make_job(run_simulation=False))
        assert job_digest(make_job()) \
            != job_digest(make_job(n_iterations=9))
        assert job_digest(make_job()) \
            != job_digest(make_job(include_baseline=True))

    def test_pattern_jobs_digest_structurally(self):
        first = BatchJob(name="p", spec=AguSpec(2, 1),
                         pattern=pattern_from_offsets((1, 0, -1)))
        same = BatchJob(name="q", spec=AguSpec(2, 1),
                        pattern=pattern_from_offsets((1, 0, -1)))
        other = BatchJob(name="p", spec=AguSpec(2, 1),
                         pattern=pattern_from_offsets((1, 0, -2)))
        assert job_digest(first) == job_digest(same)
        assert job_digest(first) != job_digest(other)

    def test_sets_digest_independently_of_iteration_order(self):
        """Hash-order containers must not leak into the digest."""
        from repro.batch.digest import digest_payload
        first = digest_payload({"s": frozenset({"b", "a", "c"})})
        second = digest_payload({"s": frozenset({"c", "b", "a"})})
        assert first == second
        assert digest_payload({"s": frozenset({1, 2})}) \
            != digest_payload({"s": frozenset({1, 3})})

    def test_mixed_type_set_contents_digest(self):
        """Structural set ordering handles unlike member types (which
        json.dumps-free sorting must never compare directly)."""
        from repro.batch.digest import digest_payload
        first = digest_payload({"s": frozenset({None, 2.5, "a", 3})})
        second = digest_payload({"s": frozenset({"a", 3, None, 2.5})})
        assert first == second

    def test_mixed_type_dict_keys_digest(self):
        """Dicts with str and scalar keys digest deterministically
        (DIGEST_VERSION 1 raised TypeError on the sort)."""
        from repro.batch.digest import digest_payload
        first = digest_payload({1: "a", "b": 2, None: 3, 2.5: "c"})
        second = digest_payload({2.5: "c", None: 3, "b": 2, 1: "a"})
        assert first == second

    def test_key_types_are_disambiguated(self):
        """``{1: x}`` and ``{"1": x}`` are different payloads and must
        have different digests (DIGEST_VERSION 1 collided them)."""
        from repro.batch.digest import digest_payload
        assert digest_payload({1: "x"}) != digest_payload({"1": "x"})
        assert digest_payload({True: "x"}) != digest_payload({"True": "x"})
        assert digest_payload({None: "x"}) != digest_payload({"None": "x"})

    def test_non_scalar_dict_keys_are_rejected(self):
        """Tuple (or other structured) keys fail loudly instead of
        being stringified into a collision-prone encoding."""
        from repro.batch.digest import digest_payload
        with pytest.raises(TypeError, match="digest payload keys"):
            digest_payload({(1, 2): "x"})

    def test_digest_is_stable_across_process_restarts(self):
        """The exact key survives a fresh interpreter (disk caches
        would silently never hit otherwise)."""
        here = job_digest(make_job())
        script = (
            "from repro.batch.digest import job_digest\n"
            "from repro.batch.jobs import BatchJob\n"
            "from repro.agu.model import AguSpec\n"
            f"job = BatchJob(name='example', spec=AguSpec(2, 1), "
            f"source={SOURCE!r}, n_iterations=8)\n"
            "print(job_digest(job))\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        there = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True).stdout.strip()
        assert here == there


class TestInMemoryLRUCache:
    def test_miss_then_hit(self):
        cache = InMemoryLRUCache()
        assert cache.get("k") is None
        cache.put("k", {"x": 1})
        assert cache.get("k") == {"x": 1}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = InMemoryLRUCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")          # refresh a; b is now LRU
        cache.put("c", {"v": 3})
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}
        assert len(cache) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(BatchError):
            InMemoryLRUCache(capacity=0)

    def test_stats_str(self):
        assert "0 hit(s)" in str(CacheStats())


#: Every store that remains, built fresh under a test's tmp_path.
STORES = {
    "lru": lambda root: InMemoryLRUCache(),
    "dir": lambda root: ShardedDirectoryCache(root / "store"),
    "tiered": lambda root: TieredCache(),
    "tiered-dir": lambda root: TieredCache(
        ShardedDirectoryCache(root / "store")),
}


class TestCachePayloadIsolation:
    """A caller mutating a payload must never corrupt cached state."""

    PAYLOAD = {"x": 1, "nested": {"y": 2}}

    def _mutate(self, payload: dict) -> None:
        payload["x"] = 99
        payload["nested"]["y"] = 99

    @pytest.mark.parametrize("store", sorted(STORES))
    def test_get_returns_a_defensive_copy(self, tmp_path, store):
        cache = STORES[store](tmp_path)
        cache.put("k", {"x": 1, "nested": {"y": 2}})
        self._mutate(cache.get("k"))
        assert cache.get("k") == self.PAYLOAD

    @pytest.mark.parametrize("store", sorted(STORES))
    def test_put_detaches_from_the_caller(self, tmp_path, store):
        cache = STORES[store](tmp_path)
        payload = {"x": 1, "nested": {"y": 2}}
        cache.put("k", payload)
        self._mutate(payload)
        assert cache.get("k") == self.PAYLOAD

    def test_a_point_payload_is_detached_from_its_result(self):
        """``payload()`` copies the measured values: mutating the
        payload (as a store's caller may) leaves the result alone."""
        values = {"rows": [{"n": 10, "cost": [1.5, 2]}], "k": 2}
        result = ExperimentPointResult(
            name="p", digest="d", experiment="stats", index=3,
            values=values, wall_seconds=0.25)
        payload = result.payload()
        assert payload == {"digest": "d", "experiment": "stats",
                           "values": values, "wall_seconds": 0.25}
        payload["values"]["rows"][0]["cost"].append(99)
        payload["values"]["k"] = 0
        assert result.values == {"rows": [{"n": 10, "cost": [1.5, 2]}],
                                 "k": 2}

    @pytest.mark.parametrize("store", ["dir", "tiered-dir"])
    def test_mutation_never_reaches_disk(self, tmp_path, store):
        cache = STORES[store](tmp_path)
        cache.put("k", {"x": 1, "nested": {"y": 2}})
        self._mutate(cache.get("k"))
        cache.put("other", {"z": 3})
        assert ShardedDirectoryCache(tmp_path / "store").get("k") \
            == self.PAYLOAD


class TestFlushFailure:
    """Directory-store writes go through one atomic temp-file write."""

    def test_original_error_survives_cleanup_failure(self, tmp_path,
                                                     monkeypatch):
        """A failing temp-file unlink must not mask the write error."""
        import repro.batch.cache as cache_module

        cache = ShardedDirectoryCache(tmp_path / "store")

        def explode(*args, **kwargs):
            raise ValueError("original write error")

        def bad_unlink(path):
            raise OSError("cleanup also failed")

        monkeypatch.setattr(cache_module.json, "dump", explode)
        monkeypatch.setattr(cache_module.os, "unlink", bad_unlink)
        with pytest.raises(ValueError, match="original write error"):
            cache.put("k" * 64, {"x": 1})
        assert cache.stats.stores == 0

    def test_failed_flush_removes_its_temp_file(self, tmp_path,
                                                monkeypatch):
        import repro.batch.cache as cache_module

        cache = ShardedDirectoryCache(tmp_path / "store")

        def explode(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cache_module.json, "dump", explode)
        with pytest.raises(ValueError):
            cache.put("k" * 64, {"x": 1})
        assert not list(tmp_path.rglob("*.tmp"))
        assert cache.get("k" * 64) is None


class TestShardedDirectoryCache:
    def test_persists_across_instances_with_sharded_layout(self,
                                                           tmp_path):
        root = tmp_path / "store"
        digest = "ab12" + "0" * 60
        first = ShardedDirectoryCache(root)
        first.put(digest, {"x": 1})
        assert (root / "ab" / f"{digest}.json").exists()
        second = ShardedDirectoryCache(root)
        assert second.get(digest) == {"x": 1}
        assert second.stats.hits == 1
        assert len(second) == 1

    def test_entry_is_sorted_json(self, tmp_path):
        cache = ShardedDirectoryCache(tmp_path / "store")
        digest = "ab" * 32
        cache.put(digest, {"b": 1, "a": {"d": 2, "c": 3}})
        stored = json.loads(Path(cache._entry_path(digest)).read_text())
        assert list(stored) == ["a", "b"]
        assert list(stored["a"]) == ["c", "d"]

    def test_corrupt_entry_costs_only_itself(self, tmp_path):
        """Per-entry salvage: one bad entry must not nuke the store."""
        cache = ShardedDirectoryCache(tmp_path / "store")
        good, bad = "aa" * 32, "ab" * 32
        cache.put(good, {"x": 1})
        cache.put(bad, {"x": 2})
        Path(cache._entry_path(bad)).write_text("oops")
        assert cache.get(good) == {"x": 1}
        assert cache.get(bad) is None
        assert len(cache) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_engine_persists_each_computed_result_with_one_put(
            self, tmp_path):
        """Every distinct miss is stored once, as it lands; an in-batch
        duplicate and a pre-warmed job are never written again."""
        jobs = jobs_from_suite("core8", AguSpec(4, 1), n_iterations=4)
        cache = ShardedDirectoryCache(tmp_path / "store")
        BatchCompiler(cache=cache).compile(jobs[:1])
        assert cache.stats.stores == 1
        report = BatchCompiler(cache=cache).compile([*jobs, jobs[1]])
        assert cache.stats.stores == len(jobs)
        assert report.n_cache_hits == 2
        assert len(ShardedDirectoryCache(cache.root)) == len(jobs)

    def test_miss_on_empty_and_corrupt_entries(self, tmp_path):
        cache = ShardedDirectoryCache(tmp_path / "store")
        assert cache.get("feed" * 16) is None
        cache.put("feed" * 16, {"x": 1})
        Path(cache._entry_path("feed" * 16)).write_text("{ not json")
        assert cache.get("feed" * 16) is None
        assert cache.stats.misses == 2

    def test_corrupt_entry_is_removed_not_raised(self, tmp_path):
        """A bad entry must be discarded so the recompiled result can
        take its place (and re-reads stop paying for the parse)."""
        cache = ShardedDirectoryCache(tmp_path / "store")
        digest = "feed" * 16
        cache.put(digest, {"x": 1})
        entry = Path(cache._entry_path(digest))
        entry.write_text("{ not json")
        assert cache.get(digest) is None
        assert not entry.exists()
        cache.put(digest, {"x": 2})  # the slot is writable again
        assert cache.get(digest) == {"x": 2}

    def test_non_mapping_entry_is_removed(self, tmp_path):
        cache = ShardedDirectoryCache(tmp_path / "store")
        digest = "beef" * 16
        cache.put(digest, {"x": 1})
        entry = Path(cache._entry_path(digest))
        entry.write_text(json.dumps([1, 2, 3]))
        assert cache.get(digest) is None
        assert not entry.exists()
        assert cache.stats.misses == 1

    def test_missing_entry_does_not_attempt_removal(self, tmp_path):
        cache = ShardedDirectoryCache(tmp_path / "store")
        assert cache.get("dead" * 16) is None
        assert cache.stats.misses == 1

    def test_discard_reverifies_before_unlinking(self, tmp_path):
        """The shared-store race: if a concurrent writer's atomic
        rename lands a valid entry before the discard fires, the
        discard must notice and spare it."""
        cache = ShardedDirectoryCache(tmp_path / "store")
        digest = "feed" * 16
        cache.put(digest, {"v": 1})
        cache._discard(cache._entry_path(digest))
        assert cache.get(digest) == {"v": 1}

    def test_unreadable_entry_is_a_miss_but_not_discarded(self,
                                                          tmp_path):
        """Only *provably corrupt* entries are removed.  A read that
        fails for other reasons (here: the path is a directory; in the
        field: a transient EIO/ESTALE on a shared mount) must not
        destroy what may be another host's valid entry."""
        cache = ShardedDirectoryCache(tmp_path / "store")
        digest = "cafe" * 16
        entry = Path(cache._entry_path(digest))
        entry.mkdir(parents=True)
        assert cache.get(digest) is None
        assert cache.stats.misses == 1
        assert entry.exists()

    def test_unsafe_keys_are_hashed_to_file_names(self, tmp_path):
        cache = ShardedDirectoryCache(tmp_path / "store")
        # Slashes, leading dots: anything that could leave the root.
        for key in ("../escape/attempt", "..evil", ".hidden-entry"):
            cache.put(key, {"key": key})
            assert cache.get(key) == {"key": key}
            entry = Path(cache._entry_path(key))
            assert entry.resolve().is_relative_to(
                (tmp_path / "store").resolve())
        assert not list(tmp_path.glob("*.json"))  # nothing beside root

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-16-le",
                                          "utf-32", "utf-8-sig"])
    def test_an_entry_in_another_encoding_is_corrupt(self, tmp_path,
                                                     encoding):
        """Entries are UTF-8.  ``json.loads`` would accept these bytes
        (it detects UTF-16/32 and skips a UTF-8 BOM); the store must
        not: each is a miss and is discarded."""
        cache = ShardedDirectoryCache(tmp_path / "store")
        digest = "feed" * 16
        entry = Path(cache._entry_path(digest))
        entry.parent.mkdir(parents=True)
        entry.write_bytes(json.dumps({"x": 1}).encode(encoding))
        assert cache.get(digest) is None
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        assert not entry.exists()

    def test_an_entry_that_is_not_utf8_is_corrupt(self, tmp_path):
        cache = ShardedDirectoryCache(tmp_path / "store")
        digest = "feed" * 16
        entry = Path(cache._entry_path(digest))
        entry.parent.mkdir(parents=True)
        entry.write_bytes(b'{"x": "\xff\xfe"}')
        assert cache.get(digest) is None
        assert cache.stats.misses == 1
        assert not entry.exists()

    def test_an_entry_larger_than_one_read_round_trips(self, tmp_path):
        """An entry is read in ``os.read`` chunks until EOF, so one
        spanning several chunks comes back whole."""
        cache = ShardedDirectoryCache(tmp_path / "store")
        digest = "feed" * 16
        payload = {"text": "x" * (200 * 1024), "tail": [1, 2]}
        cache.put(digest, payload)
        assert os.path.getsize(cache._entry_path(digest)) > _READ_CHUNK
        assert ShardedDirectoryCache(cache.root).get(digest) == payload

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd to count descriptors")
    def test_no_descriptor_leaks_on_any_outcome(self, tmp_path):
        """A hit, a miss, a directory at the entry path (``os.open``
        succeeds on it, ``os.read`` raises ``EISDIR``), a corrupt entry
        and a non-UTF-8 one each close what they opened."""
        cache = ShardedDirectoryCache(tmp_path / "store")
        hit, missing, directory, corrupt, not_utf8 = (
            f"{index:02x}" * 32 for index in range(5))
        cache.put(hit, {"x": 1})
        Path(cache._entry_path(directory)).mkdir(parents=True)
        for digest, data in ((corrupt, b"{ not json"),
                             (not_utf8, b'{"x": "\xff"}')):
            entry = Path(cache._entry_path(digest))
            entry.parent.mkdir(parents=True, exist_ok=True)
            entry.write_bytes(data)
        before = len(os.listdir("/proc/self/fd"))
        assert cache.get(hit) == {"x": 1}
        for digest in (missing, directory, corrupt, not_utf8):
            assert cache.get(digest) is None
        assert len(os.listdir("/proc/self/fd")) == before
        assert cache.stats.hits == 1 and cache.stats.misses == 4
        assert Path(cache._entry_path(directory)).is_dir()
        assert not Path(cache._entry_path(corrupt)).exists()

    @pytest.mark.parametrize("root", ["store", "store/", "./store",
                                      "store//", "./store/."])
    def test_relative_and_trailing_separator_roots(self, tmp_path,
                                                   monkeypatch, root):
        """A root given relative or with trailing separators reads the
        entries of the ``root / shard / file`` layout, and writes
        there."""
        monkeypatch.chdir(tmp_path)
        old, unsafe = "ab12" + "0" * 60, "../not a file name"
        rehashed = ShardedDirectoryCache("x")._entry_path(unsafe)
        name = Path(rehashed).name
        for digest, file_name in ((old, f"{old}.json"), (unsafe, name)):
            entry = tmp_path / "store" / file_name[:2] / file_name
            entry.parent.mkdir(parents=True, exist_ok=True)
            entry.write_text(json.dumps({"digest": digest}),
                             encoding="utf-8")
        cache = ShardedDirectoryCache(root.replace("/", os.sep))
        assert cache.get(old) == {"digest": old}
        assert cache.get(unsafe) == {"digest": unsafe}
        assert cache.stats.hits == 2
        cache.put("cd34" + "0" * 60, {"y": 2})
        assert json.loads((tmp_path / "store" / "cd" /
                           f"cd34{'0' * 60}.json").read_text()) \
            == {"y": 2}
        assert len(cache) == 3

    def test_engine_integration_cold_then_warm(self, tmp_path):
        root = tmp_path / "store"
        jobs = jobs_from_suite("core8", AguSpec(4, 1), n_iterations=4)
        cold = BatchCompiler(cache=ShardedDirectoryCache(root)) \
            .compile(jobs)
        assert cold.n_compiled == len(jobs)
        warm = BatchCompiler(cache=ShardedDirectoryCache(root)) \
            .compile(jobs)
        assert warm.n_cache_hits == len(jobs)
        assert warm.n_compiled == 0
        assert [r.total_cost for r in warm.results] \
            == [r.total_cost for r in cold.results]

    def test_concurrent_style_writes_do_not_clobber(self, tmp_path):
        """Two handles to one store (as two hosts would have)."""
        root = tmp_path / "store"
        left, right = ShardedDirectoryCache(root), \
            ShardedDirectoryCache(root)
        left.put("a" * 64, {"who": "left"})
        right.put("b" * 64, {"who": "right"})
        assert left.get("b" * 64) == {"who": "right"}
        assert right.get("a" * 64) == {"who": "left"}

    def test_concurrent_processes_share_one_store(self, tmp_path):
        """Processes (more than the host has cores) fill overlapping
        digest sets into one store at the same time: every entry reads
        back whole, no temp file is left behind, and the store holds
        exactly the union."""
        root = tmp_path / "shared"
        digests = [f"{index:064x}" for index in range(200)]
        parts = [digests[start:start + 80] for start in (0, 40, 80, 120)]
        context = multiprocessing.get_context("spawn")
        start = context.Barrier(len(parts))
        writers = [context.Process(target=_fill_store,
                                   args=(str(root), part[::step], start))
                   for part, step in zip(parts, (1, -1, 1, -1))]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        assert not any(writer.is_alive() for writer in writers)
        assert [writer.exitcode for writer in writers] == [0] * 4
        store = ShardedDirectoryCache(root)
        for digest in digests:
            assert store.get(digest) == {"digest": digest,
                                         "body": [digest] * 20}
        assert not list(root.rglob("*.tmp"))
        assert len(store) == len(set().union(*parts))


class TestOpenCache:
    def test_spec_mapping(self, tmp_path):
        assert isinstance(open_cache("mem"), InMemoryLRUCache)
        sized = open_cache("mem:16")
        assert isinstance(sized, InMemoryLRUCache)
        assert sized.capacity == 16
        assert isinstance(open_cache(str(tmp_path / "store")),
                          ShardedDirectoryCache)
        assert isinstance(open_cache(f"dir:{tmp_path / 'y.json'}"),
                          ShardedDirectoryCache)

    # Table-driven scheme parsing: only *known* schemes are schemes.
    # Bare paths may contain colons (drive letters, odd file names)
    # and must open as paths, not be misparsed as scheme specs.
    BARE_PATH_SPECS = [
        (r"C:\cache", ShardedDirectoryCache),
        ("./odd:name", ShardedDirectoryCache),
        ("relative/plain", ShardedDirectoryCache),
        ("store.v2:final", ShardedDirectoryCache),
    ]

    @pytest.mark.parametrize("spec, expected", BARE_PATH_SPECS)
    def test_colon_bearing_bare_paths_open_as_paths(self, spec,
                                                    expected):
        cache = open_cache(spec)
        assert isinstance(cache, expected)
        assert cache.root == Path(spec)

    @pytest.mark.parametrize("spec", ["", "dir:"])
    def test_an_empty_path_is_rejected(self, spec, tmp_path,
                                       monkeypatch):
        """An empty path must not open the working directory as a
        store (the first put would shard entries all over it)."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(BatchError, match="names no path"):
            open_cache(spec)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("spec", [
        "json:results/cache.json", "json:results/cache",
        "results/cache.json", "odd:name.json", r"C:\cache\results.json",
    ])
    def test_single_file_specs_point_at_a_directory_store(self, spec):
        with pytest.raises(BatchError, match="dir:PATH"):
            open_cache(spec)

    @pytest.mark.parametrize("prefix", ["", "dir:"])
    def test_an_existing_file_is_refused_not_overwritten(
            self, tmp_path, prefix):
        """A spec naming a real file -- an old single-file store or a
        typo'd path to user data -- fails loudly and leaves it be."""
        precious = tmp_path / "notes.txt"
        precious.write_text("do not lose this")
        with pytest.raises(BatchError, match="dir:PATH"):
            open_cache(f"{prefix}{precious}")
        assert precious.read_text() == "do not lose this"

    @pytest.mark.parametrize("spec", [
        "tcp://127.0.0.1:8741", "tcp://:8741", "tcp://[::1]:8741",
        "tcp://10.0.0.5:8741?timeout=2.5&retry_interval=0.5",
        "TCP://cache-host:8741", "tcp:127.0.0.1:8741"])
    def test_tcp_is_an_unknown_cache_scheme(self, spec, tmp_path,
                                            monkeypatch):
        """There is no cache server: a ``tcp://`` spec fails at open
        time with the scheme error naming the schemes that exist, and
        opens nothing."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(BatchError, match="unknown cache scheme") \
                as caught:
            open_cache(spec)
        assert "known schemes: mem, dir;" in str(caught.value)
        assert not list(tmp_path.iterdir())

    INVALID_SPECS = [
        "mem:notanumber",
        "tcp://hostonly",          # the retired remote scheme
        "tcp://host:port",
        "tcp://host:8741?bogus=1",
        "tcp://host:8741?timeout=abc",
        "redis://somewhere:6379",  # unknown scheme, rejected loudly
        "s3://bucket/key",
        # URL-style typos of known single-colon schemes must not open
        # stores at //PATH (the filesystem root).
        "json://results.json",
        "dir://data",
        "mem://16",
    ]

    @pytest.mark.parametrize("spec", INVALID_SPECS)
    def test_invalid_specs_are_rejected(self, spec):
        with pytest.raises(BatchError):
            open_cache(spec)


class TestEngineCacheBehaviour:
    SPEC = AguSpec(4, 1)

    def test_hit_miss_accounting_through_the_engine(self):
        compiler = BatchCompiler()
        jobs = jobs_from_suite("core8", self.SPEC, n_iterations=4)
        first = compiler.compile(jobs)
        assert first.n_compiled == len(jobs)
        assert compiler.cache.stats.misses == len(jobs)
        second = compiler.compile(jobs)
        assert second.n_compiled == 0
        assert second.n_cache_hits == len(jobs)
        assert compiler.cache.stats.hits == len(jobs)

    def test_config_change_misses_the_cache(self):
        compiler = BatchCompiler()
        jobs = jobs_from_suite("core8", self.SPEC, n_iterations=4)
        compiler.compile(jobs)
        tighter = jobs_from_suite(
            "core8", self.SPEC, AllocatorConfig(exact_cover_limit=4),
            n_iterations=4)
        report = compiler.compile(tighter)
        assert report.n_cache_hits == 0
        assert report.n_compiled == len(tighter)

    def test_disk_cache_spans_engine_instances(self, tmp_path):
        spec = f"dir:{tmp_path / 'results'}"
        jobs = jobs_from_suite("core8", self.SPEC, n_iterations=4)
        cold = BatchCompiler(cache=open_cache(spec)).compile(jobs)
        assert cold.n_compiled == len(jobs)
        warm = BatchCompiler(cache=open_cache(spec)).compile(jobs)
        assert warm.n_cache_hits == len(jobs)
        assert warm.n_compiled == 0
        assert [r.total_cost for r in warm.results] \
            == [r.total_cost for r in cold.results]

    def test_malformed_cache_payload_is_recompiled(self, tmp_path):
        root = tmp_path / "results"
        jobs = jobs_from_suite("core8", self.SPEC, n_iterations=4)
        BatchCompiler(cache=ShardedDirectoryCache(root)).compile(jobs)
        for entry in root.glob("*/*.json"):
            entry.write_text(json.dumps({"garbage": True}))
        report = BatchCompiler(
            cache=ShardedDirectoryCache(root)).compile(jobs)
        assert report.n_cache_hits == 0
        assert report.all_audits_ok

    def test_the_scan_gets_each_unique_digest_once(self):
        """The engine's cache scan is one ``get`` per unique digest,
        hit or miss; duplicates share the first lookup."""
        looked_up: list[str] = []

        class Recording(InMemoryLRUCache):
            def get(self, digest):
                looked_up.append(digest)
                return super().get(digest)

        store = Recording()
        jobs = jobs_from_suite("core8", self.SPEC, n_iterations=4)
        twin = BatchJob(name="twin", spec=jobs[0].spec,
                        source=jobs[0].source, n_iterations=4)
        BatchCompiler(cache=store).compile([*jobs, twin])
        digests = [job_digest(job) for job in jobs]
        assert looked_up == digests
        looked_up.clear()
        warm = BatchCompiler(cache=store).compile([*jobs, twin])
        assert warm.n_cache_hits == len(jobs) + 1
        assert looked_up == digests
        assert store.stats.hits == len(jobs)

    def test_duplicate_jobs_compile_once_per_batch(self):
        compiler = BatchCompiler()
        job = jobs_from_suite("core8", self.SPEC, n_iterations=4)[0]
        twin = BatchJob(name="twin", spec=job.spec, source=job.source,
                        n_iterations=4)
        report = compiler.compile([job, twin])
        assert report.n_jobs == 2
        assert report.n_compiled == 1
        assert report.n_cache_hits == 1
        assert report.result("twin").total_cost \
            == report.results[0].total_cost


class TestStatsInvariants:
    """Property test: every backend's counters agree with a model dict
    (``hits + misses == lookups``, one store per persisted entry)."""

    def exercise(self, cache, seed: int) -> None:
        rng = random.Random(seed)
        keys = [f"digest-{i:02d}" for i in range(12)]
        model: dict[str, dict] = {}
        gets = hits = stores = 0
        for _ in range(120):
            action = rng.random()
            key = rng.choice(keys)
            if action < 0.5:
                gets += 1
                expected = model.get(key)
                assert cache.get(key) == expected
                hits += expected is not None
            else:
                payload = {"v": rng.randrange(100)}
                cache.put(key, payload)
                model[key] = payload
                stores += 1
        assert cache.stats.hits == hits
        assert cache.stats.misses == gets - hits
        assert cache.stats.lookups == gets
        assert cache.stats.stores == stores

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_in_memory(self, seed):
        self.exercise(InMemoryLRUCache(), seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sharded_directory(self, tmp_path, seed):
        self.exercise(ShardedDirectoryCache(tmp_path / "store"), seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiered(self, seed):
        self.exercise(TieredCache(InMemoryLRUCache()), seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiered_over_a_directory(self, tmp_path, seed):
        self.exercise(
            TieredCache(ShardedDirectoryCache(tmp_path / "store")), seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tiered_without_a_backend(self, seed):
        self.exercise(TieredCache(), seed)
