"""Result caches for the batch compilation engine.

Two local stores share one tiny mapping-style protocol (``get``/``put``
plus hit/miss statistics; see :class:`CacheBackend`):

* :class:`InMemoryLRUCache` -- bounded, process-local; the default of
  :class:`~repro.batch.engine.BatchCompiler`, good for repeated runs
  inside one experiment process.
* :class:`ShardedDirectoryCache` -- the on-disk store: one file per
  entry under sharded subdirectories, so re-runs across process
  restarts skip recompilation.  Because every write is an independent
  atomic rename, many processes (or many hosts over a shared mounted
  path) can work against one store concurrently without coordination.

The engine stores each result with one ``put`` the moment it exists.

Payloads are plain JSON-able dicts (the lowered
:class:`~repro.batch.jobs.JobResult`); keys are the content digests
of :mod:`repro.batch.digest`.  Stores hand out and keep *defensive
copies*: mutating a payload after ``put`` or a dict returned by
``get`` never reaches the cached state.

:func:`open_cache` maps a CLI-style spec string (``mem``,
``dir:PATH``, or a bare path) to a backend.  Only *known* schemes are
treated as schemes, so bare paths containing a colon (``C:\\cache``,
``./odd:name``) open as paths.  Results are shared between processes,
and between hosts, through one directory store on a shared or mounted
path; there is no cache server.

Stats accounting is uniform across backends: every ``get`` counts
exactly one hit or one miss (``hits + misses == lookups``), every
entry actually persisted counts one store, and a corrupt or unreadable on-disk entry counts
a miss instead of raising into the batch -- provably corrupt entries
are additionally removed so the recompiled result can take their
place (transient read errors are not, to protect shared stores).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.errors import BatchError


@dataclass
class CacheStats:
    """Hit/miss/store counters, reset with the cache's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups answered (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when the cache was never consulted)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __str__(self) -> str:
        return (f"{self.hits} hit(s), {self.misses} miss(es), "
                f"{self.stores} store(s)")


@runtime_checkable
class CacheBackend(Protocol):
    """What the engine needs from a result store.

    Any object with these two methods (plus a ``stats`` attribute for
    reporting) plugs into :class:`~repro.batch.engine.BatchCompiler`,
    whose cache scan probes each unique digest with one ``get``.
    """

    def get(self, digest: str) -> dict | None: ...

    def put(self, digest: str, payload: dict) -> None: ...


#: The JSON scalar types: immutable, so copies share them.
_SCALARS = (str, int, float, bool, type(None))


def copy_json(value):
    """A copy of a JSON-able value that shares no container with it.

    Dicts, lists and tuples (as lists) are rebuilt level by level;
    scalars are shared, without a call per item.
    """
    if isinstance(value, dict):
        return {key: item if type(item) in _SCALARS else copy_json(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [item if type(item) in _SCALARS else copy_json(item)
                for item in value]
    return value


def _atomic_write_json(target: str, payload) -> None:
    """Write ``payload`` as JSON via temp file + rename.

    A failed write cleans up its temp file, but a cleanup failure must
    never mask the original error -- that is what callers need to see.
    """
    directory, name = os.path.split(target)
    os.makedirs(directory, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=directory,
        prefix=name + ".", suffix=".tmp", delete=False)
    try:
        with handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


@dataclass
class InMemoryLRUCache:
    """A bounded in-memory result cache with LRU eviction."""

    capacity: int = 1024
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise BatchError(
                f"cache capacity must be >= 1, got {self.capacity}")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: str) -> dict | None:
        """A copy of the payload under ``digest``, or ``None`` on a miss."""
        try:
            payload = self._entries[digest]
        except KeyError:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(digest)
        self.stats.hits += 1
        return copy_json(payload)

    def put(self, digest: str, payload: dict) -> None:
        """Store a copy of ``payload``; evicts the least recently used."""
        self._entries[digest] = copy_json(payload)
        self._entries.move_to_end(digest)
        self.stats.stores += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


#: Digests that can be used verbatim as file names; anything else is
#: re-hashed (the mapping only has to be deterministic, not readable).
#: The leading character must not be a dot: a ``..``-prefixed name
#: would shard into ``root/../`` and escape the store.
_FILENAME_SAFE = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]{2,199}")


#: Flags an entry is opened with: read-only, and binary where the
#: platform tells text from binary (``O_BINARY`` exists only there).
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)

#: Bytes asked for per ``os.read``: more than a typical entry, so one
#: read takes it whole and a second finds EOF.
_READ_CHUNK = 1 << 16


class ShardedDirectoryCache:
    """A shareable result cache: one file per entry, sharded directories.

    Entries live at ``root/<digest[:2]>/<digest>.json`` -- 256-way
    sharding keeps any one directory small even for grid-scale stores.
    Every write is an independent atomic rename, so any number of
    workers, processes, or hosts (over a mounted shared path) can read
    and write one store concurrently without locks: a reader sees a
    complete entry or none.  Unreadable or corrupt entries degrade to
    misses and are recompiled.

    An entry is read with raw ``os.open``/``os.read`` calls until
    ``os.read`` returns no bytes (EOF), the descriptor closed in a
    ``finally``; there is no buffered file object.  Its bytes are
    decoded strictly as UTF-8 before ``json.loads`` parses them once,
    so an entry in any other encoding (``json.loads`` would auto-detect
    UTF-16 and UTF-32 in bytes) is corrupt, like one that is not JSON.
    Entry paths are built by string operations on the root's normalised
    form, the same paths ``root / shard / file`` names.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.stats = CacheStats()
        self._prefix = os.path.join(str(self.root), "")

    def _entry_path(self, digest: str) -> str:
        name = digest if _FILENAME_SAFE.fullmatch(digest) else \
            hashlib.sha256(digest.encode("utf-8")).hexdigest()
        return f"{self._prefix}{name[:2]}{os.sep}{name}.json"

    @staticmethod
    def _load(path: str):
        """The parsed entry at ``path``.  Raises ``OSError`` when it
        cannot be read and ``ValueError`` when its bytes are not UTF-8
        JSON."""
        # repro-lint: disable=IO-ENCODING -- a raw descriptor has no text mode
        fd = os.open(path, _READ_FLAGS)
        try:
            chunks = []
            while chunk := os.read(fd, _READ_CHUNK):
                chunks.append(chunk)
        finally:
            os.close(fd)
        return json.loads(b"".join(chunks).decode("utf-8"))

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def get(self, digest: str) -> dict | None:
        """The payload under ``digest``; unreadable or corrupt entries
        count a miss (see the discard rules above)."""
        path = self._entry_path(digest)
        try:
            payload = self._load(path)
        except OSError:
            # Missing or unreadable: a miss, but never a discard -- a
            # transient EIO/ESTALE on a shared mount must not destroy
            # another host's perfectly good entry.
            self.stats.misses += 1
            return None
        except ValueError:
            # Provably corrupt content (atomic renames guarantee full
            # writes, so this is real damage, not a torn write):
            # discard it so the recompiled result can take its place.
            self._discard(path)
            self.stats.misses += 1
            return None
        if not isinstance(payload, dict):
            self._discard(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    @classmethod
    def _discard(cls, path: str) -> None:
        """Remove a corrupt entry -- after re-checking that it still
        *is* corrupt, so a concurrent writer's fresh atomic rename onto
        the same path is (almost) never the thing unlinked.  The re-read
        narrows the race to unlink-after-verify; losing that one costs a
        recompile, never a wrong result."""
        try:
            payload = cls._load(path)
        except OSError:
            return
        except ValueError:
            payload = None
        if isinstance(payload, dict):
            return
        try:
            os.unlink(path)
        except OSError:
            pass

    def put(self, digest: str, payload: dict) -> None:
        """Write ``payload`` to its own entry file with an atomic
        rename."""
        _atomic_write_json(self._entry_path(digest), payload)
        self.stats.stores += 1


class TieredCache:
    """A warm in-process LRU tier in front of any other backend.

    The serving front end's cache: hot digests are answered from a
    process-local :class:`InMemoryLRUCache` without touching the
    backing store at all, while misses fall through to the backend and
    *promote* -- a payload fetched once is warm from then on.  Writes
    go to both tiers.  ``backend=None`` degrades to a
    plain bounded LRU, which makes the tier usable as the serve
    endpoint's default cache with no store configured.

    Unlike the single-process backends, this one is thread-safe: the
    warm tier and the stats sit behind one lock, backend access behind
    another, so concurrent warm hits are never stuck behind one slow
    backend read.  Backends without their own thread safety are
    fine -- all backend calls are serialized.

    Stats follow the uniform accounting: one hit or miss per ``get``
    (a hit whichever tier answered), one store per entry written.  The
    backend keeps its own counters, which is what lets callers tell
    warm hits from backend hits (the difference never reaches the
    backend's ``lookups``).
    """

    def __init__(self, backend: CacheBackend | None = None, *,
                 capacity: int = 4096):
        if isinstance(backend, TieredCache):
            raise BatchError(
                "a TieredCache cannot front another TieredCache")
        self.backend = backend
        self.stats = CacheStats()
        self._warm = InMemoryLRUCache(capacity=capacity)
        self._warm_lock = threading.RLock()
        self._backend_lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._warm)

    def __repr__(self) -> str:
        return (f"TieredCache(capacity={self._warm.capacity}, "
                f"backend={self.backend!r})")

    def get(self, digest: str) -> dict | None:
        """The payload under ``digest``: warm tier first, then the
        backend (promoting the payload into the warm tier on a hit)."""
        with self._warm_lock:
            payload = self._warm.get(digest)
            if payload is not None:
                self.stats.hits += 1
                return payload
        payload = None
        if self.backend is not None:
            with self._backend_lock:
                payload = self.backend.get(digest)
        with self._warm_lock:
            if not isinstance(payload, dict):
                self.stats.misses += 1
                return None
            self._warm.put(digest, payload)
            self.stats.hits += 1
        return payload

    def put(self, digest: str, payload: dict) -> None:
        """Store ``payload`` in both tiers."""
        with self._warm_lock:
            self._warm.put(digest, payload)
            self.stats.stores += 1
        if self.backend is not None:
            with self._backend_lock:
                self.backend.put(digest, payload)


#: The spec schemes :func:`open_cache` understands.  Matching is
#: restricted to this set on purpose: a bare path that happens to
#: contain a colon (``C:\cache``, ``./odd:name``) must open as a path,
#: not be misparsed as a scheme-prefixed spec.
KNOWN_CACHE_SCHEMES = ("mem", "dir")

#: Anything shaped like ``scheme://...``; used only to *reject* unknown
#: schemes loudly (a typo like ``redis://...`` should not silently
#: become a directory store named "redis:").
_URL_LIKE = re.compile(r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://")

def _unknown_scheme(scheme: str, text: str) -> BatchError:
    """The error for a spec whose scheme :func:`open_cache` lacks."""
    return BatchError(
        f"unknown cache scheme {scheme!r} in spec {text!r} (known "
        f"schemes: {', '.join(KNOWN_CACHE_SCHEMES)}; bare paths need "
        f"no scheme)")


def _no_file_store(text: str) -> BatchError:
    """The error for a spec naming a single-file store (or any file)."""
    return BatchError(
        f"cache spec {text!r} names a single-file store, which is not "
        f"supported; pass dir:PATH with PATH a directory (e.g. "
        f"dir:results/cache) -- results cached in an old file store "
        f"recompile once into it")


def open_cache(spec: str | Path) -> CacheBackend:
    """Open a cache backend from a spec string.

    * ``mem`` or ``mem:CAPACITY`` -- process-local LRU;
    * ``dir:PATH``, or a bare path -- :class:`ShardedDirectoryCache`
      (the on-disk store, shared by processes and hosts that see the
      same path).

    Only the schemes above are treated as schemes; any other spec is a
    bare path, even when it contains a colon.  An unknown
    ``scheme://...`` spec is rejected loudly instead of being opened as
    an oddly named directory store.  An empty path, a ``json:``
    spec, a bare path ending in ``.json`` and a path naming an existing
    file are rejected too: the directory store would otherwise land in
    the working directory or trip over a file.
    """
    text = str(spec)
    if text == "mem":
        return InMemoryLRUCache()
    # URL-style specs first: no cache spec is a URL.  This also catches
    # URL-style typos of the *known* schemes (dir://PATH would
    # otherwise slip through the dir: prefix check below and open a
    # store at //PATH -- the filesystem root).
    match = _URL_LIKE.match(text)
    if match is not None:
        scheme = match["scheme"].lower()
        if scheme in KNOWN_CACHE_SCHEMES:
            raise BatchError(
                f"malformed cache spec {text!r}: {scheme} specs use "
                f"the single-colon form ({scheme}:...)")
        raise _unknown_scheme(match["scheme"], text)
    if text.startswith("mem:"):
        try:
            capacity = int(text[len("mem:"):])
        except ValueError:
            raise BatchError(f"invalid cache capacity in spec {text!r}")
        return InMemoryLRUCache(capacity=capacity)
    if text.startswith("tcp:"):
        # No store is reached over TCP: a single-colon tcp spec fails
        # loudly instead of opening a directory named "tcp:...".
        raise _unknown_scheme("tcp", text)
    if text.startswith("json:"):
        raise _no_file_store(text)
    explicit = text.startswith("dir:")
    root = text[len("dir:"):] if explicit else text
    if not root:
        raise BatchError(
            f"cache spec {text!r} names no path; a directory store "
            f"needs one (e.g. dir:results/cache)")
    if (not explicit and root.endswith(".json")) or Path(root).is_file():
        raise _no_file_store(text)
    return ShardedDirectoryCache(root)
