"""Stable content digests for batch compilation jobs.

The result cache is *content-addressed*: a job's cache key is a SHA-256
digest of everything that determines its compilation outcome -- the
kernel (source text or lowered access pattern), the target
:class:`~repro.agu.model.AguSpec`, the
:class:`~repro.core.config.AllocatorConfig`, and the execution options
(simulation on/off, iteration count, baseline generation).  The job's
display *name* is deliberately excluded, so the same kernel compiled
under two labels shares one cache entry.

Digests must be byte-stable across process restarts and machines, so
the payload is lowered to canonical JSON (sorted keys, fixed
separators) by hand -- no reliance on ``hash()``, ``repr()`` or dict
ordering.  Bump :data:`DIGEST_VERSION` whenever the payload layout (or
the meaning of any compiled artifact) changes; old cache entries then
miss instead of serving stale results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from operator import itemgetter
from typing import Any

#: Version tag mixed into every digest; bump to invalidate all caches.
#:
#: v2: dict keys are type-disambiguated (``{1: x}`` no longer collides
#: with ``{"1": x}``, mixed-type keys no longer raise), and set items
#: sort by a structural key instead of their JSON encoding -- both
#: change digest bytes for payloads containing such containers.
DIGEST_VERSION = 2

#: String prefix marking an encoded non-``str`` dict key (see
#: :func:`_encode_key`).  No ordinary payload string starts with NUL.
_KEY_ESCAPE = "\x00"


def _encode_key(key: Any) -> str:
    """Encode a dict key as a collision-free string.

    ``str`` keys pass through unchanged (escaped only in the
    pathological NUL-prefixed case); scalar non-``str`` keys embed
    their type name, so ``1``, ``1.5``, ``True`` and ``None`` keys
    stay distinct from each other and from their ``str()`` forms.
    Anything else is rejected loudly -- silently stringifying a tuple
    or dataclass key would invite exactly the collision class this
    function exists to rule out.
    """
    if isinstance(key, str):
        if key.startswith(_KEY_ESCAPE):
            return f"{_KEY_ESCAPE}str:{key}"
        return key
    if key is None or isinstance(key, (bool, int, float)):
        return f"{_KEY_ESCAPE}{type(key).__name__}:{key!r}"
    raise TypeError(
        f"cannot digest dict key {key!r} of type "
        f"{type(key).__name__}: digest payload keys must be str or "
        f"scalar (int, float, bool, None)")


def _sort_key(value: Any) -> tuple:
    """Total, deterministic order over *canonical* values.

    Ranks by type first (``None`` < numbers < strings < lists <
    dicts), then compares within the rank; mixed-type set contents
    therefore sort without ever comparing unlike values.  Purely
    structural -- no per-item JSON serialisation.
    """
    if value is None:
        return (0, "", 0)
    if isinstance(value, (bool, int, float)):
        return (1, type(value).__name__, value)
    if isinstance(value, str):
        return (2, "", value)
    if isinstance(value, list):
        return (3, "", tuple(_sort_key(item) for item in value))
    return (4, "", tuple((key, _sort_key(item))
                         for key, item in value.items()))


def canonical(value: Any) -> Any:
    """Lower a value to JSON-able types, deterministically.

    Handles the frozen dataclasses the job is built from (specs,
    configs, IR nodes), enums (by value), and the usual containers.
    Dict keys must be ``str`` or scalar; they are encoded via
    :func:`_encode_key` so differently-typed keys can never produce
    colliding digests.
    """
    # Exact-type scalar fast path: leaves dominate real payloads, and
    # exact matching keeps Enum / str subclasses on their slow paths.
    if value is None or type(value) in (str, int, float, bool):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: canonical(getattr(value, field.name))
                for field in dataclasses.fields(value) if field.init}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        # Encoded keys are pairwise distinct (distinct dict keys never
        # encode alike), so sorting on the key alone is total.
        items = sorted(((_encode_key(key), item)
                        for key, item in value.items()),
                       key=itemgetter(0))
        return {key: canonical(item) for key, item in items}
    if isinstance(value, (set, frozenset)):
        # Sets iterate in hash order, which varies across interpreter
        # runs; sort canonical items structurally to stay byte-stable.
        return sorted((canonical(item) for item in value), key=_sort_key)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (str, int, float, bool)):
        return value  # subclasses of the scalar types
    return str(value)


def digest_payload(payload: Any) -> str:
    """SHA-256 hex digest of a payload's canonical JSON form."""
    text = json.dumps(canonical(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def job_digest(job) -> str:
    """The content-addressed cache key of a batch job.

    A job class may define its own key payload via a ``cache_key()``
    method (e.g. :class:`~repro.batch.jobs.ExperimentPointJob`, whose
    outcome is determined by grid parameters and seeds rather than a
    kernel); plain :class:`~repro.batch.jobs.BatchJob` compilation
    units digest the kernel + spec + config + options layout below.
    """
    cache_key = getattr(job, "cache_key", None)
    if cache_key is not None:
        return digest_payload(cache_key())
    return digest_payload({
        "v": DIGEST_VERSION,
        "kernel": job.source if job.source is not None else job.pattern,
        "spec": job.spec,
        "config": job.config,
        "options": {
            "run_simulation": job.run_simulation,
            "n_iterations": job.n_iterations,
            "include_baseline": job.include_baseline,
        },
    })
