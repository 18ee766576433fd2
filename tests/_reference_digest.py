"""The canonical-JSON digest, kept as a test-local oracle.

This is :func:`repro.batch.digest.canonical` and
:func:`repro.batch.digest.digest_payload` as they were before the
per-type field table and the plain-``str``-key dict fast path: every
value goes through ``dataclasses.is_dataclass``/``dataclasses.fields``
and every dict key through :func:`_encode_key` and a ``(key, item)``
sort.  The differential tests compare
:func:`repro.batch.digest.digest_payload` against
:func:`reference_digest_payload` byte for byte on random payloads.  Do
not optimise it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from operator import itemgetter
from typing import Any


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


def reference_canonical(value: Any) -> Any:
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
        return {field.name:
                reference_canonical(getattr(value, field.name))
                for field in dataclasses.fields(value) if field.init}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        # Encoded keys are pairwise distinct (distinct dict keys never
        # encode alike), so sorting on the key alone is total.
        items = sorted(((_encode_key(key), item)
                        for key, item in value.items()),
                       key=itemgetter(0))
        return {key: reference_canonical(item) for key, item in items}
    if isinstance(value, (set, frozenset)):
        # Sets iterate in hash order, which varies across interpreter
        # runs; sort canonical items structurally to stay byte-stable.
        return sorted((reference_canonical(item) for item in value),
                      key=_sort_key)
    if isinstance(value, (list, tuple)):
        return [reference_canonical(item) for item in value]
    if isinstance(value, (str, int, float, bool)):
        return value  # subclasses of the scalar types
    return str(value)


def reference_digest_payload(payload: Any) -> str:
    """SHA-256 hex digest of a payload's canonical JSON form."""
    text = json.dumps(reference_canonical(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
