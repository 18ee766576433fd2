"""Stable content digests for batch compilation jobs.

The result cache is *content-addressed*: a job's cache key is a SHA-256
digest of its ``cache_key()`` payload, everything that determines its
outcome -- for a compilation unit the kernel (source text or lowered
access pattern), the target :class:`~repro.agu.model.AguSpec`, the
:class:`~repro.core.config.AllocatorConfig`, and the execution options
(simulation on/off, iteration count, baseline generation).  The job's
display *name* is deliberately excluded, so the same kernel compiled
under two labels shares one cache entry.

Digests must be byte-stable across process restarts and machines, so
the payload is lowered to canonical JSON (sorted keys, fixed
separators) by hand -- no reliance on ``hash()``, ``repr()`` or dict
ordering.  :func:`canonical` defines that text as a tree of JSON types
that ``json.dumps(sort_keys=True, separators=(",", ":"))`` would
encode.  :func:`digest_payload` writes the same text in one walk over
the payload, with no tree in between:

* exact scalars are written straight out, strings quoted by
  ``json.encoder.encode_basestring_ascii``;
* each dataclass type writes its init fields from a table built on
  first sight of the type: the names in sorted order, keys already
  quoted;
* a plain ``dict`` whose keys are all exact ``str`` writes them sorted.

The rare shapes keep :func:`canonical`'s rules: other dict keys are
encoded by :func:`_encode_key`, an ``Enum`` writes its value through
the JSON encoder, and a set is lowered by :func:`canonical`, sorted by
:func:`_sort_key` and encoded.  A payload the walk cannot write is
lowered by :func:`canonical` and encoded instead, so it raises that
lowering's error.

Bump :data:`DIGEST_VERSION` whenever the payload layout (or the meaning
of any compiled artifact) changes; old cache entries then miss instead
of serving stale results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from operator import itemgetter
from typing import Any, Callable

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


def _encoded_items(value: dict) -> list[tuple[str, Any]]:
    """The items of ``value`` under their encoded keys (see
    :func:`_encode_key`), sorted by key.  Encoded keys are pairwise
    distinct (distinct dict keys never encode alike), so sorting on the
    key alone is total."""
    return sorted(((_encode_key(key), item) for key, item in value.items()),
                  key=itemgetter(0))


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


#: Each type's dataclass init-field names in definition order, or
#: ``None`` for a type that is not a dataclass, filled on first sight
#: by :func:`_init_fields`.  Keyed by type, never by a value, so it
#: holds one entry per class the payloads are built from.
_INIT_FIELDS: dict[type, tuple[str, ...] | None] = {}

#: The exact scalar types :func:`canonical` returns unchanged.
_SCALARS = frozenset((str, int, float, bool))

#: Encodes canonical values the way ``json.dumps(sort_keys=True,
#: separators=(",", ":"))`` does, built once instead of per digest.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _init_fields(kind: type) -> tuple[str, ...] | None:
    """The init-field names of instances of ``kind``, or ``None`` when
    they do not lower as dataclasses (a class object never does, so a
    dataclass metaclass counts as no dataclass)."""
    names = None
    if dataclasses.is_dataclass(kind) and not issubclass(kind, type):
        names = tuple(field.name for field in dataclasses.fields(kind)
                      if field.init)
    _INIT_FIELDS[kind] = names
    return names


def canonical(value: Any) -> Any:
    """Lower a value to JSON-able types, deterministically.

    Handles the frozen dataclasses the job is built from (specs,
    configs, IR nodes), enums (by value), and the usual containers.
    Dict keys must be ``str`` or scalar; they are encoded via
    :func:`_encode_key` so differently-typed keys can never produce
    colliding digests.
    """
    kind = type(value)
    # Exact-type scalar fast path: leaves dominate real payloads, and
    # exact matching keeps Enum / str subclasses on their slow paths.
    if value is None or kind in _SCALARS:
        return value
    try:
        names = _INIT_FIELDS[kind]
    except KeyError:
        names = _init_fields(kind)
    if names is not None:
        return {name: canonical(getattr(value, name)) for name in names}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in _encoded_items(value)}
    if isinstance(value, (set, frozenset)):
        # Sets iterate in hash order, which varies across interpreter
        # runs; sort canonical items structurally to stay byte-stable.
        return sorted((canonical(item) for item in value), key=_sort_key)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (str, int, float, bool)):
        return value  # subclasses of the scalar types
    return str(value)


#: Quotes a string as the JSON encoder does (``ensure_ascii``).
_quote = json.encoder.encode_basestring_ascii

#: The encoder's text for the floats whose ``repr`` is not JSON.
_FLOAT_SPECIALS = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _write(value: Any, out: Callable[[str], None]) -> None:
    """Append the canonical JSON text of ``value`` to ``out`` (a list's
    ``append``), in pieces."""
    kind = type(value)
    if kind is str:
        out(_quote(value))
    elif kind is int:
        out(int.__repr__(value))
    elif value is None:
        out("null")
    else:
        try:
            writer = _WRITERS[kind]
        except KeyError:
            writer = _writer_for(kind)
        writer(value, out)


def _write_pairs(pairs, out: Callable[[str], None]) -> None:
    """Write ``(str key, value)`` pairs, already in key order, as a JSON
    object."""
    separator = "{"
    for key, item in pairs:
        out(f"{separator}{_quote(key)}:")
        _write(item, out)
        separator = ","
    out("}" if separator == "," else "{}")


def _write_dict(value: dict, out: Callable[[str], None]) -> None:
    for key in value:
        if type(key) is not str or key.startswith(_KEY_ESCAPE):
            _write_pairs(_encoded_items(value), out)
            return
    # Plain keys encode as themselves: sort the items on them directly
    # (the keys are distinct, so no two values are ever compared).
    _write_pairs(sorted(value.items()), out)


def _write_list(value, out: Callable[[str], None]) -> None:
    separator = "["
    for item in value:
        out(separator)
        _write(item, out)
        separator = ","
    out("]" if separator == "," else "[]")


def _write_set(value, out: Callable[[str], None]) -> None:
    # Sets iterate in hash order, which varies across interpreter runs;
    # sort canonical items structurally to stay byte-stable.
    out(_ENCODER.encode(sorted((canonical(item) for item in value),
                               key=_sort_key)))


def _write_float(value: float, out: Callable[[str], None]) -> None:
    text = float.__repr__(value)
    out(_FLOAT_SPECIALS.get(text, text))


def _write_bool(value: bool, out: Callable[[str], None]) -> None:
    out("true" if value else "false")


#: Each type's writer for :func:`_write`, filled on first sight by
#: :func:`_writer_for`.  Keyed by type, never by a value.
_WRITERS: dict[type, Callable[[Any, Callable[[str], None]], None]] = {
    bool: _write_bool, float: _write_float, dict: _write_dict,
    list: _write_list, tuple: _write_list}


def _fields_writer(names: tuple[str, ...]):
    """The writer of a dataclass with init fields ``names``: the fields
    in sorted order, each after its quoted key."""
    table = [(("," if index else "{") + _quote(name) + ":", name)
             for index, name in enumerate(sorted(names))]
    closing = "}" if table else "{}"

    def write(value, out: Callable[[str], None]) -> None:
        for prefix, name in table:
            out(prefix)
            _write(getattr(value, name), out)
        out(closing)

    return write


def _writer_for(kind: type):
    """The writer of values of type ``kind``, chosen by
    :func:`canonical`'s rules in its order."""
    try:
        names = _INIT_FIELDS[kind]
    except KeyError:
        names = _init_fields(kind)
    if names is not None:
        writer = _fields_writer(names)
    elif issubclass(kind, Enum):
        writer = lambda value, out: out(_ENCODER.encode(value.value))
    elif issubclass(kind, dict):
        writer = lambda value, out: _write_pairs(_encoded_items(value), out)
    elif issubclass(kind, (set, frozenset)):
        writer = _write_set
    elif issubclass(kind, (list, tuple)):
        writer = _write_list
    elif issubclass(kind, str):
        writer = lambda value, out: out(_quote(value))
    elif issubclass(kind, int):
        writer = lambda value, out: out(int.__repr__(value))
    elif issubclass(kind, float):
        writer = _write_float
    else:
        writer = lambda value, out: out(_quote(str(value)))
    _WRITERS[kind] = writer
    return writer


def digest_payload(payload: Any) -> str:
    """SHA-256 hex digest of a payload's canonical JSON form."""
    parts: list[str] = []
    try:
        _write(payload, parts.append)
    except Exception:
        # The walk meets a dataclass's fields in sorted order, where
        # canonical() meets them in definition order, and it nests
        # deeper per level.  So a payload with two faults may fail on
        # another one first, and a deep one may fail only here: the
        # two-step lowering raises its own error, or gives the text.
        text = _ENCODER.encode(canonical(payload))
    else:
        text = "".join(parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def job_digest(job) -> str:
    """The content-addressed cache key of a batch job: the digest of
    its ``cache_key()`` payload (see :mod:`repro.batch.jobs`)."""
    return digest_payload(job.cache_key())
