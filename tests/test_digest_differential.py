"""Differential oracle for the digest's canonical-JSON lowering.

:func:`repro.batch.digest.digest_payload` writes canonical JSON in one
walk, from per-type field tables and plain-``str``-keyed dicts sorted
directly; :func:`_reference_digest.reference_digest_payload` is the
lowering it replaced.  Both must give the same digest, or raise the
same error, on random payloads (NUL-prefixed and mixed scalar dict
keys, mixed sets, ``str``/``int`` subclasses, enums, tuples, nested
frozen dataclasses with ``init=False`` fields or fields declared out
of sorted order, classes and other objects) and on the digest payloads
of real jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Any

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from _reference_digest import reference_digest_payload
from test_experiment_sharding import PINNED_BATCH_JOBS

from repro.agu.model import AguSpec
from repro.batch.digest import digest_payload
from repro.batch.jobs import job_matrix, jobs_from_random, jobs_from_suite
from repro.core.config import AllocatorConfig
from repro.workloads.random_patterns import RandomPatternConfig


class Tag(str):
    """A ``str`` subclass: digests as its text."""


class Count(int):
    """An ``int`` subclass: digests as its number."""


class Colour(Enum):
    RED = "red"
    GREEN = 2
    BLUE = (1, "b")


@dataclass(frozen=True)
class Leaf:
    a: Any
    b: Any = "x"
    #: Outside the digest: only init fields are lowered.
    hidden: int = field(default=7, init=False)


@dataclass(frozen=True)
class Node:
    left: Any
    right: Any = None


@dataclass(frozen=True)
class Branch(Node):
    """A dataclass subclass adding a field, one outside ``__init__``."""

    weight: Any = 0
    memo: str = field(default="m", init=False, compare=False)


@dataclass(frozen=True)
class Unsorted:
    """Fields declared out of sorted order.  The text lists them
    sorted, but ``canonical`` keeps this order, which ``_sort_key``
    reads when it orders set items."""

    z: Any
    a: Any = 0


def outcome(digest, payload):
    """``("ok", digest)`` or ``("error", type, message)``: the oracle
    fails on some payloads (a non-scalar key, an enum value that is
    not a scalar inside a set), and must fail alike there."""
    try:
        return ("ok", digest(payload))
    except Exception as error:  # any failure must match the oracle's
        return ("error", type(error), str(error))


def assert_agree(payload):
    fast = outcome(digest_payload, payload)
    assert fast == outcome(reference_digest_payload, payload), \
        repr(payload)
    return fast


text = st.text(max_size=6) | st.sampled_from(
    ["", "\x00", "\x00int:1", "\x00str:a", "a\x00", "v", "1"])
numbers = (st.integers(-10**20, 10**20)
           | st.floats(allow_nan=False, width=64)
           | st.sampled_from([0, 1, -1, 0.0, -0.0, 1.0, 1.5, True, False]))
scalars = st.none() | st.booleans() | numbers | text
subclassed = (st.builds(Tag, text)
              | st.builds(Count, st.integers(-5, 5))
              | st.sampled_from(list(Colour)))
hashables = st.recursive(
    scalars | subclassed,
    lambda inner: (st.tuples(inner, inner)
                   | st.builds(Leaf, inner, inner)
                   | st.builds(Unsorted, inner, inner)
                   | st.frozensets(inner, max_size=3)),
    max_leaves=6)
keys = scalars | st.builds(Tag, text)
others = st.sampled_from([Leaf, Colour, Fraction(1, 3), 1 + 2j])


def containers(inner):
    return (st.lists(inner, max_size=4)
            | st.lists(inner, max_size=3).map(tuple)
            | st.dictionaries(text, inner, max_size=4)
            | st.dictionaries(keys, inner, max_size=4)
            | st.sets(hashables, max_size=4)
            | st.frozensets(hashables, max_size=4)
            | st.builds(Leaf, inner, inner)
            | st.builds(Node, inner, inner)
            | st.builds(Branch, inner, inner, inner)
            | st.builds(Unsorted, inner, inner))


payloads = st.recursive(scalars | subclassed | others | hashables,
                        containers, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_random_payloads_digest_like_the_reference(payload):
    assert_agree(payload)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(text, scalars, max_size=6),
       st.dictionaries(keys, scalars, min_size=1, max_size=6))
def test_plain_and_mixed_key_dicts_digest_like_the_reference(plain, mixed):
    """Plain ``str`` keys take the direct sort; any other key (NUL
    prefix, a scalar, a ``str`` subclass) takes the encoded one."""
    assert_agree(plain)
    assert_agree({**plain, **mixed})
    assert_agree({"outer": plain, "mixed": mixed})


@pytest.mark.parametrize("payload", [
    {(1, 2): "tuple key"},
    {"ok": {Leaf(1): "dataclass key"}},
    {frozenset(): 1},
], ids=["tuple", "nested-dataclass", "frozenset"])
def test_non_scalar_keys_fail_like_the_reference(payload):
    assert assert_agree(payload)[0] == "error"


@pytest.mark.parametrize("payload", [
    {Unsorted(1, 2), Unsorted(2, 1)},
    {"value": Unsorted(2, 1), "set": frozenset({Unsorted("b", "a"),
                                                Unsorted("a", "b")})},
    Unsorted(Unsorted(3, 4), {Unsorted(Unsorted(1, 0), 5),
                              Unsorted(Unsorted(0, 1), 5)}),
], ids=["in-a-set", "dict-values", "nested"])
def test_unsorted_fields_digest_like_the_reference(payload):
    """Set items sort by their fields in definition order (``z``
    first), which is not the order the text lists them in."""
    assert assert_agree(payload)[0] == "ok"


def test_init_false_fields_stay_outside_the_digest():
    plain, changed = Branch(Leaf(1), 2, 3), Branch(Leaf(1), 2, 3)
    object.__setattr__(changed, "memo", "other")
    object.__setattr__(changed.left, "hidden", 0)
    assert assert_agree(plain) == assert_agree(changed)


@pytest.mark.parametrize("case", sorted(PINNED_BATCH_JOBS))
def test_pinned_jobs_digest_like_the_reference(case):
    build, digest = PINNED_BATCH_JOBS[case]
    assert assert_agree(build().cache_key()) == ("ok", digest)


def test_real_job_payloads_digest_like_the_reference():
    specs = [AguSpec(2, 1), AguSpec(4, 2, n_modify_registers=1)]
    configs = [None, AllocatorConfig()]
    jobs = [*job_matrix(jobs_from_suite("core8", specs[0],
                                        n_iterations=4), specs, configs),
            *jobs_from_random(RandomPatternConfig(n_accesses=6), 3,
                              AguSpec(2, 1), seed=5)]
    for job in jobs:
        assert_agree(job.cache_key())
