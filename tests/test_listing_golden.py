"""Golden digests of rendered listings.

``tests/golden/listings.json`` holds the sha256 of every listing below:
each library kernel compiled for ``AguSpec(K, M)`` with K in {2, 4} and
M in {1, 2}, plus one modify-register program (``LDMR`` preloads and
``+MRj`` operands), one array-layout program and one unoptimized
baseline program.  The listing's comments are derived from the
program's pattern and cover when it is rendered, so any drift in that
derivation -- or in the instruction text -- changes a digest.

Regenerate (only for an intended format change) with::

    PYTHONPATH=src python tests/test_listing_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.agu.codegen import generate_address_code, generate_unoptimized_code
from repro.agu.listing import program_listing
from repro.agu.model import AguSpec
from repro.core.pipeline import compile_kernel
from repro.ir.builder import pattern_from_offsets
from repro.modreg import allocate_with_modify_registers
from repro.workloads.kernels import KERNELS

GOLDEN = Path(__file__).parent / "golden" / "listings.json"

#: Two interleaved walks 12 apart: the +12/-12 hops fold into modify
#: registers.
MR_OFFSETS = [0, 12, 1, 13, 2, 14, 3, 15]


def _library_listing(key: str) -> str:
    name, k, m = key.split("/")
    spec = AguSpec(int(k[1:]), int(m[1:]))
    return compile_kernel(KERNELS[name].kernel(), spec).listing


def _mr_listing() -> str:
    pattern = pattern_from_offsets(MR_OFFSETS)
    spec = AguSpec(1, 1, "with_mrs", n_modify_registers=2)
    allocation = allocate_with_modify_registers(pattern, spec)
    program = generate_address_code(pattern, allocation.cover, spec,
                                    modify_values=allocation.modify_values)
    return program_listing(program, title="modify registers")


def _layout_listing() -> str:
    return compile_kernel(KERNELS["fir8_symmetric"].kernel(),
                          AguSpec(2, 1),
                          optimize_array_layout=True).listing


def _unoptimized_listing() -> str:
    program = generate_unoptimized_code(
        KERNELS["paper_example"].kernel().pattern, AguSpec(1, 1))
    return program_listing(program, title="unoptimized")


LISTINGS = {
    **{f"{name}/K{k}/M{m}": _library_listing
       for name in sorted(KERNELS) for k in (2, 4) for m in (1, 2)},
    "extension/modify_registers": lambda _key: _mr_listing(),
    "extension/array_layout": lambda _key: _layout_listing(),
    "baseline/unoptimized": lambda _key: _unoptimized_listing(),
}


def digest(key: str) -> str:
    listing = LISTINGS[key](key)
    return hashlib.sha256(listing.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_listing(golden):
    assert sorted(golden) == sorted(LISTINGS)


@pytest.mark.parametrize("key", sorted(LISTINGS))
def test_listing_matches_golden(golden, key):
    assert digest(key) == golden[key]


def test_extension_listings_exercise_their_comment_paths():
    assert "LDMR  MR0" in _mr_listing() and "+MR" in _mr_listing()
    assert "(cross-array)" in _layout_listing()
    assert "; a_1 address" in _unoptimized_listing()


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({key: digest(key) for key in
                                  sorted(LISTINGS)}, indent=1) + "\n",
                      encoding="utf-8")
