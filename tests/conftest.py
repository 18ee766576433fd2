"""Shared fixtures: the paper's example and common helpers."""

from __future__ import annotations

import random

import pytest

from repro.graph.access_graph import AccessGraph
from repro.ir.builder import loop_from_offsets, pattern_from_offsets
from repro.ir.parser import parse_kernel
from repro.ir.types import AccessPattern

#: The offsets of the paper's section-2 example loop (Figure 1).
PAPER_OFFSETS = (1, 0, 2, -1, 1, 0, -2)


@pytest.fixture
def paper_pattern() -> AccessPattern:
    """Access pattern of the paper's example loop."""
    return pattern_from_offsets(PAPER_OFFSETS)


@pytest.fixture
def paper_graph(paper_pattern) -> AccessGraph:
    """Access graph of the paper's example with M = 1."""
    return AccessGraph(paper_pattern, modify_range=1)


@pytest.fixture
def paper_loop():
    """The example as a full loop (i = 2 .. 2+30)."""
    return loop_from_offsets(PAPER_OFFSETS, start=2, n_iterations=30)


def random_offsets(rng: random.Random, n: int, span: int = 6) -> list[int]:
    """Uniform random offsets, for quick in-test instance generation."""
    return [rng.randint(-span, span) for _ in range(n)]


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def parse_calls(monkeypatch):
    """Every source parsed through the batch layer, in call order."""
    calls = []

    def counting_parse(*args, **kwargs):
        calls.append(args[0])
        return parse_kernel(*args, **kwargs)

    monkeypatch.setattr("repro.batch.jobs.parse_kernel", counting_parse)
    return calls
