"""Differential oracle for the precedence-climbing parser.

:func:`repro.ir.parser.parse_kernel` parses expressions by precedence
climbing over tuple tokens; :func:`_reference_parser.reference_parse_kernel`
is the recursive-descent parser it replaced.  Both must give an equal
:class:`~repro.ir.types.Kernel`, or raise
:class:`~repro.errors.ParseError` with the same message, line and column,
on the library kernels, the sources in ``examples/``, sources shaped
like perfbench's generated kernels, random expression statements and
malformed edits of all of these.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from _reference_parser import reference_parse_kernel

from repro.errors import ParseError
from repro.ir.parser import parse_kernel
from repro.workloads.kernels import KERNELS

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def example_sources() -> dict[str, str]:
    """The ``SOURCE`` string constants of the example scripts."""
    sources = {}
    for path in sorted(EXAMPLES.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets]
                    == ["SOURCE"]):
                sources[path.stem] = ast.literal_eval(node.value)
    return sources


def outcome(parser, source: str):
    """``("ok", kernel)`` or ``("error", message, line, column)``."""
    try:
        return ("ok", parser(source, name="k"))
    except ParseError as error:
        return ("error", str(error), error.line, error.column)


def assert_agree(source: str):
    fast = outcome(parse_kernel, source)
    assert fast == outcome(reference_parse_kernel, source), repr(source)
    return fast


@st.composite
def generated_kernels(draw):
    """A source the way perfbench renders a random access pattern: one
    loop whose body is a run of bare ``X[i+d];`` statements."""
    accesses = draw(st.lists(
        st.tuples(st.sampled_from("ABCxy"), st.integers(-6, 6)),
        max_size=12))
    start = max([0] + [-offset for _array, offset in accesses])
    trips = draw(st.integers(1, 64))
    body = " ".join(f"{array}[{f'i{offset:+d}' if offset else 'i'}];"
                    for array, offset in accesses)
    return f"for (i = {start}; i < {start + trips}; i++) {{ {body} }}"


def random_expression(rng: random.Random, depth: int) -> str:
    """A random expression over scalars, literals and subscripts, with
    every binary operator, both signs, parentheses and nesting."""
    roll = rng.random() if depth > 0 else 0.0
    if roll < 0.4:
        return rng.choice(["i", "acc", "N", "0", "3", "12",
                           f"{rng.choice('ABx')}[i{rng.randint(-3, 3):+d}]",
                           f"{rng.choice('AB')}[{rng.randint(-2, 3)}*i-1]"])
    if roll < 0.7:
        return (f"{random_expression(rng, depth - 1)} {rng.choice('+-*/')} "
                f"{random_expression(rng, depth - 1)}")
    if roll < 0.8:
        return rng.choice("-+") + random_expression(rng, depth - 1)
    if roll < 0.9:
        return f"({random_expression(rng, depth - 1)})"
    return f"{rng.choice('AB')}[{random_expression(rng, depth - 1)}]"


@st.composite
def expression_kernels(draw):
    """Well-formed and ill-typed statements over random expressions:
    every assignment operator, subscripts that are not affine, scalar
    and loop-variable targets."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    statements = []
    for _ in range(rng.randint(0, 5)):
        rhs = random_expression(rng, 4)
        if rng.random() < 0.3:
            statements.append(f"{rhs};")
            continue
        lhs = rng.choice(["y[i]", "acc", "i", random_expression(rng, 1)])
        op = rng.choice(["=", "+=", "-=", "*=", "/="])
        statements.append(f"{lhs} {op} {rhs};")
    return ("int acc;\nfor (i = 0; i <= N; i++) {\n  "
            + "\n  ".join(statements) + "\n}")


#: Fragments a malformed edit inserts.
FRAGMENTS = ("[", "]", "(", ")", ";", "=", "+=", "/=", "*", "-", "+", "{",
             "}", "i", "A", "3", "int", "for", "A[i]", " ", "\n", "/*",
             "*/", "//", "@")


@st.composite
def mutated(draw, sources):
    """One of ``sources`` with a few random edits."""
    source = draw(sources)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(source)))
        edit = draw(st.sampled_from(("insert", "delete")))
        if edit == "insert":
            source = (source[:at] + draw(st.sampled_from(FRAGMENTS))
                      + source[at:])
        else:
            source = source[:at] + source[at + draw(st.integers(1, 6)):]
    return source


LIBRARY = st.sampled_from([KERNELS[name].source for name in sorted(KERNELS)])


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_library_kernels_parse_identically(name):
    assert assert_agree(KERNELS[name].source)[0] == "ok"


@pytest.mark.parametrize("name", sorted(example_sources()))
def test_example_sources_parse_identically(name):
    assert assert_agree(example_sources()[name])[0] == "ok"


def test_examples_have_sources():
    assert len(example_sources()) >= 3


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(generated_kernels())
    def test_generated_kernels(self, source):
        assert assert_agree(source)[0] == "ok"

    @settings(max_examples=300, deadline=None)
    @given(expression_kernels())
    @example("for (i = 0; i < 8; i++) {\n  1 = A[i];\n  B[i];\n}")
    @example("for (i = 0; i < 8; i++) { a - b * c - d / -e; }")
    @example("for (i = 0; i < 8; i++) { (A)[i]; (A[i])[i]; 3[i]; }")
    @example("for (i = 0; i < 8; i++) { A[i][i]; }")
    @example("for (i = 0; i < 8; i++) { A[j + B[i]]; }")
    def test_expression_kernels(self, source):
        assert_agree(source)

    @settings(max_examples=300, deadline=None)
    @given(mutated(st.one_of(generated_kernels(), expression_kernels(),
                             LIBRARY)))
    def test_malformed_sources(self, source):
        assert_agree(source)
