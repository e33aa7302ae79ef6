"""Fuzzing the text readers: whatever the input, a reader either returns a
value or raises ParseError, and a trace the reader accepts can be monitored
without a crash."""

import json
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseybook.book_engine import EngineParams, parse_trace, run
from ramseybook.colouring import parse_colouring, random_colouring
from ramseybook.errors import DegenerateDensity, ParseError, RamseyBookError
from ramseybook.monitors import run_all_monitors


def _engine_lines(n, r, seed, t, lam0, delta):
    c = random_colouring(n, r, seed)
    try:
        trace = run(c, c.vertices, [c.vertices] * r, EngineParams(t=t, lambda0=lam0, delta=delta)).trace
    except DegenerateDensity as e:
        trace = e.trace
    return trace.to_lines()


# colour and boost steps, r = 2 and 3, traces that end with an empty X
TRACES = [
    _engine_lines(30, 2, 4, 2, F(5), F(1, 8)),
    _engine_lines(30, 2, 8, 4, F(1), F(1, 4)),
    _engine_lines(30, 2, 14, 2, F(10), F(1, 8)),
    _engine_lines(24, 3, 2, 3, F(2), F(1, 8)),
]

# Lemma 4.1 evaluates (1 - 1/t)^t exactly and Lemma 4.4 an exact power of
# the same order, each about t log2 t bits, so an accepted header with a huge
# t makes the monitors slow rather than wrong.  Drawn integers stay within
# +-INT_BOUND to keep every example fast.
INT_BOUND = 10**4
ints = st.integers(-INT_BOUND, INT_BOUND) | st.integers(-2, 40)
rationals = st.builds("{}/{}".format, ints, ints)
json_values = st.recursive(
    st.none() | st.booleans() | ints | st.floats() | st.text(max_size=6) | rationals
    | st.sampled_from(["colour", "boost", "header", "step"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _like(value):
    """Values of the same JSON shape as ``value``, so that many spoiled traces still parse."""
    if isinstance(value, int):
        return ints
    if isinstance(value, str):
        return rationals if "/" in value else st.sampled_from(["colour", "boost"]) | st.text(max_size=6)
    if isinstance(value, list):
        return st.lists(_like(value[0]), min_size=len(value), max_size=len(value))
    return st.none() | ints | st.lists(rationals, min_size=2, max_size=3)


@st.composite
def spoiled_traces(draw):
    """An engine trace with one field of one line replaced or dropped, or the line replaced."""
    lines = list(draw(st.sampled_from(TRACES)))
    idx = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["like", "like", "any", "drop", "line"]))
    if how == "line":
        lines[idx] = draw(st.text(max_size=40) | st.builds(json.dumps, json_values))
    else:
        obj = json.loads(lines[idx])
        key = draw(st.sampled_from(sorted(obj)))
        if how == "drop":
            del obj[key]
        else:
            obj[key] = draw(_like(obj[key]) if how == "like" else json_values)
        lines[idx] = json.dumps(obj, separators=(",", ":"))
    return "\n".join(lines) + "\n"


class TestTraceFuzz:
    @settings(max_examples=400, deadline=None)
    @given(spoiled_traces())
    def test_parse_raises_only_parse_error(self, text):
        try:
            trace = parse_trace(text)
        except ParseError:
            return
        assert trace.to_text() == text  # the reader accepts a trace only in the engine's spelling
        try:
            run_all_monitors(trace)
        except RamseyBookError:
            pass


class TestColouringFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=60) | st.text(alphabet="0123 -\n\r", max_size=60))
    def test_parse_raises_only_parse_error(self, text):
        try:
            parse_colouring(text)
        except ParseError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.characters(max_codepoint=127), max_size=60) | st.text(alphabet="0123 \n", max_size=60))
    @example("3 2\n0 1\n1\n")
    @example("3 11\n10 1\n1\n")
    def test_ascii_bytes_read_as_their_text(self, text):
        # the same colouring and digest, or the same error, from the str and its bytes
        def outcome(source):
            try:
                c = parse_colouring(source)
            except ParseError as e:
                return e.line, str(e)
            return c, c.sha256()

        assert outcome(text.encode("ascii")) == outcome(text)
