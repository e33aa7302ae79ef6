"""The multicolour book algorithm as a deterministic state machine.

Each round applies the key step with alpha_i = (p_i - p_0 + delta)/t, then
either adds the pivot to a spine (colour step, lam <= lambda_0) or replaces X
and one Y set to force the density up (boost step, lam > lambda_0).  Exactly
one Y set changes per round, densities and alphas are re-derived from the
colouring every round, and every round is appended to a JSON-lines trace that
is byte-identical across runs and platforms.

Each trace line is ``{"type": tag, **to_json()}`` of a ``TraceHeader`` or a
``StepRecord``, written compactly by ``bounds.Report``'s encoder, the one that
writes every report.  The reader decodes each field with its annotation's
plain constructor and accepts a line only if encoding the decoded value gives
that line back byte for byte, so every trace has exactly one text: no CRLF
line ends (``verify-trace`` does not map ``\r\n`` to ``\n``), no spaces, no
other key order or extra keys, no escapes the encoder does not write.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from pathlib import Path
from typing import ClassVar, get_args, get_origin, get_type_hints

from mpmath import iv

from .bounds import (
    Report, check_digit_limit, exact_rational, interval_endpoints, iv_from_fraction, json_keys, read_rational
)
from .colouring import EdgeColouring, check_size, read_ascii
from .errors import DegenerateDensity, InvalidInput, LemmaViolation, ParseError
from .geometry import c_interval, default_beta, key_lemma_step, min_density

KIND_COLOUR = "colour"
KIND_BOOST = "boost"

RESULT_BOOK = "book_found"
RESULT_EXHAUSTED = "reservoir_exhausted"


@dataclass(frozen=True)
class EngineParams:
    """Fixed inputs of a run: target spine size, boost threshold, density slack."""

    t: int
    lambda0: Fraction
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lambda0", exact_rational(self.lambda0))
        object.__setattr__(self, "delta", exact_rational(self.delta))
        if type(self.t) is not int or self.t < 1:
            raise InvalidInput(f"t must be an int >= 1, got {self.t!r}")
        if self.lambda0 < -1:
            raise InvalidInput("lambda0 must be >= -1")
        if not 0 < self.delta <= Fraction(1, 4):
            raise InvalidInput("delta must lie in (0, 1/4]")
        check_digit_limit("t, lambda0 and delta", self.t, self.lambda0, self.delta)  # as a trace header spells them


@dataclass(frozen=True)
class StepRecord(Report):
    tag: ClassVar[str] = "step"  # the line's "type"

    s: int
    kind: str                      # "colour" | "boost"
    pivot: int
    witness_colour: int
    chosen_colour: int | None      # colour steps only
    lam: Fraction = field(metadata={"key": "lambda"})
    x_size: int
    y_sizes: tuple[int, ...]
    t_sizes: tuple[int, ...]
    densities: tuple[Fraction, ...] | None  # None once X is empty


@dataclass(frozen=True)
class TraceHeader(Report):
    tag: ClassVar[str] = "header"  # the line's "type"

    n: int
    r: int
    t: int
    lambda0: Fraction
    delta: Fraction
    beta: Fraction
    p0: Fraction
    initial_x_size: int
    initial_y_sizes: tuple[int, ...]
    initial_densities: tuple[Fraction, ...]
    colouring_sha256: str


# int and str decode as themselves; a Fraction by the package's one reader of rational text
_PLAIN = {int: int, str: str, Fraction: read_rational}


def _decoder(tp):
    """The decoder of a field annotated ``tp``: a plain type's own, tuple[X, ...] item
    by item, and X | None keeps None."""
    if tp in _PLAIN:
        return _PLAIN[tp]
    dec = _decoder(get_args(tp)[0])
    if get_origin(tp) is tuple:
        return lambda v: tuple(map(dec, v))
    return lambda v: None if v is None else dec(v)


@cache
def _decoders(cls) -> list[tuple]:
    """(JSON key, attribute, decode) for each field of a trace line class, in order."""
    hints = get_type_hints(cls)
    return [(key, name, _decoder(hints[name])) for key, name in json_keys(cls)]


def _encode(obj: Report) -> str:
    return json.dumps({"type": obj.tag, **obj.to_json()}, separators=(",", ":"))


def _decode(cls, d: dict):
    if d.get("type") != cls.tag:
        raise ParseError(f"expected a {cls.tag} line")
    values = {}
    for key, name, dec in _decoders(cls):
        try:
            values[name] = dec(d[key])
        except (TypeError, ValueError, ArithmeticError, InvalidInput) as e:
            raise ParseError(f"field {key!r}: {e}") from None
    return cls(**values)


@dataclass(frozen=True)
class Trace:
    header: TraceHeader
    records: tuple[StepRecord, ...]

    def to_lines(self) -> list[str]:
        return [_encode(self.header), *map(_encode, self.records)]

    def to_text(self) -> str:
        return "\n".join(self.to_lines()) + "\n"


def write_trace(trace: Trace, path) -> None:
    Path(path).write_text(trace.to_text(), encoding="ascii")


def _parse_line(line: str, lineno: int, build):
    """Decode one trace line with ``build`` and accept it only as ``_encode`` writes the
    value decoded; every defect is a ParseError naming the line."""
    if not line:
        raise ParseError("empty line", line=lineno)
    try:
        d = json.loads(line)
        if not isinstance(d, dict):
            raise ParseError("a trace line must be a JSON object")
        value = build(d)
        if _encode(value) != line:
            raise ParseError(f"not as the engine writes this line: {_encode(value)}")
        return value
    except RecursionError:
        raise ParseError("JSON nested too deeply", line=lineno) from None
    except KeyError as e:
        raise ParseError(f"missing field {e}", line=lineno) from None
    except (ParseError, InvalidInput) as e:
        raise ParseError(str(e), line=lineno) from None
    except ValueError as e:  # bad JSON, or an integer beyond the decoder's digit limit
        raise ParseError(f"bad JSON: {e}", line=lineno) from None


def _read_header(d: dict) -> TraceHeader:
    h = _decode(TraceHeader, d)
    EngineParams(h.t, h.lambda0, h.delta)  # its InvalidInput is a ParseError on the line
    check_size(h.n, h.r)  # the colouring's own rule, so r <= MAX_COLOURS
    if not re.fullmatch("[0-9a-f]{64}", h.colouring_sha256):
        raise ParseError("colouring_sha256 must be 64 lowercase hex digits")
    if len(h.initial_y_sizes) != h.r or len(h.initial_densities) != h.r:
        raise ParseError(f"every per-colour list must have r = {h.r} entries")
    if any(not 1 <= size <= h.n for size in (h.initial_x_size, *h.initial_y_sizes)):
        raise ParseError(f"every initial size must lie in [1, n = {h.n}]")
    if h.beta <= 0:
        raise ParseError("beta must be positive")
    if any(not 0 < p <= 1 for p in h.initial_densities):
        raise ParseError("every initial density must lie in (0, 1]")
    if h.p0 != min(h.initial_densities):
        raise ParseError("p0 must be the least initial density")
    return h


def _read_record(h: TraceHeader, s: int, d: dict) -> StepRecord:
    """Decode step ``s``, rejecting what the engine cannot write under header ``h``."""
    rec = _decode(StepRecord, d)
    if rec.s != s:
        raise ParseError(f"expected step s = {s}, got {rec.s}")
    if rec.kind not in (KIND_COLOUR, KIND_BOOST):
        raise ParseError(f"unknown step kind {rec.kind!r}")
    if any(not 0 <= c < h.r for c in (rec.witness_colour, rec.chosen_colour) if c is not None):
        raise ParseError(f"colour out of range [0, {h.r})")
    if rec.lam < -1:
        raise ParseError("lambda must be >= -1")
    if any(v is not None and len(v) != h.r for v in (rec.y_sizes, rec.t_sizes, rec.densities)):
        raise ParseError(f"every per-colour list must have r = {h.r} entries")
    if not 0 <= rec.pivot < h.n:
        raise ParseError(f"pivot out of range [0, n = {h.n})")
    if any(not 0 <= size <= h.n for size in (rec.x_size, *rec.y_sizes, *rec.t_sizes)):
        raise ParseError(f"every size must lie in [0, n = {h.n}]")
    if (rec.densities is None) != (rec.x_size == 0):
        raise ParseError("densities must be null exactly when X is empty")
    if any(not 0 <= p <= 1 for p in rec.densities or ()):
        raise ParseError("every density must lie in [0, 1]")
    return rec


def parse_trace(text: str) -> Trace:
    """Parse a JSON-lines trace, rejecting any line the engine could not have written
    or would have written otherwise.

    Every line ends with a newline, the last one included, and no line is
    empty; a ParseError names the line as the text numbers it.  A run ends at
    its first step whose X is empty or one of whose spines has reached t, so
    no line may follow that step.
    """
    *lines, tail = text.split("\n")
    if tail:
        raise ParseError("the trace must end with a newline", line=len(lines) + 1)
    if not lines:
        raise ParseError("empty trace")
    h = _parse_line(lines[0], 1, _read_header)
    records: list[StepRecord] = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if records and (records[-1].x_size == 0 or max(records[-1].t_sizes) >= h.t):
            raise ParseError(f"step {lineno - 3} ended the run: X was empty or a spine reached t = {h.t}", line=lineno)
        records.append(_parse_line(ln, lineno, partial(_read_record, h, lineno - 2)))
    return Trace(h, tuple(records))


def read_trace(path) -> Trace:
    return parse_trace(read_ascii(path).decode("ascii"))


@dataclass(frozen=True)
class EngineOutcome:
    result: str                 # "book_found" | "reservoir_exhausted"
    book_colour: int | None
    spine: int | None           # bitmask
    pages: int | None           # bitmask
    trace: Trace

    @property
    def found(self) -> bool:
        return self.result == RESULT_BOOK


def run(c: EdgeColouring, xset: int, ysets, params: EngineParams, on_state=None) -> EngineOutcome:
    """Run the book algorithm until X empties or some spine reaches size t.

    Each round of ``while xset`` is one step s = len(records): the key step,
    the colour or boost update, the step's record, then ``on_state``, if
    given, with (s, x_mask, y_masks, t_masks) for independent state
    verification.  After that the round's exits come in this order: a colour
    step that brings its spine to t returns the (checked) book; else a zero
    density raises DegenerateDensity, with the trace so far attached; else an
    empty X leaves the loop, which returns reservoir_exhausted.  Bad starting
    sets are InvalidInput: the starting densities apply ``min_density``'s
    checks to X and each Y_i.
    """
    r = c.r
    ysets = list(ysets)
    if len(ysets) != r:
        raise InvalidInput(f"need one Y set per colour ({r})")

    densities = tuple(min_density(c, xset, ysets[i], i) for i in range(r))
    if 0 in densities:
        raise InvalidInput("p_i(0) must be positive for every colour")
    p0 = min(densities)
    header = TraceHeader(
        n=c.n,
        r=r,
        t=params.t,
        lambda0=params.lambda0,
        delta=params.delta,
        beta=default_beta(r),
        p0=p0,
        initial_x_size=xset.bit_count(),
        initial_y_sizes=tuple(y.bit_count() for y in ysets),
        initial_densities=densities,
        colouring_sha256=c.sha256(),
    )
    records: list[StepRecord] = []
    t_masks = [0] * r
    shift = params.delta - p0
    while xset:
        alphas = [(p + shift) / params.t for p in densities]
        ks = key_lemma_step(c, xset, ysets, alphas, header.beta)

        if ks.lam <= params.lambda0:
            kind = KIND_COLOUR
            x = ks.pivot
            counts = [(c.neighbourhood(x, j) & ks.x_prime).bit_count() for j in range(r)]
            best = max(counts)
            j = counts.index(best)
            if r * best < ks.x_prime.bit_count() - 1:
                raise LemmaViolation("colour-step pigeonhole failed")
            xset = c.neighbourhood(x, j) & ks.x_prime
            ysets[j] = ks.y_primes[j]
            t_masks[j] |= 1 << x
            chosen = j
        else:
            kind = KIND_BOOST
            xset = ks.x_prime
            ysets[ks.colour] = ks.y_primes[ks.colour]
            chosen = None

        densities = tuple(min_density(c, xset, ysets[i], i) for i in range(r)) if xset else None
        rec = StepRecord(
            s=len(records),
            kind=kind,
            pivot=ks.pivot,
            witness_colour=ks.colour,
            chosen_colour=chosen,
            lam=ks.lam,
            x_size=xset.bit_count(),
            y_sizes=tuple(y.bit_count() for y in ysets),
            t_sizes=tuple(t.bit_count() for t in t_masks),
            densities=densities,
        )
        records.append(rec)
        if on_state is not None:
            on_state(rec.s, xset, tuple(ysets), tuple(t_masks))
        if chosen is not None and t_masks[chosen].bit_count() >= params.t:
            pages = ysets[chosen]
            if pages & t_masks[chosen] or not c.is_mono_book(t_masks[chosen], pages, chosen):
                raise LemmaViolation("engine produced an invalid book")
            return EngineOutcome(RESULT_BOOK, chosen, t_masks[chosen], pages, Trace(header, tuple(records)))
        if xset and 0 in densities:
            raise DegenerateDensity(
                f"density hit zero after step {rec.s}",
                colour=densities.index(0),
                trace=Trace(header, tuple(records)),
            )
    return EngineOutcome(RESULT_EXHAUSTED, None, None, None, Trace(header, tuple(records)))


def derive_boost_threshold(mu: Fraction, p: Fraction, r: int) -> tuple[Fraction, Fraction]:
    """(delta, lambda0) from the density-scale recipe delta = p/mu^2,
    lambda0 = (mu ln(1/delta) / 8C)^2 with C = 4 r^(3/2).

    lambda0 is irrational in general; it is returned as the exact rational
    upper endpoint of its interval enclosure so traces stay byte-exact.
    """
    mu = exact_rational(mu)
    p = exact_rational(p)
    if mu <= 0 or not 0 < p <= 1:
        raise InvalidInput("need mu > 0 and p in (0, 1]")
    delta = p / mu**2
    log_inv_delta = -iv.log(iv_from_fraction(delta))
    lam0 = (iv_from_fraction(mu) * log_inv_delta / (8 * c_interval(r))) ** 2
    return delta, interval_endpoints(lam0)[1]
