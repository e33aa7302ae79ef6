"""The multicolour book algorithm as a deterministic state machine.

Each round applies the key step with alpha_i = (p_i - p_0 + delta)/t, then
either adds the pivot to a spine (colour step, lam <= lambda_0) or replaces X
and one Y set to force the density up (boost step, lam > lambda_0).  Exactly
one Y set changes per round, densities and alphas are re-derived from the
colouring every round, and every round is appended to a JSON-lines trace that
is byte-identical across runs and platforms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from mpmath import iv

from .bounds import iv_from_fraction, upper_fraction
from .colouring import EdgeColouring
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
        object.__setattr__(self, "lambda0", Fraction(self.lambda0))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.t < 1:
            raise InvalidInput("t must be >= 1")
        if self.lambda0 < -1:
            raise InvalidInput("lambda0 must be >= -1")
        if not 0 < self.delta <= Fraction(1, 4):
            raise InvalidInput("delta must lie in (0, 1/4]")


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _parse_frac(s: str) -> Fraction:
    try:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    except (AttributeError, ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {s!r}") from None


@dataclass(frozen=True)
class StepRecord:
    s: int
    kind: str                      # "colour" | "boost"
    pivot: int
    witness_colour: int
    chosen_colour: int | None      # colour steps only
    lam: Fraction
    x_size: int
    y_sizes: tuple[int, ...]
    t_sizes: tuple[int, ...]
    densities: tuple[Fraction, ...] | None  # None once X is empty

    def to_json_dict(self) -> dict:
        return {
            "type": "step",
            "s": self.s,
            "kind": self.kind,
            "pivot": self.pivot,
            "witness_colour": self.witness_colour,
            "chosen_colour": self.chosen_colour,
            "lambda": _frac_str(self.lam),
            "x_size": self.x_size,
            "y_sizes": list(self.y_sizes),
            "t_sizes": list(self.t_sizes),
            "densities": None if self.densities is None else [_frac_str(p) for p in self.densities],
        }


@dataclass(frozen=True)
class TraceHeader:
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

    def to_json_dict(self) -> dict:
        return {
            "type": "header",
            "n": self.n,
            "r": self.r,
            "t": self.t,
            "lambda0": _frac_str(self.lambda0),
            "delta": _frac_str(self.delta),
            "beta": _frac_str(self.beta),
            "p0": _frac_str(self.p0),
            "initial_x_size": self.initial_x_size,
            "initial_y_sizes": list(self.initial_y_sizes),
            "initial_densities": [_frac_str(p) for p in self.initial_densities],
            "colouring_sha256": self.colouring_sha256,
        }


@dataclass(frozen=True)
class Trace:
    header: TraceHeader
    records: tuple[StepRecord, ...]

    def to_lines(self) -> list[str]:
        lines = [json.dumps(self.header.to_json_dict(), separators=(",", ":"))]
        lines.extend(json.dumps(r.to_json_dict(), separators=(",", ":")) for r in self.records)
        return lines

    def to_text(self) -> str:
        return "\n".join(self.to_lines()) + "\n"


def write_trace(trace: Trace, path) -> None:
    Path(path).write_text(trace.to_text(), encoding="ascii")


def _header_from_json(d: dict) -> TraceHeader:
    if d.get("type") != "header":
        raise ParseError("first line must be a header")
    return TraceHeader(
        n=d["n"],
        r=d["r"],
        t=d["t"],
        lambda0=_parse_frac(d["lambda0"]),
        delta=_parse_frac(d["delta"]),
        beta=_parse_frac(d["beta"]),
        p0=_parse_frac(d["p0"]),
        initial_x_size=d["initial_x_size"],
        initial_y_sizes=tuple(d["initial_y_sizes"]),
        initial_densities=tuple(_parse_frac(p) for p in d["initial_densities"]),
        colouring_sha256=d["colouring_sha256"],
    )


def _record_from_json(d: dict) -> StepRecord:
    if d.get("type") != "step":
        raise ParseError("expected a step record")
    rec = StepRecord(
        s=d["s"],
        kind=d["kind"],
        pivot=d["pivot"],
        witness_colour=d["witness_colour"],
        chosen_colour=d["chosen_colour"],
        lam=_parse_frac(d["lambda"]),
        x_size=d["x_size"],
        y_sizes=tuple(d["y_sizes"]),
        t_sizes=tuple(d["t_sizes"]),
        densities=None if d["densities"] is None else tuple(_parse_frac(p) for p in d["densities"]),
    )
    if rec.kind not in (KIND_COLOUR, KIND_BOOST):
        raise ParseError(f"unknown step kind {rec.kind!r}")
    return rec


def _parse_line(line: str, lineno: int, build):
    """Decode one trace line with ``build``; every defect is a ParseError naming the line."""
    try:
        d = json.loads(line)
        if not isinstance(d, dict):
            raise ParseError("a trace line must be a JSON object")
        return build(d)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e}", line=lineno) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply", line=lineno) from None
    except KeyError as e:
        raise ParseError(f"missing field {e}", line=lineno) from None
    except TypeError as e:
        raise ParseError(f"bad field: {e}", line=lineno) from None
    except ParseError as e:
        raise ParseError(str(e), line=lineno) from None


def parse_trace(text: str) -> Trace:
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise ParseError("empty trace")
    header = _parse_line(lines[0], 1, _header_from_json)
    records = tuple(_parse_line(ln, lineno, _record_from_json) for lineno, ln in enumerate(lines[1:], start=2))
    return Trace(header, records)


def read_trace(path) -> Trace:
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as e:
        raise ParseError(f"non-ASCII byte {data[e.start]:#04x}", line=data.count(b"\n", 0, e.start) + 1) from None
    return parse_trace(text)


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

    ``on_state``, if given, is called after every round with
    (s, x_mask, y_masks, t_masks) for independent state verification.
    Raises DegenerateDensity (with the partial trace attached) if some
    density hits zero mid-run, and InvalidInput on bad starting sets.
    """
    r = c.r
    ysets = list(ysets)
    if len(ysets) != r:
        raise InvalidInput(f"need one Y set per colour ({r})")
    if xset == 0 or any(y == 0 for y in ysets):
        raise InvalidInput("X and every Y_i must be non-empty")

    densities = [min_density(c, xset, ysets[i], i) for i in range(r)]
    if any(p == 0 for p in densities):
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
        initial_densities=tuple(densities),
        colouring_sha256=c.sha256(),
    )
    records: list[StepRecord] = []
    t_masks = [0] * r
    s = 0
    while True:
        done = [i for i in range(r) if t_masks[i].bit_count() >= params.t]
        if done:
            i = done[0]
            pages = ysets[i]
            if pages & t_masks[i] or not c.is_mono_book(t_masks[i], pages, i):
                raise LemmaViolation("engine produced an invalid book")
            return EngineOutcome(RESULT_BOOK, i, t_masks[i], pages, Trace(header, tuple(records)))
        if xset == 0:
            return EngineOutcome(RESULT_EXHAUSTED, None, None, None, Trace(header, tuple(records)))
        if any(p == 0 for p in densities):
            raise DegenerateDensity(
                f"density hit zero after step {s - 1}",
                colour=next(i for i, p in enumerate(densities) if p == 0),
                trace=Trace(header, tuple(records)),
            )

        alphas = [(densities[i] - p0 + params.delta) / params.t for i in range(r)]
        ks = key_lemma_step(c, xset, ysets, alphas)

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

        if xset:
            densities = [min_density(c, xset, ysets[i], i) for i in range(r)]
            dens_rec = tuple(densities)
        else:
            dens_rec = None
        records.append(
            StepRecord(
                s=s,
                kind=kind,
                pivot=ks.pivot,
                witness_colour=ks.colour,
                chosen_colour=chosen,
                lam=ks.lam,
                x_size=xset.bit_count(),
                y_sizes=tuple(y.bit_count() for y in ysets),
                t_sizes=tuple(t.bit_count() for t in t_masks),
                densities=dens_rec,
            )
        )
        if on_state is not None:
            on_state(s, xset, tuple(ysets), tuple(t_masks))
        s += 1


def derive_boost_threshold(mu: Fraction, p: Fraction, r: int) -> tuple[Fraction, Fraction]:
    """(delta, lambda0) from the density-scale recipe delta = p/mu^2,
    lambda0 = (mu ln(1/delta) / 8C)^2 with C = 4 r^(3/2).

    lambda0 is irrational in general; it is returned as the exact rational
    upper endpoint of its interval enclosure so traces stay byte-exact.
    """
    mu = Fraction(mu)
    p = Fraction(p)
    if mu <= 0 or not 0 < p <= 1:
        raise InvalidInput("need mu > 0 and p in (0, 1]")
    delta = p / mu**2
    log_inv_delta = -iv.log(iv_from_fraction(delta))
    lam0 = (iv_from_fraction(mu) * log_inv_delta / (8 * c_interval(r))) ** 2
    return delta, upper_fraction(lam0)
