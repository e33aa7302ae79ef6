"""Exact and log-space arithmetic for closed-form bound verification.

Two tiers, chosen per inequality: exact ``Fraction`` arithmetic wherever both
sides are rational, and interval enclosures of natural logs elsewhere (a
product's log is a sum of ``iv_ln`` enclosures, a power's a multiple of one).
Every interval comparison is directed: a reported "pass" means the inequality
holds for the true real values, no matter how the enclosures were rounded.
Every report is a ``Report``, whose JSON is its fields in order, by one rule;
the engine writes its trace lines with the same encoder.

This module is the only one that imports mpmath, in ``load_mpmath`` at the
package's first interval use, so a run that exact caps decide never loads it.
RF_PRECISION_BITS is read once at package import and applied at that load.
"""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass, field, fields
from decimal import Decimal
from fractions import Fraction
from functools import cache

from .errors import InvalidInput, NonFiniteEndpoint, PrecisionExhausted, ScaleError

PRECISION_ENV = "RF_PRECISION_BITS"
DEFAULT_PRECISION_BITS = 128

_mpmath = None  # the mpmath module, once load_mpmath has run
_bits = DEFAULT_PRECISION_BITS  # the working precision until then


def load_mpmath():
    """mpmath, at the package's working precision.

    Importing mpmath costs about 4 MiB of memory and a fifth of the
    package's start-up, and a run whose every decision is an exact cap builds
    no interval, so the package imports it here, at its first interval use.  That first call applies the
    precision set so far to ``mp`` and ``iv``, whoever imported mpmath
    before it.  Each function that builds or reads an enclosure takes the
    names it needs from here once per call.
    """
    global _mpmath
    if _mpmath is None:
        import mpmath

        mpmath.mp.prec = mpmath.iv.prec = _bits
        _mpmath = mpmath
    return _mpmath


def set_precision(bits: int) -> None:
    global _bits
    if bits < 16:
        raise InvalidInput("precision below 16 bits is not supported")
    _bits = bits
    if _mpmath is not None:
        _mpmath.mp.prec = _mpmath.iv.prec = bits


def precision() -> int:
    return _bits if _mpmath is None else _mpmath.mp.prec


# the text of a rejected RF_PRECISION_BITS, read once at import; it leaves
# the default in force, and cli.main reports it and exits 2
REJECTED_PRECISION = None
try:
    set_precision(int(os.environ.get(PRECISION_ENV, DEFAULT_PRECISION_BITS)))
except (ValueError, InvalidInput):
    set_precision(DEFAULT_PRECISION_BITS)
    REJECTED_PRECISION = os.environ[PRECISION_ENV]


def exact_rational(x) -> Fraction:
    """x as an exact rational: an int, a Fraction or a finite float (an exact binary rational).

    Every rational input of the package goes through this one rule, so NaN,
    an infinity or a string is an InvalidInput, never a bare ValueError.
    """
    if type(x) is Fraction:
        return x  # immutable, so no copy is needed
    if isinstance(x, (int, Fraction)) or (isinstance(x, float) and math.isfinite(x)):
        return Fraction(x)
    raise InvalidInput(f"need a finite int/float/Fraction input, got {x!r}")


def check_digit_limit(what: str, *values) -> None:
    """Refuse (InvalidInput) any int or Fraction in ``values`` that str() cannot
    write: one whose numerator or denominator has more digits than
    ``sys.get_int_max_str_digits()``.

    This is the package's one digit rule.  A value that passes it can be
    spelt in a report or a trace line; ``read_rational`` and ``EngineParams``
    apply it.
    """
    try:
        " ".join(map(str, values))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise InvalidInput(f"{what} take at most {limit} digits per numerator and denominator") from None


def read_rational(text) -> Fraction:
    """The rational that ``text`` spells, as ``Fraction`` reads a string, under the digit rule.

    "num/den" is read by int() on each part; int()'s own limit bounds the
    digits of both parts.  Any other spelling is read as a Decimal.  Each of
    its digit runs goes through int(), as Fraction puts it, so a misplaced
    underscore, a run past the limit, Infinity and NaN are refused.  A value
    whose exponent alone puts it past the limit is refused before it is
    built.  Every refusal, and a ``text`` that is not a str, is an
    InvalidInput.
    """
    try:
        num, slash, den = (s := str.strip(text)).partition("/")
        if slash and num[-1:].isdecimal() and den[:1].isdecimal():  # int() alone takes a sign or space by the slash
            return Fraction(int(num), int(den))
        for run in re.split("[.eE]", s.lstrip("+-")):
            int(run or 0)
        d = Decimal(s)
        # a value 10^a <= |d| < 10^(a+1) has a numerator of more than a digits, or a denominator of at least -a
        if not d or abs(d.adjusted()) <= (sys.get_int_max_str_digits() or math.inf):
            q = Fraction(d)
            check_digit_limit("rationals", q)
            return q
    except (TypeError, ValueError, ArithmeticError):  # Decimal's InvalidOperation is an ArithmeticError
        pass
    raise InvalidInput(f"not a rational of at most {sys.get_int_max_str_digits()} digits per numerator and denominator")


# ---------------------------------------------------------------------------
# interval helpers
# ---------------------------------------------------------------------------

def mpi_from_int(n: int):
    """The endpoint pair of ``iv.mpf(n)``: n rounded down and up at ``iv.prec``."""
    mpmath = load_mpmath()
    lib, prec = mpmath.libmp, mpmath.iv.prec
    return lib.from_int(n, prec, lib.round_floor), lib.from_int(n, prec, lib.round_ceiling)


def mpi_from_fraction(q: Fraction):
    """The endpoint pair of ``iv.mpf(q.numerator) / iv.mpf(q.denominator)``."""
    mpmath = load_mpmath()
    return mpmath.libmp.mpi_div(mpi_from_int(q.numerator), mpi_from_int(q.denominator), mpmath.iv.prec)


def iv_from_int(x: int):
    return load_mpmath().iv.make_mpf(mpi_from_int(x))


def iv_from_fraction(q: Fraction):
    return load_mpmath().iv.make_mpf(mpi_from_fraction(q))


def _finite(raw):
    """One raw interval endpoint, returned as it is once it is known to be
    finite; an infinite or NaN one is NonFiniteEndpoint."""
    if not raw[1] and raw[2]:  # mpmath tags +inf, -inf and nan with a zero mantissa
        raise NonFiniteEndpoint(f"interval endpoint {load_mpmath().libmp.to_str(raw, 5)} is not finite")
    return raw


def endpoint_fraction(raw) -> Fraction:
    """The exact rational value of one raw interval endpoint.

    An endpoint too large to hold as an int is a ScaleError (an InvalidInput).
    """
    sign, man, exp, _bc = _finite(raw)
    man, exp = -int(man) if sign else int(man), int(exp)
    try:
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    except OverflowError:  # a shift past the largest int
        raise ScaleError(f"an interval endpoint with a {exp.bit_length()}-bit exponent is too large to hold") from None


def interval_endpoints(x) -> tuple[Fraction, Fraction]:
    """Exact rational endpoints of an interval value.

    Raises NonFiniteEndpoint (a PrecisionExhausted) when either endpoint is
    infinite or NaN, so no caller ever orders or reports such an endpoint.
    """
    a, b = x._mpi_
    return endpoint_fraction(a), endpoint_fraction(b)


def certify_interval_ge(a, b) -> bool:
    """Decide ``a >= b`` rigorously for two interval values.

    The binary endpoints are compared exactly as they are (``libmp.mpf_ge``,
    ``mpf_lt``), so no endpoint is expanded into an integer, however large
    its exponent.  An infinite or NaN endpoint on either side leaves the
    comparison undecided (NonFiniteEndpoint), never decided from a stand-in
    value.
    """
    a_lo, a_hi = map(_finite, a._mpi_)
    b_lo, b_hi = map(_finite, b._mpi_)
    lib = load_mpmath().libmp
    if lib.mpf_ge(a_lo, b_hi):
        return True
    if lib.mpf_lt(a_hi, b_lo):
        return False
    raise PrecisionExhausted(f"cannot order overlapping intervals at {precision()} bits")


def iv_ln(q):
    """Enclosure of ln q for a positive int or Fraction: ln(numerator) - ln(denominator)."""
    q = Fraction(q)
    if q <= 0:
        raise InvalidInput(f"ln needs a positive argument, got {q}")
    iv = load_mpmath().iv
    log = iv.log(iv_from_int(q.numerator))
    return log if q.denominator == 1 else log - iv.log(iv_from_int(q.denominator))


def iv_mid(x) -> float:
    """The midpoint of an interval, as a float for reports.

    A midpoint beyond float range raises ScaleError (an InvalidInput): the
    verdict may be decided, but a report's strict JSON cannot hold the value.
    """
    lo, hi = interval_endpoints(x)
    try:
        return float((lo + hi) / 2)
    except OverflowError:
        raise ScaleError(f"report value {load_mpmath().libmp.to_str(x._mpi_[1], 5)} is beyond float range") from None


def iv_log10(log) -> float | None:
    """log10 (at the midpoint) of the value whose natural log ``log`` encloses; None for ln 0."""
    return None if log is None else iv_mid(log) / math.log(10)


# ---------------------------------------------------------------------------
# multinomials and the crude product bound
# ---------------------------------------------------------------------------

def multinomial(parts) -> int:
    """(sum(parts) choose parts) exactly; parts may contain zeros."""
    parts = list(parts)
    if any(p < 0 for p in parts):
        raise InvalidInput("multinomial parts must be non-negative")
    total = 0
    out = 1
    for p in parts:
        total += p
        out *= math.comb(total, p)
    return out


def es_upper(r: int, ks) -> int:
    """The multinomial (sum ks choose k_1, ..., k_r), exactly."""
    ks = list(ks)
    if len(ks) != r:
        raise InvalidInput(f"expected {r} clique sizes, got {len(ks)}")
    if any(k < 1 for k in ks):
        raise InvalidInput("clique sizes must be >= 1")
    return multinomial(ks)


# ---------------------------------------------------------------------------
# inequality reports
# ---------------------------------------------------------------------------

class Report:
    """A dataclass whose JSON is its fields in declaration order, by the one
    encoder of the package: reports and engine trace lines alike.

    A field's JSON key is its metadata "key" (as a trace step keys ``lam``
    as "lambda"), else its name; a field keyed None is left out.  A
    ``Fraction`` is written "num/den", a tuple item by item, a nested report
    as its JSON, and any other value as it is.
    """

    def to_json(self) -> dict:
        return {key: _json_value(getattr(self, name)) for key, name in json_keys(type(self))}


@cache
def json_keys(cls) -> list[tuple[str, str]]:
    """(JSON key, attribute) for each field of a report class that its JSON shows, in order."""
    keyed = ((f.metadata.get("key", f.name), f.name) for f in fields(cls))
    return [(key, name) for key, name in keyed if key is not None]


def _json_value(value):
    kind = type(value)  # not isinstance: Fraction's ABC check costs ten times as much
    if kind is Fraction:
        return f"{value.numerator}/{value.denominator}"
    if kind is tuple:
        return [_json_value(item) for item in value]
    return value.to_json() if isinstance(value, Report) else value


@dataclass(frozen=True)
class InequalityLink(Report):
    label: str
    description: str
    passes: bool = field(metadata={"key": "pass"})
    exact: bool
    lhs_log10: float | None  # None where the side is 0 (log undefined)
    rhs_log10: float | None
    log_gap: float | None = field(metadata={"key": "slack_log"})  # ln(lhs) - ln(rhs); None where undefined


def _rational_link(label: str, desc: str, lhs: Fraction, rhs: Fraction) -> InequalityLink:
    """Exact check lhs >= rhs for non-negative rationals, with log10 values for the report."""
    l_log, r_log = (iv_ln(q) if q else None for q in (lhs, rhs))
    gap = None
    if lhs and rhs:
        # through log10 and back: this rounding is the one every earlier report printed
        gap = iv_log10(l_log - r_log) * math.log(10)
    return InequalityLink(label, desc, lhs >= rhs, True, iv_log10(l_log), iv_log10(r_log), gap)


def _log_link(label: str, desc: str, lhs, rhs) -> InequalityLink:
    """Certified lhs >= rhs from enclosures of their natural logs; None stands for the value 0."""
    if lhs is None or rhs is None:
        passes, gap = rhs is None, None
    else:
        passes, gap = certify_interval_ge(lhs, rhs), iv_mid(lhs - rhs)
    return InequalityLink(label, desc, passes, False, iv_log10(lhs), iv_log10(rhs), gap)


# ---------------------------------------------------------------------------
# appendix bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppendixReport(Report):
    k: int
    t: int
    r: int
    passes: bool = field(metadata={"key": "pass"})
    identity_ok: bool
    lhs: int = field(metadata={"key": None})
    lhs_log10: float
    rhs_log10: float


def appendix_check(k: int, t: int, r: int) -> AppendixReport:
    """Verify (rk-t choose k,...,k,k-t) <= e^{-(r-1)t^2/3rk} * r^{rk-t}.

    The left side is an exact integer; the right side is certified through an
    interval upper bound rounded against the inequality.  Also verifies the
    exact telescoping identity
    lhs / (rk choose k,...,k) = prod_{i<t} (k-i)/(rk-i).
    """
    if not (3 <= t <= k) or r < 1:
        raise InvalidInput(f"need 3 <= t <= k and r >= 1, got k={k} t={t} r={r}")
    lhs = multinomial([k] * (r - 1) + [k - t])
    ratio = Fraction(lhs, multinomial([k] * r))
    prod = Fraction(1)
    for i in range(t):
        prod *= Fraction(k - i, r * k - i)
    identity_ok = ratio == prod

    exponent = -Fraction((r - 1) * t * t, 3 * r * k)
    rhs_log = iv_from_fraction(exponent) + (r * k - t) * iv_ln(r)
    passes = certify_interval_ge(rhs_log, iv_ln(lhs))
    return AppendixReport(k, t, r, passes, identity_ok, lhs, iv_log10(iv_ln(lhs)), iv_log10(rhs_log))


# ---------------------------------------------------------------------------
# book-theorem hypotheses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThmBookReport(Report):
    all_pass: bool
    links: tuple[InequalityLink, ...] = field(metadata={"key": "hypotheses"})


def thm_book_hypotheses(p, mu, t: int, m: int, r: int, size_x, size_ys) -> ThmBookReport:
    """Evaluate the four entry hypotheses of the book theorem in log space."""
    p = exact_rational(p)
    mu = exact_rational(mu)
    if not 0 < p <= 1:
        raise InvalidInput("p must be in (0, 1]")
    if mu <= 0:
        raise InvalidInput("mu must be positive")
    if t < 1 or m < 1 or r < 1:
        raise InvalidInput("t, m, r must be positive")
    size_ys = list(size_ys)
    if len(size_ys) != r:
        raise InvalidInput(f"need one |Y_i| per colour: {r} sizes, got {len(size_ys)}")
    if size_x < 0 or any(sy < 0 for sy in size_ys):
        raise InvalidInput("set sizes must be non-negative")
    links = [
        _rational_link("mu", "mu >= 2^10 r^3", mu, Fraction(2**10 * r**3)),
        _rational_link("t", "t >= mu^5 / p", Fraction(t), mu**5 / p),
    ]
    x_need = iv_ln(mu**2 / p) * iv_from_fraction(mu * r * t)
    links.append(_log_link("X", "|X| >= (mu^2/p)^(mu r t)", iv_ln(size_x) if size_x else None, x_need))
    y_need = (
        iv_from_fraction(Fraction(2**13 * r**3) / mu**2) - load_mpmath().iv.log(iv_from_fraction(p))
    ) * t + iv_ln(m)
    for i, sy in enumerate(size_ys):
        links.append(
            _log_link(f"Y{i}", "|Y_i| >= (e^(2^13 r^3/mu^2)/p)^t m", iv_ln(sy) if sy else None, y_need)
        )
    return ThmBookReport(all(l.passes for l in links), tuple(links))


# ---------------------------------------------------------------------------
# the headline constant chain
# ---------------------------------------------------------------------------

def _delta51(r: int) -> Fraction:
    """The headline constant delta = 2^-160 r^-12."""
    return Fraction(1, 2**160 * r**12)


@dataclass(frozen=True)
class Thm51Report(Report):
    r: int
    k: int
    t: int
    all_pass: bool
    links: tuple[InequalityLink, ...]


def thm51_chain(r: int, k: int | None = None) -> Thm51Report:
    """Check every inequality in the headline constant chain at scale k.

    Constants: delta = 2^-160 r^-12, eps = 2^-50 r^-4, mu = 2^30 r^3,
    p = 1/r - 2 eps, t = 2^-40 r^-3 k.  Only link (i), t >= mu^5/p, depends
    on k; links (ii)-(vi) are ratios or identities that hold at every k.
    By default k is derived from those constants: t = ceil(mu^5/p) and
    k = 2^40 r^3 t, the least multiple of 2^40 r^3 at which link (i) holds,
    with 2^190 r^19 < k < 2^191 r^19.  At that default, link (i) holds by
    the choice of k: it records that a k exists at which every link holds,
    not that some scale named elsewhere meets it.  The paper's bound holds
    "for all sufficiently large k"; no numerical threshold for k is taken
    from it here.  A given k must be a positive multiple of 2^40 r^3 (so
    that t is an integer); at smaller k, such as 2^160 r^16, link (i) fails.
    Exact rational arithmetic wherever both sides are rational, certified
    intervals elsewhere.  Each link reports pass/fail and its log-slack.
    """
    if r < 2:
        raise InvalidInput("need r >= 2")
    delta = _delta51(r)
    eps = Fraction(1, 2**50 * r**4)
    mu = 2**30 * r**3
    p = Fraction(1, r) - 2 * eps
    mu5_over_p = Fraction(mu) ** 5 / p
    unit = 2**40 * r**3
    if k is None:
        t = math.ceil(mu5_over_p)
        k = unit * t
    elif k < 1 or k % unit:
        raise InvalidInput(f"k must be a positive multiple of 2^40 r^3 = {unit}, got {k}")
    else:
        t = k // unit

    links: list[InequalityLink] = []

    # (i) t >= mu^5 / p at the scale k
    links.append(_rational_link("i", f"t >= mu^5/p at k = {k}", Fraction(t), mu5_over_p))

    # (ii) the |X| chain: r^(rk/4) >= (2^61 r^7)^(2^-10 r k) >= (mu^2/p)^(mu r t)
    e1 = r * k // 4
    e2 = r * k // 2**10
    links.append(
        _log_link("ii-a", "r^(rk/4) >= (2^61 r^7)^(2^-10 rk)", e1 * iv_ln(r), e2 * iv_ln(2**61 * r**7))
    )
    exponents_match = mu * r * t == e2
    base_ok = Fraction(2**61 * r**7) >= Fraction(mu) ** 2 / p
    links.append(
        InequalityLink(
            "ii-b",
            "(2^61 r^7)^(2^-10 rk) >= (mu^2/p)^(mu r t): equal exponents, base comparison exact",
            exponents_match and base_ok,
            True,
            float(e2) * math.log10(2**61 * r**7),
            float(mu * r * t) * iv_log10(iv_ln(Fraction(mu) ** 2 / p)),
            None,
        )
    )

    # (iii) t/8k identity and the exact split 2^-43 >= 2^-47 + 2^-48 (i.e. 32 >= 3)
    ident = (
        Fraction(t, 8 * k) == Fraction(1, 2**43 * r**3)
        and Fraction(2**13 * r**3, mu**2) == Fraction(1, 2**47 * r**3)
        and 4 * eps * r == Fraction(1, 2**48 * r**3)
    )
    split = Fraction(1, 2**43 * r**3) >= Fraction(1, 2**47 * r**3) + Fraction(1, 2**48 * r**3)
    links.append(
        InequalityLink(
            "iii",
            "t/8k = 2^-43 r^-3 = 2^13 r^3/mu^2 + 4 eps r slack: exact identities and 32 >= 3",
            ident and split,
            True,
            -math.log10(2**43 * r**3),
            -math.log10(2**47 * r**3),
            math.log(32.0 / 3.0),
        )
    )

    # (iv) delta <= 2^-10 t^2 / k^2
    links.append(
        _rational_link("iv", "2^-10 t^2/k^2 >= delta", Fraction(1, 2**10) * Fraction(t, k) ** 2, delta)
    )

    # (v) p = 1/r - 2 eps >= e^(-3 eps r)/r, i.e. ln(1 - 2 eps r) + 3 eps r >= 0
    iv = load_mpmath().iv
    margin = iv.log(iv_from_fraction(1 - 2 * eps * r)) + iv_from_fraction(3 * eps * r)
    links.append(
        InequalityLink(
            "v",
            "p >= e^(-3 eps r)/r",
            certify_interval_ge(margin, iv.mpf(0)),
            False,
            iv_log10(iv_ln(p)),
            iv_log10(iv_ln(p)),
            iv_mid(margin),
        )
    )

    # (vi) the |Y_i| chain: terminal inequality t^2/8k - 4 eps r t >= (2^13 r^3/mu^2) t,
    # plus the page-count comparison delta <= t^2/24k^2 used to reach it
    terminal = Fraction(t, 8 * k) - 4 * eps * r >= Fraction(2**13 * r**3, mu**2)
    page_cmp = delta <= Fraction(t * t, 24 * k * k)
    links.append(
        InequalityLink(
            "vi",
            "|Y_i| chain: t/8k - 4 eps r >= 2^13 r^3/mu^2 and delta <= t^2/24k^2, exact",
            terminal and page_cmp,
            True,
            iv_log10(iv_ln(Fraction(t, 8 * k) - 4 * eps * r)),
            iv_log10(iv_ln(Fraction(2**13 * r**3, mu**2))),
            None,
        )
    )

    return Thm51Report(r, k, t, all(l.passes for l in links), tuple(links))

