import contextlib
import gc
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv

from ramseybook import bounds
from ramseybook.bounds import (
    appendix_check,
    certify_interval_ge,
    endpoint_fraction,
    es_upper,
    exact_rational,
    interval_endpoints,
    iv_from_fraction,
    iv_ln,
    iv_log10,
    multinomial,
    read_rational,
    thm51_chain,
    thm_book_hypotheses,
)
from ramseybook.errors import InvalidInput, NonFiniteEndpoint, PrecisionExhausted, ScaleError
from ramseybook.pipeline import lemma53_check


def _encloses_log_of(log, exact: F) -> bool:
    """The enclosure must overlap a fresh enclosure of ln(exact)."""
    lo, hi = interval_endpoints(log)
    l2, h2 = interval_endpoints(iv.log(iv_from_fraction(exact)))
    return lo <= h2 and l2 <= hi


class TestIvLn:
    def test_multiplication_matches_fractions(self):
        rng = random.Random(4)
        for _ in range(50):
            a = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
            b = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
            prod = iv_ln(a) + iv_ln(b)
            assert _encloses_log_of(prod, a * b)
            lo, hi = interval_endpoints(prod)
            assert hi - lo < F(1, 2**64)

    def test_comparison_matches_fractions(self):
        rng = random.Random(5)
        for _ in range(100):
            a = F(rng.randint(1, 10**9), rng.randint(1, 10**9))
            b = F(rng.randint(1, 10**9), rng.randint(1, 10**9))
            if a == b:
                continue
            assert certify_interval_ge(iv_ln(a), iv_ln(b)) == (a >= b)

    def test_integer_is_one_log(self):
        assert interval_endpoints(iv_ln(12)) == interval_endpoints(iv.log(iv.mpf(12)))
        assert interval_endpoints(iv_ln(F(12, 1))) == interval_endpoints(iv.log(iv.mpf(12)))

    @pytest.mark.parametrize("q", [0, -3, F(-1, 2)])
    def test_non_positive_rejected(self, q):
        with pytest.raises(InvalidInput):
            iv_ln(q)

    def test_powers(self):
        big = iv_ln(2) * iv_from_fraction(F(10**9))
        assert iv_log10(big) == pytest.approx(10**9 * math.log10(2), rel=1e-12)

    def test_exp_and_huge_values(self):
        huge, tiny = iv_from_fraction(F(10**25)), iv_from_fraction(F(-(10**25)))
        assert certify_interval_ge(huge, tiny)
        assert not certify_interval_ge(tiny, huge)


class TestExactRational:
    def test_plain_fraction_is_returned_as_is(self):
        x = F(3, 7)
        assert exact_rational(x) is x

    def test_fraction_subclass_becomes_a_plain_fraction(self):
        class Tagged(F):
            pass

        out = exact_rational(Tagged(3, 7))
        assert type(out) is F and out == F(3, 7)


class TestMultinomials:
    def test_es_upper_examples(self):
        assert es_upper(2, [3, 2]) == 10
        assert es_upper(1, [7]) == 1
        assert es_upper(3, [2, 2, 2]) == 90

    def test_factorial_identity(self):
        rng = random.Random(7)
        for _ in range(30):
            r = rng.randint(1, 4)
            ks = [rng.randint(1, 6) for _ in range(r)]
            prod = 1
            for k in ks:
                prod *= math.factorial(k)
            assert es_upper(r, ks) * prod == math.factorial(sum(ks))

    def test_zero_parts_allowed_internally(self):
        assert multinomial([3, 0]) == 1

    def test_es_upper_validates(self):
        with pytest.raises(InvalidInput):
            es_upper(2, [3, 0])


class TestAppendix:
    def test_small_equality_case(self):
        rep = appendix_check(3, 3, 2)
        assert rep.passes and rep.identity_ok
        assert rep.lhs == 1  # (3 choose 3, 0)

    def test_k30(self):
        rep = appendix_check(30, 3, 2)
        assert rep.passes and rep.identity_ok

    def test_r1_equality(self):
        rep = appendix_check(10, 3, 1)
        assert rep.passes and rep.identity_ok and rep.lhs == 1

    def test_t2_rejected(self):
        with pytest.raises(InvalidInput):
            appendix_check(10, 2, 2)

    def test_t_above_k_rejected(self):
        with pytest.raises(InvalidInput):
            appendix_check(3, 4, 2)


class TestThmBookHypotheses:
    def test_constructed_pass(self):
        r = 2
        mu = F(2**13)  # = 2^10 r^3
        p = F(1, 2)
        t = int(mu**5 / p)  # exact: mu^5/p is an integer here
        rep = thm_book_hypotheses(p, mu, t, 1, r, 10**100, [10**50, 10**50])
        by_label = {l.label: l for l in rep.links}
        assert by_label["mu"].passes
        assert by_label["t"].passes
        # the reservoir threshold is (mu^2/p)^(mu r t): log10 = mu r t log10(2 mu^2)
        want = float(mu * r * t) * math.log10(2 * float(mu) ** 2)
        assert by_label["X"].rhs_log10 == pytest.approx(want, rel=1e-9)

    def test_mu_too_small_flagged(self):
        rep = thm_book_hypotheses(F(1, 2), F(2**9), 10**30, 1, 2, 10**100, [10**50, 10**50])
        by_label = {l.label: l for l in rep.links}
        assert not by_label["mu"].passes

    def test_small_x_fails_with_negative_gap(self):
        r = 2
        mu = F(2**13)
        p = F(1, 2)
        t = int(mu**5 / p)
        rep = thm_book_hypotheses(p, mu, t, 1, r, 10, [10, 10])
        by_label = {l.label: l for l in rep.links}
        assert not by_label["X"].passes
        assert by_label["X"].log_gap < 0

    @pytest.mark.parametrize("mu, size_x, size_ys", [
        (F(0), 1, [1]),
        (F(-1), 1, [1]),
        (F(2**13), -4, [1]),
        (F(2**13), 1, [1, -3]),
    ])
    def test_non_positive_mu_and_negative_sizes_rejected(self, mu, size_x, size_ys):
        with pytest.raises(InvalidInput):
            thm_book_hypotheses(F(1), mu, 1, 1, len(size_ys), size_x, size_ys)

    def test_empty_sets_fail_without_error(self):
        rep = thm_book_hypotheses(F(1), F(2**13), 1, 1, 1, 0, [0])
        by_label = {l.label: l for l in rep.links}
        assert not by_label["X"].passes and not by_label["Y0"].passes


class TestThm51Chain:
    @pytest.mark.parametrize("r", [2, 3, 17, 64])
    def test_links_ii_through_vi_pass(self, r):
        rep = thm51_chain(r)
        by_label = {l.label: l for l in rep.links}
        for label in ("ii-a", "ii-b", "iii", "iv", "v", "vi"):
            assert by_label[label].passes, label

    def test_link_i_fails_by_mu(self):
        # At k = 2^160 r^16, t = 2^120 r^13 against mu^5/p ~ 2^150 r^16:
        # short by a factor ~ mu.  The default scale is large enough.
        rep = thm51_chain(2, k=2**160 * 2**16)
        link_i = rep.links[0]
        assert link_i.label == "i"
        assert not link_i.passes
        assert link_i.log_gap == pytest.approx(-math.log(2**30 * 2**3), rel=1e-6)

    def test_link_vi_page_comparison_at_headline_ratio(self):
        # link vi includes delta <= t^2/24k^2; the chain's ratio t/k = 2^-40 r^-3
        # is 2^-43 at r = 2, far above sqrt(24 delta) ~ 2^-81
        rep = thm51_chain(2)
        assert F(rep.t, rep.k) == F(1, 2**43)
        assert F(1, 2**160 * 2**12) <= F(rep.t**2, 24 * rep.k**2)
        assert rep.links[-1].label == "vi" and rep.links[-1].passes

    def test_r_below_2_rejected(self):
        with pytest.raises(InvalidInput):
            thm51_chain(1)

    @pytest.mark.parametrize("k", [0, 3, 2**40 * 8 + 1])
    def test_k_not_a_multiple_of_unit_rejected(self, k):
        # t = 2^-40 r^-3 k must be a positive integer
        with pytest.raises(InvalidInput):
            thm51_chain(2, k=k)


class TestEndpoints:
    @staticmethod
    def reference(raw) -> F:
        """The power-of-two product the shift-based conversion replaced."""
        sign, man, exp, _bc = raw
        f = F(int(man)) * F(2) ** int(exp)
        return -f if sign else f

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.fractions(max_denominator=10**40),
        st.integers(-(2**300), 2**300),
        st.floats(allow_nan=False, allow_infinity=False),
    ))
    def test_match_power_of_two_product(self, x):
        enc = iv.mpf(x) if not isinstance(x, F) else iv_from_fraction(x)
        lo_raw, hi_raw = enc._mpi_
        assert interval_endpoints(enc) == (self.reference(lo_raw), self.reference(hi_raw))

    @pytest.mark.parametrize("make", [
        lambda: 1 / iv.mpf([-1, 1]),          # [-inf, +inf]
        lambda: iv.log(iv.mpf([0, 1])),       # [-inf, 0]
        lambda: iv.mpf([1, "inf"]),
        lambda: iv.mpf("nan"),
    ])
    def test_non_finite_endpoint_raises(self, make):
        with pytest.raises(NonFiniteEndpoint):
            interval_endpoints(make())

    def test_non_finite_endpoint_is_undecided(self):
        # both were once decided by reading the infinite endpoint as 0
        with pytest.raises(PrecisionExhausted):
            certify_interval_ge(iv.mpf(0), 1 / iv.mpf([-1, 1]))
        with pytest.raises(PrecisionExhausted):
            certify_interval_ge(iv.mpf(-5), iv.log(iv.mpf([0, 1])))
        with pytest.raises(PrecisionExhausted):
            certify_interval_ge(iv.mpf("nan"), iv.mpf(0))

    @pytest.mark.parametrize("raw", [(0, 1, -(10**200), 1), (1, 3, 10**200, 2)], ids=["tiny", "huge"])
    def test_endpoint_too_large_to_hold_is_scale_error(self, raw):
        # the shift used to escape as a bare OverflowError
        with pytest.raises(ScaleError, match="too large"):
            endpoint_fraction(raw)


class TestPrecisionAtLoad:
    """``bounds.load_mpmath`` imports mpmath at the package's first interval
    use and applies the package precision then, whoever imported mpmath
    first.  Each case runs in a fresh interpreter, since this one has loaded
    it already."""

    @staticmethod
    def probe(body: str, prelude: str = "", **env) -> list[str]:
        """The words printed by ``prelude``, an import of ``bounds``, then ``body``, in a fresh interpreter."""
        src = str(Path(bounds.__file__).parents[1])
        env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = (
            f"{prelude}\n"
            "import sys\n"
            "from fractions import Fraction\n"
            "from ramseybook import bounds\n"
            "def mantissa_bits(enc): return max(bc for _sign, _man, _exp, bc in enc._mpi_)\n"
            f"{body}\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        return proc.stdout.split()

    def test_precision_env_applies_at_the_load(self):
        body = (
            "print(bounds.precision(), 'mpmath' in sys.modules)\n"
            "enc = bounds.iv_from_fraction(Fraction(1, 3))\n"
            "print(bounds.precision(), mantissa_bits(enc))"
        )
        assert self.probe(body, RF_PRECISION_BITS="40") == ["40", "False", "40", "40"]

    def test_mpmath_imported_first_still_gets_the_package_precision(self):
        # mpmath's own default is 53 bits; the package's first enclosure applies 128
        body = (
            "print(mpmath.iv.prec, bounds.precision())\n"
            "enc = bounds.iv_from_fraction(Fraction(1, 3))\n"
            "print(mpmath.iv.prec, mpmath.mp.prec, mantissa_bits(enc))"
        )
        words = self.probe(body, prelude="import mpmath", RF_PRECISION_BITS="128")
        assert words == ["53", "128", "128", "128", "128"]

    def test_set_precision_before_the_load_takes_effect_at_it(self):
        body = (
            "bounds.set_precision(64)\n"
            "print(bounds.precision(), 'mpmath' in sys.modules)\n"
            "enc = bounds.iv_from_fraction(Fraction(1, 3))\n"
            "import mpmath\n"
            "print(bounds.precision(), mpmath.iv.prec, mantissa_bits(enc))\n"
            "bounds.set_precision(40)\n"
            "print(bounds.precision(), mpmath.mp.prec, mpmath.iv.prec)"
        )
        assert self.probe(body) == ["64", "False", "64", "64", "64", "40", "40", "40"]


@contextlib.contextmanager
def int_digit_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# Python 3.11's grammar for Fraction(text), copied with its construction from
# that version's fractions.py, so that the oracle below is the same on every
# Python: 3.10 refuses "1/1_0", and 3.12 reads "3 / 4"
_RATIONAL_FORMAT = re.compile(r"""
    \A\s*                                 # optional whitespace at the start,
    (?P<sign>[-+]?)                       # an optional sign, then
    (?=\d|\.\d)                           # lookahead for digit or .digit
    (?P<num>\d*|\d+(_\d+)*)               # numerator (possibly empty)
    (?:                                   # followed by
       (?:/(?P<denom>\d+(_\d+)*))?        # an optional denominator
    |                                     # or
       (?:\.(?P<decimal>d*|\d+(_\d+)*))?  # an optional fractional part
       (?:E(?P<exp>[-+]?\d+(_\d+)*))?     # and optional exponent
    )
    \s*\Z                                 # and optional whitespace to finish
""", re.VERBOSE | re.IGNORECASE)


def fraction_311(text):
    """Fraction(text) as Python 3.11 builds it; raises where it raises."""
    m = _RATIONAL_FORMAT.match(text)
    if m is None:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    numerator = int(m.group("num") or "0")
    denom = m.group("denom")
    if denom:
        denominator = int(denom)
    else:
        denominator = 1
        decimal = m.group("decimal")
        if decimal:
            decimal = decimal.replace("_", "")
            scale = 10 ** len(decimal)
            numerator = numerator * scale + int(decimal)
            denominator *= scale
        exp = m.group("exp")
        if exp:
            exp = int(exp)
            if exp >= 0:
                numerator *= 10**exp
            else:
                denominator *= 10**-exp
    if m.group("sign") == "-":
        numerator = -numerator
    return F(numerator, denominator)


def value_or_none(read, text):
    try:
        return read(text)
    except (ValueError, ZeroDivisionError):
        return None


def fraction_or_none(text):
    """What Python 3.11's Fraction(text) reads, or None where it raises; on
    3.11 itself the copy must agree with Fraction(text)."""
    want = value_or_none(fraction_311, text)
    if sys.version_info[:2] == (3, 11):
        assert value_or_none(F, text) == want
    return want


DIGITS = "0123456789"
# digit groups joined by underscores; an empty group puts an underscore where Fraction refuses one
groups = st.lists(st.text(DIGITS, min_size=1, max_size=4), min_size=1, max_size=3).map("_".join)
loose_groups = st.lists(st.text(DIGITS, max_size=4), min_size=1, max_size=3).map("_".join)
# digit runs about as long as the lower limit drawn (640), leading zeros included
long_numeral = st.builds(lambda k, tail: "0" * k + tail, st.integers(600, 700), st.text(DIGITS, max_size=2))
numeral = groups | groups | loose_groups | long_numeral
# exponents stay below 10^4, so that Fraction expands each in well under a millisecond
exponent_digits = (
    st.lists(st.text(DIGITS, max_size=2), min_size=1, max_size=2).map("_".join)
    | long_numeral
    | st.integers(600, 700).map(str)
    | st.integers(4250, 4350).map(str)
)
sign = st.sampled_from(["", "+", "-"])
space = st.sampled_from(["", " ", "\t\n", "\x1c", "\u3000"])
ratio = st.builds("{}{}{}{}{}".format, sign, numeral, st.sampled_from(["/", "/", " /", "/ "]),
                  st.sampled_from(["", "", "+", "-"]), numeral)
fraction_part = st.just("") | numeral.map(".{}".format)
exponent = st.just("") | st.builds("{}{}{}".format, st.sampled_from("eE"), sign, exponent_digits)
decimal = st.builds("{}{}{}{}".format, sign, numeral, fraction_part, exponent)
odd = st.sampled_from(["Infinity", "-inf", "NaN", "sNaN", "nan", ".", "e5", "1e", "abc", "", "0x10", "1.5/2",
                       "1/2/3", "\u0663/\u0664", "\u0663.\u0665"]) | st.text(max_size=8)
rational_text = st.builds("{}{}{}".format, space, ratio | decimal | odd, space)


class TestReadRational:
    """bounds.read_rational reads what Python 3.11's Fraction(text) reads, to the
    same value, as long as that value passes the digit rule; every other text is
    an InvalidInput."""

    @settings(max_examples=1500, deadline=None)
    @given(rational_text, st.sampled_from([640, 4300]))
    @example("3/-4", 4300)
    @example("3/+4", 4300)
    @example("3 / 4", 4300)
    @example("1__0", 4300)
    @example("_1", 4300)
    @example("1_", 4300)
    @example("Infinity", 4300)
    @example("NaN", 4300)
    @example("\x1c3/4", 4300)
    @example("0e9999", 640)
    @example("1e-640", 640)
    @example("1e-639", 640)
    @example("5e-640", 640)                              # 1/(2*10^639): a denominator of 640 digits
    @example("5e-641", 640)
    @example("0." + "0" * 639 + "1e-1", 640)
    @example("1" + "0" * 640 + "e-640", 640)            # the coefficient's run passes the limit
    @example("0." + "0" * 641, 640)
    @example("9" * 640 + "/" + "9" * 640, 640)
    def test_agrees_with_fraction(self, text, limit):
        with int_digit_limit(limit):
            want = fraction_or_none(text)
            if want is not None and max(abs(want.numerator), want.denominator) < 10**limit:
                assert read_rational(text) == want
            else:
                with pytest.raises(InvalidInput, match="digits"):
                    read_rational(text)

    @pytest.mark.parametrize("value", [10, F(1, 2), 0.5, Decimal("0.5"), None, ["1/2"], b"1/2"])
    def test_only_text_is_read(self, value):
        with pytest.raises(InvalidInput):
            read_rational(value)

    @pytest.mark.parametrize("text", ["1e10000000", "-1e-10000000", "0.1e10000000", "1e99999999999999999999"])
    def test_long_exponent_refused_before_it_is_expanded(self, text):
        gc.collect()
        start = time.process_time()
        with pytest.raises(InvalidInput, match="digits"):
            read_rational(text)
        assert time.process_time() - start < 0.1

    def test_zero_with_a_long_exponent_is_zero(self):
        gc.collect()
        start = time.process_time()
        assert read_rational("0e10000000") == 0
        assert time.process_time() - start < 0.1

    def test_values_at_the_limit(self):
        limit = sys.get_int_max_str_digits()
        assert read_rational(f"1e-{limit - 1}") == F(1, 10 ** (limit - 1))
        assert read_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
        for text in (f"1e-{limit}", f"1e{limit}", "0." + "0" * (limit - 2) + "1e-1"):
            with pytest.raises(InvalidInput, match=f"at most {limit} digits"):
                read_rational(text)


# The reports' text, json.dumps(report.to_json(), sort_keys=True), as the
# earlier sign-and-log scalar code printed it, except that a value it printed
# as NaN or -Infinity (a log of 0, or a slack that is not defined) is null.
# Every verdict and every float must stay bit-identical.
PINNED = [
    (thm51_chain, (2,),
     '{"all_pass": true, '
     '"k": 822752278660603203765189257641580592771179325702031278516207616, '
     '"links": [{"description": "t >= mu^5/p at k = 822752278660603203765189257641580592771179325702031278516207616", '
     '"exact": true, "label": "i", "lhs_log10": 49.970979280220874, "pass": true, '
     '"rhs_log10": 49.970979280220874, "slack_log": 0.0}, '
     '{"description": "r^(rk/4) >= (2^61 r^7)^(2^-10 rk)", "exact": false, '
     '"label": "ii-a", "lhs_log10": 1.2383655743886601e+62, "pass": true, '
     '"rhs_log10": 3.2894085569698784e+61, "slack_log": 2.0940278004597482e+62}, '
     '{"description": "(2^61 r^7)^(2^-10 rk) >= (mu^2/p)^(mu r t): equal exponents, '
     'base comparison exact", "exact": true, "label": "ii-b", '
     '"lhs_log10": 3.2894085569698784e+61, "pass": true, '
     '"rhs_log10": 3.241034901720321e+61, "slack_log": null}, '
     '{"description": "t/8k = 2^-43 r^-3 = 2^13 r^3/mu^2 + 4 eps r slack: exact identities and 32 >= 3", '
     '"exact": true, "label": "iii", "lhs_log10": -13.847379800543134, "pass": true, '
     '"rhs_log10": -15.05149978319906, "slack_log": 2.367123614131617}, '
     '{"description": "2^-10 t^2/k^2 >= delta", "exact": true, "label": "iv", '
     '"lhs_log10": -28.89887958374219, "pass": true, "rhs_log10": -51.77715925420476, '
     '"slack_log": 52.67918572255584}, {"description": "p >= e^(-3 eps r)/r", '
     '"exact": false, "label": "v", "lhs_log10": -0.30102999566398125, "pass": true, '
     '"rhs_log10": -0.30102999566398125, "slack_log": 1.1102230246251563e-16}, '
     '{"description": "|Y_i| chain: t/8k - 4 eps r >= 2^13 r^3/mu^2 and delta <= t^2/24k^2, '
     'exact", "exact": true, "label": "vi", "lhs_log10": -13.861168085028767, '
     '"pass": true, "rhs_log10": -15.05149978319906, "slack_log": null}], "r": 2, '
     '"t": 93536104789177807534223263433157239065983427019777}'),
    (thm51_chain, (3,),
     '{"all_pass": true, '
     '"k": 1823908367869692469205860872184782489540495031763408554478536753152, '
     '"links": [{"description": "t >= mu^5/p at k = 1823908367869692469205860872184782489540495031763408554478536753152", '
     '"exact": true, "label": "i", "lhs_log10": 52.788439425111775, "pass": true, '
     '"rhs_log10": 52.788439425111775, "slack_log": 0.0}, '
     '{"description": "r^(rk/4) >= (2^61 r^7)^(2^-10 rk)", "exact": false, '
     '"label": "ii-a", "lhs_log10": 6.526690867287594e+65, "pass": true, '
     '"rhs_log10": 1.1596786217329635e+65, "slack_log": 1.2358002390530593e+66}, '
     '{"description": "(2^61 r^7)^(2^-10 rk) >= (mu^2/p)^(mu r t): equal exponents, '
     'base comparison exact", "exact": true, "label": "ii-b", '
     '"lhs_log10": 1.1596786217329635e+65, "pass": true, '
     '"rhs_log10": 1.143593139465249e+65, "slack_log": null}, '
     '{"description": "t/8k = 2^-43 r^-3 = 2^13 r^3/mu^2 + 4 eps r slack: exact identities and 32 >= 3", '
     '"exact": true, "label": "iii", "lhs_log10": -14.375653577710178, "pass": true, '
     '"rhs_log10": -15.579773560366103, "slack_log": 2.367123614131617}, '
     '{"description": "2^-10 t^2/k^2 >= delta", "exact": true, "label": "iv", '
     '"lhs_log10": -29.955427138076278, "pass": true, "rhs_log10": -53.89025436287294, '
     '"slack_log": 55.11197637120483}, {"description": "p >= e^(-3 eps r)/r", '
     '"exact": false, "label": "v", "lhs_log10": -0.47712125471966244, "pass": true, '
     '"rhs_log10": -0.47712125471966244, "slack_log": 3.289549702593056e-17}, '
     '{"description": "|Y_i| chain: t/8k - 4 eps r >= 2^13 r^3/mu^2 and delta <= t^2/24k^2, '
     'exact", "exact": true, "label": "vi", "lhs_log10": -14.389441862195811, '
     '"pass": true, "rhs_log10": -15.579773560366103, "slack_log": null}], "r": 3, '
     '"t": 61438333225807194079198236680449974824636128746816601}'),
    (thm51_chain, (17,),
     '{"all_pass": true, '
     '"k": 375170500230596001880255020459246293599462927147608862723562892887364609261961216, '
     '"links": [{"description": "t >= mu^5/p at k = 375170500230596001880255020459246293599462927147608862723562892887364609261961216", '
     '"exact": true, "label": "i", "lhs_log10": 64.84168209164956, "pass": true, '
     '"rhs_log10": 64.84168209164956, "slack_log": -3.7615819226313196e-37}, '
     '{"description": "r^(rk/4) >= (2^61 r^7)^(2^-10 rk)", "exact": false, '
     '"label": "ii-a", "lhs_log10": 1.961919583702158e+81, "pass": true, '
     '"rhs_log10": 1.6801759047017985e+80, "slack_log": 4.1306119879082594e+81}, '
     '{"description": "(2^61 r^7)^(2^-10 rk) >= (mu^2/p)^(mu r t): equal exponents, '
     'base comparison exact", "exact": true, "label": "ii-b", '
     '"lhs_log10": 1.6801759047017988e+80, "pass": true, '
     '"rhs_log10": 1.6614265027586308e+80, "slack_log": null}, '
     '{"description": "t/8k = 2^-43 r^-3 = 2^13 r^3/mu^2 + 4 eps r slack: exact identities and 32 >= 3", '
     '"exact": true, "label": "iii", "lhs_log10": -16.635636577686014, "pass": true, '
     '"rhs_log10": -17.83975656034194, "slack_log": 2.367123614131617}, '
     '{"description": "2^-10 t^2/k^2 >= delta", "exact": true, "label": "iv", '
     '"lhs_log10": -34.47539313802795, "pass": true, "rhs_log10": -62.93018636277627, '
     '"slack_log": 65.51958270353347}, {"description": "p >= e^(-3 eps r)/r", '
     '"exact": false, "label": "v", "lhs_log10": -1.2304489213782739, "pass": true, '
     '"rhs_log10": -1.2304489213782739, "slack_log": 1.8078127818036337e-19}, '
     '{"description": "|Y_i| chain: t/8k - 4 eps r >= 2^13 r^3/mu^2 and delta <= t^2/24k^2, '
     'exact", "exact": true, "label": "vi", "lhs_log10": -16.649424862171646, '
     '"pass": true, "rhs_log10": -17.83975656034194, "slack_log": null}], "r": 17, '
     '"t": 69451573828867538254186098440371644195669185412021904711302654857}'),
    (thm51_chain, (64,),
     '{"all_pass": true, '
     '"k": 32592575621351777380515986897647348618022903063924471669244933391253056465914158098797297664, '
     '"links": [{"description": "t >= mu^5/p at k = 32592575621351777380515986897647348618022903063924471669244933391253056465914158098797297664", '
     '"exact": true, "label": "i", "lhs_log10": 74.05337893333937, "pass": true, '
     '"rhs_log10": 74.05337893333937, "slack_log": -3.7615819226313196e-37}, '
     '{"description": "r^(rk/4) >= (2^61 r^7)^(2^-10 rk)", "exact": false, '
     '"label": "ii-a", "lhs_log10": 9.418889182054563e+92, "pass": true, '
     '"rhs_log10": 6.316051990570443e+91, "slack_log": 2.0233469107155433e+93}, '
     '{"description": "(2^61 r^7)^(2^-10 rk) >= (mu^2/p)^(mu r t): equal exponents, '
     'base comparison exact", "exact": true, "label": "ii-b", '
     '"lhs_log10": 6.3160519905704435e+91, "pass": true, '
     '"rhs_log10": 6.254731097458109e+91, "slack_log": null}, '
     '{"description": "t/8k = 2^-43 r^-3 = 2^13 r^3/mu^2 + 4 eps r slack: exact identities and 32 >= 3", '
     '"exact": true, "label": "iii", "lhs_log10": -18.362829735502853, "pass": true, '
     '"rhs_log10": -19.566949718158778, "slack_log": 2.367123614131617}, '
     '{"description": "2^-10 t^2/k^2 >= delta", "exact": true, "label": "iv", '
     '"lhs_log10": -37.929779453661624, "pass": true, "rhs_log10": -69.83895899404364, '
     '"slack_log": 73.4736011393542}, {"description": "p >= e^(-3 eps r)/r", '
     '"exact": false, "label": "v", "lhs_log10": -1.8061799739838869, "pass": true, '
     '"rhs_log10": -1.8061799739838869, "slack_log": 3.3881317890172014e-21}, '
     '{"description": "|Y_i| chain: t/8k - 4 eps r >= 2^13 r^3/mu^2 and delta <= t^2/24k^2, '
     'exact", "exact": true, "label": "vi", "lhs_log10": -18.376618019988484, '
     '"pass": true, "rhs_log10": -19.566949718158774, "slack_log": null}], "r": 64, '
     '"t": 113078212145816597094097287817979729442143335210473302739220732124520775681}'),
    (thm51_chain, (2, 2**176),
     '{"all_pass": false, "k": 95780971304118053647396689196894323976171195136475136, '
     '"links": [{"description": "t >= mu^5/p at k = 95780971304118053647396689196894323976171195136475136", '
     '"exact": true, "label": "i", "lhs_log10": 40.0369894233095, "pass": false, '
     '"rhs_log10": 49.970979280220874, "slack_log": -22.873856958478196}, '
     '{"description": "r^(rk/4) >= (2^61 r^7)^(2^-10 rk)", "exact": false, '
     '"label": "ii-a", "lhs_log10": 1.441647268818528e+52, "pass": true, '
     '"rhs_log10": 3.829375557799215e+51, "slack_log": 2.4377692030507e+52}, '
     '{"description": "(2^61 r^7)^(2^-10 rk) >= (mu^2/p)^(mu r t): equal exponents, '
     'base comparison exact", "exact": true, "label": "ii-b", '
     '"lhs_log10": 3.829375557799216e+51, "pass": true, '
     '"rhs_log10": 3.773061211360991e+51, "slack_log": null}, '
     '{"description": "t/8k = 2^-43 r^-3 = 2^13 r^3/mu^2 + 4 eps r slack: exact identities and 32 >= 3", '
     '"exact": true, "label": "iii", "lhs_log10": -13.847379800543134, "pass": true, '
     '"rhs_log10": -15.05149978319906, "slack_log": 2.367123614131617}, '
     '{"description": "2^-10 t^2/k^2 >= delta", "exact": true, "label": "iv", '
     '"lhs_log10": -28.89887958374219, "pass": true, "rhs_log10": -51.77715925420476, '
     '"slack_log": 52.67918572255584}, {"description": "p >= e^(-3 eps r)/r", '
     '"exact": false, "label": "v", "lhs_log10": -0.30102999566398125, "pass": true, '
     '"rhs_log10": -0.30102999566398125, "slack_log": 1.1102230246251563e-16}, '
     '{"description": "|Y_i| chain: t/8k - 4 eps r >= 2^13 r^3/mu^2 and delta <= t^2/24k^2, '
     'exact", "exact": true, "label": "vi", "lhs_log10": -13.861168085028767, '
     '"pass": true, "rhs_log10": -15.05149978319906, "slack_log": null}], "r": 2, '
     '"t": 10889035741470030830827987437816582766592}'),
    (thm_book_hypotheses, (F(1, 2), F(8192), 100, 1, 2, 100000, [1000, 1000]),
     '{"all_pass": false, "hypotheses": [{"description": "mu >= 2^10 r^3", "exact": true, '
     '"label": "mu", "lhs_log10": 3.913389943631755, "pass": true, '
     '"rhs_log10": 3.913389943631755, "slack_log": 0.0}, {"description": "t >= mu^5 / p", '
     '"exact": true, "label": "t", "lhs_log10": 2.0, "pass": false, '
     '"rhs_log10": 19.86797971382276, "slack_log": -41.14254373096829}, '
     '{"description": "|X| >= (mu^2/p)^(mu r t)", "exact": false, "label": "X", '
     '"lhs_log10": 5.0, "pass": false, "rhs_log10": 13316603.712188402, '
     '"slack_log": -30662601.684068725}, '
     '{"description": "|Y_i| >= (e^(2^13 r^3/mu^2)/p)^t m", "exact": false, '
     '"label": "Y0", "lhs_log10": 2.9999999999999996, "pass": false, '
     '"rhs_log10": 30.14541113689648, "slack_log": -62.504619027012396}, '
     '{"description": "|Y_i| >= (e^(2^13 r^3/mu^2)/p)^t m", "exact": false, '
     '"label": "Y1", "lhs_log10": 2.9999999999999996, "pass": false, '
     '"rhs_log10": 30.14541113689648, "slack_log": -62.504619027012396}]}'),
    (thm_book_hypotheses, (F(1), F(2**13), 1, 1, 1, 0, [0]),
     '{"all_pass": false, "hypotheses": [{"description": "mu >= 2^10 r^3", "exact": true, '
     '"label": "mu", "lhs_log10": 3.913389943631755, "pass": true, '
     '"rhs_log10": 3.0102999566398116, "slack_log": 2.0794415416798357}, '
     '{"description": "t >= mu^5 / p", "exact": true, "label": "t", "lhs_log10": 0.0, '
     '"pass": false, "rhs_log10": 19.566949718158774, "slack_log": -45.05456673639644}, '
     '{"description": "|X| >= (mu^2/p)^(mu r t)", "exact": false, "label": "X", '
     '"lhs_log10": null, "pass": false, "rhs_log10": 64116.98083646267, '
     '"slack_log": null}, {"description": "|Y_i| >= (e^(2^13 r^3/mu^2)/p)^t m", '
     '"exact": false, "label": "Y0", "lhs_log10": null, "pass": false, '
     '"rhs_log10": 5.301446312295554e-05, "slack_log": null}]}'),
    (thm_book_hypotheses, (F(1, 2), F(2**13), 2**64, 1, 2, 10**100, [10**50, 10**50]),
     '{"all_pass": false, "hypotheses": [{"description": "mu >= 2^10 r^3", "exact": true, '
     '"label": "mu", "lhs_log10": 3.913389943631755, "pass": true, '
     '"rhs_log10": 3.913389943631755, "slack_log": 0.0}, {"description": "t >= mu^5 / p", '
     '"exact": true, "label": "t", "lhs_log10": 19.265919722494793, "pass": false, '
     '"rhs_log10": 19.86797971382276, "slack_log": -1.3862943611198906}, '
     '{"description": "|X| >= (mu^2/p)^(mu r t)", "exact": false, "label": "X", '
     '"lhs_log10": 100.0, "pass": false, "rhs_log10": 2.4564798060975004e+24, '
     '"slack_log": -5.656253782761009e+24}, '
     '{"description": "|Y_i| >= (e^(2^13 r^3/mu^2)/p)^t m", "exact": false, '
     '"label": "Y0", "lhs_log10": 50.0, "pass": false, '
     '"rhs_log10": 5.560846842390831e+18, "slack_log": -1.2804323043712137e+19}, '
     '{"description": "|Y_i| >= (e^(2^13 r^3/mu^2)/p)^t m", "exact": false, '
     '"label": "Y1", "lhs_log10": 50.0, "pass": false, '
     '"rhs_log10": 5.560846842390831e+18, "slack_log": -1.2804323043712137e+19}]}'),
    (thm_book_hypotheses, (F(1, 3), F(98304), 11, 490, 4, 11661308,
      [412302353019, 302720199138, 891821649804, 757890866534]),
     '{"all_pass": false, "hypotheses": [{"description": "mu >= 2^10 r^3", "exact": true, '
     '"label": "mu", "lhs_log10": 4.9925711896793805, "pass": true, '
     '"rhs_log10": 4.816479930623698, "slack_log": 0.4054651081081644}, '
     '{"description": "t >= mu^5 / p", "exact": true, "label": "t", '
     '"lhs_log10": 1.041392685158225, "pass": false, "rhs_log10": 25.439977203116563, '
     '"slack_log": -56.17981700120619}, {"description": "|X| >= (mu^2/p)^(mu r t)", '
     '"exact": false, "label": "X", "lhs_log10": 7.066747266145365, "pass": false, '
     '"rhs_log10": 45253224.028515585, "slack_log": -104199382.78619304}, '
     '{"description": "|Y_i| >= (e^(2^13 r^3/mu^2)/p)^t m", "exact": false, '
     '"label": "Y0", "lhs_log10": 11.615215813337015, "pass": true, '
     '"rhs_log10": 7.938789063764512, "slack_log": 8.4652854290502}, '
     '{"description": "|Y_i| >= (e^(2^13 r^3/mu^2)/p)^t m", "exact": false, '
     '"label": "Y1", "lhs_log10": 11.481041400413117, "pass": true, '
     '"rhs_log10": 7.938789063764512, "slack_log": 8.156337425990403}, '
     '{"description": "|Y_i| >= (e^(2^13 r^3/mu^2)/p)^t m", "exact": false, '
     '"label": "Y2", "lhs_log10": 11.950278011045976, "pass": true, '
     '"rhs_log10": 7.938789063764512, "slack_log": 9.236794650720679}, '
     '{"description": "|Y_i| >= (e^(2^13 r^3/mu^2)/p)^t m", "exact": false, '
     '"label": "Y3", "lhs_log10": 11.879606673344005, "pass": true, '
     '"rhs_log10": 7.938789063764512, "slack_log": 9.074067882026172}]}'),
    (thm_book_hypotheses, (F(1), F(8192), 30, 476, 2, 174233214, [993596360619, 65327533428]),
     '{"all_pass": false, "hypotheses": [{"description": "mu >= 2^10 r^3", "exact": true, '
     '"label": "mu", "lhs_log10": 3.913389943631755, "pass": true, '
     '"rhs_log10": 3.913389943631755, "slack_log": 0.0}, {"description": "t >= mu^5 / p", '
     '"exact": true, "label": "t", "lhs_log10": 1.4771212547196624, "pass": false, '
     '"rhs_log10": 19.566949718158774, "slack_log": -41.65336935473429}, '
     '{"description": "|X| >= (mu^2/p)^(mu r t)", "exact": false, "label": "X", '
     '"lhs_log10": 8.241130947927394, "pass": false, "rhs_log10": 3847018.8501877603, '
     '"slack_log": -8858069.281004163}, '
     '{"description": "|Y_i| >= (e^(2^13 r^3/mu^2)/p)^t m", "exact": false, '
     '"label": "Y0", "lhs_log10": 11.997209992085745, "pass": true, '
     '"rhs_log10": 2.6903304238700025, "slack_log": 21.42988215606443}, '
     '{"description": "|Y_i| >= (e^(2^13 r^3/mu^2)/p)^t m", "exact": false, '
     '"label": "Y1", "lhs_log10": 10.815096260840484, "pass": true, '
     '"rhs_log10": 2.6903304238700025, "slack_log": 18.707964700275525}]}'),
    (thm_book_hypotheses, (F(1), F(12288), 27, 917, 2, 904523735, [17555036203, 68371183731]),
     '{"all_pass": false, "hypotheses": [{"description": "mu >= 2^10 r^3", "exact": true, '
     '"label": "mu", "lhs_log10": 4.089481202687437, "pass": true, '
     '"rhs_log10": 3.913389943631755, "slack_log": 0.4054651081081644}, '
     '{"description": "t >= mu^5 / p", "exact": true, "label": "t", '
     '"lhs_log10": 1.4313637641589871, "pass": false, "rhs_log10": 20.44740601343718, '
     '"slack_log": -43.78605541093293}, {"description": "|X| >= (mu^2/p)^(mu r t)", '
     '"exact": false, "label": "X", "lhs_log10": 8.95641996737525, "pass": false, '
     '"rhs_log10": 5427166.862011308, "slack_log": -12496492.890739407}, '
     '{"description": "|Y_i| >= (e^(2^13 r^3/mu^2)/p)^t m", "exact": false, '
     '"label": "Y0", "lhs_log10": 10.24440172942922, "pass": true, '
     '"rhs_log10": 2.9674587241298243, "slack_log": 16.75578048656968}, '
     '{"description": "|Y_i| >= (e^(2^13 r^3/mu^2)/p)^t m", "exact": false, '
     '"label": "Y1", "lhs_log10": 10.834873099036955, "pass": true, '
     '"rhs_log10": 2.9674587241298243, "slack_log": 18.115391060068227}]}'),
    (appendix_check, (3, 3, 2),
     '{"identity_ok": true, "k": 3, "lhs_log10": 0.0, "pass": true, "r": 2, '
     '"rhs_log10": 0.6859427460403176, "t": 3}'),
    (appendix_check, (10, 3, 1),
     '{"identity_ok": true, "k": 10, "lhs_log10": 0.0, "pass": true, "r": 1, '
     '"rhs_log10": 0.0, "t": 3}'),
    (appendix_check, (12, 4, 3),
     '{"identity_ok": true, "k": 12, "lhs_log10": 13.45397729547714, "pass": true, '
     '"r": 3, "rhs_log10": 15.139200304539346, "t": 4}'),
    (appendix_check, (30, 5, 3),
     '{"identity_ok": true, "k": 30, "lhs_log10": 38.41183706922769, "pass": true, '
     '"r": 3, "rhs_log10": 40.47488174711514, "t": 5}'),
    (appendix_check, (30, 30, 6),
     '{"identity_ok": true, "k": 30, "lhs_log10": 100.63859303629742, "pass": true, '
     '"r": 6, "rhs_log10": 113.10356687501944, "t": 30}'),
    (lemma53_check, (2, 10, F(1, 10), [1, 0]),
     '{"lhs_log10": 5.719569917615642, "pass": true, "reduced_pass": true, '
     '"rhs_log10": 5.758791130364351}'),
    (lemma53_check, (3, 40, F(1, 4), [5, 0, 7]),
     '{"lhs_log10": 51.52909550972354, "pass": true, "reduced_pass": true, '
     '"rhs_log10": 52.55629864022545}'),
    (lemma53_check, (4, 60, F(1, 2), [60, 60, 60, 60]),
     '{"lhs_log10": 0.0, "pass": true, "reduced_pass": true, '
     '"rhs_log10": 40.6332978662263}'),
    (lemma53_check, (2, 4, F(1, 20), [0, 4]),
     '{"lhs_log10": 1.2041199826559246, "pass": true, "reduced_pass": true, '
     '"rhs_log10": 1.288768605315201}'),
]


@pytest.mark.parametrize("check, args, text", PINNED)
def test_report_text_pinned(check, args, text):
    assert json.dumps(check(*args).to_json(), sort_keys=True) == text
