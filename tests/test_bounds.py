import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

from ramseybook.bounds import (
    LogScalar,
    appendix_check,
    certify_interval_ge,
    es_upper,
    interval_endpoints,
    iv_from_fraction,
    multinomial,
    thm51_chain,
    thm_book_hypotheses,
)
from ramseybook.errors import InvalidInput, NonFiniteEndpoint, PrecisionExhausted


def _encloses_log_of(scalar: LogScalar, exact: F) -> bool:
    """The scalar's log interval must overlap a fresh enclosure of ln(exact)."""
    from mpmath import iv

    lo, hi = interval_endpoints(scalar.log)
    l2, h2 = interval_endpoints(iv.log(iv_from_fraction(exact)))
    return lo <= h2 and l2 <= hi


class TestLogScalar:
    def test_multiplication_matches_fractions(self):
        rng = random.Random(4)
        for _ in range(50):
            a = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
            b = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
            prod = LogScalar.from_fraction(a) * LogScalar.from_fraction(b)
            assert prod.sign == 1
            assert _encloses_log_of(prod, a * b)
            lo, hi = interval_endpoints(prod.log)
            assert hi - lo < F(1, 2**64)

    def test_comparison_matches_fractions(self):
        rng = random.Random(5)
        for _ in range(100):
            a = F(rng.randint(1, 10**9), rng.randint(1, 10**9))
            b = F(rng.randint(1, 10**9), rng.randint(1, 10**9))
            if a == b:
                continue
            la, lb = LogScalar.from_fraction(a), LogScalar.from_fraction(b)
            assert la.definitely_ge(lb) == (a >= b)

    def test_addition_log_sum_exp(self):
        rng = random.Random(6)
        for _ in range(40):
            a = F(rng.randint(1, 999), rng.randint(1, 999))
            b = F(rng.randint(1, 999), rng.randint(1, 999))
            s = LogScalar.from_fraction(a) + LogScalar.from_fraction(b)
            assert _encloses_log_of(s, a + b)
            lo, hi = interval_endpoints(s.log)
            assert hi - lo < F(1, 2**64)  # tracked error stays tiny

    def test_signs_and_powers(self):
        x = LogScalar.from_int(-3)
        assert (x ** 2).sign == 1
        assert (x ** 3).sign == -1
        assert (x ** 0).sign == 1
        big = LogScalar.from_int(2) ** (10**9)
        assert big.log10() == pytest.approx(10**9 * math.log10(2), rel=1e-12)

    def test_exp_and_huge_values(self):
        huge = LogScalar.exp(F(10**25))
        tiny = LogScalar.exp(F(-(10**25)))
        assert huge.definitely_ge(tiny)
        assert not tiny.definitely_ge(huge)

    def test_zero(self):
        z = LogScalar.zero()
        assert (z * LogScalar.from_int(5)).sign == 0
        assert LogScalar.from_int(5).definitely_ge(z)

    def test_mixed_sign_add_rejected(self):
        with pytest.raises(InvalidInput):
            LogScalar.from_int(1) + LogScalar.from_int(-1)


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
        rep = thm_book_hypotheses(F(1, 2), F(2**9), 10**30, 1, 2, 10**100, [10**50])
        by_label = {l.label: l for l in rep.links}
        assert not by_label["mu"].passes

    def test_small_x_fails_with_negative_gap(self):
        r = 2
        mu = F(2**13)
        p = F(1, 2)
        t = int(mu**5 / p)
        rep = thm_book_hypotheses(p, mu, t, 1, r, 10, [10])
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
            thm_book_hypotheses(F(1), mu, 1, 1, 1, size_x, size_ys)

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
