import gc
import hashlib
import math
import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import iv, mp
from mpmath.libmp import mpi_exp, mpi_mul, mpi_neg

from ramseybook import geometry
from ramseybook.book_engine import EngineParams, run
from ramseybook.bounds import (
    interval_endpoints,
    iv_from_fraction,
    mpi_from_fraction,
    mpi_from_int,
    precision,
    set_precision,
)
from ramseybook.colouring import from_pair_function, iter_vertices, mask_of, random_colouring
from ramseybook.errors import (
    DegenerateDensity,
    EmptySet,
    InvalidInput,
    InvalidVertex,
    LemmaViolation,
)
from ramseybook.geometry import (
    Embedding,
    SpecialBranch,
    WitnessReport,
    _lowest_bits,
    _meets,
    _PairTables,
    build_embedding,
    c_interval,
    check_special_bounds,
    decay_enclosure,
    default_beta,
    find_lambda_witness,
    key_lemma_step,
    min_density,
    verify_key_step,
    verify_witness,
    witness_bound_upper,
)


def inner_by_index(emb, colour, a, b):
    """<s_colour(a), s_colour(b)> for the points of index a and b, from their trimmed sets."""
    t = emb.trimmed[colour]
    return emb.inner_from_codegree(colour, (t[a] & t[b]).bit_count())


def triangle():
    return from_pair_function(3, 1, lambda u, v: 0)


def _mpf(x):
    return mp.mpf(x.numerator) / x.denominator if isinstance(x, F) else mp.mpf(x)


def cosh_sqrt_mp(x):
    """cosh sqrt(x) in mp, read as cos sqrt(-x) for x < 0."""
    return mp.cosh(mp.sqrt(x)) if x >= 0 else mp.cos(mp.sqrt(-x))


def cosh_sqrt_series(x):
    """Truncated Taylor series sum_{n < 40} x^n / (2n)! for cross-checking the closed form."""
    v = _mpf(x)
    total = mp.mpf(0)
    term = mp.mpf(1)
    for n in range(40):
        if n > 0:
            term = term * v / ((2 * n - 1) * (2 * n))
        total += term
    return total


def special_f(xs, cosh_sqrt=cosh_sqrt_mp):
    """Reference f(x) = sum_j x_j prod_{i != j} (2 + cosh sqrt(x_i)) at mp precision.

    Summed with mp.fsum over mp.fprod products, so it shares no code with the
    interval evaluation in check_special_bounds that it checks.
    """
    vals = [_mpf(x) for x in xs]
    factors = [2 + cosh_sqrt(v) for v in vals]
    return mp.fsum(v * mp.fprod(factors[:j] + factors[j + 1 :]) for j, v in enumerate(vals))


def fraction_recounter(emb):
    """Reference recount of a witness event from exact Fraction inner products.

    Returns count(colour, lam): the number of ordered pairs (a, b) of X,
    diagonal included, with <s_colour(a), s_colour(b)> >= lam and every other
    coordinate >= -1.  This is the per-pair Fraction recount verify_witness
    ran before it compared integer codegrees against integer thresholds; the
    inner products are computed once and shared by every (colour, lam).
    """
    n, r = emb.npoints, emb.r
    inners = [[inner_by_index(emb, i, a, b) for i in range(r)] for a in range(n) for b in range(n)]

    def count(colour, lam):
        return sum(
            1
            for vals in inners
            if vals[colour] >= lam and all(v >= -1 for i, v in enumerate(vals) if i != colour)
        )

    return count


def attained_lams(emb):
    """(lam, colour) for lam = -1 and every Fraction inner product >= -1
    attained by an ordered pair of X (diagonal included), per colour."""
    n, r = emb.npoints, emb.r
    lams = {(F(-1), i) for i in range(r)}
    lams |= {(v, i) for i in range(r) for a in range(n) for b in range(n)
             if (v := inner_by_index(emb, i, a, b)) >= -1}
    return lams


def twin_colouring(m, r, seed):
    """2m vertices in twin pairs 2k, 2k + 1: colour 0 inside a pair, and the
    colour of (k, l) in random_colouring(m, r, seed) from either of 2k, 2k + 1
    to either of 2l, 2l + 1.  Twins share every colour-i neighbourhood up to
    each other, so many of their trimmed sets are equal."""
    base = random_colouring(m, r, seed)
    return from_pair_function(2 * m, r, lambda u, v: base.colour(u // 2, v // 2) if u // 2 != v // 2 else 0)


def swapped_twin_colouring(m, seed):
    """twin_colouring(m, 3, seed), except that wherever the base colour is 0
    or 2 one twin sees it swapped: twins keep equal colour-1 sets, but their
    colour-0 and colour-2 sets are disjoint, so their pair is ineligible once
    dmin is positive."""
    base = random_colouring(m, 3, seed)

    def colour(u, v):
        if u // 2 == v // 2:
            return 0
        b = base.colour(u // 2, v // 2)
        return b if b == 1 or (u + v) % 2 == 0 else 2 - b

    return from_pair_function(2 * m, 3, colour)


def engine_embedding(c):
    """alphas and the embedding of X = Y_i = V at engine alphas (delta = 1/16, t = 2)."""
    full = c.vertices
    densities = [min_density(c, full, full, i) for i in range(c.r)]
    alphas = [(p - min(densities) + F(1, 16)) / 2 for p in densities]
    return alphas, build_embedding(c, full, [full] * c.r, alphas)


def reference_lowest_bits(mask, count):
    """The one-bit-per-iteration loop _lowest_bits replaced."""
    out = 0
    for _ in range(count):
        b = mask & -mask
        out |= b
        mask ^= b
    return out


def bisect_lowest_bits(mask, count):
    """The prefix bisection _lowest_bits falls back to, run over the whole width."""
    lo, hi = 0, mask.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() >= count:
            hi = mid
        else:
            lo = mid + 1
    return mask & ((1 << lo) - 1)


def interval_union(intervals):
    """The mask with bits [start, start + length) set for each (start, length)."""
    mask = 0
    for start, length in intervals:
        mask |= ((1 << length) - 1) << start
    return mask


# masks whose set bits are far from evenly spread, where the estimated cut is
# poor: unions of a few intervals, a lone low bit under a dense high block
# (the cut falls short) and a dense low block under a lone high bit (it overshoots)
uneven_masks = st.one_of(
    st.lists(st.tuples(st.integers(0, 400), st.integers(0, 200)), min_size=1, max_size=4).map(interval_union),
    st.builds(lambda low, gap, size: 1 << low | ((1 << size) - 1) << (low + gap),
              st.integers(0, 20), st.integers(1, 300), st.integers(1, 300)),
    st.builds(lambda size, gap: ((1 << size) - 1) | 1 << (size + gap), st.integers(1, 300), st.integers(0, 300)),
)


class TestMinDensity:
    def test_pentagon_global(self, c5):
        assert min_density(c5, c5.vertices, c5.vertices, 0) == F(2, 5)

    def test_pentagon_restricted(self, c5):
        assert min_density(c5, mask_of([0]), mask_of([1, 4]), 0) == 1

    def test_degenerate_self(self, c5):
        assert min_density(c5, mask_of([0]), mask_of([0]), 0) == 0

    def test_empty_rejected(self, c5):
        with pytest.raises(EmptySet):
            min_density(c5, 0, c5.vertices, 0)
        with pytest.raises(EmptySet):
            min_density(c5, c5.vertices, 0, 0)

    def test_x_out_of_range_rejected(self):
        c = random_colouring(10, 2, 0)
        with pytest.raises(InvalidVertex):
            min_density(c, mask_of([3, 12]), c.vertices, 0)
        with pytest.raises(InvalidVertex):  # a negative int has infinitely many bits set
            min_density(c, -1, c.vertices, 0)

    def test_y_out_of_range_rejected(self):
        # the stray vertex used to count in |Y|: 1/11 where Y = V gives 1/10
        c = random_colouring(10, 2, 0)
        assert min_density(c, c.vertices, c.vertices, 0) == F(1, 10)
        with pytest.raises(InvalidVertex):
            min_density(c, c.vertices, c.vertices | 1 << 40, 0)

    def test_monotone_in_x(self):
        c = random_colouring(20, 2, 1)
        full = c.vertices
        sub = mask_of(range(10))
        for i in range(2):
            assert min_density(c, sub, full, i) >= min_density(c, full, full, i)


@st.composite
def drawn_colours(draw):
    """One colour of an embedding: (|Y|, m, alpha) with 1 <= m <= |Y| (m = |Y|
    and m = 1 drawn often) and alpha > 0 small, near p, or with numerator
    and denominator of up to 40 digits."""
    y = draw(st.integers(1, 60))
    m = draw(st.sampled_from([1, y]) | st.integers(1, y))
    alpha = draw(
        st.fractions(min_value=F(1, 10**6), max_value=4, max_denominator=10**6)
        | st.builds(F, st.integers(1, 10**40), st.integers(1, 10**40))
    )
    return y, m, alpha


class TestEmbedding:
    def test_pentagon_shape(self, c5):
        emb = build_embedding(c5, c5.vertices, [c5.vertices] * 2, [F(1, 10)] * 2)
        assert emb.densities == (F(2, 5), F(2, 5))
        assert emb.trimmed_sizes() == (2, 2)
        for i in range(2):
            for a in range(5):
                assert emb.trimmed[i][a].bit_count() == 2

    # with X = V, each vertex is its own point index
    def test_pentagon_inner_product(self, c5):
        emb = build_embedding(c5, c5.vertices, [c5.vertices] * 2, [F(1, 10)] * 2)
        assert inner_by_index(emb, 0, 0, 1) == -4

    def test_self_inner_product(self, c5):
        emb = build_embedding(c5, c5.vertices, [c5.vertices] * 2, [F(1, 10)] * 2)
        for i in range(2):
            for x in range(5):
                assert inner_by_index(emb, i, x, x) == (1 - emb.densities[i]) / emb.alphas[i]

    def test_codegree_equivalence_spot(self, c5):
        # codegree 1 pair in colour 0 has inner product exactly 1, and the
        # threshold formula (p + lam alpha) p |Y| hits 1 at lam = 1
        emb = build_embedding(c5, c5.vertices, [c5.vertices] * 2, [F(1, 10)] * 2)
        t = emb.trimmed[0]
        assert (t[0] & t[2]).bit_count() == 1
        assert inner_by_index(emb, 0, 0, 2) == 1
        lam = F(1)
        assert (F(2, 5) + lam * F(1, 10)) * F(2, 5) * 5 == 1

    def test_codegree_equivalence_exhaustive(self):
        c = random_colouring(30, 2, 8)
        alphas = [F(1, 7), F(2, 9)]
        emb = build_embedding(c, c.vertices, [c.vertices] * 2, alphas)
        for i in range(2):
            p, a, y = emb.densities[i], emb.alphas[i], emb.y_sizes[i]
            t = emb.trimmed[i]
            for xa in range(emb.npoints):
                for xb in range(xa, emb.npoints):
                    d = (t[xa] & t[xb]).bit_count()
                    v = inner_by_index(emb, i, xa, xb)
                    for lam in (F(-1), F(0), v, v + F(1, 999), v - F(1, 999)):
                        assert (v >= lam) == (d >= (p + lam * a) * p * y)

    def test_lexicographic_trim(self):
        def lowest(mask, count):
            out = 0
            for _ in range(count):
                b = mask & -mask
                out |= b
                mask ^= b
            return out

        c = random_colouring(12, 2, 3)
        emb = build_embedding(c, c.vertices, [c.vertices] * 2, [F(1, 4)] * 2)
        for i in range(2):
            m = emb.trimmed_sizes()[i]
            for a, x in enumerate(emb.points):
                assert emb.trimmed[i][a] == lowest(c.neighbourhood(x, i), m)

    def test_degenerate_density_raises(self):
        # vertex 0 has no colour-1 edges at all
        c = from_pair_function(4, 2, lambda u, v: 0 if u == 0 else 1)
        with pytest.raises(DegenerateDensity):
            build_embedding(c, c.vertices, [c.vertices] * 2, [F(1, 4)] * 2)

    @pytest.mark.parametrize("where", ["x", "y0", "y1"])
    def test_out_of_range_vertex_rejected(self, c5, where):
        sets = {"x": c5.vertices, "y0": c5.vertices, "y1": c5.vertices}
        sets[where] |= 1 << 7
        with pytest.raises(InvalidVertex):
            build_embedding(c5, sets["x"], [sets["y0"], sets["y1"]], [F(1, 10)] * 2)

    def test_alpha_must_be_positive(self, c5):
        with pytest.raises(InvalidInput):
            build_embedding(c5, c5.vertices, [c5.vertices] * 2, [F(0), F(1, 4)])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(drawn_colours(), min_size=1, max_size=4))
    @example([(7, 7, F(1, 3))])                    # m = |Y|, dmin = 5 > 0
    @example([(5, 2, F(3)), (9, 9, F(9))])         # dmin floored at 0
    @example([(60, 41, F(10**40 + 1, 3 * 10**39)), (13, 1, F(7, 10**45 + 3))])
    def test_integer_form_is_the_fraction_formula(self, colours):
        # an embedding drawn per colour as (|Y|, m = p |Y|, alpha); only the
        # sizes and rationals matter here, so one point stands for X
        emb = Embedding(
            points=(0,),
            y_sizes=tuple(y for y, _, _ in colours),
            densities=tuple(F(m, y) for y, m, _ in colours),
            alphas=tuple(alpha for _, _, alpha in colours),
            trimmed=tuple(((1 << m) - 1,) for _, m, _ in colours),
        )
        tables = _PairTables(emb)
        for i, (y, m, alpha) in enumerate(colours):
            p = F(m, y)
            offset, scale = p * p * y, alpha * p * y
            assert emb.trimmed_sizes()[i] == int(p * y) == m
            assert tables.dmin[i] == max(0, math.ceil(offset - scale))
            for codeg in range(m + 1):
                assert emb.inner_from_codegree(i, codeg) == (codeg - offset) / scale


class TestSpecialFunction:
    def test_zero(self):
        assert special_f([0, 0, 0]) == 0

    def test_r1_identity(self):
        assert special_f([F(4)]) == 4
        assert special_f([F(-9, 2)]) == F(-9, 2)

    def test_r2_simple(self):
        assert special_f([F(1), F(0)]) == 3  # 1*(2 + cosh 0) + 0

    def test_minus_pi_squared(self):
        pi2 = mp.pi**2
        val = special_f([-pi2, -pi2])
        assert abs(val - (-2 * pi2)) < 1e-20

    def test_series_agreement(self):
        rng = random.Random(11)
        for _ in range(60):
            r = rng.randint(1, 3)
            xs = [F(rng.randint(-1000, 1000), 100) for _ in range(r)]  # |x| <= 10
            a = special_f(xs)
            b = special_f(xs, cosh_sqrt_series)
            assert abs(a - b) <= mp.mpf("1e-25") * max(1, abs(a))

    def test_cosh_sqrt_series_negative_is_cos(self):
        x = F(-4)
        assert abs(cosh_sqrt_series(x) - mp.cos(2)) < mp.mpf("1e-30")


class TestSpecialBounds:
    def test_origin_upper(self):
        assert check_special_bounds([F(0), F(0)]) is SpecialBranch.UPPER_BOUND_HOLDS

    def test_negative_branch_r2(self):
        assert check_special_bounds([F(-7), F(0)]) is SpecialBranch.NEGATIVE_CASE_HOLDS

    def test_negative_branch_r1(self):
        assert check_special_bounds([F(-4)]) is SpecialBranch.NEGATIVE_CASE_HOLDS

    def test_boundary_is_upper_branch(self):
        # x_i = -3r exactly stays in the first branch
        assert check_special_bounds([F(-6), F(5)]) is SpecialBranch.UPPER_BOUND_HOLDS

    def test_float_inputs(self):
        assert check_special_bounds([-10.5, 2.25]) is SpecialBranch.NEGATIVE_CASE_HOLDS

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected(self, x):
        # these used to escape as a bare ValueError or OverflowError from Fraction
        with pytest.raises(InvalidInput, match="finite"):
            check_special_bounds([F(0), x])

    def test_random_grid(self):
        rng = random.Random(13)
        for _ in range(300):
            r = rng.randint(1, 4)
            xs = [F(rng.randint(-20 * r, 40), rng.randint(1, 3)) for _ in range(r)]
            check_special_bounds(xs)  # raises on violation

    @staticmethod
    def recorded_pairs(monkeypatch):
        """The (target, f) enclosures check_special_bounds hands to certify_interval_ge."""
        pairs = []
        certify = geometry.certify_interval_ge

        def recording(a, b):
            pairs.append((a, b))
            return certify(a, b)

        monkeypatch.setattr(geometry, "certify_interval_ge", recording)
        return pairs

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_enclosure_contains_reference_f(self, r, monkeypatch):
        # both branches hand the enclosure of f to certify_interval_ge as its
        # second argument; the mp reference, at twice the working precision,
        # must lie inside it
        pairs = self.recorded_pairs(monkeypatch)
        rng = random.Random(29 + r)
        for branch in SpecialBranch:
            for _ in range(20):
                xs = [F(rng.randint(-9 * r, 120), 3) for _ in range(r)]  # in [-3r, 40]
                if branch is SpecialBranch.NEGATIVE_CASE_HOLDS:
                    xs[rng.randrange(r)] = F(rng.randint(-60 * r, -9 * r - 1), 3)
                assert check_special_bounds(xs) is branch
                ((_target, enclosure),) = pairs
                pairs.clear()
                lo, hi = interval_endpoints(enclosure)
                with mp.workprec(2 * precision()):
                    assert _mpf(lo) <= special_f(xs) <= _mpf(hi), xs

    def test_enclosures_pinned(self, monkeypatch):
        # SHA-256 of the enclosures at 128 bits, recorded from the iv operator
        # evaluation: the endpoint-pair evaluation must give the same bits
        pairs = self.recorded_pairs(monkeypatch)
        rng = random.Random(61)
        branches = set()
        digest = hashlib.sha256()
        old = precision()
        try:
            set_precision(128)
            for r in range(1, 6):
                for _ in range(40):
                    den = rng.getrandbits(140) | 1 << 139
                    xs = rng.choice([
                        [F(rng.randint(-6 * r * 64, 40 * 64), 64) for _ in range(r)],  # k/64 grid
                        [F(rng.randint(-6 * r * den, 40 * den), den) for _ in range(r)],  # 140-bit terms
                        [rng.uniform(-6 * r, 40) for _ in range(r)],
                    ])
                    branches.add((r, check_special_bounds(xs)))
                    ((target, f),) = pairs
                    pairs.clear()
                    digest.update(repr(interval_endpoints(target) + interval_endpoints(f)).encode())
        finally:
            set_precision(old)
        assert len(branches) == 10  # both branches at every r
        assert digest.hexdigest() == "34c70f448d32eb0abfb2c970a9e4f5395ecc6f7cf963714be31c38c07fc26f13"

    def test_precision_read_at_each_call(self, monkeypatch):
        # constants or conversions frozen at import precision would keep wide
        # mantissas at 40 bits, or the 40-bit widths at 128 bits
        pairs = self.recorded_pairs(monkeypatch)
        points = ([F(7, 3), F(-5, 7), F(23, 5)], [F(7, 3), F(-37, 4), F(23, 5)])
        widths, upper = {}, {}
        old = precision()
        try:
            for bits in (40, 128):
                set_precision(bits)
                for xs in points:
                    check_special_bounds(xs)
                f = [b for _a, b in pairs]
                pairs.clear()
                bound = witness_bound_upper(F(13, 7), 3, default_beta(3))
                if bits == 40:
                    encs = [enc._mpi_ for enc in f] + [mpi_from_int(3**90), mpi_from_fraction(F(3**90, 7**50))]
                    assert all(bc <= 40 for enc in encs for _sign, _man, _exp, bc in enc)
                    odd = bound.numerator >> (bound.numerator & -bound.numerator).bit_length() - 1
                    assert odd.bit_length() <= 40 and bound.denominator & bound.denominator - 1 == 0
                widths[bits] = [hi - lo for lo, hi in map(interval_endpoints, f)]
                upper[bits] = bound
        finally:
            set_precision(old)
        assert all(0 < w128 < w40 for w128, w40 in zip(widths[128], widths[40]))
        assert upper[128] < upper[40]


def centred_gram_matrices(c):
    # The embedding of c (X = Y_i = V, alpha_i = 1/10) and, per colour i, the
    # Gram matrix of the explicit centred indicators over Y_i, scaled by
    # 1 / (alpha_i p_i |Y_i|), built from emb.trimmed.
    emb = build_embedding(c, c.vertices, [c.vertices] * c.r, [F(1, 10)] * c.r)
    pts = range(emb.npoints)
    grams = []
    for i in range(c.r):
        p, ys = emb.densities[i], range(c.n)  # Y_i = V
        vecs = [[(t >> y & 1) - p for y in ys] for t in emb.trimmed[i]]
        scale = emb.alphas[i] * p * emb.y_sizes[i]
        grams.append([[sum(u * v for u, v in zip(vecs[a], vecs[b])) / scale for b in pts] for a in pts])
    return emb, grams


class TestMoments:
    @pytest.fixture
    def colourings(self, c5):
        return [c5] + [random_colouring(20, 3, s) for s in range(3)]

    def test_embedding_tensor_equivalence(self, colourings):
        # every inner product of the embedding equals the explicit one
        for c in colourings:
            emb, grams = centred_gram_matrices(c)
            pts = range(emb.npoints)
            for i, gram in enumerate(grams):
                assert all(inner_by_index(emb, i, a, b) == gram[a][b] for a in pts for b in pts)

    def test_even_power_nonnegative(self, colourings):
        # sum over ordered pairs of prod_i <.,.>^l_i is 1^T (Hadamard product
        # of Gram matrices) 1 >= 0
        for c in colourings:
            emb, grams = centred_gram_matrices(c)
            pts = range(emb.npoints)
            for ells in ([1, 0], [0, 1], [2, 0], [1, 1], [2, 1], [2, 2]):
                ells = ells + [0] * (c.r - len(ells))
                total = 0
                for a in pts:
                    for b in pts:
                        term = F(1)
                        for gram, e in zip(grams, ells):
                            term *= gram[a][b] ** e
                        total += term
                assert total >= 0, (c.n, ells)


class TestWitness:
    def test_singleton_x(self, c5):
        emb = build_embedding(c5, mask_of([0]), [c5.vertices] * 2, [F(1, 10)] * 2)
        rep = find_lambda_witness(emb)
        floor = min(inner_by_index(emb, i, 0, 0) for i in range(2))
        assert rep.lam >= floor
        assert rep.q == 1

    def test_pentagon_witness_recount(self, c5):
        alphas = [F(1, 10)] * 2
        emb = build_embedding(c5, c5.vertices, [c5.vertices] * 2, alphas)
        rep = find_lambda_witness(emb)
        assert rep.lam == 6 and rep.colour == 0 and rep.q == F(1, 5)
        verify_witness(c5, c5.vertices, [c5.vertices] * 2, alphas, rep)

    def test_minus_one_fallback_accepted(self):
        # whenever P(all coordinates >= -1) >= beta, the pair (any colour, -1)
        # satisfies the witness inequality: its required bound is exactly beta
        c = random_colouring(12, 2, 21)
        alphas = [F(1)] * 2  # alpha_i >= p_i makes every pair eligible
        emb = build_embedding(c, c.vertices, [c.vertices] * 2, alphas)
        n = emb.npoints
        beta = F(1, 3**8)
        for colour in range(2):
            in_event = sum(
                1
                for a in range(n)
                for b in range(n)
                if all(inner_by_index(emb, i, a, b) >= -1 for i in range(2))
                and inner_by_index(emb, colour, a, b) >= -1
            )
            assert F(in_event, n * n) == 1 >= beta
        # the returned witness maximises lam over all accepted candidates
        rep = find_lambda_witness(emb)
        assert rep.lam >= -1
        verify_witness(c, c.vertices, [c.vertices] * 2, alphas, rep)

    def test_random_corpus(self):
        for seed in range(12):
            n = 14 + seed
            r = 2 + seed % 2
            c = random_colouring(n, r, seed)
            alphas = [F(1, 3)] * r
            try:
                emb = build_embedding(c, c.vertices, [c.vertices] * r, alphas)
            except DegenerateDensity:
                continue
            rep = find_lambda_witness(emb)
            verify_witness(c, c.vertices, [c.vertices] * r, alphas, rep)


@st.composite
def small_embeddings(draw):
    """A colouring with n <= 16 and r <= 4, a random X, random Y_i and alpha_i > 0.

    Each Y_i also gets one colour-i neighbour of every x in X where one
    exists, so that most draws have positive densities.
    """
    r = draw(st.integers(1, 4))
    n = draw(st.integers(2, 16))
    c = random_colouring(n, r, draw(st.integers(0, 2**32)))
    xset = draw(st.integers(1, 2**n - 1))
    ysets = []
    for i in range(r):
        y = draw(st.integers(0, 2**n - 1))
        for x in iter_vertices(xset):
            nb = c.neighbourhood(x, i)
            if nb and not nb & y:
                y |= nb & -nb
        ysets.append(y)
    alphas = [F(draw(st.integers(1, 12)), draw(st.integers(1, 12))) for _ in range(r)]
    try:
        emb = build_embedding(c, xset, ysets, alphas)
    except (DegenerateDensity, EmptySet):
        assume(False)
    return c, xset, ysets, alphas, emb


class TestWitnessRecount:
    """verify_witness's integer-threshold count against the Fraction reference."""

    @settings(max_examples=150, deadline=None)
    @given(small_embeddings())
    def test_integer_count_matches_fraction_recount(self, drawn):
        # the recount counts each unordered pair twice, so an even offset is
        # what a doubled count could hide
        c, xset, ysets, alphas, emb = drawn
        count = fraction_recounter(emb)
        total = emb.npoints ** 2
        eps = F(1, 10**9)
        for lam, colour in attained_lams(emb):
            for v in {lam, lam + eps, max(lam - eps, F(-1))}:
                cnt = count(colour, v)
                # beta = 0 makes the bound 0, so only the recount is checked
                rep = WitnessReport(colour, v, F(cnt, total), F(0), cnt, total)
                verify_witness(c, xset, ysets, alphas, rep, beta=0)
                for delta in (-2, -1, 1, 2):
                    with pytest.raises(LemmaViolation, match="recount mismatch"):
                        verify_witness(c, xset, ysets, alphas, replace(rep, pair_count=cnt + delta), beta=0)

    @settings(max_examples=150, deadline=None)
    @given(small_embeddings())
    def test_candidates_in_lam_then_colour_order(self, drawn):
        # every codegree attained by the diagonal or an eligible pair, as
        # lam = (codeg - p^2 |Y|) / (alpha p |Y|) written out, sorted by lam
        # descending and then colour ascending
        emb = drawn[4]
        n, r, t = emb.npoints, emb.r, emb.trimmed
        coef = [(p * p * y, a * p * y) for p, a, y in zip(emb.densities, emb.alphas, emb.y_sizes)]

        def lam(i, d):
            return (d - coef[i][0]) / coef[i][1]

        attained = set()
        for a in range(n):
            for b in range(a, n):
                codeg = [(t[i][a] & t[i][b]).bit_count() for i in range(r)]
                if all(lam(i, d) >= -1 for i, d in enumerate(codeg)):
                    attained |= {(lam(i, d), i, d) for i, d in enumerate(codeg)}
        want = sorted(attained, key=lambda c: (-c[0], c[1]))
        assert list(_PairTables(emb).candidates()) == want

    def test_threshold_below_minus_one_refused(self):
        # the recount matches, and a lam below -1 has no bound to test
        c, alphas, emb, rep = self.witness()
        cnt = fraction_recounter(emb)(rep.colour, F(-2))
        low = replace(rep, lam=F(-2), q=F(cnt, rep.total_pairs), pair_count=cnt)
        with pytest.raises(InvalidInput, match="below -1"):
            verify_witness(c, c.vertices, [c.vertices] * 2, alphas, low)

    def test_rejects_q_below_the_bound(self):
        # a beta whose bound is about 2 q lifts both the cap and the bound over q
        c, alphas, _, rep = self.witness()
        beta = 2 * rep.q / witness_bound_upper(rep.lam, 2, F(1))
        assert rep.q < 2 * beta
        with pytest.raises(LemmaViolation, match="inequality fails"):
            verify_witness(c, c.vertices, [c.vertices] * 2, alphas, rep, beta=beta)

    def witness(self):
        c = random_colouring(16, 2, 0)
        alphas = [F(1)] * 2
        emb = build_embedding(c, c.vertices, [c.vertices] * 2, alphas)
        rep = find_lambda_witness(emb)
        verify_witness(c, c.vertices, [c.vertices] * 2, alphas, rep)
        return c, alphas, emb, rep

    def rejects(self, rep, match):
        c, alphas, _, _ = self.witness()
        with pytest.raises(LemmaViolation, match=match):
            verify_witness(c, c.vertices, [c.vertices] * 2, alphas, rep)

    def test_witness_is_off_diagonal(self):
        _, _, emb, rep = self.witness()
        assert emb.npoints < rep.pair_count < rep.total_pairs

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_rejects_pair_count_off_by_one(self, delta):
        rep = self.witness()[3]
        self.rejects(replace(rep, pair_count=rep.pair_count + delta), "recount mismatch")

    @pytest.mark.parametrize("delta", [-2, 2])
    def test_rejects_pair_count_off_by_two(self, delta):
        rep = self.witness()[3]
        self.rejects(replace(rep, pair_count=rep.pair_count + delta), "recount mismatch")

    def test_rejects_wrong_total_pairs(self):
        rep = self.witness()[3]
        self.rejects(replace(rep, total_pairs=rep.total_pairs + 1), "recount mismatch")

    def test_rejects_wrong_q(self):
        rep = self.witness()[3]
        self.rejects(replace(rep, q=F(rep.pair_count + 1, rep.total_pairs)), "probability mismatch")

    def test_rejects_lam_moved_to_next_attained_value(self):
        # this witness is the largest value attained in its colour, so the
        # next attained value is below it and lets more pairs in
        _, _, emb, rep = self.witness()
        lams = [lam for lam, colour, _ in _PairTables(emb).candidates() if colour == rep.colour]
        moved = replace(rep, lam=lams[lams.index(rep.lam) + 1])
        assert fraction_recounter(emb)(rep.colour, moved.lam) != rep.pair_count
        self.rejects(moved, "recount mismatch")

    @pytest.mark.parametrize("colour", [-1, 2])
    def test_rejects_out_of_range_colour(self, colour):
        self.rejects(replace(self.witness()[3], colour=colour), "out of range")


class TestBulkBuilders:
    """The bulk-operation builders against the per-bit and per-pair loops they
    replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**200), st.data())
    def test_lowest_bits_matches_one_bit_loop(self, mask, data):
        pop = mask.bit_count()
        count = data.draw(st.one_of(st.just(0), st.just(pop), st.integers(0, pop + 5)))
        assert _lowest_bits(mask, count) == reference_lowest_bits(mask, count)

    @settings(max_examples=300, deadline=None)
    @given(uneven_masks, st.data())
    def test_lowest_bits_on_uneven_masks(self, mask, data):
        # counts near 0, near the popcount and past it
        pop = mask.bit_count()
        count = data.draw(st.one_of(
            st.integers(0, 3), st.integers(max(pop - 3, 0), pop), st.integers(pop, pop + 5), st.integers(0, pop + 5),
        ))
        assert _lowest_bits(mask, count) == reference_lowest_bits(mask, count)

    def test_lowest_bits_far_estimate_bisects(self):
        # the estimated cut holds 1 of 250 000 bits; stepping one bit at a time
        # would take 250 000 full-width steps, the bounded fallback about 20
        mask = 1 | ((1 << 10**6) - 1) << 10**6
        gc.collect()
        start = time.process_time()
        got = _lowest_bits(mask, 250_000)
        elapsed = time.process_time() - start
        assert got == bisect_lowest_bits(mask, 250_000)
        assert elapsed < 0.5

    @staticmethod
    def check_tables(emb):
        """Compare _PairTables with a plain per-pair popcount; returns the
        number of ineligible pairs.

        A row is checked for eligibility only when a scan reaches it, so the
        candidates and partner counts are read from one fresh table and the X'
        masks from a second one, each through its own row checks; then every
        row of the first table is checked and read directly.  ``row_max``
        holds the raw row maxima and ``checked_max`` the eligible ones.
        """
        n, r = emb.npoints, emb.r
        t = emb.trimmed
        codeg = {(i, a, b): (t[i][a] & t[i][b]).bit_count()
                 for i in range(r) for a in range(n) for b in range(n)}
        eligible = {(a, b) for a in range(n) for b in range(n)
                    if all(inner_by_index(emb, i, a, b) >= -1 for i in range(r))}
        attained = {(i, codeg[i, a, b]) for i in range(r) for a, b in eligible}
        want = sorted(((emb.inner_from_codegree(i, d), i, d) for i, d in attained),
                      key=lambda c: (-c[0], c[1]))
        partners = {(i, d): [[b for b in range(n) if b != a and (a, b) in eligible and codeg[i, a, b] >= d]
                             for a in range(n)]
                    for _lam, i, d in want}
        tables = _PairTables(emb)
        assert list(tables.candidates()) == want
        for _lam, i, d in want:
            assert tables.partner_counts(i, d) == [len(ps) for ps in partners[i, d]]
        fresh = _PairTables(emb)
        for _lam, i, d in want:
            for a in range(n):
                assert fresh.x_prime_mask(i, d, a) == mask_of(emb.points[b] for b in partners[i, d][a])
        for a in range(n):
            tables._check_row(a)
        for i in range(r):
            for a in range(n):
                row = [codeg[i, a, b] if (a, b) in eligible else -1 for b in range(a + 1, n)]
                assert tables.checked[a][i] == row
                assert tables.checked_max[a][i] == max(row, default=-1)
                assert tables.row_max[i][a] == max((codeg[i, a, b] for b in range(a + 1, n)), default=-1)
            assert tables.values[i] == {codeg[i, a, b] for a in range(n) for b in range(a + 1, n)}
        return n * (n - 1) - len(eligible - {(a, a) for a in range(n)})

    @settings(max_examples=150, deadline=None)
    @given(small_embeddings())
    def test_pair_tables_match_per_pair_popcount(self, drawn):
        self.check_tables(drawn[4])

    @pytest.mark.parametrize("seed", range(4))
    def test_pair_tables_with_ineligible_pairs(self, seed):
        # small alphas make dmin > 0, so some pairs fail a colour
        c = random_colouring(30, 3, seed)
        emb = build_embedding(c, c.vertices, [c.vertices] * 3, [F(1, 40)] * 3)
        assert 0 < self.check_tables(emb) < 30 * 29

    @pytest.mark.parametrize("seed", range(3))
    def test_row_checks_change_nothing_and_stay_deferred(self, seed):
        c = random_colouring(300, 3, seed)
        full = c.vertices
        densities = [min_density(c, full, full, i) for i in range(3)]
        alphas = [(p - min(densities) + F(1, 16)) / 2 for p in densities]  # engine alphas, delta = 1/16, t = 2
        emb = build_embedding(c, full, [full] * 3, alphas)
        lazy, eager = _PairTables(emb), _PairTables(emb)
        for a in range(eager.n):
            eager._check_row(a)

        # at the default beta and 2 beta |X| <= 1 the key step stops at the
        # first witness with a partner, then reads its pivot's X'
        scan = lazy.witnesses(default_beta(3))
        got = []
        for w in scan:
            got.append(w)
            _lam, colour, d, counts, _size = w
            if max(counts):
                break
        lazy.x_prime_mask(colour, d, counts.index(max(counts)))
        assert len(lazy.checked) <= lazy.n // 10
        got += scan
        assert got == list(eager.witnesses(default_beta(3)))

    def test_tables_hold_no_quadratic_state(self):
        # n = 400, r = 3 has 239400 codegrees; a stored table of them holds
        # about 2 MiB, while row maxima, value sets and the rows a scan
        # reaches stay far below the limit
        c = random_colouring(400, 3, 0)
        full = c.vertices
        densities = [min_density(c, full, full, i) for i in range(3)]
        alphas = [(p - min(densities) + F(1, 16)) / 2 for p in densities]  # engine alphas, delta = 1/16, t = 2
        emb = build_embedding(c, full, [full] * 3, alphas)
        tracemalloc.start()
        try:
            tables = _PairTables(emb)
            lam = next(lam for lam, _i, _d, counts, _size in tables.witnesses(default_beta(3)) if max(counts))
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 200 * 1024, f"{held} bytes held by {tables.n} points, witness at lam = {lam}"


class TestWitnessChoice:
    """The witness and pivot that find_lambda_witness and key_lemma_step pick,
    against a scan written from their specification."""

    @staticmethod
    def reference(emb, beta):
        """(first witness, step) from a plain scan, or None where no candidate
        is a witness.

        Candidates are -1 and every Fraction inner product >= -1 attained by
        an ordered pair of X, per colour, in (-lam, colour) order.  A witness
        has q >= bound; the step takes the first witness whose best pivot has
        at least bound |X| partners, else the first witness.
        """
        n, r = emb.npoints, emb.r
        count = fraction_recounter(emb)
        inner = [[[inner_by_index(emb, i, a, b) for b in range(n)] for a in range(n)] for i in range(r)]
        first = None
        for lam, colour in sorted(attained_lams(emb), key=lambda t: (-t[0], t[1])):
            cnt = count(colour, lam)
            q, bound = F(cnt, n * n), witness_bound_upper(lam, r, beta)
            if q < bound:
                continue

            def in_event(a, b):
                return inner[colour][a][b] >= lam and all(inner[i][a][b] >= -1 for i in range(r) if i != colour)

            partners = [[b for b in range(n) if b != a and in_event(a, b)] for a in range(n)]
            best = max(len(ps) for ps in partners)
            pivot = min(x for x, ps in zip(emb.points, partners) if len(ps) == best)
            x_prime = mask_of(emb.points[b] for b in partners[emb.points.index(pivot)])
            step = (lam, colour, q, cnt, pivot, x_prime, best >= bound * n)
            first = first or step
            if step[-1]:
                return first[:4], step
        return first and (first[:4], first)

    @settings(max_examples=120, deadline=None)
    @given(small_embeddings())
    def test_matches_reference_scan(self, drawn):
        c, xset, ysets, alphas, emb = drawn
        # at beta <= 1 the top candidate is always a witness here (q >= 1/16 >
        # e^-4 >= bound), so beta = 64 is needed to reach the no-witness case
        for beta in (default_beta(emb.r), F(1, 4), F(1), F(64)):
            want = self.reference(emb, beta)
            if want is None:
                with pytest.raises(LemmaViolation):
                    find_lambda_witness(emb, beta)
                with pytest.raises(LemmaViolation):
                    key_lemma_step(c, xset, ysets, alphas, beta)
                continue
            rep = find_lambda_witness(emb, beta)
            res = key_lemma_step(c, xset, ysets, alphas, beta)
            assert (rep.lam, rep.colour, rep.q, rep.pair_count) == want[0]
            assert (res.lam, res.colour, res.q, res.q * emb.npoints**2,
                    res.pivot, res.x_prime, res.met_size_bound) == want[1]


TWIN_CASES = [(15, 2, 1), (12, 2, 4), (12, 3, 0), (16, 3, 2)]  # (m, r, seed)
SWAPPED_TWIN_CASES = [(12, 0), (12, 2), (15, 2)]  # (m, seed)


class TestDiagonalRule:
    """A colour's diagonal threshold, decided from equal trimmed sets with no
    codegree maximum built and no row checked, against tables whose maxima
    were built first and against the reference scan."""

    @staticmethod
    def refuse(*args):
        raise AssertionError("computed codegrees off the diagonal rule")

    @staticmethod
    def build_maxima_first(mp):
        init = _PairTables.__init__

        def eager_init(self, emb):
            init(self, emb)
            for colour in range(emb.r):
                self._build_maxima(colour)

        mp.setattr(_PairTables, "__init__", eager_init)

    @staticmethod
    def reads(emb, i, d):
        """The partner counts at threshold d of colour i from a fresh table,
        and every point's X' from another."""
        tables = _PairTables(emb)
        return _PairTables(emb).partner_counts(i, d), [tables.x_prime_mask(i, d, a) for a in range(emb.npoints)]

    def observe(self, c, alphas, emb):
        """Candidates, then per candidate its reads(), then the witness and the key step."""
        cands = list(_PairTables(emb).candidates())
        full = [c.vertices] * c.r
        reads = [self.reads(emb, i, d) for _lam, i, d in cands]
        return cands, reads, find_lambda_witness(emb), key_lemma_step(c, c.vertices, full, alphas)

    def check(self, c, monkeypatch):
        """observe() agrees with tables whose maxima were built first, with
        the per-pair popcount, and with the reference scan, and each colour's
        diagonal reads build no maximum and check no row; returns the
        embedding and the dmin thresholds."""
        alphas, emb = engine_embedding(c)
        got = self.observe(c, alphas, emb)
        with monkeypatch.context() as mp:
            self.build_maxima_first(mp)
            assert self.observe(c, alphas, emb) == got
        diagonals = [(i, d, read) for (_lam, i, d), read in zip(*got[:2]) if d == emb.trimmed_sizes()[i]]
        assert sorted(i for i, _d, _read in diagonals) == list(range(c.r))
        with monkeypatch.context() as mp:
            mp.setattr(_PairTables, "_build_maxima", self.refuse)
            mp.setattr(_PairTables, "_check_row", self.refuse)
            for i, d, read in diagonals:
                assert self.reads(emb, i, d) == read
        TestBulkBuilders.check_tables(emb)
        rep, res = got[2:]
        first, step = TestWitnessChoice.reference(emb, default_beta(c.r))
        assert (rep.lam, rep.colour, rep.q, rep.pair_count) == first
        assert (res.lam, res.colour, res.q, res.q * emb.npoints**2,
                res.pivot, res.x_prime, res.met_size_bound) == step
        return emb, _PairTables(emb).dmin

    @pytest.mark.parametrize("m, r, seed", TWIN_CASES)
    def test_twin_corpus_matches_maxima_built_first(self, m, r, seed, monkeypatch):
        self.check(twin_colouring(m, r, seed), monkeypatch)

    @pytest.mark.parametrize("m, seed", SWAPPED_TWIN_CASES)
    def test_ineligible_equal_sets_are_left_out(self, m, seed, monkeypatch):
        emb, dmin = self.check(swapped_twin_colouring(m, seed), monkeypatch)
        t = emb.trimmed
        assert any(t[1][a] == t[1][a + 1] and (t[0][a] & t[0][a + 1]).bit_count() < dmin[0]
                   for a in range(0, emb.npoints, 2))

    def test_twin_diagonal_has_partners(self, monkeypatch):
        c = twin_colouring(15, 2, 1)
        alphas, emb = engine_embedding(c)
        full = [c.vertices] * 2
        monkeypatch.setattr(_PairTables, "_build_maxima", self.refuse)
        monkeypatch.setattr(_PairTables, "_check_row", self.refuse)
        rep = find_lambda_witness(emb)
        assert rep.lam == emb.inner_from_codegree(rep.colour, emb.trimmed_sizes()[rep.colour])
        assert rep.pair_count == 76 > emb.npoints
        res = key_lemma_step(c, c.vertices, full, alphas)
        assert res.met_size_bound and (res.lam, res.colour) == (rep.lam, rep.colour)
        verify_witness(c, c.vertices, full, alphas, rep)
        assert verify_key_step(c, c.vertices, full, alphas, res).all_ok

    @pytest.mark.parametrize("seed", range(3))
    def test_desk_scale_witness_reads_no_codegree_row(self, seed, monkeypatch):
        # 2 beta |X| <= 1, so the top diagonal (q >= 1/|X|) is the witness
        c = random_colouring(300, 3, seed)
        alphas, emb = engine_embedding(c)
        full = [c.vertices] * 3
        with monkeypatch.context() as mp:
            self.build_maxima_first(mp)
            want = find_lambda_witness(emb), key_lemma_step(c, c.vertices, full, alphas)
        with monkeypatch.context() as mp:
            mp.setattr(_PairTables, "_build_maxima", self.refuse)
            mp.setattr(_PairTables, "_check_row", self.refuse)
            rep = find_lambda_witness(emb)
        assert rep == want[0]
        assert rep.lam == emb.inner_from_codegree(rep.colour, emb.trimmed_sizes()[rep.colour])

        builds = self.count_builds(monkeypatch)
        assert key_lemma_step(c, c.vertices, full, alphas) == want[1]
        assert len(builds) == len(set(builds))  # each colour at most once

    @staticmethod
    def count_builds(mp):
        """The colours _build_maxima builds from now on, in order."""
        builds = []
        build = _PairTables._build_maxima

        def counting(self, colour):
            builds.append(colour)
            build(self, colour)

        mp.setattr(_PairTables, "_build_maxima", counting)
        return builds

    def test_step_below_one_diagonal_builds_that_colour_alone(self, monkeypatch):
        # found by a search over random r = 3 colourings at engine alphas and
        # pinned as observed: colour 2's diagonal has no eligible partner, and
        # its next threshold is met before any other colour's scan goes below
        # its diagonal
        c = random_colouring(22, 3, 5)
        alphas, emb = engine_embedding(c)
        full = [c.vertices] * 3
        with monkeypatch.context() as mp:
            self.build_maxima_first(mp)
            want = key_lemma_step(c, c.vertices, full, alphas)
        builds = self.count_builds(monkeypatch)
        res = key_lemma_step(c, c.vertices, full, alphas)
        assert res == want
        assert builds == [2]
        assert (res.colour, res.lam, res.met_size_bound) == (2, F(560, 33), True)
        assert res.lam < emb.inner_from_codegree(2, emb.trimmed_sizes()[2]) == F(304, 11)
        assert verify_key_step(c, c.vertices, full, alphas, res).all_ok


ORDER_CORPUS = [
    *[(random_colouring, (60, 3, seed)) for seed in range(3)],
    *[(twin_colouring, args) for args in TWIN_CASES],
    *[(swapped_twin_colouring, args) for args in SWAPPED_TWIN_CASES],
]


class TestCallOrder:
    """The tables are a pure cache of the embedding: what they hold does not
    depend on the order in which the colours' maxima are built, nor on
    whether the rows are checked before or after them."""

    @staticmethod
    def state(emb, colours, rows_first):
        tables = _PairTables(emb)

        def check_rows():
            for a in range(tables.n):
                tables._check_row(a)

        if rows_first:
            check_rows()
        for colour in colours:
            tables._build_maxima(colour)
        if not rows_first:
            check_rows()
        return tables.row_max, tables.values, tables.checked, tables.checked_max

    @pytest.mark.parametrize("make, args", ORDER_CORPUS, ids=lambda x: getattr(x, "__name__", str(x)))
    def test_state_is_independent_of_call_order(self, make, args):
        _alphas, emb = engine_embedding(make(*args))
        colours = list(range(emb.r))
        states = [self.state(emb, order, rows_first)
                  for order in (colours, colours[::-1]) for rows_first in (True, False)]
        assert states[1:] == states[:1] * 3


# (n, r) -> (colours built, their popcounts, rows checked, their popcounts)
# in one engine run on random_colouring(n, r, 1) from X = Y_i = V at t = 2,
# lambda0 = 10, delta = 1/16, pinned as observed
WORK_COUNTS = {
    (20, 2): (5, 383, 4, 86),
    (20, 3): (3, 0, 0, 0),
    (30, 2): (4, 436, 5, 156),
    (30, 3): (7, 872, 4, 162),
    (40, 2): (4, 1560, 7, 396),
    (40, 3): (6, 786, 20, 1341),
    (50, 2): (4, 2450, 2, 102),
    (50, 3): (4, 1225, 1, 48),
}


class TestWorkCounts:
    """The pair-table work of whole engine runs, counted rather than timed,
    so a change to it shows as a changed pin, with no timing noise: a
    colour's maxima take n(n - 1)/2 popcounts, and checking row a takes
    r (n - 1 - a)."""

    @pytest.mark.parametrize("n, r", sorted(WORK_COUNTS))
    def test_engine_work_is_pinned(self, n, r, monkeypatch):
        counts = [0, 0, 0, 0]
        build, check = _PairTables._build_maxima, _PairTables._check_row

        def counting_build(self, colour):
            counts[0] += 1
            counts[1] += self.n * (self.n - 1) // 2
            build(self, colour)

        def counting_check(self, a):
            counts[2] += 1
            counts[3] += self.emb.r * (self.n - 1 - a)
            check(self, a)

        monkeypatch.setattr(_PairTables, "_build_maxima", counting_build)
        monkeypatch.setattr(_PairTables, "_check_row", counting_check)
        c = random_colouring(n, r, 1)
        run(c, c.vertices, [c.vertices] * r, EngineParams(t=2, lambda0=F(10), delta=F(1, 16)))
        assert tuple(counts) == WORK_COUNTS[n, r]


class TestKeyStep:
    @settings(max_examples=150, deadline=None)
    @given(small_embeddings())
    def test_falls_back_exactly_when_no_pair_is_eligible(self, drawn):
        c, xset, ysets, alphas, emb = drawn
        n, r = emb.npoints, emb.r
        assert 2 * default_beta(r) * n <= 1  # the condition key_lemma_step's docstring proves it under
        eligible = any(all(inner_by_index(emb, i, a, b) >= -1 for i in range(r))
                       for a in range(n) for b in range(a + 1, n))
        assert key_lemma_step(c, xset, ysets, alphas).met_size_bound == eligible

    def test_triangle_full_postconditions(self):
        c = triangle()
        alphas = [F(1, 4)]
        res = key_lemma_step(c, c.vertices, [c.vertices], alphas)
        assert res.lam == F(-2, 3)  # (1 - 4/3) / (2 * 1/4)
        assert res.x_prime.bit_count() == 2
        assert res.y_primes[0].bit_count() == 2
        assert res.met_size_bound
        chk = verify_key_step(c, c.vertices, [c.vertices], alphas, res)
        assert chk.all_ok
        # the boost inequality is exactly tight here: 1/2 = 2/3 - 1/6
        assert min_density(c, res.x_prime, res.y_primes[0], 0) == F(1, 2)

    def test_witness_colour_outside_range_fails(self):
        c = triangle()
        alphas = [F(1, 4)]
        res = key_lemma_step(c, c.vertices, [c.vertices], alphas)
        for colour in (-1, 1):
            chk = verify_key_step(c, c.vertices, [c.vertices], alphas, replace(res, colour=colour))
            assert not chk.boost_ok and not chk.all_ok

    def test_triangle_small_alpha_falls_back(self):
        c = triangle()
        res = key_lemma_step(c, c.vertices, [c.vertices], [F(1, 10)])
        assert not res.met_size_bound
        assert res.x_prime == 0
        assert res.y_primes[0].bit_count() == 2  # |Y'| = p|Y| still holds

    def test_pentagon_small_alpha_falls_back(self, c5):
        # every off-diagonal pair has a colour with codegree 0, hence an
        # inner product of -4 < -1: no off-diagonal pair is in any event
        alphas = [F(1, 10)] * 2
        emb = build_embedding(c5, c5.vertices, [c5.vertices] * 2, alphas)
        for a in range(5):
            for b in range(a + 1, 5):
                assert min(inner_by_index(emb, i, a, b) for i in range(2)) == -4
        res = key_lemma_step(c5, c5.vertices, [c5.vertices] * 2, alphas)
        assert res.x_prime == 0 and not res.met_size_bound
        assert res.lam == 6 and res.colour == 0 and res.pivot == 0
        assert all(y.bit_count() == 2 for y in res.y_primes)
        # the q|X| - 1 slack bound still holds: 1/5 * 5 - 1 = 0
        chk = verify_key_step(c5, c5.vertices, [c5.vertices] * 2, alphas, res)
        assert chk.slack_ok and chk.y_sizes_ok

    def test_two_point_instance(self):
        # X = {0, 1}; both see {2, 3} in colour 1 and each other in colour 0,
        # so the pair has maximal colour-1 codegree and X' must be the partner
        def col(u, v):
            if {u, v} in ({0, 1}, {2, 3}):
                return 0
            return 1

        c = from_pair_function(4, 2, col)
        xset = mask_of([0, 1])
        ysets = [c.vertices, c.vertices]
        alphas = [F(1, 2), F(1, 2)]
        res = key_lemma_step(c, xset, ysets, alphas)
        assert res.pivot == 0 and res.colour == 1 and res.lam == 1
        assert res.x_prime == mask_of([1])
        assert res.met_size_bound
        chk = verify_key_step(c, xset, ysets, alphas, res)
        assert chk.all_ok
        # boost inequality re-derived from scratch
        p1 = min_density(c, xset, c.vertices, 1)
        assert min_density(c, res.x_prime, res.y_primes[1], 1) >= p1 + res.lam * alphas[1]

    def test_random_postcondition_oracle(self):
        done = 0
        for seed in range(30):
            n = 16 + (seed * 3) % 20
            r = 2 + seed % 2
            c = random_colouring(n, r, 1000 + seed)
            full = c.vertices
            try:
                densities = [min_density(c, full, full, i) for i in range(r)]
            except EmptySet:
                continue
            if any(p == 0 for p in densities):
                continue
            alphas = [p / 2 for p in densities]
            res = key_lemma_step(c, full, [full] * r, alphas)
            chk = verify_key_step(c, full, [full] * r, alphas, res)
            assert chk.y_sizes_ok and chk.slack_ok
            if res.met_size_bound:
                assert chk.all_ok
                done += 1
        assert done >= 25  # the full postconditions hold on nearly all seeds

    @pytest.mark.parametrize("mutation", ["pivot-in-x-prime", "x-prime-leaves-x", "pivot-outside-x"])
    def test_pivot_and_x_prime_must_lie_in_x(self, mutation):
        # X = {0..19} in K_40; vertex 20 lies outside X
        xset = (1 << 20) - 1
        for seed in range(40):
            c = random_colouring(40, 2, seed)
            ysets = [c.vertices] * 2
            densities = [min_density(c, xset, y, i) for i, y in enumerate(ysets)]
            alphas = [p / 2 for p in densities]
            res = key_lemma_step(c, xset, ysets, alphas)
            assert verify_key_step(c, xset, ysets, alphas, res).all_ok
            if mutation == "pivot-in-x-prime":
                bad = replace(res, x_prime=res.x_prime | 1 << res.pivot)
            elif mutation == "x-prime-leaves-x":
                bad = replace(res, x_prime=res.x_prime | 1 << 20)
            else:
                y_primes = tuple(
                    _lowest_bits(c.neighbourhood(20, i) & y, int(densities[i] * y.bit_count()))
                    for i, y in enumerate(ysets)
                )
                bad = replace(res, pivot=20, y_primes=y_primes)
            chk = verify_key_step(c, xset, ysets, alphas, bad)
            assert not chk.pivot_ok and not chk.all_ok


    def _step(self):
        c = random_colouring(40, 2, 0)
        full = c.vertices
        alphas = [min_density(c, full, full, i) / 2 for i in range(2)]
        res = key_lemma_step(c, full, [full] * 2, alphas)
        assert verify_key_step(c, full, [full] * 2, alphas, res).all_ok
        return c, full, alphas, res

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_y_primes_of_wrong_length_fail(self, count):
        c, full, alphas, res = self._step()
        y_primes = (res.y_primes + (res.y_primes[0],))[:count]
        chk = verify_key_step(c, full, [full] * 2, alphas, replace(res, y_primes=y_primes))
        assert not chk.y_sizes_ok and not chk.all_ok

    @pytest.mark.parametrize("change", [
        {"pivot": 50},
        {"pivot": -1},
        {"x_prime": 1 << 45},
        {"y_primes": (1 << 45, 1)},
        {"y_primes": (0, 0)},
        {"lam": F(-2)},
    ], ids=["pivot-above-n", "negative-pivot", "x-prime-above-n", "y-prime-above-n", "empty-y-primes",
            "lam-below-minus-one"])
    def test_out_of_range_result_fails_checks(self, change):
        # a malformed result fails its checks instead of raising
        c, full, alphas, res = self._step()
        if "x_prime" in change:
            change = {"x_prime": res.x_prime | change["x_prime"]}
        chk = verify_key_step(c, full, [full] * 2, alphas, replace(res, **change))
        assert not chk.all_ok
        if "pivot" in change:
            assert not chk.pivot_ok and not chk.y_sizes_ok
        elif "x_prime" in change:
            assert not chk.pivot_ok and not chk.boost_ok and not chk.all_colours_ok
        elif "lam" in change:
            assert not chk.size_bound_ok
        else:
            assert not chk.y_sizes_ok and not chk.boost_ok and not chk.all_colours_ok

    def test_huge_threshold_is_decided_at_the_cap(self):
        # |X'| >= 2 beta |X| passes the size bound with no enclosure, whose
        # exact endpoint at lam = 10^100 used to raise ScaleError; the boost fails
        c, full, alphas, res = self._step()
        chk = verify_key_step(c, full, [full] * 2, alphas, replace(res, lam=F(10**100)))
        assert chk.size_bound_ok and not chk.boost_ok

    @pytest.mark.parametrize("ysets, alphas", [(1, 2), (3, 2), (2, 1), (2, 3)])
    def test_inputs_of_wrong_length_rejected(self, ysets, alphas):
        c, full, good_alphas, res = self._step()
        with pytest.raises(InvalidInput):
            verify_key_step(c, full, [full] * ysets, (good_alphas * 2)[:alphas], res)


class TestWitnessCap:
    """The exact cap 2 beta that decides most witness and size-bound tests
    before the interval bound is evaluated."""

    @settings(max_examples=200, deadline=None)
    @given(
        lam=st.just(F(-1)) | st.fractions(min_value=-1, max_value=10**4, max_denominator=10**6),
        r=st.integers(1, 6),
        beta=st.sampled_from(["default", F(1, 4), F(1), F(64)])
        | st.fractions(min_value=F(1, 10**30), max_value=10**6, max_denominator=10**30),
        bits=st.sampled_from([16, 24, 53, 128]),
    )
    def test_bound_never_exceeds_cap(self, lam, r, beta, bits):
        beta = default_beta(r) if beta == "default" else beta
        old = precision()
        try:
            set_precision(bits)
            assert witness_bound_upper(lam, r, beta) <= 2 * beta
        finally:
            set_precision(old)

    @settings(max_examples=300, deadline=None)
    @given(
        total=st.integers(1, 10**4),
        share=st.fractions(min_value=0, max_value=1),
        r=st.sampled_from([2, 3]),
        beta=st.sampled_from([F(-1, 9), F(0), "default", F(1, 4), F(1), F(64)]),
        lam=st.fractions(min_value=-1, max_value=400, max_denominator=10**6),
        bits=st.sampled_from([16, 128]),
    )
    def test_meets_is_the_bound_comparison(self, total, share, r, beta, lam, bits):
        # the cap rule gives the bound's own verdict, and evaluates the bound
        # exactly where the cap 2 beta cannot decide
        beta = default_beta(r) if beta == "default" else beta
        count = math.floor(share * total)
        real = geometry.witness_bound_upper
        calls = []
        old = precision()
        try:
            set_precision(bits)
            want = F(count, total) >= real(lam, r, beta)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(geometry, "witness_bound_upper", lambda *a: calls.append(a) or real(*a))
                assert _meets(count, total, beta, lam, r) == want
        finally:
            set_precision(old)
        assert calls == ([(lam, r, beta)] if beta > 0 and 0 < F(count, total) < 2 * beta else [])

    def test_beta_itself_is_no_cap(self):
        # at 16 bits the rounding lifts the lam = -1 bound above beta
        old = precision()
        try:
            set_precision(16)
            beta = default_beta(2)
            assert beta < witness_bound_upper(F(-1), 2, beta) <= 2 * beta
        finally:
            set_precision(old)

    def test_bounds_pinned(self):
        # SHA-256 of the 128-bit bounds, recorded from the iv operator evaluation
        rng = random.Random(67)
        digest = hashlib.sha256()
        old = precision()
        try:
            set_precision(128)
            for _ in range(300):
                r = rng.randint(1, 6)
                lam = rng.choice([F(-1), F(rng.randint(-64, 64 * 60), 64),
                                  F(rng.getrandbits(140), rng.getrandbits(136) | 1) - 1])
                beta = rng.choice([default_beta(r), F(1, 4), F(rng.getrandbits(140) | 1, rng.getrandbits(150) | 1)])
                digest.update(repr(witness_bound_upper(lam, r, beta)).encode())
        finally:
            set_precision(old)
        assert digest.hexdigest() == "e0be91718e254fdfcfd455147ca870eb3b57bfeb24f1cf83e62937efc31741d9"

    @staticmethod
    def minus_one_embedding(seed):
        """An embedding of a 12-vertex colouring (r = 2) where colour 0's
        smallest positive codegree below p_0 |N'| sits at inner product
        exactly -1, with that candidate's event probability."""
        c = random_colouring(12, 2, seed)
        full = c.vertices
        emb = build_embedding(c, full, [full] * 2, [F(1)] * 2)
        t, m, p = emb.trimmed[0], emb.trimmed_sizes()[0], emb.densities[0]
        codegs = sorted({(t[a] & t[b]).bit_count() for a in range(12) for b in range(a + 1, 12)})
        d0 = next(d for d in codegs if 0 < d < m * p)
        # codeg >= p m (p - alpha) is inner product >= -1, so this alpha puts d0 at -1
        emb = build_embedding(c, full, [full] * 2, [p - F(d0, m), F(4)])
        tables = _PairTables(emb)
        assert (F(-1), 0, d0) in list(tables.candidates())
        return emb, F(12 + sum(tables.partner_counts(0, d0)), 144)

    @pytest.mark.parametrize("seed", [1, 5, 7, 9])
    def test_witnesses_are_the_candidates_over_the_bound(self, seed):
        # at 16 bits the lam = -1 bound rounds above beta, so with beta = q of
        # the lam = -1 candidate, that candidate is no witness (seeds 1, 5, 7);
        # a cap of beta itself would accept it
        emb, q_minus_one = self.minus_one_embedding(seed)
        tables = _PairTables(emb)
        n = emb.npoints
        old = precision()
        try:
            for bits in (16, 128):
                set_precision(bits)
                for beta in (q_minus_one, default_beta(2), F(1, 4), F(1), F(64)):
                    want = [(lam, i) for lam, i, d in tables.candidates()
                            if F(n + sum(tables.partner_counts(i, d)), n * n) >= witness_bound_upper(lam, 2, beta)]
                    assert [(lam, i) for lam, i, *_ in tables.witnesses(beta)] == want
                    if bits == 16 and beta == q_minus_one and seed in (1, 5, 7):
                        assert (F(-1), 0) not in want
        finally:
            set_precision(old)

    @staticmethod
    def desk_case(seed):
        """A colouring with n in [2, 60] and r in {2, 3}, Y_i = V and random alphas."""
        rng = random.Random(seed)
        n, r = rng.randint(2, 60), rng.choice([2, 3])
        c = random_colouring(n, r, seed)
        return c, [c.vertices] * r, [F(rng.randint(1, 8), rng.randint(1, 40)) for _ in range(r)]

    @pytest.mark.parametrize("seed", range(12))
    def test_key_step_and_its_check_evaluate_no_bound(self, seed, monkeypatch):
        # at default beta and n <= 60, q >= 1/n and every non-empty partner
        # set already clear the cap, and an empty one misses it, so neither
        # the step nor its check needs the interval bound
        calls = []
        real = geometry.witness_bound_upper
        monkeypatch.setattr(geometry, "witness_bound_upper", lambda *a: calls.append(a) or real(*a))
        c, full, alphas = self.desk_case(seed)
        res = key_lemma_step(c, c.vertices, full, alphas)
        chk = verify_key_step(c, c.vertices, full, alphas, res)
        assert chk.size_bound_ok == res.met_size_bound
        assert calls == []

    @pytest.mark.parametrize("seed", range(12))
    def test_found_witness_and_its_recount_evaluate_one_bound(self, seed, monkeypatch):
        # the report records its bound, evaluated once; the recount's
        # q >= 1/n clears the cap 2 beta at default beta and n <= 60, so
        # verify_witness evaluates none
        calls = []
        real = geometry.witness_bound_upper
        monkeypatch.setattr(geometry, "witness_bound_upper", lambda *a: calls.append(a) or real(*a))
        c, full, alphas = self.desk_case(seed)
        rep = find_lambda_witness(build_embedding(c, c.vertices, full, alphas))
        assert calls == [(rep.lam, c.r, default_beta(c.r))]
        verify_witness(c, c.vertices, full, alphas, rep)
        assert len(calls) == 1

    def test_find_witness_evaluates_the_bound_once(self, monkeypatch):
        calls = []
        real = geometry.witness_bound_upper
        monkeypatch.setattr(geometry, "witness_bound_upper", lambda *a: calls.append(a) or real(*a))
        c = random_colouring(40, 2, 3)
        rep = find_lambda_witness(build_embedding(c, c.vertices, [c.vertices] * 2, [F(1, 4)] * 2))
        assert calls == [(rep.lam, 2, default_beta(2))]

    def test_candidates_are_converted_when_pulled(self, monkeypatch):
        c = random_colouring(40, 3, 7)
        emb = build_embedding(c, c.vertices, [c.vertices] * 3, [F(1, 4)] * 3)
        pulled = []
        real = Embedding.inner_from_codegree
        monkeypatch.setattr(Embedding, "inner_from_codegree",
                            lambda self, i, d: pulled.append((i, d)) or real(self, i, d))
        cands = _PairTables(emb).candidates()
        assert pulled == []
        first = next(cands)
        # one head per colour, to order the colours against each other
        assert len(pulled) == 3 and (first[1], first[2]) in pulled
        rest = list(cands)
        assert len(pulled) == 1 + len(rest)

    def test_c_interval_follows_precision(self):
        old = precision()
        try:
            widths = {}
            for bits in (24, 128):
                set_precision(bits)
                lo, hi = interval_endpoints(c_interval(3))
                assert lo * lo <= 16 * 27 <= hi * hi  # encloses C = 4 * 3^(3/2)
                widths[bits] = hi - lo
                assert c_interval(3) is c_interval(3)  # built once per precision
        finally:
            set_precision(old)
        assert widths[24] > widths[128] > 0

    @pytest.mark.parametrize("bits", [24, 53, 128])
    def test_decay_kernel_is_the_iv_operator_enclosure(self, bits):
        # the witness bound and both factors of Lemma 4.5 come from this one
        # kernel, so it must give exactly coef e^(-C x) composed from the raw
        # endpoint-pair functions in the iv operators' order, for x a square
        # root (eps, the witness bound) or a sum of them
        rng = random.Random(bits)
        old = precision()
        try:
            set_precision(bits)
            for _ in range(300):
                r = rng.randint(1, 6)
                coef = rng.choice([default_beta(r) / r, F(1), F(1, 4),
                                   F(rng.getrandbits(80) | 1, rng.getrandbits(90) | 1)])
                x = iv.mpf(0)
                for _ in range(rng.randint(1, 4)):
                    x += iv.sqrt(iv_from_fraction(F(rng.randint(0, 6400), 64)))
                prec = iv.prec
                expo = mpi_mul(mpi_neg(c_interval(r)._mpi_, prec), x._mpi_, prec)
                want = mpi_mul(mpi_from_fraction(coef), mpi_exp(expo, prec), prec)
                assert decay_enclosure(coef, r, x)._mpi_ == want
        finally:
            set_precision(old)


class TestRationalInputs:
    """alphas and beta go through the one rational-input rule, bounds.exact_rational."""

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_alpha_rejected(self, x, c5):
        # these used to escape as a bare ValueError or OverflowError from Fraction
        full = [c5.vertices] * 2
        with pytest.raises(InvalidInput, match="finite"):
            build_embedding(c5, c5.vertices, full, [F(1, 10), x])
        res = key_lemma_step(c5, c5.vertices, full, [F(1, 10)] * 2)
        with pytest.raises(InvalidInput, match="finite"):
            verify_key_step(c5, c5.vertices, full, [x, F(1, 10)], res)

    @pytest.mark.parametrize("beta", [F(-1), F(0), float("nan")], ids=["-1", "0", "nan"])
    def test_witness_search_rejects_beta_not_positive(self, beta):
        # beta = -1 used to give lam = 8/3 with met_size_bound and a negative
        # bound, beta = 0 a bound of 0, and NaN a bare ValueError
        c = random_colouring(30, 2, 1)
        full, alphas = [c.vertices] * 2, [F(1, 4)] * 2
        with pytest.raises(InvalidInput):
            key_lemma_step(c, c.vertices, full, alphas, beta=beta)
        with pytest.raises(InvalidInput):
            find_lambda_witness(build_embedding(c, c.vertices, full, alphas), beta=beta)

    @pytest.mark.parametrize(
        "beta, exact",
        [(None, default_beta(2)), (0.25, F(1, 4)), (1, F(1)), (F(1, 4), F(1, 4))],
        ids=["None", "0.25", "1", "F(1,4)"],
    )
    def test_beta_is_resolved_once_whatever_its_spelling(self, beta, exact):
        # the report's bound is evaluated at the resolved beta: an unresolved
        # float would fail there (witness_bound_upper(F(3), 2, 0.25) raises)
        c = random_colouring(40, 2, 3)
        full, alphas = [c.vertices] * 2, [F(1, 4)] * 2
        rep = find_lambda_witness(build_embedding(c, c.vertices, full, alphas), beta)
        assert rep == find_lambda_witness(build_embedding(c, c.vertices, full, alphas), exact)
        assert rep.bound == witness_bound_upper(rep.lam, 2, exact)
        res = key_lemma_step(c, c.vertices, full, alphas, beta)
        assert res == key_lemma_step(c, c.vertices, full, alphas, exact)

    def test_key_step_check_still_takes_beta_zero(self):
        # a check decides its inequality at the beta given: at beta = 0 the
        # size bound is |X'| >= 0 (TestWitnessRecount runs verify_witness there)
        c = random_colouring(30, 2, 1)
        full, alphas = [c.vertices] * 2, [F(1, 4)] * 2
        res = key_lemma_step(c, c.vertices, full, alphas)
        assert verify_key_step(c, c.vertices, full, alphas, res, beta=0).size_bound_ok
