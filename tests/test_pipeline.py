import re
from fractions import Fraction as F

import pytest

from ramseybook.book_engine import derive_boost_threshold
from ramseybook.bounds import thm_book_hypotheses
from ramseybook.colouring import from_pair_function, mask_of, random_colouring, vertex_list
from ramseybook.errors import InvalidInput, ScaleError
from ramseybook.pipeline import (
    BookPhaseReport,
    CliqueFound,
    DriverConfig,
    desk_ramsey_driver,
    lemma53_check,
    regularise,
    verify_regularisation,
)


def star_heavy():
    """n=8, r=2: vertex 0 sees everything in colour 0; the rest is colour 1."""
    return from_pair_function(8, 2, lambda u, v: 0 if u == 0 else 1)


def reference_peels(c, eps):
    """``regularise``'s docstring rule as a plain loop over vertex sets and
    ``colour``: peel the smallest violating vertex at its smallest violating
    colour into the spine of its largest other colour, ties to the smallest."""
    r, w = c.r, set(range(c.n))
    spines = [[] for _ in range(r)]

    def deg(x, i):
        return sum(c.colour(x, y) == i for y in w if y != x)

    while r > 1 and len(w) > r:
        floor = (F(1, r) - eps) * len(w) - 1
        low = [(x, ell) for x in sorted(w) for ell in range(r) if deg(x, ell) < floor]
        if not low:
            break
        x, ell = low[0]
        j = max((i for i in range(r) if i != ell), key=lambda i: (deg(x, i), -i))
        spines[j].append(x)
        w = {y for y in w if y != x and c.colour(x, y) == j}
    return tuple(mask_of(s) for s in spines), mask_of(w)


class TestRegularise:
    def test_pentagon_already_regular(self, c5):
        res = regularise(c5, F(1, 20))
        assert res.s_sizes == (0, 0)
        assert res.w == c5.vertices

    def test_single_colour_immediate(self):
        c = from_pair_function(6, 1, lambda u, v: 0)
        res = regularise(c, F(1, 2))
        assert res.w == c.vertices and res.total_spine == 0

    def test_star_heavy_recursion_fires(self):
        c = star_heavy()
        res = regularise(c, F(1, 10))
        assert res.total_spine >= 1
        verify_regularisation(c, res)  # invariant oracle, raises on failure

    def test_random_corpus(self):
        for seed in range(25):
            n = 20 + (seed * 7) % 120
            r = 2 + seed % 3
            c = random_colouring(n, r, 300 + seed)
            for eps in (F(1, 10), F(1, 20)):
                res = regularise(c, eps)
                verify_regularisation(c, res)
                assert res.w.bit_count() >= 1  # implied by the peel bound

    def test_disjointness(self):
        c = star_heavy()
        res = regularise(c, F(1, 10))
        union = res.w
        for s in res.s_sets:
            assert s & union == 0
            union |= s

    def test_eps_validated(self, c5):
        with pytest.raises(InvalidInput):
            regularise(c5, F(0))
        with pytest.raises(InvalidInput):
            regularise(c5, F(3, 2))

    def test_peel_bound_can_drop_below_one(self):
        # single-vertex peels make the chained lower bound decay geometrically
        # while W stays non-empty; |W| >= bound still holds and is all that can
        # be asserted
        c = from_pair_function(50, 2, lambda u, v: 0)
        res = regularise(c, F(1, 10))
        assert res.total_spine == 48 and res.w.bit_count() == 2
        bound = (F(11, 20)) ** res.total_spine * 50
        assert bound < 1 <= res.w.bit_count()
        verify_regularisation(c, res)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 60])
    def test_peels_in_the_documented_order(self, r, n):
        c = random_colouring(n, r, n + r)
        for eps in (F(1, 20), F(1, 5), F(1, 2)):
            res = regularise(c, eps)
            assert (res.s_sets, res.w) == reference_peels(c, eps), eps

    @pytest.mark.parametrize(
        "c, peels",
        [(star_heavy(), 6), (from_pair_function(50, 2, lambda u, v: 0), 48)],
        ids=["star-heavy", "one-colour-k50"],
    )
    def test_peels_in_the_documented_order_when_forced(self, c, peels):
        res = regularise(c, F(1, 10))
        assert res.total_spine == peels
        assert (res.s_sets, res.w) == reference_peels(c, F(1, 10))


class TestLemma53:
    def test_eps_tenth(self):
        rep = lemma53_check(2, 100, F(1, 10), [1, 0])
        assert rep.passes and rep.reduced_passes

    def test_eps_half(self):
        rep = lemma53_check(2, 16, F(1, 2), [4, 0])
        assert rep.passes

    def test_below_threshold_rejected(self):
        with pytest.raises(InvalidInput):
            lemma53_check(2, 100, F(1, 10), [0, 0])

    def test_si_out_of_range_rejected(self):
        with pytest.raises(InvalidInput):
            lemma53_check(2, 10, F(1, 2), [11, 0])

    def test_below_threshold_message_is_exact(self):
        # eps^2 k = 10^400 / 4 used to be formatted as a float, an OverflowError
        with pytest.raises(InvalidInput, match=re.escape(f"below eps^2 k = {F(10**400, 4)}")):
            lemma53_check(2, 10**400, F(1, 2), [0, 0])

    @pytest.mark.parametrize("ss", [[F(11, 2), 0], ["5", 0], [5.0, 0], [True, 1]])
    def test_non_integer_si_rejected(self, ss):
        # such s_i used to be truncated by int() and certified as [5, 0]
        with pytest.raises(InvalidInput, match="must be an int"):
            lemma53_check(2, 10, F(1, 2), ss)

    def test_grid(self):
        for r in (2, 3, 6):
            for k in (8, 50, 200):
                for eps in (F(1, 10), F(1, 4), F(1, 2)):
                    lo = eps * eps * k
                    start = int(lo) + (0 if lo == int(lo) else 1)
                    for s in {max(1, start), min(r * k, k), k // 2 or 1}:
                        if s < lo or s > r * k:
                            continue
                        ss = []
                        left = s
                        for _ in range(r):
                            take = min(left, k)
                            ss.append(take)
                            left -= take
                        if left:
                            continue
                        rep = lemma53_check(r, k, eps, ss)
                        assert rep.passes, (r, k, eps, s)


# every rational input outside the engine, with each other argument valid
RATIONAL_ENTRY_POINTS = {
    "regularise": lambda x: regularise(random_colouring(12, 2, 0), x),
    "lemma53": lambda x: lemma53_check(2, 10, x, [5, 5]),
    "thm-book-p": lambda x: thm_book_hypotheses(x, F(8192), 10, 1, 2, 10, [10, 10]),
    "thm-book-mu": lambda x: thm_book_hypotheses(F(1, 2), x, 10, 1, 2, 10, [10, 10]),
    "boost-threshold-mu": lambda x: derive_boost_threshold(x, F(1, 4), 2),
    "boost-threshold-p": lambda x: derive_boost_threshold(F(4), x, 2),
    "driver": lambda x: desk_ramsey_driver(random_colouring(12, 2, 0), 4, DriverConfig(eps=x)),
}


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"), "abc"])
@pytest.mark.parametrize("entry", RATIONAL_ENTRY_POINTS)
def test_rational_inputs_must_be_finite(entry, x):
    # these used to escape as a bare ValueError (NaN, "abc") or OverflowError (+-inf)
    with pytest.raises(InvalidInput, match="finite"):
        RATIONAL_ENTRY_POINTS[entry](x)


class TestDriver:
    def test_k2_any_edge(self, c5):
        out = desk_ramsey_driver(c5, 2)
        assert isinstance(out, CliqueFound)
        assert out.vertices.bit_count() == 2

    def test_k1(self, c5):
        out = desk_ramsey_driver(c5, 1)
        assert isinstance(out, CliqueFound)

    def test_pentagon_k3_no_clique(self, c5):
        out = desk_ramsey_driver(c5, 3, DriverConfig(t=1, eps=F(1, 20)))
        assert isinstance(out, BookPhaseReport)
        assert out.branch in ("book", "escape")
        # correct: the pentagon genuinely has no monochromatic triangle
        from ramseybook.oracle import max_mono_clique

        assert max(max_mono_clique(c5, i)[0] for i in range(2)) == 2

    def test_random_n80_k4(self):
        c = random_colouring(80, 2, 3)
        out = desk_ramsey_driver(c, 4, DriverConfig(t=1, eps=F(1, 20)))
        if isinstance(out, CliqueFound):
            assert out.vertices.bit_count() == 4
            assert c.is_mono_clique(out.vertices, out.colour)
        else:
            assert out.branch in ("book", "escape", "degenerate")
            if out.branch == "book" and "book_valid" in out.report.get("book_phase", {}):
                assert out.report["book_phase"]["book_valid"]

    def test_random_corpus_never_invalid(self):
        cliques = 0
        for seed in range(12):
            c = random_colouring(60 + seed, 2, 500 + seed)
            out = desk_ramsey_driver(c, 4, DriverConfig(t=1, eps=F(1, 20)))
            if isinstance(out, CliqueFound):
                cliques += 1
                assert c.is_mono_clique(out.vertices, out.colour)
                assert out.vertices.bit_count() == 4
        assert cliques >= 1  # random 2-colourings at n >= 60 contain K4s (R(4,4)=18)

    def test_spine_clique_shortcut(self):
        # vertex 0 sees everything in colour 0, the rest is colour 1: peeling
        # stacks a colour-1 spine large enough to contain a K4 outright
        c = from_pair_function(10, 2, lambda u, v: 0 if u == 0 else 1)
        out = desk_ramsey_driver(c, 4, DriverConfig(t=1, eps=F(1, 10)))
        assert isinstance(out, CliqueFound)
        assert out.report["branch"] == "spine_clique"
        assert c.is_mono_clique(out.vertices, out.colour)

    def test_spine_clique_precedes_escape(self):
        # escape_sum=1 would escape, but the colour-1 spine of size 5 already
        # holds a K5, so the driver returns that clique first
        c = star_heavy()
        out = desk_ramsey_driver(c, 5, DriverConfig(t=1, eps=F(1, 10), escape_sum=1))
        assert isinstance(out, CliqueFound)
        assert out.report == {"k": 5, "n": 8, "r": 2, "branch": "spine_clique",
                              "regularisation": {"s_sizes": [1, 5], "w_size": 2}}
        assert out.colour == 1 and out.vertices.bit_count() == 5
        assert c.is_mono_clique(out.vertices, out.colour)

    def test_scale_error(self, c5):
        with pytest.raises(ScaleError):
            desk_ramsey_driver(c5, 7)

    def test_t_must_be_below_k(self, c5):
        with pytest.raises(InvalidInput):
            desk_ramsey_driver(c5, 3, DriverConfig(t=3))

    def test_escape_bound_reported(self):
        # peeling leaves spines of sizes 2 and 3, so sum |S_i| = 5 >= k and the
        # driver escapes through Lemma 5.3 before running the engine
        out = desk_ramsey_driver(random_colouring(12, 2, 0), 4)
        assert isinstance(out, BookPhaseReport)
        assert out.branch == "escape"
        assert out.report["regularisation"]["s_sizes"] == [2, 3]
        assert out.report["escape_bound"]["pass"] is True
        assert out.report["escape_bound"]["reduced_pass"] is True

    BOOK_CONFIG = DriverConfig(eps=F(1, 5), t=1, escape_sum=10**6)

    def test_book_clique_branch(self):
        # the engine returns a book of spine 17 and 4 pages, whose colour-0
        # K3 completes the spine to a K4
        c = random_colouring(20, 2, 0)
        out = desk_ramsey_driver(c, 4, self.BOOK_CONFIG)
        assert isinstance(out, CliqueFound)
        assert out.report == {
            "k": 4, "n": 20, "r": 2, "regularisation": {"s_sizes": [1, 0], "w_size": 16},
            "branch": "book_clique",
            "book_phase": {"outcome": "book_found", "steps": 2, "colour": 0, "spine": [17],
                           "pages_size": 4, "book_valid": True, "page_clique": 3},
        }
        assert out.colour == 0 and vertex_list(out.vertices) == [2, 7, 8, 17]
        assert c.is_mono_clique(out.vertices, out.colour)

    def test_book_branch_when_the_pages_hold_too_small_a_clique(self):
        # the same book, but k = 5 needs a K4 in its pages
        out = desk_ramsey_driver(random_colouring(20, 2, 0), 5, self.BOOK_CONFIG)
        assert isinstance(out, BookPhaseReport)
        assert out.report == {
            "k": 5, "n": 20, "r": 2, "regularisation": {"s_sizes": [1, 0], "w_size": 16},
            "branch": "book",
            "book_phase": {"outcome": "book_found", "steps": 2, "colour": 0, "spine": [17],
                           "pages_size": 4, "book_valid": True, "page_clique": 3},
        }

    def test_book_branch_when_the_reservoir_runs_out(self):
        out = desk_ramsey_driver(random_colouring(21, 2, 2), 4, self.BOOK_CONFIG)
        assert isinstance(out, BookPhaseReport)
        assert out.report == {
            "k": 4, "n": 21, "r": 2, "regularisation": {"s_sizes": [3, 1], "w_size": 6},
            "branch": "book",
            "book_phase": {"outcome": "reservoir_exhausted", "steps": 1},
        }

    def test_degenerate_branch(self):
        # with the escape disabled the engine runs on the two-vertex core W,
        # where some vertex has no neighbour of one colour inside W
        out = desk_ramsey_driver(
            random_colouring(12, 2, 0), 4, DriverConfig(t=1, eps=F(1, 20), escape_sum=10**6)
        )
        assert isinstance(out, BookPhaseReport)
        assert out.branch == "degenerate"
        assert out.report["detail"] == "p_i(0) must be positive for every colour"
        assert "book_phase" not in out.report
