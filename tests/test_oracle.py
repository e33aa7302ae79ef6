from collections.abc import Iterator
from fractions import Fraction as F

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseybook.book_engine import EngineParams, run
from ramseybook.colouring import (
    from_pair_function,
    full_mask,
    mask_of,
    pentagon_colouring,
    product_colouring,
    random_colouring,
    vertex_list,
)
from ramseybook.errors import BudgetExceeded, InvalidInput, InvalidVertex
from ramseybook.geometry import min_density
from ramseybook.oracle import (
    SearchBudget,
    _first_rows,
    best_book,
    max_mono_clique,
    ramsey_exhaustive,
)

from conftest import naive_max_clique


def mono(n, colour=0, r=1):
    return from_pair_function(n, max(r, colour + 1), lambda u, v: colour)


class TestMaxClique:
    def test_pentagon_triangle_free(self, c5):
        for colour in range(2):
            size, witness = max_mono_clique(c5, colour)
            assert size == 2
            assert c5.is_mono_clique(witness, colour)

    def test_monochromatic_k6(self):
        c = mono(6)
        size, witness = max_mono_clique(c, 0)
        assert size == 6 and witness == full_mask(6)

    def test_product_inherits_triangle_freeness(self, c5):
        p = product_colouring(c5, c5)
        size, witness = max_mono_clique(p, 0)
        assert size == 2
        assert p.is_mono_clique(witness, 0)

    def test_against_naive_enumeration(self):
        for seed in range(25):
            c = random_colouring(3 + seed % 8, 2, seed)
            for colour in range(2):
                size, witness = max_mono_clique(c, colour)
                assert size == naive_max_clique(c, colour)
                assert witness.bit_count() == size
                assert c.is_mono_clique(witness, colour)

    def test_within_restriction(self, c5):
        size, witness = max_mono_clique(c5, 0, within=mask_of([0, 1]))
        assert size == 2 and witness == mask_of([0, 1])

    @pytest.mark.parametrize("within", [-1, 1 << 40 | 0b111, 1 << 10], ids=["negative", "stray-high", "n"])
    def test_within_out_of_range_rejected(self, within):
        # -1 used to search every vertex, and a stray high bit was silently dropped;
        # min_density rejects the same sets
        c = random_colouring(10, 2, 1)
        assert max_mono_clique(c, 0) == (4, 452) and max_mono_clique(c, 0, within=0b111)[0] == 3
        with pytest.raises(InvalidVertex, match="out of range"):
            max_mono_clique(c, 0, within=within)
        with pytest.raises(InvalidVertex):
            min_density(c, within, c.vertices, 0)

    def test_budget_node_limit(self):
        c = random_colouring(30, 2, 4)
        with pytest.raises(BudgetExceeded):
            max_mono_clique(c, 0, SearchBudget(node_limit=2))

    def test_budget_n_cap(self):
        c = random_colouring(30, 2, 4)
        with pytest.raises(BudgetExceeded):
            max_mono_clique(c, 0, SearchBudget(n_cap=10))

    @pytest.mark.parametrize(
        "make, colour, within, nodes, size",
        [
            (pentagon_colouring, 0, None, 3, 2),
            (lambda: random_colouring(30, 2, 1), 1, None, 18, 6),
            (lambda: random_colouring(40, 3, 2), 0, full_mask(30), 14, 5),
        ],
        ids=["pentagon", "n30-r2", "n40-r3-within"],
    )
    def test_budget_boundary(self, make, colour, within, nodes, size):
        c = make()
        assert max_mono_clique(c, colour, SearchBudget(node_limit=nodes), within)[0] == size
        with pytest.raises(BudgetExceeded, match=f"^node limit {nodes - 1} exceeded$"):
            max_mono_clique(c, colour, SearchBudget(node_limit=nodes - 1), within)


class TestBestBook:
    def test_pentagon_t1(self, c5):
        res = best_book(c5, 1)
        assert res.pages == 2

    def test_pentagon_t2_empty_pages(self, c5):
        res = best_book(c5, 2)
        assert res.pages == 0
        assert res.colour == 0  # smallest colour on ties
        assert c5.is_mono_clique(res.spine, res.colour)

    def test_monochromatic_k4_t2(self):
        c = mono(4)
        res = best_book(c, 2)
        assert res.pages == 2

    def test_t1_equals_max_degree(self):
        for seed in range(10):
            c = random_colouring(9, 3, 40 + seed)
            res = best_book(c, 1)
            width = max(
                c.neighbourhood(v, i).bit_count() for v in range(c.n) for i in range(c.r)
            )
            assert res.pages == width

    def test_no_spine_returns_none(self, c5):
        assert best_book(c5, 3) is None  # pentagon has no monochromatic triangle

    @pytest.mark.parametrize("n, r, seed, t, nodes, pages", [(12, 2, 3, 3, 147, 3), (16, 3, 5, 2, 171, 4)])
    def test_budget_boundary(self, n, r, seed, t, nodes, pages):
        c = random_colouring(n, r, seed)
        assert best_book(c, t, SearchBudget(node_limit=nodes)).pages == pages
        with pytest.raises(BudgetExceeded, match=f"^node limit {nodes - 1} exceeded$"):
            best_book(c, t, SearchBudget(node_limit=nodes - 1))

    def test_pages_are_common_neighbourhood(self):
        c = random_colouring(10, 2, 60)
        res = best_book(c, 2)
        if res is None:
            pytest.skip("no 2-clique in either colour (impossible, but guard)")
        inter = full_mask(c.n)
        for u in vertex_list(res.spine):
            inter &= c.neighbourhood(u, res.colour)
        assert res.pages_mask == inter
        assert c.is_mono_book(res.spine, res.pages_mask, res.colour)


class TestAgainstNetworkx:
    """max_mono_clique and best_book against networkx's clique enumeration on
    colour graphs built from ``colour(u, v)``, not from the neighbourhood
    bitmasks the oracles search."""

    @staticmethod
    def colour_graph(nx, c, colour):
        g = nx.Graph()
        g.add_nodes_from(range(c.n))
        g.add_edges_from((u, v) for u, v in itertools.combinations(range(c.n), 2) if c.colour(u, v) == colour)
        return g

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 3), st.integers(0, 2**32))
    def test_max_mono_clique(self, n, r, seed):
        nx = pytest.importorskip("networkx")
        c = random_colouring(n, r, seed)
        for colour in range(r):
            g = self.colour_graph(nx, c, colour)
            size, witness = max_mono_clique(c, colour)
            assert size == max(len(q) for q in nx.find_cliques(g))
            assert witness.bit_count() == size
            assert all(g.has_edge(u, v) for u, v in itertools.combinations(vertex_list(witness), 2))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32))
    def test_best_book(self, n, r, t, seed):
        nx = pytest.importorskip("networkx")
        c = random_colouring(n, r, seed)
        want = None  # (pages, colour, spine), most pages, then smallest colour and spine
        for colour in range(r):
            g = self.colour_graph(nx, c, colour)
            spines = sorted(tuple(sorted(q)) for q in nx.enumerate_all_cliques(g) if len(q) == t)
            for spine in spines:
                pages = set(range(n)).difference(spine)
                for u in spine:
                    pages &= set(g[u])
                if want is None or len(pages) > want[0]:
                    want = (len(pages), colour, spine, pages)
        res = best_book(c, t)
        if want is None:
            assert res is None
        else:
            assert (res.pages, res.colour, tuple(vertex_list(res.spine)), set(vertex_list(res.pages_mask))) == want


# (r, ks, n) -> (all_contain, nodes, counterexample text): the exact search tree
# (edges row-major, colours ascending, canonical first rows) pinned case by case
RAMSEY_TABLE = [
    (2, [3, 3], 4, False, 16, "4 2\n0 0 1\n1 0\n0\n"),
    (2, [3, 3], 5, False, 57, "5 2\n0 0 1 1\n1 0 1\n1 0\n0\n"),
    (2, [3, 3], 6, True, 55, None),
    (2, [3, 4], 8, False, 8186,
     "8 2\n0 0 0 1 1 1 1\n1 1 0 0 1 1\n1 0 1 0 1\n1 0 1 0\n1 1 0\n0 1\n0\n"),
    (2, [3, 4], 9, True, 1387548, None),
    (2, [4, 4], 8, False, 1263,
     "8 2\n0 0 0 0 0 0 0\n0 0 0 1 1 1\n1 1 0 0 1\n1 0 0 1\n0 1 0\n1 1\n0\n"),
    (2, [5, 5], 7, False, 27, "7 2\n0 0 0 0 0 0\n0 0 0 0 0\n0 0 0 0\n1 1 1\n1 1\n1\n"),
    (3, [3, 3, 3], 7, False, 3519, "7 3\n0 0 0 0 0 1\n1 1 2 2 0\n2 1 2 0\n2 1 0\n1 0\n0\n"),
    (1, [4], 3, False, 3, "3 1\n0 0\n0\n"),
    (1, [4], 4, True, 6, None),
    (2, [2, 3], 2, False, 2, "2 2\n1\n"),
    (2, [2, 3], 3, True, 6, None),
    (3, [2, 2, 3], 4, True, 15, None),
]


class TestRamseyExhaustive:
    @pytest.mark.parametrize("r,ks,n,all_contain,nodes,cex", RAMSEY_TABLE,
                             ids=[f"r{r}-{'_'.join(map(str, ks))}-n{n}" for r, ks, n, *_ in RAMSEY_TABLE])
    def test_search_tree_pinned(self, r, ks, n, all_contain, nodes, cex):
        res = ramsey_exhaustive(r, ks, n)
        assert (res.all_contain, res.nodes) == (all_contain, nodes)
        assert (res.counterexample.serialize() if res.counterexample else None) == cex

    def test_budget_boundary(self):
        assert ramsey_exhaustive(2, [3, 4], 8, SearchBudget(node_limit=8186)).nodes == 8186
        with pytest.raises(BudgetExceeded, match="^node limit 8185 exceeded$"):
            ramsey_exhaustive(2, [3, 4], 8, SearchBudget(node_limit=8185))

    def test_n5_counterexample(self):
        res = ramsey_exhaustive(2, [3, 3], 5)
        assert res.result == "CounterexampleFound"
        cex = res.counterexample
        assert max_mono_clique(cex, 0)[0] <= 2
        assert max_mono_clique(cex, 1)[0] <= 2

    def test_n6_forced(self):
        res = ramsey_exhaustive(2, [3, 3], 6)
        assert res.result == "AllColouringsContainMono"

    def test_flip_exactly_at_six(self):
        assert not ramsey_exhaustive(2, [3, 3], 4).all_contain
        assert not ramsey_exhaustive(2, [3, 3], 5).all_contain
        assert ramsey_exhaustive(2, [3, 3], 6).all_contain

    def test_single_colour(self):
        assert ramsey_exhaustive(1, [4], 4).all_contain
        res = ramsey_exhaustive(1, [4], 3)
        assert not res.all_contain
        assert res.counterexample.n == 3

    def test_off_diagonal_r23(self):
        # R(2,3) = 3: a single colour-1 edge evades at n=2, nothing evades at n=3
        assert not ramsey_exhaustive(2, [2, 3], 2).all_contain
        assert ramsey_exhaustive(2, [2, 3], 3).all_contain

    def test_k1_trivial(self):
        assert ramsey_exhaustive(2, [1, 5], 1).all_contain

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            ramsey_exhaustive(2, [4, 4], 10, SearchBudget(node_limit=50))

    def test_first_rows_are_generated_lazily(self):
        assert isinstance(_first_rows(3, 8, [3, 3, 3]), Iterator)

    def test_budget_bounds_first_row_enumeration(self):
        # 167 960 canonical first rows at r = 10, n = 12: the budget must stop
        # the search before they are all listed
        with pytest.raises(BudgetExceeded, match="^node limit 10 exceeded$"):
            ramsey_exhaustive(10, [3] * 9 + [4], 12, SearchBudget(node_limit=10))


def engine_book_vs_oracle(c, params):
    """Run the engine on X = Y_i = V and compare its book with the oracle's.

    Returns None if the engine finds no book.  Otherwise asserts that the
    book is monochromatic and returns (its page count, the oracle's best page
    count for spine size t).  The oracle search is capped at n = 14.
    """
    ref = best_book(c, params.t, SearchBudget(n_cap=14))
    outcome = run(c, c.vertices, [c.vertices] * c.r, params)
    if not outcome.found:
        return None
    assert c.is_mono_book(outcome.spine, outcome.pages, outcome.book_colour)
    return outcome.pages.bit_count(), ref.pages


class TestValidateEngine:
    def test_pentagon(self, c5):
        engine, best = engine_book_vs_oracle(c5, EngineParams(t=1, lambda0=F(100), delta=F(1, 8)))
        assert engine <= best == 2

    def test_mostly_monochromatic_k8(self):
        # colour 0 everywhere except a perfect matching keeps both densities positive
        c = from_pair_function(8, 2, lambda u, v: 1 if v == u + 4 else 0)
        pages = engine_book_vs_oracle(c, EngineParams(t=2, lambda0=F(100), delta=F(1, 8)))
        if pages is not None:
            engine, best = pages
            assert engine <= best

    def test_random_corpus(self):
        found = 0
        for seed in range(100):
            c = random_colouring(12, 2, 200 + seed)
            try:
                pages = engine_book_vs_oracle(c, EngineParams(t=1, lambda0=F(20), delta=F(1, 8)))
            except InvalidInput:
                continue
            if pages is not None:
                found += 1
                engine, best = pages
                assert 0 < engine <= best
        assert found >= 90

    def test_n_cap(self):
        c = random_colouring(20, 2, 1)
        with pytest.raises(BudgetExceeded):
            engine_book_vs_oracle(c, EngineParams(t=1, lambda0=F(10), delta=F(1, 8)))
