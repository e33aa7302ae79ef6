"""Brute-force reference implementations for small-scale validation.

Everything here returns witnesses, never bare booleans, so a disagreement
with the fast path is immediately debuggable.  Searches are budget-guarded
and raise BudgetExceeded rather than running away.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .colouring import EdgeColouring, full_mask, iter_vertices
from .errors import BudgetExceeded, InvalidInput

__all__ = [
    "SearchBudget",
    "max_mono_clique",
    "best_book",
    "BookSearchResult",
    "ramsey_exhaustive",
    "RamseyResult",
]


@dataclass(frozen=True)
class SearchBudget:
    n_cap: int = 256
    node_limit: int = 10_000_000

    def __post_init__(self):
        if self.n_cap < 1 or self.node_limit < 1:
            raise InvalidInput("budget fields must be positive")


DEFAULT_BUDGET = SearchBudget()


def max_mono_clique(c: EdgeColouring, colour: int, budget: SearchBudget | None = None,
                    within: int | None = None) -> tuple[int, int]:
    """Exact maximum clique in the colour-`colour` graph, with witness mask.

    Branch and bound on bitsets with a greedy-colouring upper bound.
    ``within`` restricts the search to an induced subgraph; its vertices must lie in [0, n).
    """
    c.check_colour(colour)
    if within is not None:
        c.check_vertices("within", within)
    budget = budget or DEFAULT_BUDGET
    pool = c.vertices if within is None else within
    if pool.bit_count() > budget.n_cap:
        raise BudgetExceeded(f"{pool.bit_count()} vertices exceeds n_cap={budget.n_cap}")
    adj = c._neigh[colour]
    limit = budget.node_limit
    count = 0
    best_size = best_mask = 0

    def bound_order(pmask: int) -> list[tuple[int, int]]:
        # greedy independent-set classes; a clique takes at most one per class,
        # so the class index bounds how much the clique can still grow
        order = []
        cls = 0
        left = pmask
        while left:
            cls += 1
            avail = left
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                order.append((v, cls))
                left ^= b
                avail = (avail ^ b) & ~adj[v]
        return order

    def expand(rsize: int, rmask: int, pmask: int) -> None:
        nonlocal count, best_size, best_mask
        count += 1
        if count > limit:
            raise BudgetExceeded(f"node limit {limit} exceeded")
        if pmask == 0:
            if rsize > best_size:
                best_size, best_mask = rsize, rmask
            return
        for v, cls in reversed(bound_order(pmask)):
            if rsize + cls <= best_size:
                return
            bit = 1 << v
            expand(rsize + 1, rmask | bit, pmask & adj[v])
            pmask ^= bit

    if pool:
        expand(0, 0, pool)
    return best_size, best_mask


@dataclass(frozen=True)
class BookSearchResult:
    pages: int           # m_max
    colour: int
    spine: int           # bitmask
    pages_mask: int


def best_book(c: EdgeColouring, t: int, budget: SearchBudget | None = None) -> BookSearchResult | None:
    """Maximise the common neighbourhood over all monochromatic t-cliques.

    Ties break to the smallest colour, then the lexicographically smallest
    spine.  Returns None when no colour contains a t-clique.
    """
    if t < 1:
        raise InvalidInput("t must be >= 1")
    budget = budget or DEFAULT_BUDGET
    if c.n > budget.n_cap:
        raise BudgetExceeded(f"n={c.n} exceeds n_cap={budget.n_cap}")
    limit = budget.node_limit
    count = 0
    best: BookSearchResult | None = None

    for colour in range(c.r):
        adj = c._neigh[colour]

        def extend(spine_mask: int, size: int, common: int, min_next: int) -> None:
            nonlocal best, count
            count += 1
            if count > limit:
                raise BudgetExceeded(f"node limit {limit} exceeded")
            if size == t:
                m = common.bit_count()
                if best is None or m > best.pages:
                    best = BookSearchResult(m, colour, spine_mask, common)
                return
            # next spine vertex must lie in the common neighbourhood (clique)
            # and above the last one (lexicographic enumeration)
            for v in iter_vertices(common & ~((1 << min_next) - 1)):
                extend(spine_mask | (1 << v), size + 1, common & adj[v], v + 1)

        extend(0, 0, full_mask(c.n), 0)
    return best


@dataclass(frozen=True)
class RamseyResult:
    all_contain: bool
    counterexample: EdgeColouring | None
    nodes: int

    @property
    def result(self) -> str:
        return "AllColouringsContainMono" if self.all_contain else "CounterexampleFound"


def _has_clique(adj: list[int], cand: int, size: int) -> bool:
    """Does `cand` contain a clique of the given size in the graph `adj`?"""
    if size <= 0:
        return True
    if cand.bit_count() < size:
        return False
    while cand:
        b = cand & -cand
        v = b.bit_length() - 1
        cand ^= b
        if _has_clique(adj, cand & adj[v], size - 1):
            return True
        if cand.bit_count() < size:
            return False
    return False


def _first_rows(r: int, n: int, ks) -> Iterator[tuple[int, ...]]:
    """Canonical colourings of the edges at vertex 0, generated lazily.

    Vertex relabelling sorts the row into colour blocks; when all target
    clique sizes are equal, colour permutation additionally forces the block
    sizes to be non-increasing.
    """
    uniform = len(set(ks)) == 1

    def compose(remaining: int, colour: int, cap: int) -> Iterator[tuple[int, ...]]:
        # cap: the largest block this colour may take
        if colour == r - 1:
            if remaining <= cap:
                yield (colour,) * remaining
            return
        for take in range(min(remaining, cap), -1, -1):
            for rest in compose(remaining - take, colour + 1, take if uniform else n):
                yield (colour,) * take + rest

    return compose(n - 1, 0, n - 1)


def ramsey_exhaustive(r: int, ks, n: int, budget: SearchBudget | None = None) -> RamseyResult:
    """Decide whether every r-colouring of K_n has a colour-i clique of size k_i.

    Backtracking over edge colourings with canonical-first-row symmetry
    pruning; sound and complete within the node budget.
    """
    ks = list(ks)
    if len(ks) != r or r < 1 or n < 1:
        raise InvalidInput("need r >= 1 clique sizes and n >= 1")
    if any(k < 1 for k in ks):
        raise InvalidInput("clique sizes must be >= 1")
    budget = budget or DEFAULT_BUDGET
    if any(k == 1 for k in ks):
        return RamseyResult(True, None, 0)  # a single vertex is a K_1 in every colour

    # Row-major edges: the n - 1 at vertex 0 take the first row's colour, the
    # rest try every colour.  Colouring {u, v} completes a clique iff cand has a K_{k-2}.
    edges = [(u, v, 1 << u, 1 << v, (1 << u) - 1) for u in range(n - 1) for v in range(u + 1, n)]
    m = len(edges)
    need = [k - 2 for k in ks]
    limit = budget.node_limit
    count = 0
    tri = bytearray(m)
    adj = [[0] * n for _ in range(r)]

    def dfs(idx: int) -> bool:
        nonlocal count
        if idx == m:
            return True
        u, v, bu, bv, below = edges[idx]
        for colour in allowed[idx]:
            count += 1
            if count > limit:
                raise BudgetExceeded(f"node limit {limit} exceeded")
            g = adj[colour]
            cand = g[u] & g[v] & below
            size = need[colour]
            if size == 1:
                if cand:
                    continue
            elif size == 2:
                rest = cand
                while rest:  # stops with rest != 0 iff cand holds an edge
                    b = rest & -rest
                    rest ^= b
                    if g[b.bit_length() - 1] & rest:
                        break
                if rest:
                    continue
            elif size <= 0 or _has_clique(g, cand, size):
                continue
            tri[idx] = colour
            g[u] |= bv
            g[v] |= bu
            if dfs(idx + 1):
                return True
            g[u] ^= bv
            g[v] ^= bu
        return False

    for row in _first_rows(r, n, ks):
        allowed = [(colour,) for colour in row] + [tuple(range(r))] * (m - len(row))
        if dfs(0):
            return RamseyResult(False, EdgeColouring(n, r, bytes(tri)), count)
    return RamseyResult(True, None, count)

