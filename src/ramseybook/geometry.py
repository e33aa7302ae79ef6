"""Geometric core: trimmed-neighbourhood embeddings with exact rational inner
products, the certified two-branch bound on the cosh-sqrt special function,
and the lambda-witness search that drives every round of the book algorithm.

A trimmed neighbourhood N'_i(x), the p_i |Y_i| lowest vertices of
N_i(x) & Y_i, is cut from its mask by ``_lowest_bits``: it starts at the cut
an even spread of the set bits predicts and moves one set bit at a time to
the exact count, falling back to a bisection on the estimate's side when the
estimate is off by more than the bisection depth.

Inner products are never computed from materialised vectors; each one is an
affine function of a codegree, one ratio of integers per colour
(``Embedding.inner_form``), so the whole witness search runs on integer
codegrees.  A colour's diagonal threshold is reached exactly by the pairs with
equal trimmed sets, so its partners come from the sets and each such pair's
own r codegrees; only a colour's scan below its diagonal builds that colour's
largest codegree per row and set of codegrees attained, O(n) numbers from one
n^2 / 2 popcount pass.  A row's codegrees are computed, and its pair
eligibility checked against an integer codegree floor, when such a scan first
reaches that row.  The key step's X' is read from the pivot's own codegrees,
one colour at a time, witness colour first, and from no table.  The exact cap
that decides a witness or size bound (``_meets``) is an integer
cross-product of a count and a total, so a Fraction is built only for a
threshold a scan pulls, to merge the colours in lam order, and for the lam
and q a step or report records.  The witness recount derives its own
thresholds with Fractions and tests each unordered pair once and each
diagonal pair explicitly.

The key lemma's constants are beta = 3^(-4r) (``default_beta``) and
C = 4 r^(3/2) (``c_interval``).  Every decay factor coef e^(-C x) comes from
one ``iv`` expression, ``decay_enclosure``: the witness bound beta
e^(-C sqrt(lam + 1)) here, and both factors of Lemma 4.5 in ``monitors``.
Each is evaluated only where an exact rational cap cannot decide.  The
special-function bound, evaluated on every call, runs on mpmath's raw
interval endpoint pairs (``mpmath.libmp.mpi_*``) at ``iv.prec``, read at each
call, in the order the ``iv`` operators take, so its enclosures are those of
``iv``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import compress

from .bounds import (
    certify_interval_ge,
    endpoint_fraction,
    exact_rational,
    iv_from_fraction,
    iv_from_int,
    load_mpmath,
    mpi_from_fraction,
    mpi_from_int,
)
from .colouring import EdgeColouring, iter_vertices, mask_of
from .errors import DegenerateDensity, EmptySet, InvalidInput, LemmaViolation


def default_beta(r: int) -> Fraction:
    """The key lemma's beta = 3^(-4r); a run writes it into its trace header,
    and its key steps and monitors take it from there."""
    return Fraction(1, 3 ** (4 * r))


def _beta(beta, r: int) -> Fraction:
    """A caller's beta as an exact rational (``bounds.exact_rational``), or the default when None."""
    return default_beta(r) if beta is None else exact_rational(beta)


def c_interval(r: int):
    """Enclosure of the decay coefficient C = 4 r^(3/2) at the working precision."""
    return 4 * load_mpmath().iv.sqrt(iv_from_int(r**3))


def decay_enclosure(coef: Fraction, r: int, x):
    """Enclosure of coef * e^(-C x), C = 4 r^(3/2), for the enclosure ``x`` of x."""
    return iv_from_fraction(coef) * load_mpmath().iv.exp(-c_interval(r) * x)


def witness_bound_upper(lam: Fraction, r: int, beta: Fraction) -> Fraction:
    """Certified upper bound on beta * e^(-C sqrt(lam + 1)).

    For lam >= -1 and beta > 0 the value never exceeds ``_meets``' exact
    cap, so its rational comparison against the cap decides most uses
    without calling this.
    """
    if lam < -1:
        raise InvalidInput("threshold below -1")
    root = load_mpmath().iv.sqrt(iv_from_fraction(lam + 1))
    return endpoint_fraction(decay_enclosure(beta, r, root)._mpi_[1])


# ---------------------------------------------------------------------------
# densities and embeddings
# ---------------------------------------------------------------------------

def min_density(c: EdgeColouring, xset: int, yset: int, colour: int) -> Fraction:
    """min over x in X of |N_i(x) & Y| / |Y|, as an exact rational."""
    if xset == 0 or yset == 0:
        raise EmptySet("min_density needs non-empty X and Y")
    c.check_colour(colour)
    c.check_vertices("X or Y", xset | yset)
    ysize = yset.bit_count()
    neigh = c._neigh[colour]
    best = min((neigh[x] & yset).bit_count() for x in iter_vertices(xset))
    return Fraction(best, ysize)


def _lowest_bits(mask: int, count: int) -> int:
    """The ``count`` >= 0 lowest set bits of ``mask`` (all of them if it has fewer).

    The answer is the shortest prefix of bits holding ``count`` of them.  The
    cut starts where an even spread of the set bits puts it, width * count /
    popcount, and moves one set bit at a time to the exact count: each step
    clears the lowest set bit above the cut or the highest below it.  When
    the estimate is off by more than the bisection depth (the width's bit
    length), a binary search over the side of the cut that holds the answer
    finishes instead, so a call costs O(log width) big-int operations at most.
    """
    pop = mask.bit_count()
    if count >= pop:
        return mask
    width = mask.bit_length()
    depth = width.bit_length()
    cut = width * count // pop
    low = mask & ((1 << cut) - 1)
    short = count - low.bit_count()
    if 0 < short <= depth:
        high = mask ^ low
        for _ in range(short):
            high &= high - 1
        return mask ^ high
    if -depth <= short <= 0:
        for _ in range(-short):
            low ^= 1 << (low.bit_length() - 1)
        return low
    # binary search for the shortest prefix holding ``count`` set bits
    lo, hi = (cut + 1, width) if short > 0 else (0, cut)
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() >= count:
            hi = mid
        else:
            lo = mid + 1
    return mask & ((1 << lo) - 1)


@dataclass(frozen=True, eq=False)
class Embedding:
    """Per-colour trimmed neighbourhoods N'_i(x) of size exactly p_i |Y_i|.

    The implicit unit-scaled vectors are never materialised; their pairwise
    inner products are (codeg - p_i^2 |Y_i|) / (alpha_i p_i |Y_i|), exact.
    With m_i = p_i |Y_i| and alpha_i = a_i / b_i in lowest terms that is
    (codeg |Y_i| - m_i^2) b_i / (a_i m_i |Y_i|), a ratio of integers.
    """

    points: tuple[int, ...]
    y_sizes: tuple[int, ...]
    densities: tuple[Fraction, ...]
    alphas: tuple[Fraction, ...]
    trimmed: tuple[tuple[int, ...], ...]  # [colour][point index] -> N' bitmask

    @property
    def r(self) -> int:
        return len(self.y_sizes)

    @property
    def npoints(self) -> int:
        return len(self.points)

    @cached_property
    def inner_form(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Per colour, the integers (m_i, |Y_i|, m_i^2, b_i, a_i m_i |Y_i|): an
        inner product is (codeg |Y_i| - m_i^2) b_i / (a_i m_i |Y_i|)."""
        form = []
        for p, alpha, y in zip(self.densities, self.alphas, self.y_sizes):
            m = p.numerator * y // p.denominator
            form.append((m, y, m * m, alpha.denominator, alpha.numerator * m * y))
        return tuple(form)

    def trimmed_sizes(self) -> tuple[int, ...]:
        return tuple(f[0] for f in self.inner_form)

    def inner_from_codegree(self, colour: int, codeg: int) -> Fraction:
        _m, y, m2, b, scale = self.inner_form[colour]
        return Fraction((codeg * y - m2) * b, scale)


def _per_colour(r: int, ysets, alphas) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """The per-colour rule: one Y set and one positive exact alpha
    (``bounds.exact_rational``) per colour, returned as tuples."""
    ysets = tuple(ysets)
    alphas = tuple(exact_rational(a) for a in alphas)
    if len(ysets) != r or len(alphas) != r:
        raise InvalidInput(f"need one Y set and one alpha per colour ({r})")
    if any(a <= 0 for a in alphas):
        raise InvalidInput("alphas must be positive")
    return ysets, alphas


def build_embedding(c: EdgeColouring, xset: int, ysets, alphas) -> Embedding:
    """Trim each N_i(x) & Y_i down to its p_i|Y_i| smallest-labelled vertices.

    p_i|Y_i| = min_x |N_i(x) & Y_i| is automatically an integer, so no
    rounding ever happens.  p_i = 0 for any colour is DegenerateDensity.
    """
    if xset == 0:
        raise EmptySet("X is empty")
    ysets, alphas = _per_colour(c.r, ysets, alphas)
    c.check_vertices("X", xset)
    points = tuple(iter_vertices(xset))
    y_sizes = []
    densities = []
    trimmed = []
    for i, yset in enumerate(ysets):
        if yset == 0:
            raise EmptySet(f"Y_{i} is empty")
        c.check_vertices(f"Y_{i}", yset)
        ysize = yset.bit_count()
        neigh = c._neigh[i]
        masks = [neigh[x] & yset for x in points]
        sizes = [mm.bit_count() for mm in masks]
        m = min(sizes)
        if m == 0:
            raise DegenerateDensity(f"p_{i} = 0: some x in X has no colour-{i} neighbour in Y_{i}", colour=i)
        y_sizes.append(ysize)
        densities.append(Fraction(m, ysize))
        trimmed.append(tuple(mm if size == m else _lowest_bits(mm, m) for mm, size in zip(masks, sizes)))
    return Embedding(
        points=points,
        y_sizes=tuple(y_sizes),
        densities=tuple(densities),
        alphas=alphas,
        trimmed=tuple(trimmed),
    )


# ---------------------------------------------------------------------------
# the special function f
# ---------------------------------------------------------------------------

class SpecialBranch(Enum):
    UPPER_BOUND_HOLDS = "UpperBoundHolds"
    NEGATIVE_CASE_HOLDS = "NegativeCaseHolds"


def check_special_bounds(xs) -> SpecialBranch:
    """Certify the two-branch upper bound on f with adverse rounding.

    f(x_1..x_r) = sum_j x_j prod_{i != j} (2 + cosh sqrt(x_i)), where cosh
    sqrt(x) means cos sqrt(-x) for x < 0 (one entire function).  If every
    x_i >= -3r, asserts f <= 3^r r e^(sum sqrt(x_i + 3r)); otherwise asserts
    f <= -1.  Both checks compare an interval upper bound of f against
    a lower bound of the target, so a pass is rigorous.  A failure raises
    LemmaViolation, signalling an implementation bug.
    """
    qs = [exact_rational(x) for x in xs]
    r = len(qs)
    if r < 1:
        raise InvalidInput("need at least one coordinate")
    mpmath = load_mpmath()
    iv, lib = mpmath.iv, mpmath.libmp
    prec = iv.prec
    zero, one, two = mpi_from_int(0), mpi_from_int(1), mpi_from_int(2)
    encl = [mpi_from_fraction(q) for q in qs]
    factors = []
    for q, x in zip(qs, encl):
        if q >= 0:  # cosh u = (e + 1/e)/2 with e = exp u
            e = lib.mpi_exp(lib.mpi_sqrt(x, prec), prec)
            cosh = lib.mpi_div(lib.mpi_add(e, lib.mpi_div(one, e, prec), prec), two, prec)
        else:
            cosh = lib.mpi_cos(lib.mpi_sqrt(lib.mpi_neg(x), prec), prec)
        factors.append(lib.mpi_add(two, cosh, prec))
    f = zero
    for j, x in enumerate(encl):
        prod = one
        for i, factor in enumerate(factors):
            if i != j:
                prod = lib.mpi_mul(prod, factor, prec)
        f = lib.mpi_add(f, lib.mpi_mul(x, prod, prec), prec)
    f = iv.make_mpf(f)

    if all(q >= -3 * r for q in qs):
        root_sum = zero
        for q in qs:
            root_sum = lib.mpi_add(root_sum, lib.mpi_sqrt(mpi_from_fraction(q + 3 * r), prec), prec)
        bound = lib.mpi_mul(mpi_from_int(3**r * r), lib.mpi_exp(root_sum, prec), prec)
        if not certify_interval_ge(iv.make_mpf(bound), f):
            raise LemmaViolation(f"f{tuple(map(float, qs))} exceeded the positive-quadrant bound")
        return SpecialBranch.UPPER_BOUND_HOLDS
    if not certify_interval_ge(iv_from_int(-1), f):
        raise LemmaViolation(f"f{tuple(map(float, qs))} exceeded -1 in the negative branch")
    return SpecialBranch.NEGATIVE_CASE_HOLDS


# ---------------------------------------------------------------------------
# witness search and the key step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    """A (colour, threshold) pair whose event probability q = pair_count /
    total_pairs reaches the decay bound beta e^(-C sqrt(lam+1)); the bound
    itself is not recorded, and ``verify_witness`` decides it again."""

    colour: int
    lam: Fraction
    q: Fraction
    pair_count: int
    total_pairs: int


@dataclass(frozen=True)
class KeyStepResult:
    pivot: int
    colour: int
    x_prime: int             # bitmask, never containing the pivot
    y_primes: tuple[int, ...]
    lam: Fraction
    q: Fraction
    met_size_bound: bool


class _PairTables:
    """Integer codegrees of the unordered pairs of X, kept in O(n r) memory.

    A pair is eligible when every coordinate inner product is >= -1, i.e.
    codeg_i >= p_i |Y_i| (p_i - alpha_i) for every colour; ``dmin[i]`` is the
    least such integer, ceil((m_i^2 b_i - a_i m_i |Y_i|) / (|Y_i| b_i)) in
    ``Embedding.inner_form``'s integers, floored at 0.  Only eligible pairs
    can contribute to any witness event.  Every trimmed set of colour i has
    ``diag[i]`` elements, so ``diag[i]`` is the largest codegree and the pairs
    that reach it are those with equal colour-i sets: a point's partners there
    are the points with its set whose pair passes eligibility on its own r
    codegrees, and nothing is stored for them.  Only colour i's scan below its
    diagonal needs ``_build_maxima(i)``, which fills colour i's slots:
    ``row_max[i][a]``, the largest raw codegree of the pairs (a, b > a), and
    ``values[i]``, every raw codegree of such pairs; no row is stored, and a
    colour never scanned below its diagonal keeps None.  The first time such
    a scan reaches row a (``_rows_reaching``), ``_check_row`` stores it in
    every colour with its ineligible pairs marked -1: ``checked[a][i][j]`` is
    then the colour-i codegree of the pair (a, a + 1 + j).  Every reader of a checked row
    compares its entries with the threshold, so a -1 is never a partner.

    The tables are a pure cache of the embedding: every entry is a function
    of the trimmed sets alone, so no call order changes what they hold.
    Scans skip the rows whose raw maximum cannot reach a threshold, so a row
    no scan reached has no pair at any threshold read so far.  The n diagonal
    pairs have codegree ``diag[i]``, which is at least every candidate
    threshold, so they are in every event.
    """

    def __init__(self, emb: Embedding):
        self.emb = emb
        self.n = emb.npoints
        self.diag = emb.trimmed_sizes()
        # minimal integer codegree for coordinate >= -1, floored at 0
        self.dmin = [max(0, -((scale - m2 * b) // (y * b))) for _m, y, m2, b, scale in emb.inner_form]
        self.row_max: list[list[int] | None] = [None] * emb.r  # with ``values``, set by _build_maxima
        self.values: list[set[int] | None] = [None] * emb.r
        self.checked: dict[int, list[list[int]]] = {}

    def _build_maxima(self, colour: int) -> None:
        """One colour's largest raw codegree per row and set of raw codegrees: n^2 / 2 popcounts."""
        t = self.emb.trimmed[colour]
        row_max, values = [], set()
        for a, ta in enumerate(t):
            row = {(ta & tb).bit_count() for tb in t[a + 1 :]}
            row_max.append(max(row, default=-1))
            values |= row
        self.row_max[colour], self.values[colour] = row_max, values

    def _check_row(self, a: int) -> None:
        """Set ``checked[a]``, row a in every colour with its ineligible pairs
        marked -1; nothing else is written."""
        row = [[(t[a] & tb).bit_count() for tb in t[a + 1 :]] for t in self.emb.trimmed]
        bad = set()
        for codeg, dmin in zip(row, self.dmin):
            if codeg and min(codeg) < dmin:
                bad.update(compress(range(len(codeg)), map(dmin.__gt__, codeg)))
        for codeg in row:
            for j in bad:
                codeg[j] = -1
        self.checked[a] = row

    def _rows_reaching(self, colour: int, d: int):
        """The rows that may have a partner after them at codegree threshold d.

        At d = ``diag[colour]`` they are the rows whose set recurs later,
        found from the trimmed sets alone.  Below it they are the rows whose
        raw maximum reaches d, each yielded once it is checked; such a row
        may have no eligible pair at d, and its callers find that from its
        entries.
        """
        if d == self.diag[colour]:
            t = self.emb.trimmed[colour]
            last = {ta: a for a, ta in enumerate(t)}
            yield from (a for a, ta in enumerate(t) if last[ta] != a)
            return
        if self.row_max[colour] is None:
            self._build_maxima(colour)
        for a in compress(range(self.n), map(d.__le__, self.row_max[colour])):
            if a not in self.checked:
                self._check_row(a)
            yield a

    def candidates(self):
        """(lam, colour, codegree threshold) triples, lam descending, colour ascending.

        Per colour: every codegree attained by an eligible pair, diagonal
        included.  No lower threshold is needed: the lowest attained one
        already has every eligible pair in its event, and a smaller bound.
        The triples come lazily, so a scan that stops early converts only the
        codegrees it reached into Fractions, and checks only the rows it read.
        """
        per_colour = [self._colour_candidates(i) for i in range(self.emb.r)]
        return heapq.merge(*per_colour, key=lambda t: (t[0], -t[1]), reverse=True)

    def _colour_candidates(self, colour: int):
        """The candidates of one colour, codegree (hence lam) descending.

        The diagonal comes first and needs no codegree.  Below it, the values
        below ``dmin`` are attained by ineligible pairs only; any other value
        is kept only where a checked row still holds it.
        """
        checked, diag = self.checked, self.diag[colour]
        yield self.emb.inner_from_codegree(colour, diag), colour, diag
        if self.values[colour] is None:
            self._build_maxima(colour)
        dmin = self.dmin[colour]
        for d in sorted((v for v in self.values[colour] if dmin <= v < diag), reverse=True):
            if any(d in checked[a][colour] for a in self._rows_reaching(colour, d)):
                yield self.emb.inner_from_codegree(colour, d), colour, d

    def _partners_after(self, colour: int, d: int, a: int):
        """The partners b > a of point a at codegree threshold d; below the
        diagonal, row a must be checked.  At the diagonal they are the points
        whose colour-``colour`` set equals a's and whose pair with a is
        eligible, decided from the pair's own r codegrees."""
        if d != self.diag[colour]:
            return compress(range(a + 1, self.n), map(d.__le__, self.checked[a][colour]))
        t = self.emb.trimmed
        same = compress(range(a + 1, self.n), map(t[colour][a].__eq__, t[colour][a + 1 :]))
        return (b for b in same if all((ti[a] & ti[b]).bit_count() >= dm for ti, dm in zip(t, self.dmin)))

    def partner_counts(self, colour: int, d: int) -> list[int]:
        """Per point, the off-diagonal event partners at codegree threshold d."""
        counts = [0] * self.n
        for a in self._rows_reaching(colour, d):
            after = list(self._partners_after(colour, d, a))
            counts[a] += len(after)
            for b in after:
                counts[b] += 1
        return counts

    def x_prime_mask(self, colour: int, d: int, pivot_idx: int) -> int:
        """X'(pivot): the points b != pivot whose colour-``colour`` codegree
        with the pivot is at least d and whose colour-i codegree is at least
        ``dmin[i]`` in every other colour.  Every candidate d is at least
        ``dmin[colour]``, so that is the event at d.  The pivot's own
        codegrees are filtered one colour at a time, the witness colour
        first, as ``verify_witness`` does; no table is read."""
        need = list(zip(self.dmin, self.emb.trimmed))
        need.insert(0, (d, need.pop(colour)[1]))
        row = [b for b in range(self.n) if b != pivot_idx]
        for dm, ti in need:
            tp = ti[pivot_idx]
            row = [b for b in row if (tp & ti[b]).bit_count() >= dm]
        return mask_of(self.emb.points[b] for b in row)

    def witnesses(self, beta: Fraction):
        """Yield (lam, colour, d, counts, size) for every candidate, in scan
        order, whose event probability q = size / n^2 satisfies
        q >= beta e^(-C sqrt(lam+1)): d is lam's codegree threshold in the
        colour, and counts[a] the off-diagonal event partners of point a.

        The event holds the n diagonal pairs and each counted partner, so its
        size is n + sum(counts); ``_meets`` decides the inequality.  ``beta``
        is exact already (``_beta``, resolved once by each caller); a
        beta <= 0 is InvalidInput, as the trace reader rejects it.
        """
        if beta <= 0:
            raise InvalidInput(f"beta must be positive, got {beta}")
        r, total = self.emb.r, self.n * self.n
        for lam, colour, d in self.candidates():
            counts = self.partner_counts(colour, d)
            size = self.n + sum(counts)
            if _meets(size, total, beta, lam, r):
                yield lam, colour, d, counts, size


def _meets(count: int, total: int, beta: Fraction, lam: Fraction, r: int) -> bool:
    """Whether the ratio count / total (count >= 0, total > 0) reaches
    ``witness_bound_upper(lam, r, beta)``, beta e^(-C sqrt(lam + 1)) rounded
    up, for lam >= -1.  One exact cap decides first: 2 beta / max(8 s, 1),
    s = isqrt(floor(lam) + 1), which is 2 beta for lam < 0 and beta / (4 s)
    for lam >= 0; for beta = a / b the ratio meets it when max(8 s, 1) count
    b >= 2 a total.  Only below it is the ratio made a Fraction and the bound
    evaluated, and only for count > 0.

    Every verdict is the bound's own.  For beta <= 0 the bound is at most 0,
    and the cap is met.  For beta > 0 the bound is positive, so a zero count
    misses it, and it is at most the cap.  At s = 0 the exponent is <= 0 and
    the rounding adds a few ulps, so the bound is at most 2 beta.  At s >= 1,
    x = C sqrt(lam + 1) >= 4 s since C = 4 r^(3/2) >= 4, and x e^(-x) <=
    4 e^(-4) < 0.08 for x >= 4, so the exact value beta e^(-x) is below
    0.08 beta / x <= 0.02 beta / s.  At iv.prec >= 16 bits each of the few
    interval operations rounds by at most 2^-15 relative, so the rounded
    exponent is -y with y >= (1 - 2^-12) x > 3.99 s and the product is raised
    by at most 2^-12 relative; y e^(-y) falls for y >= 1, so the rounded
    bound stays below 0.021 beta / s, under the cap by a factor of ten.  The
    cap decides lam = 10^100 at once, where the bound's exact Fraction would
    need more than 10^50 bits.
    """
    # witness_bound_upper is looked up at call time, so a wrapper installed on the module sees the call
    a, b = beta.numerator, beta.denominator
    return (max(8 * math.isqrt(math.floor(lam) + 1), 1) * count * b >= 2 * a * total
            or (count > 0 and Fraction(count, total) >= witness_bound_upper(lam, r, beta)))


def find_lambda_witness(emb: Embedding, beta=None) -> WitnessReport:
    """Largest threshold lam (ties: smallest colour) whose event probability q
    over all |X|^2 ordered pairs satisfies q >= beta e^(-C sqrt(lam+1)).

    Candidate thresholds are the inner-product values attained by the
    diagonal and by the pairs whose every coordinate is >= -1.  The top
    candidate is a colour's diagonal, decided from equal trimmed sets and the
    r codegrees of each pair of equal sets, so when it is accepted (always
    while 2 beta |X| <= 1: its q >= 1/|X|) the search builds no codegree
    maxima, checks no row and, as the cap decides, evaluates no bound.  The
    report is the scan's first witness; it records no bound.  beta is
    resolved once (``_beta``).  Failure to find any witness raises
    LemmaViolation (it is a theorem that one exists).
    """
    n = emb.npoints
    for lam, colour, _d, _counts, size in _PairTables(emb).witnesses(_beta(beta, emb.r)):
        return WitnessReport(colour, lam, Fraction(size, n * n), size, n * n)
    raise LemmaViolation("no lambda witness found; this should be impossible")


def key_lemma_step(c: EdgeColouring, xset: int, ysets, alphas, beta=None) -> KeyStepResult:
    """One full round of the density/boost dichotomy.

    Builds the embedding, scans the lambda witnesses in decreasing lam order,
    and takes the first one that admits a pivot x whose event partner set
    X'(x) (excluding x itself) is at least beta e^(-C sqrt(lam+1)) |X|.  If
    no witness admits such a pivot, falls back to the first witness with the
    best available pivot.  While 2 beta |X| <= 1 (at the default beta: |X| <=
    3280 at r = 2, 265720 at r = 3) that happens exactly when no off-diagonal
    pair is eligible, e.g. |X| = 1: an eligible pair is in the event of each
    colour's lowest candidate, whose q > 1/|X| >= 2 beta makes it a witness,
    and one partner meets the cap, at most 2 beta, times |X|.  Above that, a
    witness's bound |X| can exceed its best pivot's partner count.

    Pivot ties break to the smallest vertex label.  Both decisions, q
    against the bound and the best pivot's partners against bound |X|, are
    taken against ``_meets``' exact cap first (met at or above it, missed at
    zero), and the interval bound is evaluated only in between; the result
    records no bound, so a step whose decisions the cap settles evaluates
    none.  beta is resolved once (``_beta``), after the embedding is
    built, for the scan and every pivot decision.
    """
    emb = build_embedding(c, xset, ysets, alphas)
    r, n = emb.r, emb.npoints
    beta = _beta(beta, r)
    tables = _PairTables(emb)
    chosen = None
    for lam, colour, d, counts, size in tables.witnesses(beta):
        best = max(counts)
        met = _meets(best, n, beta, lam, r)
        if chosen is None or met:
            chosen = lam, colour, d, counts.index(best), size, met
        if met:
            break
    if chosen is None:
        raise LemmaViolation("no lambda witness found; this should be impossible")
    lam, colour, d, pivot_idx, size, met = chosen
    return KeyStepResult(
        pivot=emb.points[pivot_idx],
        colour=colour,
        x_prime=tables.x_prime_mask(colour, d, pivot_idx),
        y_primes=tuple(t[pivot_idx] for t in emb.trimmed),
        lam=lam,
        q=Fraction(size, n * n),
        met_size_bound=met,
    )


# ---------------------------------------------------------------------------
# independent re-verification oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyStepCheck:
    pivot_ok: bool
    y_sizes_ok: bool
    size_bound_ok: bool
    boost_ok: bool
    all_colours_ok: bool
    slack_ok: bool

    @property
    def all_ok(self) -> bool:
        return all(getattr(self, f.name) for f in fields(self))


def verify_key_step(c, xset, ysets, alphas, res: KeyStepResult, beta=None) -> KeyStepCheck:
    """Recompute every key-step postcondition from the colouring alone.

    The pivot must lie in X and X' in X minus the pivot; each Y'_i must be
    the pivot's trimmed neighbourhood, of size exactly p_i |Y_i|.  Densities,
    trimmed sets and codegrees are all rebuilt from scratch; the exponential
    size bound compares the exact |X'| with ``_meets``' exact cap times |X|
    first and with an upper-rounded right side only where it cannot decide.

    It takes ``build_embedding``'s inputs under the same rules: the
    per-colour rule for the Y sets and alphas, and ``min_density``'s vertex
    rule for X and each Y_i.
    """
    r = c.r
    ysets, alphas = _per_colour(r, ysets, alphas)
    beta = _beta(beta, r)
    xsize = xset.bit_count()

    in_x = res.pivot >= 0 and (xset >> res.pivot) & 1 == 1
    pivot_ok = in_x and res.x_prime & ~(xset ^ (1 << res.pivot)) == 0
    densities = [min_density(c, xset, ysets[i], i) for i in range(r)]
    m = [int(densities[i] * ysets[i].bit_count()) for i in range(r)]
    y_count_ok = len(res.y_primes) == r
    y_sizes_ok = in_x and y_count_ok and all(
        res.y_primes[i].bit_count() == m[i]
        and res.y_primes[i] == _lowest_bits(c.neighbourhood(res.pivot, i) & ysets[i], m[i])
        for i in range(r)
    )

    # a threshold below -1 has no size bound, so it fails the check
    size_bound_ok = res.lam >= -1 and _meets(res.x_prime.bit_count(), xsize, beta, res.lam, r)
    slack_ok = Fraction(res.x_prime.bit_count()) >= res.q * xsize - 1

    # the densities after the step need one non-empty Y'_i per colour, and X', Y'_i in range
    defined = y_count_ok and all(res.y_primes) and not any(s >> c.n for s in (res.x_prime, *res.y_primes))
    boost_ok = all_colours_ok = defined
    if res.x_prime and defined:
        after = [min_density(c, res.x_prime, res.y_primes[i], i) for i in range(r)]
        w = res.colour
        boost_ok = 0 <= w < r and after[w] >= densities[w] + res.lam * alphas[w]
        all_colours_ok = all(after[i] >= densities[i] - alphas[i] for i in range(r))
    return KeyStepCheck(pivot_ok, y_sizes_ok, size_bound_ok, boost_ok, all_colours_ok, slack_ok)


def verify_witness(c, xset, ysets, alphas, rep: WitnessReport, beta=None) -> None:
    """Exhaustively recount the witness event from a fresh embedding.

    The event holds for an ordered pair (a, b) of X, diagonal included, when
    <s_i(a), s_i(b)> >= v_i in every colour, with v_i = lam for the witness
    colour and v_i = -1 for the others.  Since <s_i(a), s_i(b)> =
    (codeg_i(a, b) - p_i^2 |Y_i|) / (alpha_i p_i |Y_i|) and the denominator is
    positive, that holds exactly when the integer codeg_i(a, b) is at least
    d_i = ceil(v_i alpha_i p_i |Y_i| + p_i^2 |Y_i|).  So the count needs one
    exact rational per colour and integer comparisons per pair.  The d_i are
    derived here from the embedding, not taken from the witness search, so
    the recount stays independent of the search it checks.  Codegrees are
    symmetric, so each unordered pair a < b is tested once and counted
    twice, and each diagonal pair (a, a) is tested, not assumed, and counted
    once: every one of the n^2 ordered pairs is decided.

    Raises LemmaViolation if the recount disagrees with the report or the
    witness inequality fails: it is decided at the exact cap first and
    against a freshly rounded bound only below it (``_meets``).  A reported
    lam below -1 has no bound and is InvalidInput.
    """
    emb = build_embedding(c, xset, ysets, alphas)
    r = emb.r
    if not 0 <= rep.colour < r:
        raise LemmaViolation(f"witness colour {rep.colour} out of range [0, {r})")
    beta = _beta(beta, r)
    n = emb.npoints
    need = []
    for i in range(r):
        v = Fraction(rep.lam) if i == rep.colour else -1
        p, alpha, y = emb.densities[i], emb.alphas[i], emb.y_sizes[i]
        need.append((math.ceil(v * alpha * p * y + p * p * y), emb.trimmed[i]))
    need.insert(0, need.pop(rep.colour))  # the witness colour rejects the most pairs
    cnt = 0
    for a in range(n):
        row = range(a, n)  # (a, a) and the unordered pairs a < b
        for d, t in need:
            ta = t[a]
            row = [b for b in row if (ta & t[b]).bit_count() >= d]
        cnt += 2 * len(row) - (row[:1] == [a])
    if cnt != rep.pair_count or rep.total_pairs != n * n:
        raise LemmaViolation(
            f"witness recount mismatch: recounted {cnt}/{n * n}, reported {rep.pair_count}/{rep.total_pairs}"
        )
    q = Fraction(cnt, n * n)
    if q != rep.q:
        raise LemmaViolation("witness probability mismatch on recount")
    if rep.lam < -1:
        raise InvalidInput("threshold below -1")
    if not _meets(cnt, n * n, beta, rep.lam, r):
        bound = float(witness_bound_upper(rep.lam, r, beta))
        raise LemmaViolation(f"witness inequality fails on recount: q={float(q)} < bound={bound}")
