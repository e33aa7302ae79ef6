"""Assembly layer: degree regularisation, the off-diagonal escape bound, and a
desk-scale end-to-end driver that regularises, builds a book, and then looks
for a clique inside the pages with the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import iv

from .book_engine import EngineParams, run
from .bounds import Report, certify_interval_ge, exact_rational, iv_from_fraction, iv_ln, iv_log10
from .colouring import EdgeColouring, iter_vertices, mask_of, vertex_list
from .errors import (
    DegenerateDensity,
    InvalidInput,
    LemmaViolation,
    ScaleError,
)
from .oracle import SearchBudget, max_mono_clique

DESK_CLIQUE_CAP = 6
PAGE_CLIQUE_BUDGET = SearchBudget(n_cap=512)


# ---------------------------------------------------------------------------
# regularisation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegularisationResult:
    s_sets: tuple[int, ...]   # one bitmask per colour, pairwise disjoint
    w: int                    # bitmask, disjoint from every s_set
    eps: Fraction

    @property
    def s_sizes(self) -> tuple[int, ...]:
        return tuple(s.bit_count() for s in self.s_sets)

    @property
    def total_spine(self) -> int:
        return sum(self.s_sizes)


def regularise(c: EdgeColouring, eps) -> RegularisationResult:
    """Peel low-degree vertices until every colour has near-1/r min-degree.

    While some vertex x has a colour ell with |N_ell(x) & W| < (1/r - eps)|W| - 1,
    move x into the spine of its largest other colour j and recurse into
    N_j(x).  The violating vertex is the smallest label, the violating colour
    the smallest such colour, and j maximises the degree (ties to smallest j).
    Nothing is peeled once |W| <= r, nor at all when r = 1.  Output always
    satisfies the three regularity invariants, which are re-verified before
    returning.
    """
    eps = exact_rational(eps)
    if not 0 < eps < 1:
        raise InvalidInput("eps must lie in (0, 1)")
    r = c.r
    cur = c.vertices
    s_sets = [0] * r
    while r > 1 and (ncur := cur.bit_count()) > r:
        threshold = (Fraction(1, r) - eps) * ncur - 1
        low = ((x, ell) for x in iter_vertices(cur) for ell in range(r)
               if (c._neigh[ell][x] & cur).bit_count() < threshold)
        x, ell = next(low, (None, None))
        if x is None:
            break
        degs = [(c._neigh[j][x] & cur).bit_count() if j != ell else -1 for j in range(r)]
        j = degs.index(max(degs))
        if degs[j] < Fraction(1 + eps, r) * ncur:
            raise LemmaViolation("regularisation pigeonhole failed")
        s_sets[j] |= 1 << x
        cur &= c._neigh[j][x]
    result = RegularisationResult(tuple(s_sets), cur, eps)
    verify_regularisation(c, result)
    return result


def verify_regularisation(c: EdgeColouring, res: RegularisationResult) -> None:
    """Re-check the three output invariants directly against the colouring."""
    r = c.r
    w = res.w
    wsize = w.bit_count()
    if wsize == 0:
        raise LemmaViolation("regularisation produced an empty W")
    total = res.total_spine
    bound = (Fraction(1 + res.eps, r)) ** total * c.n
    if wsize < bound:
        raise LemmaViolation(f"|W| = {wsize} below the peel bound {float(bound)}")
    floor = (Fraction(1, r) - res.eps) * wsize - 1
    for v in iter_vertices(w):
        for i in range(r):
            if (c._neigh[i][v] & w).bit_count() < floor:
                raise LemmaViolation(f"vertex {v} violates the colour-{i} min-degree in W")
    for i in range(r):
        if res.s_sets[i] & w:
            raise LemmaViolation("spine overlaps W")
        if not c.is_mono_book(res.s_sets[i], w, i):
            raise LemmaViolation(f"(S_{i}, W) is not a colour-{i} book")


# ---------------------------------------------------------------------------
# the escape bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma53Report(Report):
    passes: bool = field(metadata={"key": "pass"})
    reduced_passes: bool = field(metadata={"key": "reduced_pass"})
    lhs_log10: float
    rhs_log10: float


def lemma53_check(r: int, k: int, eps, ss) -> Lemma53Report:
    """Certify r^(rk-s) <= e^(-eps^3 k/2) ((1+eps)/r)^s r^(rk) for s = sum ss.

    Requires k, r >= 2, eps in (0,1), integers 0 <= s_i <= k and
    s >= eps^2 k.  The chain reduces to (1+eps)^s >= e^(eps^3 k / 2), which
    is also certified and reported separately.
    """
    eps = exact_rational(eps)
    ss = list(ss)
    if r < 2 or k < 2:
        raise InvalidInput("need k, r >= 2")
    if not 0 < eps < 1:
        raise InvalidInput("eps must lie in (0, 1)")
    if len(ss) != r or any(type(x) is not int or not 0 <= x <= k for x in ss):
        raise InvalidInput(f"each s_i must be an int in [0, k], got {ss!r}")
    s = sum(ss)
    if s < eps * eps * k:
        raise InvalidInput(f"sum s_i = {s} below eps^2 k = {eps * eps * k}")

    # natural logs of both sides
    lhs = iv_ln(r) * iv_from_fraction(Fraction(r * k - s))
    rhs = (
        iv_from_fraction(-(eps**3) * k / 2)
        + iv_ln((1 + eps) / r) * iv_from_fraction(Fraction(s))
        + iv_ln(r) * iv_from_fraction(Fraction(r * k))
    )
    passes = certify_interval_ge(rhs, lhs)
    reduced = certify_interval_ge(
        s * iv.log(iv_from_fraction(1 + eps)), iv_from_fraction((eps**3) * k / 2)
    )
    return Lemma53Report(passes, reduced, iv_log10(lhs), iv_log10(rhs))


# ---------------------------------------------------------------------------
# desk-scale driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriverConfig:
    eps: Fraction = Fraction(1, 20)
    t: int = 1
    escape_sum: int | None = None       # default: escape once sum |S_i| >= k


@dataclass(frozen=True)
class CliqueFound:
    colour: int
    vertices: int            # bitmask, exactly k vertices
    report: dict


@dataclass(frozen=True)
class BookPhaseReport:
    report: dict

    @property
    def branch(self) -> str:
        return self.report["branch"]


def desk_ramsey_driver(c: EdgeColouring, k: int, config: DriverConfig | None = None):
    """Regularise, run the book engine on the regular core, then hunt a
    K_{k-t} inside the returned pages.  The engine runs at lambda0 = 10,
    delta = 1/16 on X = Y_i = W, the core that regularisation leaves.
    Returns CliqueFound with a verified monochromatic K_k, or a
    BookPhaseReport describing where the pipeline stopped.
    """
    config = config or DriverConfig()
    if k < 1:
        raise InvalidInput("k must be >= 1")
    if k > DESK_CLIQUE_CAP:
        raise ScaleError(f"k = {k} exceeds the desk-scale oracle cap {DESK_CLIQUE_CAP}")
    report: dict = {"k": k, "n": c.n, "r": c.r}

    if k == 1:
        report["branch"] = "trivial"
        return CliqueFound(0, 1, report)
    if k == 2:
        report["branch"] = "trivial"
        if c.n >= 2:
            return CliqueFound(c.colour(0, 1), 0b11, report)
        return BookPhaseReport(report)

    if not 1 <= config.t < k:
        raise InvalidInput("config.t must satisfy 1 <= t < k")

    reg = regularise(c, config.eps)
    report["regularisation"] = {"s_sizes": list(reg.s_sizes), "w_size": reg.w.bit_count()}

    for i in range(c.r):
        if reg.s_sizes[i] >= k:
            spine = mask_of(vertex_list(reg.s_sets[i])[:k])
            if not c.is_mono_clique(spine, i):
                raise LemmaViolation("regularisation spine is not a clique")
            report["branch"] = "spine_clique"
            return CliqueFound(i, spine, report)

    escape_at = config.escape_sum if config.escape_sum is not None else k
    if reg.total_spine >= escape_at:
        report["branch"] = "escape"
        if reg.total_spine >= reg.eps * reg.eps * k:
            report["escape_bound"] = lemma53_check(c.r, k, reg.eps, reg.s_sizes).to_json()
        return BookPhaseReport(report)

    params = EngineParams(t=config.t, lambda0=Fraction(10), delta=Fraction(1, 16))
    report["branch"] = "book"
    try:
        outcome = run(c, reg.w, [reg.w] * c.r, params)
    except (InvalidInput, DegenerateDensity) as e:
        report["branch"] = "degenerate"
        report["detail"] = str(e)
        return BookPhaseReport(report)

    report["book_phase"] = {
        "outcome": outcome.result,
        "steps": len(outcome.trace.records),
    }
    if not outcome.found:
        return BookPhaseReport(report)

    # run checked the book (it raises LemmaViolation rather than return an invalid one)
    spine, pages, colour = outcome.spine, outcome.pages, outcome.book_colour
    report["book_phase"].update(
        {
            "colour": colour,
            "spine": vertex_list(spine),
            "pages_size": pages.bit_count(),
            "book_valid": True,
        }
    )
    need = k - config.t
    size, witness = max_mono_clique(c, colour, PAGE_CLIQUE_BUDGET, within=pages)
    report["book_phase"]["page_clique"] = size
    if size >= need:
        clique = spine | mask_of(vertex_list(witness)[:need])
        if not c.is_mono_clique(clique, colour):
            raise LemmaViolation("assembled clique failed verification")
        report["branch"] = "book_clique"
        return CliqueFound(colour, clique, report)
    return BookPhaseReport(report)
