"""Per-step invariant monitors over engine traces.

Each lemma monitor states only two things: the hypotheses it needs, each
with the reason it gives when that one fails, and, per check, the sides
(lhs, relation, rhs) of its inequalities as the lemma writes them, relation
">=" or "<=", re-derived from the trace's exact rationals.  One runner,
``_report``, makes every lemma's report.  A lemma whose hypotheses fail is
reported as skipped, with the first failing reason, instead of guessed.
Otherwise each check counts once and each inequality is decided: exactly
when both sides are rational (int or Fraction), else by
``bounds.certify_interval_ge`` on directed interval enclosures, a rational
side enclosed first.  Every failing inequality is reported, never only the
first: a rational side as its exact value, an enclosure as the float of its
endpoint facing the other side (the lower endpoint of the side that should
be larger, the upper endpoint of the side that should be smaller).  The
structural validator keeps its own {"s", "problem"} violations.

Exact first: Lemma 4.5's right side, eps^(rt + b) e^(-C sum sqrt(lam + 1))
|X(0)| - rt, is at most the rational cap (beta/r) |X(0)| - rt whenever
beta <= r (each decay factor is at most 1, so eps <= beta/r <= 1), so a
state with |X(s)| at or above the cap is decided exactly against it; the
interval right side is built only for a state below the cap, or for every
state when beta > r (``check_lemma_45_46``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .book_engine import KIND_BOOST, KIND_COLOUR, Trace
from .geometry import decay_enclosure
from .bounds import (
    Report,
    certify_interval_ge,
    interval_endpoints,
    iv_from_fraction,
    iv_from_int,
    load_mpmath,
)


# the exact side types, each with its enclosure; any other side is an iv enclosure already
_EXACT = {int: iv_from_int, Fraction: iv_from_fraction}


@dataclass
class MonitorReport(Report):
    lemma: str
    ok: bool
    skipped: bool = False
    reason: str | None = None
    checked: int = 0
    violations: list = field(default_factory=list)


def _states(trace: Trace):
    """Yield (s, x_size, y_sizes, t_sizes, densities, boost) for s = 0..len(records),
    where boost is the boost record that led to state s, if any."""
    h = trace.header
    yield 0, h.initial_x_size, h.initial_y_sizes, (0,) * h.r, h.initial_densities, None
    for rec in trace.records:
        boost = rec if rec.kind == KIND_BOOST else None
        yield rec.s + 1, rec.x_size, rec.y_sizes, rec.t_sizes, rec.densities, boost


def _boosts(trace: Trace) -> list:
    return [rec for rec in trace.records if rec.kind == KIND_BOOST]


def _report(lemma: str, hypotheses, checks) -> MonitorReport:
    """Run one lemma's checks into its report.

    ``hypotheses`` holds (holds, reason) pairs; the first that fails skips
    the lemma with its reason, and ``checks`` is not consumed.  Otherwise
    each item (s, colour, sides) of ``checks`` counts as one check, and each
    inequality (lhs, relation, rhs) of its sides, relation ">=" or "<=", that
    is not certified is one violation.
    """
    reason = next((why for holds, why in hypotheses if not holds), None)
    rep = MonitorReport(lemma, True, skipped=reason is not None, reason=reason)
    for s, colour, sides in () if rep.skipped else checks:
        rep.checked += 1
        for lhs, relation, rhs in sides:
            small, big = (lhs, rhs) if relation == "<=" else (rhs, lhs)
            if not _certified_ge(big, small):
                shown = _shown(small, 1), _shown(big, 0)  # each enclosure's endpoint facing the other side
                lhs_text, rhs_text = shown if relation == "<=" else shown[::-1]
                rep.ok = False
                rep.violations.append({"s": s, "colour": colour, "lhs": lhs_text, "rhs": rhs_text})
    return rep


def _certified_ge(big, small) -> bool:
    """big >= small: exactly between rationals, else by directed enclosures."""
    if type(big) in _EXACT and type(small) in _EXACT:
        return big >= small
    return certify_interval_ge(_enclosure(big), _enclosure(small))


def _enclosure(side):
    enclose = _EXACT.get(type(side))
    return side if enclose is None else enclose(side)


def _shown(side, endpoint: int) -> str:
    """A rational side exactly; an enclosure as the float of its lower (0) or upper (1)
    endpoint, or, when that endpoint is beyond float range, as 17-digit decimal text of it."""
    if type(side) in _EXACT:
        return str(side)
    try:
        return str(float(interval_endpoints(side)[endpoint]))
    except OverflowError:
        return load_mpmath().libmp.to_str(side._mpi_[endpoint], 17)


def check_lemma_41(trace: Trace) -> MonitorReport:
    """p_i(s) - p_0 + delta >= delta (1 - 1/t)^t prod_{boosts j in colour i} (1 + lam(j)/t)."""
    h = trace.header

    def checks():
        rhs = [h.delta * (1 - Fraction(1, h.t)) ** h.t] * h.r
        for s, _x, _ys, _ts, dens, boost in _states(trace):
            if boost is not None:
                rhs[boost.witness_colour] *= 1 + boost.lam / h.t
            if dens is not None:
                yield from ((s, i, [(dens[i] - h.p0 + h.delta, ">=", rhs[i])]) for i in range(h.r))

    return _report("4.1", (), checks())


def check_lemma_42(trace: Trace) -> MonitorReport:
    """p_i(s) >= p_0 - 3 delta/4 and alpha_i(s) >= delta/4t; needs t >= 2.
    Both inequalities of one state and colour make one check."""
    h = trace.header
    p_floor = h.p0 - Fraction(3, 4) * h.delta
    a_floor = h.delta / (4 * h.t)
    checks = (
        (s, i, [(dens[i], ">=", p_floor), ((dens[i] - h.p0 + h.delta) / h.t, ">=", a_floor)])
        for s, _x, _ys, _ts, dens, _boost in _states(trace) if dens is not None
        for i in range(h.r)
    )
    return _report("4.2", [(h.t >= 2, "requires t >= 2")], checks)


def check_lemma_43(trace: Trace) -> MonitorReport:
    """|B_i(s)| <= (4 log(1/delta)/lambda_0) t; needs t >= lambda_0 > 0, delta <= 1/4."""
    h = trace.header

    def checks():
        bound = 4 * (-load_mpmath().iv.log(iv_from_fraction(h.delta))) * h.t / iv_from_fraction(h.lambda0)
        colours = [rec.witness_colour for rec in _boosts(trace)]
        for i in range(h.r):
            yield len(trace.records), i, [(colours.count(i), "<=", bound)]

    hypotheses = [(0 < h.lambda0 <= h.t and h.delta <= Fraction(1, 4), "requires t >= lambda0 > 0 and delta <= 1/4")]
    return _report("4.3", hypotheses, checks())


def check_lemma_44(trace: Trace) -> MonitorReport:
    """|Y_i(s)| >= (p_0 - 3 delta/4)^(t + |B_i(s)|) |Y_i(0)|; needs t >= 2, p_0 > 3 delta/4.

    The right side starts at (p_0 - 3 delta/4)^t |Y_i(0)| and is multiplied
    by the base at each boost in colour i.
    """
    h = trace.header
    base = h.p0 - Fraction(3, 4) * h.delta

    def checks():
        power = base ** h.t
        rhs = [power * y for y in h.initial_y_sizes]
        for s, _x, ys, _ts, _dens, boost in _states(trace):
            if boost is not None:
                rhs[boost.witness_colour] *= base
            yield from ((s, i, [(ys[i], ">=", rhs[i])]) for i in range(h.r))

    return _report("4.4", [(h.t >= 2 and base > 0, "requires t >= 2 and p0 > 3 delta/4")], checks())


def check_lemma_45_46(trace: Trace) -> list[MonitorReport]:
    """The reservoir-size lower bound (4.5, unconditional) and the boost
    lambda-sum bound (4.6, needs t >= lambda0/delta > 0, delta <= 1/4 and
    lambda > lambda0 at every boost).

    Lemma 4.5's right side is eps^(rt + b) e^(-C sum sqrt(lam + 1)) |X(0)| - rt
    over the b boosts so far, with eps = (beta/r) e^(-C sqrt(lambda0 + 1)) and
    beta read from the header.  While 0 < beta <= r, lambda0 >= -1 and every
    boost so far has lambda >= -1 (all but beta <= r are enforced by the
    trace reader), the exact rational cap (beta/r) |X(0)| - rt bounds it from
    above: both decay factors are at most 1, so 0 < eps <= beta/r <= 1, and
    rt + b >= 1 gives eps^(rt + b) <= beta/r.  A state with |X(s)| at least
    the cap is checked against the cap, exactly.  Only a state below the cap,
    or any state when beta > r, is checked against the interval right side;
    it is built when first needed and again after each later boost, its
    decay factors from ``geometry.decay_enclosure`` and the root sum taken
    over the boosts so far in trace order, so that it is the same enclosure
    wherever it is built.
    """
    h = trace.header
    rt = h.r * h.t

    def checks_45():
        capped = 0 < h.beta <= h.r and h.lambda0 >= -1 and h.initial_x_size >= 0
        cap = h.beta / h.r * h.initial_x_size - rt
        eps = rhs = None
        lams = []  # lambda of the boosts so far
        for s, x_size, _ys, _ts, _dens, boost in _states(trace):
            if boost is not None:
                lams.append(boost.lam)
                capped = capped and boost.lam >= -1
                rhs = None  # the right side moves only at a boost
            if capped and x_size >= cap:
                yield s, None, [(x_size, ">=", cap)]
                continue
            if rhs is None:
                iv = load_mpmath().iv
                if eps is None:
                    eps = decay_enclosure(h.beta / h.r, h.r, iv.sqrt(iv_from_fraction(h.lambda0 + 1)))
                root_sum = sum((iv.sqrt(iv_from_fraction(lam + 1)) for lam in lams), iv.mpf(0))
                rhs = eps ** (rt + len(lams)) * decay_enclosure(1, h.r, root_sum) * h.initial_x_size - rt
            yield s, None, [(x_size, ">=", rhs)]

    def checks_46():
        iv = load_mpmath().iv
        bound = 7 * h.r * (-iv.log(iv_from_fraction(h.delta))) * h.t / iv.sqrt(iv_from_fraction(h.lambda0))
        total = sum((iv.sqrt(iv_from_fraction(rec.lam)) for rec in _boosts(trace)), iv.mpf(0))
        yield len(trace.records), None, [(total, "<=", bound)]

    hypotheses_46 = [
        (h.lambda0 > 0 and h.delta <= Fraction(1, 4) and h.t >= h.lambda0 / h.delta,
         "requires t >= lambda0/delta > 0 and delta <= 1/4"),
        (all(rec.lam > h.lambda0 for rec in _boosts(trace)), "requires lambda > lambda0 at every boost step"),
    ]
    return [_report("4.5", (), checks_45()), _report("4.6", hypotheses_46, checks_46())]


def validate_trace_structure(trace: Trace) -> MonitorReport:
    """Structural soundness of a trace, independent of the colouring.

    Checks the colour/boost dichotomy against lambda_0, that a colour step
    names a chosen colour and a boost step none, that exactly one Y set
    changes per round and shrinks to exactly p_j(s)|Y_j(s)|, that X strictly
    shrinks, and that exactly the stepped spine grows by one on colour steps.
    """
    h = trace.header
    rep = MonitorReport("structure", True)
    states = list(_states(trace))

    def bad(msg):
        rep.ok = False
        rep.violations.append({"s": rec.s, "problem": msg})

    for rec, (_, x_size, y_sizes, t_sizes, dens, _), (_, x2, y2, t2, _, _) in zip(trace.records, states, states[1:]):
        rep.checked += 1

        if rec.kind == KIND_COLOUR and rec.lam > h.lambda0:
            bad("colour step with lambda > lambda0")
        if rec.kind == KIND_BOOST and rec.lam <= h.lambda0:
            bad("boost step with lambda <= lambda0")
        if x2 >= x_size:
            bad("X did not strictly shrink")
        if rec.kind == KIND_BOOST and rec.chosen_colour is not None:
            bad("boost step with a chosen colour")
        target = rec.chosen_colour if rec.kind == KIND_COLOUR else rec.witness_colour
        if target is None:
            bad("colour step without a chosen colour")
            continue  # the remaining checks need the stepped colour
        changed = [i for i in range(h.r) if y2[i] != y_sizes[i]]
        if changed and changed != [target]:
            bad(f"Y sets {changed} changed; only {target} may change")
        if dens is not None and y2[target] != dens[target] * y_sizes[target]:
            bad("|Y'| != p_j(s) |Y_j(s)|")
        grew = [i for i in range(h.r) if t2[i] != t_sizes[i]]
        if rec.kind == KIND_COLOUR:
            if grew != [rec.chosen_colour] or t2[rec.chosen_colour] != t_sizes[rec.chosen_colour] + 1:
                bad("spine growth mismatch on colour step")
        elif grew:
            bad("spine grew on a boost step")
        if dens is not None and rec.densities is not None:
            for i in range(h.r):
                if i != target and rec.densities[i] < dens[i]:
                    bad(f"p_{i} decreased although Y_{i} was untouched")
    return rep


def run_all_monitors(trace: Trace) -> list[MonitorReport]:
    return [
        validate_trace_structure(trace),
        check_lemma_41(trace),
        check_lemma_42(trace),
        check_lemma_43(trace),
        check_lemma_44(trace),
        *check_lemma_45_46(trace),
    ]
