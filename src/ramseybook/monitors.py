"""Per-step invariant monitors over engine traces.

Every monitor re-derives its inequality from the recorded exact rationals
(or, where a side is irrational, from a directed interval enclosure rounded
against the inequality), checks it at every state of the trace, and reports
every failure.  Monitors whose stated hypotheses fail report themselves as
skipped instead of guessing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction

from mpmath import iv

from .book_engine import KIND_BOOST, KIND_COLOUR, Trace
from .geometry import decay_enclosure
from .bounds import (
    certify_interval_ge,
    interval_endpoints,
    iv_from_fraction,
    iv_from_int,
)


@dataclass
class MonitorReport:
    lemma: str
    ok: bool
    skipped: bool = False
    reason: str | None = None
    checked: int = 0
    violations: list = field(default_factory=list)

    def to_json(self) -> dict:
        return asdict(self)


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


def _violation(s: int, colour, lhs, rhs, report: MonitorReport):
    report.ok = False
    report.violations.append({"s": s, "colour": colour, "lhs": str(lhs), "rhs": str(rhs)})


def check_lemma_41(trace: Trace) -> MonitorReport:
    """p_i(s) - p_0 + delta >= delta (1 - 1/t)^t prod_{boosts j in colour i} (1 + lam(j)/t)."""
    h = trace.header
    rep = MonitorReport("4.1", True)
    rhs = [h.delta * (1 - Fraction(1, h.t)) ** h.t] * h.r
    for s, _x, _ys, _ts, dens, boost in _states(trace):
        if boost is not None:
            rhs[boost.witness_colour] *= 1 + boost.lam / h.t
        if dens is None:
            continue
        for i in range(h.r):
            lhs = dens[i] - h.p0 + h.delta
            rep.checked += 1
            if lhs < rhs[i]:
                _violation(s, i, lhs, rhs[i], rep)
    return rep


def check_lemma_42(trace: Trace) -> MonitorReport:
    """p_i(s) >= p_0 - 3 delta/4 and alpha_i(s) >= delta/4t; needs t >= 2."""
    h = trace.header
    rep = MonitorReport("4.2", True)
    if h.t < 2:
        rep.skipped = True
        rep.reason = "requires t >= 2"
        return rep
    p_floor = h.p0 - Fraction(3, 4) * h.delta
    a_floor = h.delta / (4 * h.t)
    for s, _x, _ys, _ts, dens, _boost in _states(trace):
        if dens is None:
            continue
        for i in range(h.r):
            rep.checked += 1
            if dens[i] < p_floor:
                _violation(s, i, dens[i], p_floor, rep)
            alpha = (dens[i] - h.p0 + h.delta) / h.t
            if alpha < a_floor:
                _violation(s, i, alpha, a_floor, rep)
    return rep


def check_lemma_43(trace: Trace) -> MonitorReport:
    """|B_i(s)| <= (4 log(1/delta)/lambda_0) t; needs t >= lambda_0 > 0, delta <= 1/4."""
    h = trace.header
    rep = MonitorReport("4.3", True)
    if h.lambda0 <= 0 or h.t < h.lambda0 or h.delta > Fraction(1, 4):
        rep.skipped = True
        rep.reason = "requires t >= lambda0 > 0 and delta <= 1/4"
        return rep
    bound = 4 * (-iv.log(iv_from_fraction(h.delta))) * h.t / iv_from_fraction(h.lambda0)
    colours = [rec.witness_colour for rec in _boosts(trace)]
    for i in range(h.r):
        count = colours.count(i)
        rep.checked += 1
        if not certify_interval_ge(bound, iv_from_int(count)):
            lo, _hi = interval_endpoints(bound)
            _violation(len(trace.records), i, count, float(lo), rep)
    return rep


def check_lemma_44(trace: Trace) -> MonitorReport:
    """|Y_i(s)| >= (p_0 - 3 delta/4)^(t + |B_i(s)|) |Y_i(0)|; needs t >= 2, p_0 > 3 delta/4."""
    h = trace.header
    rep = MonitorReport("4.4", True)
    base = h.p0 - Fraction(3, 4) * h.delta
    if h.t < 2 or base <= 0:
        rep.skipped = True
        rep.reason = "requires t >= 2 and p0 > 3 delta/4"
        return rep
    boosts = [0] * h.r
    for s, _x, ys, _ts, _dens, boost in _states(trace):
        if boost is not None:
            boosts[boost.witness_colour] += 1
        for i in range(h.r):
            rhs = base ** (h.t + boosts[i]) * h.initial_y_sizes[i]
            rep.checked += 1
            if ys[i] < rhs:
                _violation(s, i, ys[i], rhs, rep)
    return rep


def check_lemma_45_46(trace: Trace) -> list[MonitorReport]:
    """The reservoir-size lower bound (4.5, unconditional) and the boost
    lambda-sum bound (4.6, needs t >= lambda0/delta > 0, delta <= 1/4 and
    lambda > lambda0 at every boost).

    Lemma 4.5's right side is eps^(rt + b) e^(-C sum sqrt(lam + 1)) |X(0)| - rt
    over the b boosts so far, with eps = (beta/r) e^(-C sqrt(lambda0 + 1)) and
    beta read from the header; both decay factors come from
    ``geometry.decay_enclosure``.
    """
    h = trace.header
    rep45 = MonitorReport("4.5", True)
    eps = iv.make_mpf(decay_enclosure(h.beta / h.r, h.r, iv.sqrt(iv_from_fraction(h.lambda0 + 1))._mpi_))
    rt = h.r * h.t
    boosts = 0
    root_sum = iv.mpf(0)
    rhs = None
    for s, x_size, _ys, _ts, _dens, boost in _states(trace):
        if boost is not None:
            boosts += 1
            root_sum += iv.sqrt(iv_from_fraction(boost.lam + 1))
        if rhs is None or boost is not None:  # the right side moves only at a boost
            decay = iv.make_mpf(decay_enclosure(1, h.r, root_sum._mpi_))
            rhs = eps ** (rt + boosts) * decay * h.initial_x_size - rt
        rep45.checked += 1
        if not certify_interval_ge(iv_from_int(x_size), rhs):
            _lo, hi = interval_endpoints(rhs)
            _violation(s, None, x_size, float(hi), rep45)
    rep46 = MonitorReport("4.6", True)
    if h.lambda0 <= 0 or h.delta > Fraction(1, 4) or h.t < h.lambda0 / h.delta:
        rep46.skipped = True
        rep46.reason = "requires t >= lambda0/delta > 0 and delta <= 1/4"
    elif any(rec.lam <= h.lambda0 for rec in _boosts(trace)):
        rep46.skipped = True
        rep46.reason = "requires lambda > lambda0 at every boost step"
    else:
        bound = 7 * h.r * (-iv.log(iv_from_fraction(h.delta))) * h.t / iv.sqrt(iv_from_fraction(h.lambda0))
        total = sum((iv.sqrt(iv_from_fraction(rec.lam)) for rec in _boosts(trace)), iv.mpf(0))
        rep46.checked += 1
        if not certify_interval_ge(bound, total):
            lo, _hi = interval_endpoints(bound)
            _lo2, hi2 = interval_endpoints(total)
            _violation(len(trace.records), None, float(hi2), float(lo), rep46)
    return [rep45, rep46]


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
