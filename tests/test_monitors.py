"""The monitors' reports over a fixed corpus, pinned byte for byte.

The corpus is seeded engine traces and edits of them, chosen so that every
lemma has violations and Lemmas 4.2, 4.3, 4.4 and 4.6 are skipped somewhere.
A change to how a monitor decides, counts or reports changes the digest; a
change meant to do that updates ``REPORTS_SHA256`` with it.
"""

import hashlib
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

from ramseybook.bounds import precision, set_precision
from ramseybook.book_engine import EngineParams, StepRecord, Trace, run
from ramseybook.colouring import random_colouring
from ramseybook.monitors import check_lemma_44, run_all_monitors

# SHA-256 of the sorted-key JSON list of every trace's run_all_monitors reports, at 128 bits
REPORTS_SHA256 = "f1f6a4196a71f57bc233f052493fcad6ef4eca6f1aeefdf273448b1e12327d81"


def engine_trace(n, r, seed, t, lam0, delta):
    c = random_colouring(n, r, seed)
    return run(c, c.vertices, [c.vertices] * r, EngineParams(t=t, lambda0=lam0, delta=delta)).trace


def corpus() -> list:
    bases = [
        engine_trace(40, 2, 5, 2, F(10), F(1, 8)),
        engine_trace(30, 2, 8, 4, F(1), F(1, 4)),
        engine_trace(30, 3, 3, 1, F(5), F(1, 16)),
        engine_trace(40, 2, 1, 3, F(-1), F(1, 16)),
    ]
    header_edits = [
        {},
        {"beta": F(10**8)},
        {"p0": F(1, 2)},
        {"p0": F(1, 100)},
        {"t": 1, "delta": F(1, 4), "lambda0": F(1, 8)},
        {"t": 40, "delta": F(1, 4), "lambda0": F(1, 100)},
    ]
    traces = []
    for base in bases:
        last = len(base.records) - 1
        record_edits = [
            base.records,
            # the last step empties X and every Y
            tuple(replace(rec, x_size=0, y_sizes=(0,) * base.header.r, densities=None) if rec.s == last else rec
                  for rec in base.records),
            tuple(replace(rec, kind="boost", chosen_colour=None) for rec in base.records),
        ]
        for edit in header_edits:
            for recs in record_edits:
                traces.append(Trace(replace(base.header, **edit), recs))
    # a storm of 100 boosts in one colour breaks Lemma 4.3
    flood_base = bases[1]
    boost = StepRecord(
        s=0, kind="boost", pivot=0, witness_colour=0, chosen_colour=None,
        lam=F(2), x_size=5, y_sizes=(5,) * flood_base.header.r,
        t_sizes=(0,) * flood_base.header.r, densities=None,
    )
    traces.append(Trace(flood_base.header, tuple(replace(boost, s=i) for i in range(100))))
    return traces


def test_reports_over_the_corpus_are_pinned():
    old = precision()
    try:
        set_precision(128)
        reports = [[rep.to_json() for rep in run_all_monitors(trace)] for trace in corpus()]
    finally:
        set_precision(old)
    flat = [rep for reps in reports for rep in reps]
    violated = {rep["lemma"] for rep in flat if rep["violations"]}
    skipped = {rep["lemma"] for rep in flat if rep["skipped"]}
    assert violated == {"structure", "4.1", "4.2", "4.3", "4.4", "4.5", "4.6"}
    assert skipped == {"4.2", "4.3", "4.4", "4.6"}
    text = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == REPORTS_SHA256


def reference_lemma_44(trace) -> tuple[int, list]:
    """Lemma 4.4's check count and violations, with the power
    (p0 - 3 delta/4)^(t + |B_i(s)|) raised afresh at every state and colour."""
    h = trace.header
    base = h.p0 - F(3, 4) * h.delta
    states = [(0, h.initial_y_sizes, None)] + [(rec.s + 1, rec.y_sizes, rec) for rec in trace.records]
    boosts = Counter()
    checked, violations = 0, []
    for s, ys, rec in states:
        if rec is not None and rec.kind == "boost":
            boosts[rec.witness_colour] += 1
        for i in range(h.r):
            rhs = base ** (h.t + boosts[i]) * h.initial_y_sizes[i]
            checked += 1
            if ys[i] < rhs:
                violations.append({"s": s, "colour": i, "lhs": str(ys[i]), "rhs": str(rhs)})
    return checked, violations


def test_lemma44_right_side_is_the_power_at_every_state():
    # the monitor keeps the power and multiplies it by the base at each boost;
    # pages cut to about k/8 of their start make some states fail and some pass
    traces = [trace for trace in corpus()[:-1] if not check_lemma_44(trace).skipped]
    assert traces
    for trace in traces:
        h = trace.header
        for t in (h.t, 300):
            for k in range(8):
                recs = tuple(replace(rec, y_sizes=tuple(y * k // 8 + 1 for y in h.initial_y_sizes))
                             for rec in trace.records)
                edited = Trace(replace(h, t=t), recs)
                rep = check_lemma_44(edited)
                assert (rep.checked, rep.violations) == reference_lemma_44(edited)
