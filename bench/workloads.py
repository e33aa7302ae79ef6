"""Seeded inputs and checked jobs for the four benchmark workloads.

``build(workload, seed)`` returns one pass of jobs.  A job is a zero-argument
callable returning ``(ok, output)``: ``ok`` is the verdict of an independent
check of the program's result, and ``output`` is the job's trace text (engine
jobs) or a canonical text of its result (other jobs), which feeds the
per-workload digest.  A job that raises counts as failed.

The seed chooses the colourings and sampled parameters; the sizes of each
workload are fixed, so runs with different seeds do comparable work.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction as F
from functools import partial

from ramseybook import book_engine, bounds, colouring, geometry, monitors, oracle, pipeline
from ramseybook.errors import DegenerateDensity

# Acceptance grid of (t, lambda0, delta) used by the monitor suite.
ENGINE_GRID = [
    (t, lam0, delta)
    for t in (1, 2, 3, 4)
    for lam0 in (F(5), F(10), F(50))
    for delta in (F(1, 16), F(1, 8))
]


def _positive_colouring(make, rng: random.Random):
    """Draw colourings until every vertex has a neighbour in every colour.

    That is the engine's precondition p_i(0) > 0 on X = Y_i = V; inputs
    without it are not runs, so they are redrawn rather than counted.
    """
    while True:
        c = make(rng.randrange(2**32))
        if all(c.neighbourhood(v, i) for v in range(c.n) for i in range(c.r)):
            return c


def _random(n: int, r: int, rng: random.Random):
    return _positive_colouring(lambda s: colouring.random_colouring(n, r, s), rng)


def _product(n1: int, n2: int, rng: random.Random):
    def make(s):
        sub = random.Random(s)
        return colouring.product_colouring(
            colouring.random_colouring(n1, 2, sub.randrange(2**32)),
            colouring.random_colouring(n2, 2, sub.randrange(2**32)),
        )

    return _positive_colouring(make, rng)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def _engine_job(c, params, reparse: bool):
    """Run the engine on X = Y_i = V, serialise the trace and check it."""
    full = c.vertices
    try:
        outcome = book_engine.run(c, full, [full] * c.r, params)
        trace = outcome.trace
    except DegenerateDensity as e:  # a legitimate outcome; its partial trace is still checked
        outcome, trace = None, e.trace
    text = trace.to_text()
    ok = True
    if reparse:
        parsed = book_engine.parse_trace(text)
        ok = parsed == trace
        trace = parsed
    ok = ok and all(rep.ok for rep in monitors.run_all_monitors(trace))
    if outcome is not None and outcome.found:
        ok = ok and c.is_mono_book(outcome.spine, outcome.pages, outcome.book_colour)
    return ok, text


def book_large_job(text: str, params):
    return _engine_job(colouring.parse_colouring(text), params, reparse=False)


def keystep_job(c, xset, ysets, alphas):
    ks = geometry.key_lemma_step(c, xset, ysets, alphas)
    ok = geometry.verify_key_step(c, xset, ysets, alphas, ks).all_ok
    emb = geometry.build_embedding(c, xset, ysets, alphas)
    rep = geometry.find_lambda_witness(emb)
    geometry.verify_witness(c, xset, ysets, alphas, rep)  # raises LemmaViolation on a bad recount
    return ok, repr((ks, rep))


def driver_job(c, k: int, config):
    res = pipeline.desk_ramsey_driver(c, k, config)
    ok = True
    if isinstance(res, pipeline.CliqueFound):
        ok = res.vertices.bit_count() == k and c.is_mono_clique(res.vertices, res.colour)
    return ok, json.dumps(res.report, sort_keys=True, default=str)


def special_job(xs):
    branch = geometry.check_special_bounds(xs)
    r = len(xs)
    want = (
        geometry.SpecialBranch.UPPER_BOUND_HOLDS
        if all(q >= -3 * r for q in xs)
        else geometry.SpecialBranch.NEGATIVE_CASE_HOLDS
    )
    return branch == want, branch.value


def appendix_job(k: int, t: int, r: int):
    rep = bounds.appendix_check(k, t, r)
    return rep.passes and rep.identity_ok, json.dumps(rep.to_json(), sort_keys=True)


def thm_book_job(p, mu, t, m, r, size_x, size_ys, want):
    rep = bounds.thm_book_hypotheses(p, mu, t, m, r, size_x, size_ys)
    got = [link.passes for link in rep.links]
    return got == want, json.dumps(rep.to_json(), sort_keys=True)


def lemma53_job(r: int, k: int, eps, ss):
    rep = pipeline.lemma53_check(r, k, eps, ss)
    # s >= eps^2 k implies s ln(1 + eps) >= eps^3 k / 2, so both forms must pass
    return rep.passes and rep.reduced_passes, json.dumps(rep.to_json(), sort_keys=True)


def _has_mono_clique(c, colour: int, size: int) -> bool:
    return any(
        c.is_mono_clique(colouring.mask_of(vs), colour)
        for vs in itertools.combinations(range(c.n), size)
    )


def ramsey_job(ks, n: int, all_contain: bool):
    """R(3,3) = 6 and R(3,4) = 9: no counterexample at n = R, one below it."""
    res = oracle.ramsey_exhaustive(2, ks, n)
    ok = res.all_contain == all_contain
    cex = res.counterexample
    if not all_contain:
        ok = ok and cex is not None and cex.n == n and not any(
            _has_mono_clique(cex, i, k) for i, k in enumerate(ks)
        )
    return ok, f"{res.result} {res.nodes} " + ("" if cex is None else cex.serialize())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _book_large(rng, tiny):
    sizes = [(40, 2), (50, 3)] if tiny else [(300, 2), (500, 3), (700, 2), (1000, 3)]
    params = book_engine.EngineParams(t=2, lambda0=F(10), delta=F(1, 16))
    return [partial(book_large_job, _random(n, r, rng).serialize(), params) for n, r in sizes]


def _keystep_audit(rng, tiny):
    sizes = [(20, 2), (24, 3)] if tiny else [(n, r) for n in range(20, 121, 20) for r in (2, 3)]
    jobs = []
    for n, r in sizes:
        c = _random(n, r, rng)
        full = c.vertices
        densities = [geometry.min_density(c, full, full, i) for i in range(r)]
        p0 = min(densities)
        alphas = [(p - p0 + F(1, 4)) / 2 for p in densities]  # engine alphas, delta = 1/4, t = 2
        jobs.append(partial(keystep_job, c, full, [full] * r, alphas))
    return jobs


def _trace_audit(rng, tiny):
    engine_runs = 8 if tiny else 240
    jobs = []
    for i in range(engine_runs):
        t, lam0, delta = ENGINE_GRID[i % len(ENGINE_GRID)]
        kind = i + i // len(ENGINE_GRID)  # shifts each grid pass so every point meets every kind
        if kind % 6 == 5:
            j = kind // 6
            c = _product(5 + j % 3, 6 + (j // 3) % 3, rng)  # r = 4, n in [30, 56]
        else:
            c = _random(20 + (7 * i) % 41, 2 + kind % 2, rng)
        params = book_engine.EngineParams(t=t, lambda0=lam0, delta=delta)
        jobs.append(partial(_engine_job, c, params, True))
        if i % 5 == 4:
            # desk driver: default eps mostly stops at the spine or escape
            # branches; eps = 1/5 with no escape reaches the engine and the
            # page-clique search
            d = i // 5
            wide = d % 2 == 1
            config = pipeline.DriverConfig(
                eps=F(1, 5) if wide else F(1, 20), t=1, escape_sum=10**6 if wide else None
            )
            c = _random(20 + (11 * i) % 41, 2 + (d // 2) % 2, rng)
            jobs.append(partial(driver_job, c, 4 + d % 3, config))
    return jobs


def _thm_book_case(rng):
    """Inputs with every link decided by a wide margin, plus the expected verdicts."""
    r = rng.randint(1, 4)
    p = rng.choice([F(1), F(1, 2), F(1, 3), F(2, 5)])
    mu = F(2**10 * r**3) * rng.choice([F(1, 2), F(1), F(3, 2), F(2)])
    t = rng.randint(2, 40)
    m = rng.randint(100, 1000)  # need_y >= ln 100, so a size e^3 below it is still >= 4
    need_y = t * (2**13 * r**3 / float(mu) ** 2 + math.log(1 / p)) + math.log(m)
    offsets = [rng.choice([-3.0, 3.0]) for _ in range(r)]
    size_ys = [int(math.exp(need_y + d)) for d in offsets]
    size_x = rng.randint(1, 10**9)  # (mu^2/p)^(mu r t) is far beyond any desk-scale |X|
    want = [mu >= 2**10 * r**3, t >= mu**5 / p, False] + [d > 0 for d in offsets]
    return partial(thm_book_job, p, mu, t, m, r, size_x, size_ys, want)


def _lemma53_case(rng):
    r = rng.randint(2, 4)
    k = rng.randint(10, 60)
    eps = rng.choice([F(1, 10), F(1, 5), F(1, 4), F(1, 2)])
    while True:
        ss = [rng.randint(0, k) for _ in range(r)]
        if sum(ss) >= eps * eps * k:
            return partial(lemma53_job, r, k, eps, ss)


def _certify(rng, tiny):
    points = 4 if tiny else 400
    jobs = []
    for r in range(1, 5):
        lo = -3 * r - 4  # both branches: below -3r is the negative case
        for _ in range(points):
            xs = tuple(F(rng.randint(lo * 64, 8 * 64), 64) for _ in range(r))
            jobs.append(partial(special_job, xs))
    triples = [(k, t, r) for r in range(1, 7) for k in range(3, 31) for t in range(3, k + 1)]
    jobs += [partial(appendix_job, *kt) for kt in rng.sample(triples, 4 if tiny else 300)]
    jobs += [_thm_book_case(rng) for _ in range(2 if tiny else 50)]
    jobs += [_lemma53_case(rng) for _ in range(2 if tiny else 50)]
    ramsey = [((3, 3), 5, False), ((3, 3), 6, True)]
    if not tiny:
        ramsey += [((3, 4), 8, False), ((3, 4), 9, True)]
    jobs += [partial(ramsey_job, ks, n, all_contain) for ks, n, all_contain in ramsey]
    return jobs


_BUILDERS = {
    "book-large": _book_large,
    "keystep-audit": _keystep_audit,
    "trace-audit": _trace_audit,
    "certify": _certify,
}


def build(workload: str, seed: int, tiny: bool = False) -> list:
    """One pass of jobs for ``workload``, deterministic in ``seed``.

    ``tiny`` shrinks every size for the benchmark's self-test.
    """
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, tiny)
