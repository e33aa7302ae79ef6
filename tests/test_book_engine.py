import inspect
import itertools
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest
from mpmath import iv

from ramseybook import book_engine, geometry, monitors
from ramseybook.book_engine import (
    EngineParams,
    StepRecord,
    Trace,
    TraceHeader,
    parse_trace,
    read_trace,
    run,
    write_trace,
)
from ramseybook.bounds import certify_interval_ge, interval_endpoints, iv_from_fraction, iv_from_int
from ramseybook.colouring import iter_vertices, mask_of, parse_colouring, product_colouring, random_colouring
from ramseybook.errors import DegenerateDensity, InvalidInput, InvalidVertex, ParseError, PrecisionExhausted
from ramseybook.geometry import c_interval
from ramseybook.monitors import (
    MonitorReport,
    check_lemma_41,
    check_lemma_42,
    check_lemma_43,
    check_lemma_44,
    check_lemma_45_46,
    run_all_monitors,
    validate_trace_structure,
)


# the least int with more digits than the int-to-str limit, under which traces are written
BEYOND = 10 ** sys.get_int_max_str_digits()


def run_full(c, params, **kw):
    return run(c, c.vertices, [c.vertices] * c.r, params, **kw)


class TestParams:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            EngineParams(t=0, lambda0=F(1), delta=F(1, 8))
        with pytest.raises(InvalidInput):
            EngineParams(t=1, lambda0=F(-2), delta=F(1, 8))
        with pytest.raises(InvalidInput):
            EngineParams(t=1, lambda0=F(1), delta=F(1, 2))
        with pytest.raises(InvalidInput):
            EngineParams(t=1, lambda0=F(1), delta=F(0))

    @pytest.mark.parametrize("t", [2.0, True, 2.5])
    def test_t_must_be_an_int(self, t):
        # such a t used to run and write a trace that parse_trace rejects
        with pytest.raises(InvalidInput, match="t must be an int"):
            EngineParams(t=t, lambda0=F(10), delta=F(1, 16))

    @pytest.mark.parametrize("field", ["lambda0", "delta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "abc"])
    def test_lambda0_and_delta_must_be_finite_rationals(self, field, value):
        # these used to escape as a bare ValueError or OverflowError from Fraction
        kw = {"lambda0": F(10), "delta": F(1, 16), field: value}
        with pytest.raises(InvalidInput, match="finite"):
            EngineParams(t=2, **kw)

    @pytest.mark.parametrize(
        "kw",
        [{"t": BEYOND}, {"lambda0": F(BEYOND)}, {"lambda0": F(1, BEYOND)}, {"delta": F(1, BEYOND)}],
        ids=["t", "lambda0-num", "lambda0-den", "delta-den"],
    )
    def test_parts_beyond_the_digit_limit_rejected(self, kw):
        # no trace can spell such a part: the run used to end in a ValueError
        # from to_text, or an OverflowError in the key step, with no trace written
        top = BEYOND - 1  # the largest int within the limit
        EngineParams(t=top, lambda0=F(top), delta=F(1, top))
        with pytest.raises(InvalidInput, match=f"at most {sys.get_int_max_str_digits()} digits"):
            EngineParams(**{"t": 2, "lambda0": F(10), "delta": F(1, 16), **kw})


class TestRun:
    def test_pentagon_single_page_book(self, c5):
        params = EngineParams(t=1, lambda0=F(100), delta=F(1, 8))
        out = run_full(c5, params)
        assert out.found
        assert out.spine.bit_count() == 1
        assert out.pages == c5.neighbourhood(next(iter_vertices(out.spine)), out.book_colour) & out.pages
        assert c5.is_mono_book(out.spine, out.pages, out.book_colour)
        assert out.trace.records[0].kind == "colour"

    def test_singleton_reservoir(self, c5):
        params = EngineParams(t=1, lambda0=F(100), delta=F(1, 8))
        out = run(c5, mask_of([2]), [c5.vertices] * 2, params)
        assert out.found
        assert out.spine == mask_of([2])
        assert out.pages.bit_count() == 2

    def test_random_run_validates_and_monitors_pass(self):
        c = random_colouring(60, 2, 5)
        params = EngineParams(t=3, lambda0=F(10), delta=F(1, 16))
        out = run_full(c, params)
        if out.found:
            assert c.is_mono_book(out.spine, out.pages, out.book_colour)
            assert out.spine.bit_count() == 3
        for rep in run_all_monitors(out.trace):
            assert rep.ok

    def test_preconditions(self, c5):
        params = EngineParams(t=1, lambda0=F(1), delta=F(1, 8))
        with pytest.raises(InvalidInput):
            run(c5, 0, [c5.vertices] * 2, params)
        with pytest.raises(InvalidInput):
            run(c5, c5.vertices, [c5.vertices], params)

    @pytest.mark.parametrize("stray", ["x", "y"])
    def test_out_of_range_vertex_rejected(self, stray):
        # a stray Y vertex used to give book_found with initial_y_sizes (11, 11),
        # which the trace reader rejects
        c = random_colouring(10, 2, 0)
        v = c.vertices
        xset, yset = (v | 1 << 12, v) if stray == "x" else (v, v | 1 << 40)
        with pytest.raises(InvalidVertex):
            run(c, xset, [yset] * 2, EngineParams(t=2, lambda0=F(10), delta=F(1, 16)))

    def test_zero_initial_density_rejected(self):
        from ramseybook.colouring import from_pair_function

        c = from_pair_function(4, 2, lambda u, v: 0)  # colour 1 never used
        with pytest.raises(InvalidInput):
            run(c, c.vertices, [c.vertices] * 2, EngineParams(t=1, lambda0=F(1), delta=F(1, 8)))

    def test_key_steps_take_beta_from_the_header(self, monkeypatch):
        # the header is the one source of a run's beta: with a non-default
        # beta there, every key step must receive that beta
        monkeypatch.setattr(book_engine, "default_beta", lambda r: F(1, 4))
        signature = inspect.signature(geometry.key_lemma_step)
        betas = []

        def recording(*args, **kwargs):
            betas.append(signature.bind(*args, **kwargs).arguments.get("beta"))
            return geometry.key_lemma_step(*args, **kwargs)

        monkeypatch.setattr(book_engine, "key_lemma_step", recording)
        for n, r, seed in [(30, 2, 1), (40, 3, 2), (50, 2, 3)]:
            betas.clear()
            out = run_full(random_colouring(n, r, seed), EngineParams(t=3, lambda0=F(10), delta=F(1, 16)))
            assert out.trace.header.beta == F(1, 4)
            assert betas == [F(1, 4)] * len(out.trace.records) and betas

    def test_book_check_comes_before_zero_density(self):
        # step 1 brings spine 0 to t = 1 and leaves a zero density: the book is returned
        out = run_full(random_colouring(16, 3, 34), EngineParams(t=1, lambda0=F(10), delta=F(1, 16)))
        assert out.found and len(out.trace.records) == 2
        assert out.trace.records[-1].densities == (0, F(5, 16), 1)

    def test_zero_density_mid_run_raises_after_the_step_is_recorded(self, monkeypatch):
        # no seeded run hits a zero density mid-run, so step 0 is forged: a boost
        # whose Y'_0 = {v} leaves X' = {0} with no colour-0 neighbour
        c = random_colouring(20, 2, 1)
        v = next(u for u in range(1, 20) if c.colour(0, u) == 1)

        def forged(*args):
            ks = geometry.key_lemma_step(*args)
            return replace(ks, colour=0, x_prime=mask_of([0]), y_primes=(mask_of([v]), ks.y_primes[1]),
                           lam=F(100))

        monkeypatch.setattr(book_engine, "key_lemma_step", forged)
        states = []
        with pytest.raises(DegenerateDensity, match="^density hit zero after step 0$") as info:
            run_full(c, EngineParams(t=2, lambda0=F(10), delta=F(1, 16)), on_state=lambda *st: states.append(st))
        assert info.value.colour == 0
        assert [rec.kind for rec in info.value.trace.records] == ["boost"]
        assert info.value.trace.records[0].densities[0] == 0
        assert [st[0] for st in states] == [0]

    def test_determinism_byte_identical(self):
        c = random_colouring(40, 3, 77)
        params = EngineParams(t=2, lambda0=F(5), delta=F(1, 8))
        t1 = run_full(c, params).trace.to_text()
        t2 = run_full(c, params).trace.to_text()
        assert t1 == t2

    def test_exactly_one_y_changes_per_round(self):
        c = random_colouring(50, 2, 31)
        out = run_full(c, EngineParams(t=2, lambda0=F(10), delta=F(1, 8)))
        rep = validate_trace_structure(out.trace)
        assert rep.ok and rep.checked == len(out.trace.records)

    def test_state_soundness_recomputed(self):
        c = random_colouring(45, 2, 12)
        params = EngineParams(t=3, lambda0=F(8), delta=F(1, 8))
        seen = []

        def on_state(s, xset, ysets, tsets):
            # spines are monochromatic cliques
            for i, tm in enumerate(tsets):
                assert c.is_mono_clique(tm, i)
                # Y_i sits inside every spine member's colour-i neighbourhood
                for u in iter_vertices(tm):
                    assert ysets[i] & ~c.neighbourhood(u, i) == 0
                    # X sits inside all spine neighbourhoods too
                    assert xset & ~c.neighbourhood(u, i) == 0
                assert xset & tm == 0
                assert ysets[i] & tm == 0
            seen.append(s)

        run_full(c, params, on_state=on_state)
        assert seen == list(range(len(seen)))

    def test_replay_matches_and_pigeonhole_holds(self):
        from ramseybook.geometry import key_lemma_step, min_density

        c = random_colouring(36, 3, 3)
        params = EngineParams(t=2, lambda0=F(50), delta=F(1, 8))
        out = run_full(c, params)
        # independent replay of the update rule, record by record
        xset = c.vertices
        ysets = [c.vertices] * 3
        dens = [min_density(c, xset, ysets[i], i) for i in range(3)]
        p0 = min(dens)
        for rec in out.trace.records:
            alphas = [(dens[i] - p0 + params.delta) / params.t for i in range(3)]
            ks = key_lemma_step(c, xset, ysets, alphas)
            assert ks.lam == rec.lam and ks.pivot == rec.pivot and ks.colour == rec.witness_colour
            if rec.kind == "colour":
                counts = [(c.neighbourhood(ks.pivot, j) & ks.x_prime).bit_count() for j in range(3)]
                j = counts.index(max(counts))
                assert j == rec.chosen_colour
                assert 3 * counts[j] >= ks.x_prime.bit_count() - 1
                xset = c.neighbourhood(ks.pivot, j) & ks.x_prime
                ysets[j] = ks.y_primes[j]
            else:
                xset = ks.x_prime
                ysets[ks.colour] = ks.y_primes[ks.colour]
            assert xset.bit_count() == rec.x_size
            assert tuple(y.bit_count() for y in ysets) == rec.y_sizes
            if xset:
                dens = [min_density(c, xset, ysets[i], i) for i in range(3)]
                assert tuple(dens) == rec.densities

    def test_dichotomy(self):
        c = random_colouring(30, 2, 9)
        for lam0 in (F(1), F(5), F(50)):
            out = run_full(c, EngineParams(t=2, lambda0=lam0, delta=F(1, 8)))
            for rec in out.trace.records:
                assert (rec.kind == "colour") == (rec.lam <= lam0)


class TestTraceIO:
    def test_roundtrip(self):
        c = random_colouring(30, 2, 14)
        out = run_full(c, EngineParams(t=2, lambda0=F(10), delta=F(1, 8)))
        text = out.trace.to_text()
        back = parse_trace(text)
        assert back.to_text() == text

    def test_file_io(self, tmp_path):
        c = random_colouring(20, 2, 15)
        out = run_full(c, EngineParams(t=1, lambda0=F(10), delta=F(1, 8)))
        p = tmp_path / "t.jsonl"
        write_trace(out.trace, p)
        assert read_trace(p).to_text() == out.trace.to_text()

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_trace("")
        with pytest.raises(ParseError):
            parse_trace('{"type":"step"}\n')
        with pytest.raises(ParseError):
            parse_trace('{"type":"header","n":3}\n')
        c = random_colouring(30, 2, 14)
        head, step = run_full(c, EngineParams(t=2, lambda0=F(10), delta=F(1, 8))).trace.to_lines()[:2]
        assert '"lambda0":"10/1"' in head and '"initial_y_sizes":[' in head and '"lambda":"' in step
        # (whole text, the line as the text numbers it)
        malformed = [
            ("[1,2]\n", 1),                                                   # header is not an object
            (head + "\n[]\n", 2),                                            # step is not an object
            (head.replace('"lambda0":"10/1"', '"lambda0":10') + "\n", 1),    # rational as a number
            (head.replace('"initial_y_sizes":[', '"initial_y_sizes":5,"_":[') + "\n", 1),
            (head + "\n" + step.replace('"lambda":"', '"lambda":[],"_":"') + "\n", 2),
            (head + "\n" + step.replace('"densities":[', '"densities":7,"_":[') + "\n", 2),
            (head + "\n" + "[" * 100_000 + "\n", 2),                          # too deep for the decoder
            # every line, the last included, ends with a newline, and none is empty
            (head, 1),
            (head + "\n" + step, 2),
            ("\n" + head + "\n" + step + "\n", 1),
            (head + "\n\n" + step + "\n", 2),
            (head + "\n" + step + "\n\n", 3),
            # the first empty line is named, not the bad kind on line 5
            (head + "\n\n\n" + step.replace('"kind":"colour"', '"kind":"other"') + "\n", 2),
        ]

        def spoil_head(old, new):
            assert old in head
            return head.replace(old, new, 1) + "\n" + step + "\n", 1

        def spoil_step(old, new):
            assert old in step
            return head + "\n" + step.replace(old, new, 1) + "\n", 2

        malformed += [
            # wrongly typed fields
            spoil_head('"initial_x_size":30', '"initial_x_size":"30"'),
            spoil_head('"n":30', '"n":true'),
            spoil_head('"t":2', '"t":1.5'),
            spoil_head('"colouring_sha256":"', '"colouring_sha256":7,"_":"'),
            spoil_head('"n":30', '"n":' + "9" * 5000),                    # beyond the decoder's digit limit
            spoil_step('"y_sizes":[9,30]', '"y_sizes":"ab"'),
            spoil_step('"y_sizes":[9,30]', '"y_sizes":[9,true]'),
            spoil_step('"chosen_colour":0', '"chosen_colour":"0"'),
            # well typed, but not a trace the engine can write
            spoil_head('"r":2', '"r":3'),
            spoil_head('"r":2', '"r":0'),
            spoil_head('"t":2', '"t":0'),
            spoil_head('"delta":"1/8"', '"delta":"0/1"'),
            spoil_head('"lambda0":"10/1"', '"lambda0":"-2/1"'),
            spoil_head('"initial_densities":["3/10","1/3"]', '"initial_densities":["3/10"]'),
            spoil_step('"y_sizes":[9,30]', '"y_sizes":[9]'),
            spoil_step('"t_sizes":[1,0]', '"t_sizes":[1,0,0]'),
            spoil_step('"densities":["7/9","1/3"]', '"densities":[]'),
            spoil_step('"chosen_colour":0', '"chosen_colour":7'),
            spoil_step('"witness_colour":0', '"witness_colour":7'),
            spoil_step('"witness_colour":0', '"witness_colour":-1'),
            spoil_step('"lambda":"344/45"', '"lambda":"-3/1"'),
            spoil_step('"kind":"colour"', '"kind":"other"'),                # rejected before typing, too
            spoil_step('"s":0', '"s":1'),                                 # steps count from 0
            # rationals spelt other than as the engine writes them
            spoil_head('"delta":"1/8"', '"delta":"+01/0_8"'),
            spoil_head('"delta":"1/8"', '"delta":"2/16"'),
            spoil_head('"delta":"1/8"', '"delta":" 1/8"'),
            spoil_head('"delta":"1/8"', '"delta":"1/-8"'),
            spoil_head('"delta":"1/8"', '"delta":"0.125"'),                # a decimal the CLI reads
            spoil_head('"delta":"1/8"', '"delta":"1e-1"'),
            spoil_head('"delta":"1/8"', '"delta":"3/-4"'),
            spoil_head('"delta":"1/8"', '"delta":"1e-5000"'),              # beyond the digit limit
            spoil_head('"delta":"1/8"', '"delta":"1/' + "9" * 5000 + '"'),
            spoil_step('"lambda":"344/45"', '"lambda":"-0/1"'),
            # other spellings of a valid line: the reader accepts a line only as the engine writes it
            (head + "\r\n" + step + "\r\n", 1),                             # CRLF line ends
            spoil_step(',"pivot":', ', "pivot":'),                          # a space after a separator
            spoil_head('"n":30,"r":2,', '"r":2,"n":30,'),                   # two keys swapped
            spoil_step(',"x_size":', ',"extra":1,"x_size":'),               # an extra key
            spoil_head('"type":"header"', '"type":"\\u0068eader"'),          # a \u escape for "h"
            spoil_step('"s":0,', '"s":-0,'),                                # -0 for an integer
        ]
        for text, line in malformed:
            with pytest.raises(ParseError) as info:
                parse_trace(text)
            assert info.value.line == line, text

    @pytest.mark.parametrize(
        "n, lam0, delta, line", [(40, F(10), F(1, 16), 3), (30, F(5), F(1, 8), 5)], ids=["n40", "n30"]
    )
    def test_densities_on_an_empty_x_are_parse_error(self, n, lam0, delta, line):
        # the engine writes null densities exactly when X is empty, as on each run's last step here
        lines = run_full(random_colouring(n, 2, 4), EngineParams(t=2, lambda0=lam0, delta=delta)).trace.to_lines()
        assert len(lines) == line and '"x_size":0,' in lines[-1]
        lines[-1] = lines[-1].replace('"densities":null', '"densities":["0/1","0/1"]')
        with pytest.raises(ParseError, match="densities must be null exactly when X is empty") as info:
            parse_trace("\n".join(lines) + "\n")
        assert info.value.line == line

    def test_no_step_after_the_run_ended(self):
        # a run ends at its first step whose X is empty or one of whose spines has reached t
        book = run_full(random_colouring(40, 2, 0), EngineParams(t=2, lambda0=F(10), delta=F(1, 16))).trace.to_lines()
        exhausted = run_full(random_colouring(30, 2, 4), EngineParams(t=2, lambda0=F(5), delta=F(1, 8))).trace.to_lines()
        assert '"t_sizes":[1,0]' in book[2] and '"x_size":0,' in exhausted[4]
        cases = [
            ([book[0].replace('"t":2,', '"t":1,'), *book[1:]], 4),               # spine 0 reaches t = 1 at step 1
            ([*exhausted, exhausted[4].replace('"s":3,', '"s":4,')], 6),          # X is empty after step 3
        ]
        for lines, line in cases:
            parse_trace("\n".join(lines[:line - 1]) + "\n")  # the run up to its end is a trace
            with pytest.raises(ParseError, match="ended the run") as info:
                parse_trace("\n".join(lines) + "\n")
            assert info.value.line == line

    def test_non_ascii_file_is_parse_error(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_bytes(b'{"type":"header"}\n{"type":"step","kind":"\xff"}\n')
        with pytest.raises(ParseError) as info:
            read_trace(p)
        assert info.value.line == 2

    def test_header_carries_hash(self, c5):
        out = run_full(c5, EngineParams(t=1, lambda0=F(100), delta=F(1, 8)))
        assert out.trace.header.colouring_sha256 == c5.sha256()

    def test_header_hash_same_for_parsed_colouring(self):
        # the parsed colouring takes its digest from the text read, the
        # constructed one from serialize(); the traces must not tell them apart
        c = random_colouring(30, 3, 8)
        parsed = parse_colouring(c.serialize())
        params = EngineParams(t=2, lambda0=F(10), delta=F(1, 16))
        built, read = run_full(c, params).trace, run_full(parsed, params).trace
        assert built.header.colouring_sha256 == read.header.colouring_sha256
        assert built.to_text() == read.to_text()


def _engine_trace(n=40, r=2, seed=5, t=2, lam0=F(10), delta=F(1, 8)):
    c = random_colouring(n, r, seed)
    return run(c, c.vertices, [c.vertices] * r, EngineParams(t=t, lambda0=lam0, delta=delta)).trace


class TestMonitorsPositive:
    def test_all_pass_on_engine_traces(self):
        for seed in range(6):
            trace = _engine_trace(seed=seed)
            for rep in run_all_monitors(trace):
                assert rep.ok

    def test_lemma41_initial_state(self):
        trace = _engine_trace()
        rep = check_lemma_41(trace)
        assert rep.ok and rep.checked > 0

    def test_lemma42_skipped_for_t1(self):
        trace = _engine_trace(t=1)
        rep = check_lemma_42(trace)
        assert rep.skipped

    def test_lemma43_46_active_when_hypotheses_hold(self):
        # t >= lambda0 and t >= lambda0/delta need a small threshold
        trace = _engine_trace(n=30, seed=8, t=4, lam0=F(1), delta=F(1, 4))
        rep43 = check_lemma_43(trace)
        assert not rep43.skipped and rep43.ok
        rep45, rep46 = check_lemma_45_46(trace)
        assert rep45.ok
        assert not rep46.skipped and rep46.ok

    def test_empty_trace_lemma43(self, c5):
        out = run(c5, mask_of([0]), [c5.vertices] * 2, EngineParams(t=1, lambda0=F(1), delta=F(1, 4)))
        rep = check_lemma_43(out.trace)
        assert rep.ok  # zero boosts <= bound


def _tamper(trace, **changes):
    rec = replace(trace.records[-1], **changes)
    return Trace(trace.header, trace.records[:-1] + (rec,))


class TestMonitorsNegative:
    def test_lemma41_catches_fabricated_density(self):
        trace = _engine_trace()
        rec = trace.records[-1]
        if rec.densities is None:
            trace = Trace(trace.header, trace.records[:-1])
            rec = trace.records[-1]
        bad = _tamper(trace, densities=tuple(F(0) for _ in rec.densities))
        rep = check_lemma_41(bad)
        s, h = len(bad.records), bad.header
        assert not rep.ok
        assert [(v["s"], v["colour"], v["lhs"]) for v in rep.violations] == [
            (s, i, str(h.delta - h.p0)) for i in range(h.r)
        ]

    def test_lemma42_catches_fabricated_density(self):
        trace = _engine_trace(t=2)
        rec = trace.records[-1]
        if rec.densities is None:
            trace = Trace(trace.header, trace.records[:-1])
        bad = _tamper(trace, densities=tuple(F(0) for _ in range(trace.header.r)))
        s = len(bad.records)
        assert check_lemma_42(bad).violations == [
            {"s": s, "colour": 0, "lhs": "0", "rhs": "21/160"},    # density
            {"s": s, "colour": 0, "lhs": "-1/20", "rhs": "1/64"},  # alpha
            {"s": s, "colour": 1, "lhs": "0", "rhs": "21/160"},
            {"s": s, "colour": 1, "lhs": "-1/20", "rhs": "1/64"},
        ]

    def test_lemma43_catches_fabricated_boost_storm(self):
        trace = _engine_trace(n=30, seed=8, t=4, lam0=F(1), delta=F(1, 4))
        boost = StepRecord(
            s=0, kind="boost", pivot=0, witness_colour=0, chosen_colour=None,
            lam=F(2), x_size=5, y_sizes=(5,) * trace.header.r,
            t_sizes=(0,) * trace.header.r, densities=None,
        )
        flood = tuple(replace(boost, s=i) for i in range(100))
        bad = Trace(trace.header, flood)
        rep = check_lemma_43(bad)
        assert [(v["s"], v["colour"], v["lhs"]) for v in rep.violations] == [(100, 0, "100")]

    def test_lemma44_catches_shrunken_pages(self):
        trace = _engine_trace(t=2)
        bad = _tamper(trace, y_sizes=(0,) * trace.header.r)
        s = len(bad.records)
        assert check_lemma_44(bad).violations == [
            {"s": s, "colour": 0, "lhs": "0", "rhs": "441/640"},
            {"s": s, "colour": 1, "lhs": "0", "rhs": "441/640"},
        ]

    def test_lemma45_catches_vanishing_reservoir(self):
        trace = _engine_trace(t=2, lam0=F(1), delta=F(1, 4))
        big_header = replace(trace.header, initial_x_size=10**60)
        # one colour step that empties a huge reservoir violates the bound
        # (no boost decay factors to absorb the drop)
        rec = StepRecord(
            s=0, kind="colour", pivot=0, witness_colour=0, chosen_colour=0,
            lam=F(0), x_size=0, y_sizes=trace.header.initial_y_sizes,
            t_sizes=(1, 0), densities=None,
        )
        bad = Trace(big_header, (rec,))
        rep45, _ = check_lemma_45_46(bad)
        assert not rep45.ok
        assert [(v["s"], v["colour"], v["lhs"]) for v in rep45.violations] == [(1, None, "0")]

    def test_lemma46_catches_huge_lambdas(self):
        trace = _engine_trace(n=30, seed=8, t=4, lam0=F(1), delta=F(1, 4))
        boost = StepRecord(
            s=0, kind="boost", pivot=0, witness_colour=0, chosen_colour=None,
            lam=F(10**6), x_size=5, y_sizes=(5,) * trace.header.r,
            t_sizes=(0,) * trace.header.r, densities=None,
        )
        bad = Trace(trace.header, tuple(replace(boost, s=i) for i in range(8)))
        _, rep46 = check_lemma_45_46(bad)
        assert not rep46.skipped and not rep46.ok
        assert [(v["s"], v["colour"]) for v in rep46.violations] == [(8, None)]

    def test_structure_catches_wrong_kind(self):
        trace = _engine_trace(lam0=F(1))
        target = None
        for idx, rec in enumerate(trace.records):
            if rec.kind == "boost":
                target = idx
                break
        if target is None:
            pytest.skip("trace had no boost step")
        recs = list(trace.records)
        recs[target] = replace(recs[target], kind="colour", chosen_colour=0)
        assert validate_trace_structure(Trace(trace.header, tuple(recs))).violations == [
            {"s": target, "problem": "colour step with lambda > lambda0"},
            {"s": target, "problem": "spine growth mismatch on colour step"},
        ]

    def test_structure_reports_colour_step_without_colour(self):
        trace = _engine_trace()
        assert trace.records[0].kind == "colour"
        bad = Trace(trace.header, (replace(trace.records[0], chosen_colour=None),) + trace.records[1:])
        structure = run_all_monitors(bad)[0]
        assert structure.lemma == "structure" and not structure.ok
        assert structure.violations == [{"s": 0, "problem": "colour step without a chosen colour"}]
        assert validate_trace_structure(bad).violations == structure.violations

    def test_structure_reports_boost_step_with_colour(self):
        trace = _engine_trace(n=30, seed=8, t=4, lam0=F(1), delta=F(1, 4))
        assert trace.records[0].kind == "boost" and trace.records[0].chosen_colour is None
        bad = Trace(trace.header, (replace(trace.records[0], chosen_colour=1),) + trace.records[1:])
        assert validate_trace_structure(bad).violations == [{"s": 0, "problem": "boost step with a chosen colour"}]

    def test_run_all_reports_every_monitor_and_every_violation(self):
        # a colour step without a colour breaks the structure check, and the
        # zeroed final densities break Lemma 4.1; neither hides the other
        trace = _engine_trace()
        assert trace.records[0].kind == "colour" and trace.records[-1].densities is not None
        bad = _tamper(trace, densities=(F(0),) * trace.header.r)
        bad = Trace(bad.header, (replace(bad.records[0], chosen_colour=None),) + bad.records[1:])
        reports = run_all_monitors(bad)
        assert [rep.lemma for rep in reports] == ["structure", "4.1", "4.2", "4.3", "4.4", "4.5", "4.6"]
        structure, lemma41 = reports[0], reports[1]
        assert {"s": 0, "problem": "colour step without a chosen colour"} in structure.violations
        s = len(bad.records)
        assert [(v["s"], v["colour"]) for v in lemma41.violations] == [(s, 0), (s, 1)]

    @pytest.mark.parametrize("lam", [F(-1), F(-1, 2), F(0), F(1)])
    def test_lemma46_skipped_when_a_boost_is_not_above_lambda0(self, lam):
        trace = _engine_trace(n=30, seed=8, t=4, lam0=F(1), delta=F(1, 4))
        assert trace.records[0].kind == "boost"
        bad = Trace(trace.header, (replace(trace.records[0], lam=lam),) + trace.records[1:])
        reports = {rep.lemma: rep for rep in run_all_monitors(bad)}
        assert reports["4.6"].skipped and reports["4.6"].ok and reports["4.6"].checked == 0
        assert "lambda > lambda0" in reports["4.6"].reason
        assert reports["structure"].violations == [{"s": 0, "problem": "boost step with lambda <= lambda0"}]


def reference_lemma_45(trace) -> dict:
    """Lemma 4.5's report from the loop that rebuilt the right side at every
    state; check_lemma_45_46 rebuilds it only at the states after a boost."""
    h = trace.header
    rep = MonitorReport("4.5", True)
    c_iv = c_interval(h.r)
    eps = iv_from_fraction(h.beta / h.r) * iv.exp(-c_iv * iv.sqrt(iv_from_fraction(h.lambda0 + 1)))
    rt = h.r * h.t
    boosts = 0
    root_sum = iv.mpf(0)
    states = [(0, h.initial_x_size, None)] + [(rec.s + 1, rec.x_size, rec) for rec in trace.records]
    for s, x_size, rec in states:
        if rec is not None and rec.kind == "boost":
            boosts += 1
            root_sum += iv.sqrt(iv_from_fraction(rec.lam + 1))
        rhs = eps ** (rt + boosts) * iv.exp(-c_iv * root_sum) * h.initial_x_size - rt
        rep.checked += 1
        if not certify_interval_ge(iv_from_int(x_size), rhs):
            _lo, hi = interval_endpoints(rhs)
            rep.ok = False
            rep.violations.append({"s": s, "colour": None, "lhs": str(x_size), "rhs": str(float(hi))})
    return rep.to_json()


class TestLemma45Reference:
    @pytest.mark.parametrize("kw", [
        {}, {"seed": 2}, {"t": 1}, {"r": 3, "seed": 3},
        {"n": 30, "seed": 8, "t": 4, "lam0": F(1), "delta": F(1, 4)},
        {"n": 30, "seed": 4, "t": 2, "lam0": F(0), "delta": F(1, 4)},
    ])
    def test_engine_traces(self, kw):
        trace = _engine_trace(**kw)
        assert check_lemma_45_46(trace)[0].to_json() == reference_lemma_45(trace)

    @pytest.mark.parametrize("seed", range(8))
    def test_fabricated_boost_storms(self, seed):
        # runs of boosts and colour steps with drawn lambdas; a large beta and
        # reservoir lift the right side, so that some states violate the
        # bound and some do not
        rng = random.Random(seed)
        base = _engine_trace(n=30, seed=8, t=4, lam0=F(1), delta=F(1, 4))
        h = replace(base.header, beta=rng.choice([base.header.beta, F(1), F(base.header.r), F(10**8), F(10**12)]),
                    initial_x_size=rng.choice([30, 10**6, 10**40]))
        recs = []
        for s in range(rng.randint(1, 40)):
            boost = rng.random() < 0.6
            recs.append(StepRecord(
                s=s, kind="boost" if boost else "colour", pivot=0, witness_colour=rng.randrange(h.r),
                chosen_colour=None if boost else 0,
                lam=F(rng.randint(-4, 400), 4) if boost else F(rng.randint(-4, 4), 4),
                x_size=rng.choice([0, 1, 5, 10**3, 10**30]), y_sizes=(5,) * h.r,
                t_sizes=(0,) * h.r, densities=None,
            ))
        trace = Trace(h, tuple(recs))
        got = check_lemma_45_46(trace)[0].to_json()
        assert got == reference_lemma_45(trace)
        assert got["checked"] == len(recs) + 1


def _reservoir_trace(r, t, beta, lam0, x0, steps):
    """A trace whose header sets r, t, beta, lambda0 and |X(0)|, followed by
    ``steps``, (lambda, |X(s + 1)|) pairs, a boost when lambda > lambda0; only
    Lemma 4.5 reads it."""
    header = TraceHeader(
        n=x0, r=r, t=t, lambda0=lam0, delta=F(1, 8), beta=beta, p0=F(1), initial_x_size=x0,
        initial_y_sizes=(x0,) * r, initial_densities=(F(1),) * r, colouring_sha256="0" * 64,
    )
    recs = tuple(
        StepRecord(s=s, kind="boost" if lam > lam0 else "colour", pivot=0, witness_colour=0,
                   chosen_colour=None if lam > lam0 else 0, lam=lam, x_size=x_size,
                   y_sizes=(x0,) * r, t_sizes=(0,) * r, densities=(F(1),) * r)
        for s, (lam, x_size) in enumerate(steps)
    )
    return Trace(header, recs)


def _lemma45_outcome(check, trace):
    """Lemma 4.5's report JSON from ``check``, or the name of the error it raised."""
    try:
        got = check(trace)
    except PrecisionExhausted as e:
        return type(e).__name__
    return got[0].to_json() if isinstance(got, list) else got


def _count_enclosures(monkeypatch) -> list:
    """Record every decay enclosure that the monitors build, in a list returned."""
    calls = []

    def counted(*args):
        calls.append(args)
        return geometry.decay_enclosure(*args)

    monkeypatch.setattr(monitors, "decay_enclosure", counted)
    return calls


class TestLemma45Cap:
    """Lemma 4.5 against the exact cap (beta/r)|X(0)| - rt, valid while beta <= r."""

    def test_grid_traces_build_no_enclosure(self, monkeypatch):
        # engine runs in the shapes of the trace-audit benchmark: its
        # (t, lambda0, delta) grid, random colourings with n in [20, 60] and
        # r in {2, 3}, products of two 2-colourings (r = 4); at desk scale
        # every state is at or above the cap, so none builds an enclosure
        def refuse(*args):
            raise AssertionError("Lemma 4.5 built an interval enclosure")

        monkeypatch.setattr(monitors, "decay_enclosure", refuse)
        grid = itertools.product((1, 2, 3, 4), (F(5), F(10), F(50)), (F(1, 16), F(1, 8)))
        checked = 0
        for i, (t, lam0, delta) in enumerate(grid):
            makers = [lambda seed, i=i: random_colouring(20 + (7 * i) % 41, 2 + i % 2, seed),
                      lambda seed, i=i: product_colouring(random_colouring(5 + i % 3, 2, seed),
                                                          random_colouring(6 + i % 3, 2, seed + 1))]
            for make in makers:
                for seed in itertools.count(i):
                    c = make(seed)
                    try:
                        trace = run_full(c, EngineParams(t=t, lambda0=lam0, delta=delta)).trace
                    except DegenerateDensity as e:
                        trace = e.trace
                    except InvalidInput:  # some colour missing at some vertex: draw again
                        continue
                    break
                lemma45 = run_all_monitors(trace)[5]
                assert lemma45.lemma == "4.5" and lemma45.ok
                assert lemma45.checked == len(trace.records) + 1
                checked += lemma45.checked
        assert checked > 100

    @pytest.mark.parametrize("r, t, lam0", [(1, 1, F(-1)), (2, 3, F(10)), (3, 1, F(1, 2))])
    @pytest.mark.parametrize("above", [F(0), F(1, 10**6)], ids=["beta=r", "beta>r"])
    def test_boundaries_match_the_reference(self, monkeypatch, r, t, lam0, above):
        # beta = r, where the cap still holds, and beta just above r, where
        # it does not; states at the cap (an integer here), one above and one
        # below it, before and after two boosts
        beta = r + above
        x0 = 10**6 * r
        cap = beta / r * x0 - r * t
        assert cap.denominator == 1 and cap > 0
        below, at, over = int(cap) - 1, int(cap), int(cap) + 1
        steps = [(lam0, over), (lam0, at), (lam0, below), (lam0 + 1, at), (lam0 + 1, below),
                 (lam0, below), (lam0 + 2, below), (lam0, 0)]
        trace = _reservoir_trace(r, t, beta, lam0, x0, steps)
        calls = _count_enclosures(monkeypatch)
        got = _lemma45_outcome(check_lemma_45_46, trace)
        assert got == _lemma45_outcome(reference_lemma_45, trace)
        if above:
            assert calls  # no cap: the interval right side decides
        else:
            # eps once, then the decay factor at the first state below the cap
            # and at each later boost before a state below it
            assert len(calls) == 4

    def test_at_an_integer_cap_builds_no_enclosure(self, monkeypatch):
        r, t, x0 = 2, 4, 10**6
        cap = F(1, 2) * x0 - r * t
        trace = _reservoir_trace(r, t, F(1), F(10), x0, [(F(10), int(cap)), (F(20), int(cap)), (F(5), int(cap))])
        calls = _count_enclosures(monkeypatch)
        got = check_lemma_45_46(trace)[0]
        assert got.ok and got.checked == 4 and not calls
        assert got.to_json() == reference_lemma_45(trace)

    def test_below_a_positive_cap_falls_back_to_the_enclosure(self, monkeypatch):
        # beta = r and lambda0 = -1 make eps = 1, and a boost at lambda = -1
        # keeps the decay factor 1, so the right side is the cap itself
        r, t, x0 = 2, 2, 100
        cap = x0 - r * t
        trace = _reservoir_trace(r, t, F(r), F(-1), x0, [(F(-1), cap), (F(-1), cap - 1), (F(-1, 2), cap - 1)])
        calls = _count_enclosures(monkeypatch)
        got = check_lemma_45_46(trace)[0].to_json()
        assert got == reference_lemma_45(trace)
        assert [v["s"] for v in got["violations"]] == [2] and calls

    def test_cap_decides_where_the_enclosure_cannot(self):
        # r = t = 1, lambda0 = -1, no boost: the right side is beta |X(0)| - 1,
        # here 9/3 - 1 = 2, equal to |X(1)|; the enclosure of beta = 1/3 is wider
        # than a point, so the interval comparison cannot order the sides
        trace = _reservoir_trace(1, 1, F(1, 3), F(-1), 9, [(F(-1), 2)])
        got = check_lemma_45_46(trace)[0]
        assert got.ok and got.checked == 2
        with pytest.raises(PrecisionExhausted):
            reference_lemma_45(trace)

    def test_huge_t_is_decided_at_once(self):
        trace = _engine_trace(n=30, seed=8, t=4, lam0=F(1), delta=F(1, 4))
        trace = Trace(replace(trace.header, t=10**9), trace.records)
        start = time.perf_counter()
        got = check_lemma_45_46(trace)[0].to_json()
        assert time.perf_counter() - start < 0.1
        assert got["ok"] and got == reference_lemma_45(trace)
