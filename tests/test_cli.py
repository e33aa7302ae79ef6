import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
import tomllib
from pathlib import Path

import pytest

import ramseybook
from ramseybook import bounds as bounds_mod
from ramseybook.book_engine import read_trace
from ramseybook.cli import EXIT_USAGE, main
from ramseybook.colouring import EdgeColouring, pentagon_colouring


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def fresh_python(*args, **env):
    """Run a new interpreter that imports this checkout's ramseybook."""
    src = str(Path(ramseybook.__file__).parent.parent)
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


class TestGenerate:
    def test_pentagon_file(self, tmp_path, capsys):
        out_file = tmp_path / "c5.rcg"
        code, out, _ = invoke(capsys, "generate", "--kind", "pentagon", "-o", str(out_file))
        assert code == 0
        assert out_file.read_text() == pentagon_colouring().serialize()
        payload = json.loads(out)
        assert payload["n"] == 5 and payload["r"] == 2

    def test_random_deterministic(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.rcg", tmp_path / "b.rcg"
        invoke(capsys, "generate", "--n", "20", "--r", "3", "--seed", "9", "-o", str(f1))
        invoke(capsys, "generate", "--n", "20", "--r", "3", "--seed", "9", "-o", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_writes_the_text_once(self, tmp_path, capsys, monkeypatch):
        # the printed digest is taken from the bytes written, not from a
        # second serialisation inside sha256()
        calls = []
        write = EdgeColouring._rcg
        monkeypatch.setattr(EdgeColouring, "_rcg", lambda c: calls.append(c) or write(c))
        out_file = tmp_path / "c.rcg"
        code, out, _ = invoke(capsys, "generate", "--n", "30", "--r", "2", "--seed", "3", "-o", str(out_file))
        assert code == 0 and len(calls) == 1
        assert json.loads(out)["sha256"] == hashlib.sha256(out_file.read_bytes()).hexdigest()

    def test_product_kind(self, tmp_path, capsys):
        out_file = tmp_path / "p.rcg"
        code, out, _ = invoke(capsys, "generate", "--kind", "product", "--n", "4", "--r", "2",
                              "--seed", "1", "-o", str(out_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 16 and payload["r"] == 4

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        # --seed -5 used to write the file of --seed 5
        out_file = tmp_path / "x.rcg"
        code, out, err = invoke(capsys, "generate", "--n", "5", "--r", "2", "--seed", "-5", "-o", str(out_file))
        assert code == 2
        assert out == "" and "seed must be at least 0, got -5" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("kind", ["random", "product"])
    def test_zero_colours_is_usage_error(self, tmp_path, capsys, kind):
        out_file = tmp_path / "x.rcg"
        code, out, err = invoke(capsys, "generate", "--kind", kind, "--r", "0", "-o", str(out_file))
        assert code == 2
        assert out == "" and "got r=0" in err
        assert not out_file.exists()


class TestColouringInput:
    def test_non_canonical_colouring_exits_2(self, tmp_path, capsys):
        rcg = tmp_path / "c.rcg"
        rcg.write_bytes(b"3 11\n1_0 +1\n01\n")
        code, out, err = invoke(capsys, "run-book", "-i", str(rcg), "--t", "2",
                                "--lambda0", "10", "--delta", "1/16", "--trace", str(tmp_path / "t.jsonl"))
        assert code == 2
        assert out == "" and "line 2" in err

    def test_one_digest_from_generate_to_trace(self, tmp_path, capsys):
        # generate's printed sha256, the file's bytes and run-book's trace
        # header name the colouring by one digest, also when the file is
        # rewritten with CRLF line ends (run-book reads it with universal newlines)
        rcg = tmp_path / "c.rcg"
        _, out, _ = invoke(capsys, "generate", "--n", "40", "--r", "2", "--seed", "4", "-o", str(rcg))
        digest = json.loads(out)["sha256"]
        assert hashlib.sha256(rcg.read_bytes()).hexdigest() == digest

        def header_digest(tag):
            trace = tmp_path / f"{tag}.jsonl"
            code, _, _ = invoke(capsys, "run-book", "-i", str(rcg), "--t", "2",
                                "--lambda0", "10", "--delta", "1/16", "--trace", str(trace))
            assert code == 0
            return read_trace(trace).header.colouring_sha256

        assert header_digest("lf") == digest
        rcg.write_bytes(rcg.read_bytes().replace(b"\n", b"\r\n"))
        assert header_digest("crlf") == digest


class TestRunAndVerify:
    def test_run_book_then_verify(self, tmp_path, capsys):
        rcg = tmp_path / "c.rcg"
        trace = tmp_path / "t.jsonl"
        invoke(capsys, "generate", "--n", "40", "--r", "2", "--seed", "4", "-o", str(rcg))
        code, out, _ = invoke(
            capsys, "run-book", "-i", str(rcg), "--t", "2",
            "--lambda0", "10", "--delta", "1/16", "--trace", str(trace),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] in ("book_found", "reservoir_exhausted", "degenerate_density")
        code, out, err = invoke(capsys, "verify-trace", "--trace", str(trace))
        assert code == 0
        assert json.loads(out)["ok"]

    def test_run_book_derived_params(self, tmp_path, capsys):
        rcg = tmp_path / "c.rcg"
        trace = tmp_path / "t.jsonl"
        invoke(capsys, "generate", "--n", "30", "--r", "2", "--seed", "2", "-o", str(rcg))
        code, out, _ = invoke(
            capsys, "run-book", "-i", str(rcg), "--t", "1",
            "--mu", "4", "--p", "1/4", "--trace", str(trace),
        )
        assert code == 0

    def test_verify_corrupted_trace(self, tmp_path, capsys):
        rcg = tmp_path / "c.rcg"
        trace = tmp_path / "t.jsonl"
        invoke(capsys, "generate", "--n", "40", "--r", "2", "--seed", "4", "-o", str(rcg))
        invoke(capsys, "run-book", "-i", str(rcg), "--t", "2",
               "--lambda0", "10", "--delta", "1/16", "--trace", str(trace))
        lines = trace.read_text().splitlines()
        # zero the densities of the last step with a non-empty X, step 0
        rec = json.loads(lines[-2])
        assert rec["s"] == 0 and rec["x_size"] > 0  # step 1, the last, empties X
        rec["densities"] = ["0/1"] * len(rec["densities"])
        lines[-2] = json.dumps(rec, separators=(",", ":"))
        trace.write_text("\n".join(lines) + "\n")
        code, out, err = invoke(capsys, "verify-trace", "--trace", str(trace))
        assert code == 1
        assert "4." in err  # names a violated lemma

    @pytest.mark.parametrize(
        "line, spoil",
        [
            (1, lambda h: f"[{h}]"),
            (1, lambda h: h.replace('"lambda0":"5/1"', '"lambda0":5')),
            (1, lambda h: h.replace('"initial_y_sizes":[30,30]', '"initial_y_sizes":5')),
            (1, lambda h: h.replace('"type"', '"\u00e9"')),
            (1, lambda h: h.replace('"initial_x_size":30', '"initial_x_size":"30"')),
            (1, lambda h: h.replace('"n":30', '"n":true')),
            (1, lambda h: h.replace('"t":2', '"t":1.5')),
            (1, lambda h: h.replace('"colouring_sha256":"', '"colouring_sha256":7,"_":"')),
            (2, lambda s: s.replace('"y_sizes":[8,30]', '"y_sizes":"ab"')),
            (2, lambda s: s.replace('"y_sizes":[8,30]', '"y_sizes":[8]')),
            (3, lambda s: s.replace('"chosen_colour":0', '"chosen_colour":7')),
            (3, lambda s: s.replace('"witness_colour":1', '"witness_colour":7')),
            (1, lambda h: h.replace('"r":2', '"r":3')),
            (1, lambda h: h.replace('"t":2', '"t":0')),
            (1, lambda h: h.replace('"delta":"1/8"', '"delta":"0/1"')),
            (1, lambda h: h.replace('"lambda0":"5/1"', '"lambda0":"-2/1"')),
            (1, lambda h: h.replace('"delta":"1/8"', '"delta":"2/16"')),
            (1, lambda h: h.replace('"beta":"1/6561"', '"beta":"-1/1"')),
            (1, lambda h: h.replace('"beta":"1/6561"', '"beta":"0/1"')),
            (1, lambda h: h.replace('"p0":"4/15"', '"p0":"0/1"')),
            (1, lambda h: h.replace('"p0":"4/15"', '"p0":"1/3"')),
            (1, lambda h: h.replace('"initial_densities":["4/15","1/3"]', '"initial_densities":["4/15","4/3"]')),
            (1, lambda h: h.replace('"p0":"4/15"', '"p0":"0/1"').replace('["4/15",', '["0/1",')),
            (1, lambda h: h.replace('"n":30,', '"n":3,')),
            (1, lambda h: h.replace('"n":30,', '"n":0,')),
            (1, lambda h: h.replace('"initial_x_size":30', '"initial_x_size":3000')),
            (1, lambda h: h.replace('"initial_y_sizes":[30,30]', '"initial_y_sizes":[30,0]')),
            (2, lambda s: s.replace('"pivot":11', '"pivot":-1')),
            (3, lambda s: s.replace('"pivot":21', '"pivot":2100')),
            (2, lambda s: s.replace('"x_size":3', '"x_size":31')),
            (3, lambda s: s.replace('"y_sizes":[6,30]', '"y_sizes":[6,31]')),
            (5, lambda s: s.replace('"t_sizes":[1,1]', '"t_sizes":[1,-1]')),
            (2, lambda s: s.replace('"densities":["3/4","2/5"]', '"densities":null')),
            (2, lambda s: s.replace('"densities":["3/4","2/5"]', '"densities":["3/4","5/4"]')),
            (2, lambda s: s.replace('"densities":["3/4","2/5"]', '"densities":["-3/4","2/5"]')),
            (5, lambda s: s.replace('"densities":null', '"densities":["0/1","0/1"]')),
            (1, lambda h: h + "\r"),  # verify-trace does not map \r\n to \n
        ],
        ids=["array", "numeric-rational", "numeric-sizes", "non-ascii", "string-int", "bool-int",
             "float-int", "numeric-hash", "string-sizes", "short-sizes", "chosen-colour-range",
             "witness-colour-range", "wrong-r", "zero-t", "zero-delta", "negative-lambda0",
             "unreduced-rational", "negative-beta", "zero-beta", "zero-p0", "p0-not-least",
             "density-above-one", "zero-density", "small-n", "zero-n", "initial-x-above-n",
             "zero-initial-y", "negative-pivot", "pivot-above-n", "x-size-above-n", "y-size-above-n",
             "negative-t-size", "null-densities", "step-density-above-one", "negative-density",
             "densities-on-empty-x", "crlf"],
    )
    def test_verify_malformed_trace_is_usage_error(self, tmp_path, capsys, line, spoil):
        rcg = tmp_path / "c.rcg"
        trace = tmp_path / "t.jsonl"
        invoke(capsys, "generate", "--n", "30", "--r", "2", "--seed", "4", "-o", str(rcg))
        invoke(capsys, "run-book", "-i", str(rcg), "--t", "2", "--lambda0", "5", "--delta", "1/8",
               "--trace", str(trace))
        lines = trace.read_text().split("\n")
        spoilt = spoil(lines[line - 1])
        assert spoilt != lines[line - 1]
        lines[line - 1] = spoilt
        trace.write_bytes("\n".join(lines).encode())
        code, out, err = invoke(capsys, "verify-trace", "--trace", str(trace))
        assert code == 2
        assert out == "" and f"line {line}" in err

    @pytest.mark.parametrize(
        "seed, params, line, old, new",
        [
            # a colour step that names no chosen colour
            ("4", ["--t", "2", "--lambda0", "5", "--delta", "1/8"], 3, '"chosen_colour":0', '"chosen_colour":null'),
            # a boost with -1 <= lambda < 0 under lambda0 > 0: 4.6's hypothesis fails
            ("8", ["--t", "4", "--lambda0", "1", "--delta", "1/4"], 2, '"lambda":"424/45"', '"lambda":"-1/2"'),
            # a boost step that names a chosen colour
            ("8", ["--t", "4", "--lambda0", "1", "--delta", "1/4"], 2, '"chosen_colour":null', '"chosen_colour":1'),
        ],
        ids=["colour-step-without-colour", "negative-boost-lambda", "boost-step-with-colour"],
    )
    def test_verify_reports_violation_as_json(self, tmp_path, capsys, seed, params, line, old, new):
        rcg = tmp_path / "c.rcg"
        trace = tmp_path / "t.jsonl"
        invoke(capsys, "generate", "--n", "30", "--r", "2", "--seed", seed, "-o", str(rcg))
        invoke(capsys, "run-book", "-i", str(rcg), *params, "--trace", str(trace))
        lines = trace.read_text().split("\n")
        assert old in lines[line - 1]
        lines[line - 1] = lines[line - 1].replace(old, new)
        trace.write_text("\n".join(lines))
        code, out, err = invoke(capsys, "verify-trace", "--trace", str(trace))
        assert code == 1
        payload = json.loads(out)
        assert [rep["lemma"] for rep in payload["monitors"] if not rep["ok"]] == ["structure"]
        assert "Traceback" not in err

    def test_violation_beyond_float_range_is_reported(self, tmp_path, capsys):
        # beta = 10^40 and t = 50 put Lemma 4.5's right side near 10^2341; its
        # text used to go through float() and crash with an OverflowError
        rcg, trace = tmp_path / "c.rcg", tmp_path / "t.jsonl"
        invoke(capsys, "generate", "--n", "30", "--r", "2", "--seed", "7", "-o", str(rcg))
        invoke(capsys, "run-book", "-i", str(rcg), "--t", "2", "--lambda0", "10", "--delta", "1/8",
               "--trace", str(trace))
        lines = trace.read_text().split("\n")
        header = json.loads(lines[0])
        header.update(beta=f"{10**40}/1", t=50)
        lines[0] = json.dumps(header, separators=(",", ":"))
        trace.write_text("\n".join(lines))
        code, out, err = invoke(capsys, "verify-trace", "--trace", str(trace))
        assert code == 1 and "Traceback" not in err
        lemma45 = next(rep for rep in json.loads(out)["monitors"] if rep["lemma"] == "4.5")
        want = {"s": 0, "colour": None, "lhs": "30", "rhs": "5.7118373188931501e+2341"}
        assert lemma45["violations"][0] == want

    @pytest.mark.parametrize("params", [("--lambda0", "1e5000", "--delta", "1/16"),
                                        ("--lambda0", "10", "--delta", "1e-5000")], ids=["lambda0", "delta"])
    def test_run_book_refuses_params_no_trace_can_spell(self, tmp_path, capsys, params):
        # these used to run and then fail with a traceback (a ValueError from
        # writing the trace, or an OverflowError in the key step), writing no trace
        rcg = tmp_path / "c.rcg"
        trace = tmp_path / "t.jsonl"
        invoke(capsys, "generate", "--n", "30", "--r", "2", "--seed", "1", "-o", str(rcg))
        code, out, err = invoke(capsys, "run-book", "-i", str(rcg), "--t", "2", *params, "--trace", str(trace))
        assert code == 2
        assert out == "" and "Traceback" not in err and "digits" in err
        assert not trace.exists()

    @pytest.mark.parametrize("value", [
        "1e10000000", "1e-10000000",
        # 10^-4300: the exponent is short, but the denominator has 4301 digits
        pytest.param("0." + "0" * 4298 + "1e-1", id="long-decimal"),
    ])
    @pytest.mark.parametrize("command, option", [
        ("run-book", "--lambda0"), ("run-book", "--delta"), ("run-book", "--mu"), ("run-book", "--p"),
        ("regularise", "--eps"), ("thm-book", "--p"), ("thm-book", "--mu"),
    ])
    def test_rational_options_refuse_long_exponents_at_once(self, tmp_path, capsys, command, option, value):
        # Fraction would expand such a power of ten in full first, which took seconds
        rcg, trace = str(tmp_path / "c.rcg"), str(tmp_path / "t.jsonl")
        argv = {
            "run-book": ["run-book", "-i", rcg, "--t", "2", "--trace", trace,
                         *(["--lambda0", "10", "--delta", "1/16"] if option in ("--lambda0", "--delta")
                           else ["--mu", "4", "--p", "1/4"])],
            "regularise": ["regularise", "-i", rcg, "--eps", "1/20"],
            "thm-book": ["bounds", "thm-book", "--p", "1/2", "--mu", "8192", "--t", "100", "--m", "1",
                         "--r", "2", "--size-x", "1", "--size-ys", "1,1"],
        }[command]
        argv[argv.index(option) + 1] = value
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 0.1
        assert code == 2
        assert out == "" and "digits" in err and "Traceback" not in err

    @pytest.mark.parametrize("n, delta, result", [("30", "1e-4299", "book_found"),
                                                   ("40", "1e-20", "reservoir_exhausted")])
    def test_run_book_at_tiny_delta(self, tmp_path, capsys, n, delta, result):
        # lam grows like t/delta, so the exact endpoint of the witness bound
        # has about 1.44 C sqrt(lam + 1) bits: the key step used to evaluate
        # it for a field nothing read, a MemoryError at 1e-20 under a memory
        # cap and a ScaleError (exit 2) at 1e-4299; the cap decides every step here
        rcg, trace = tmp_path / "c.rcg", tmp_path / "t.jsonl"
        invoke(capsys, "generate", "--n", n, "--r", "2", "--seed", "1", "-o", str(rcg))
        code, out, err = invoke(capsys, "run-book", "-i", str(rcg), "--t", "2", "--lambda0", "10",
                                "--delta", delta, "--trace", str(trace))
        assert code == 0
        assert json.loads(out)["result"] == result
        code, out, err = invoke(capsys, "verify-trace", "--trace", str(trace))
        assert code == 0 and json.loads(out)["ok"]

    def test_run_book_non_ascii_colouring_is_usage_error(self, tmp_path, capsys):
        rcg = tmp_path / "c.rcg"
        rcg.write_bytes(b"3 2\n0 1\n\xff\n")
        code, out, err = invoke(capsys, "run-book", "-i", str(rcg), "--t", "2", "--lambda0", "5",
                                "--delta", "1/8", "--trace", str(tmp_path / "t.jsonl"))
        assert code == 2
        assert out == "" and "line 3" in err

    @pytest.mark.parametrize("command", ["verify-trace", "run-book"])
    def test_directory_input_is_usage_error(self, tmp_path, capsys, command):
        if command == "verify-trace":
            argv = ["verify-trace", "--trace", str(tmp_path)]
        else:
            argv = ["run-book", "-i", str(tmp_path), "--t", "2", "--lambda0", "5",
                    "--delta", "1/8", "--trace", str(tmp_path / "t.jsonl")]
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == "" and "Traceback" not in err and str(tmp_path) in err

    def test_determinism_across_invocations(self, tmp_path, capsys):
        rcg = tmp_path / "c.rcg"
        invoke(capsys, "generate", "--n", "35", "--r", "2", "--seed", "6", "-o", str(rcg))
        t1, t2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
        _, out1, _ = invoke(capsys, "run-book", "-i", str(rcg), "--t", "2",
                            "--lambda0", "5", "--delta", "1/8", "--trace", str(t1))
        _, out2, _ = invoke(capsys, "run-book", "-i", str(rcg), "--t", "2",
                            "--lambda0", "5", "--delta", "1/8", "--trace", str(t2))
        assert t1.read_bytes() == t2.read_bytes()
        assert out1.replace(str(t1), "T") == out2.replace(str(t2), "T")


class TestRegulariseCmd:
    def test_pentagon(self, tmp_path, capsys):
        rcg = tmp_path / "c5.rcg"
        invoke(capsys, "generate", "--kind", "pentagon", "-o", str(rcg))
        code, out, _ = invoke(capsys, "regularise", "-i", str(rcg), "--eps", "1/20")
        assert code == 0
        payload = json.loads(out)
        assert payload["w_size"] == 5 and payload["invariants_ok"]


class TestBoundsCmd:
    def test_appendix_ok(self, capsys):
        code, out, _ = invoke(capsys, "bounds", "appendix", "--k", "12", "--t", "4", "--r", "3")
        assert code == 0
        assert json.loads(out)["pass"]

    def test_thm51_reports_failing_link(self, capsys, monkeypatch):
        # link (i) of the constant chain is genuinely false at k = 2^160 r^16;
        # the command must report it and exit 1
        real = bounds_mod.thm51_chain
        monkeypatch.setattr(bounds_mod, "thm51_chain", lambda r: real(r, k=2**176))
        code, out, err = invoke(capsys, "bounds", "thm51", "--r", "2")
        assert code == 1
        payload = json.loads(out)
        by_label = {l["label"]: l["pass"] for l in payload["links"]}
        assert not by_label["i"]
        assert all(by_label[x] for x in ("ii-a", "ii-b", "iii", "iv", "v", "vi"))
        # at the default (derived) scale every link holds
        monkeypatch.undo()
        code, out, err = invoke(capsys, "bounds", "thm51", "--r", "2")
        assert code == 0
        assert json.loads(out)["all_pass"]

    def test_thm_book(self, capsys):
        code, out, _ = invoke(
            capsys, "bounds", "thm-book", "--p", "1/2", "--mu", "8192", "--t", "10",
            "--m", "1", "--r", "2", "--size-x", "100", "--size-ys", "10,10",
        )
        assert code == 0
        payload = json.loads(out)
        assert not payload["all_pass"]  # t is far below mu^5/p here

    @pytest.mark.parametrize(
        "argv",
        [
            # the |X| hypothesis is decided, but its log slack is near -3e335
            ["thm-book", "--p", "1/2", "--mu", "8192", "--t", str(10**330), "--m", "1", "--r", "2",
             "--size-x", "10", "--size-ys", "10,10"],
            # link ii-a's left side has a log near 1e318
            ["thm51", "--r", str(10**13)],
        ],
        ids=["thm-book", "thm51"],
    )
    def test_value_beyond_float_range_is_usage_error(self, capsys, argv):
        # strict JSON cannot print such a value; it used to crash with an OverflowError
        code, out, err = invoke(capsys, "bounds", *argv)
        assert code == 2
        assert out == "" and "beyond float range" in err

    def test_thm_book_empty_sets_print_strict_json(self, capsys):
        # |X| = |Y_i| = 0: the logs and slacks that do not exist are null, not -Infinity or NaN
        code, out, _ = invoke(
            capsys, "bounds", "thm-book", "--p", "1", "--mu", "8192", "--t", "1",
            "--m", "1", "--r", "1", "--size-x", "0", "--size-ys", "0",
        )
        assert code == 0
        payload = json.loads(out, parse_constant=reject_constant)
        by_label = {l["label"]: l for l in payload["hypotheses"]}
        for label in ("X", "Y0"):
            assert not by_label[label]["pass"]
            assert by_label[label]["lhs_log10"] is None and by_label[label]["slack_log"] is None
            assert by_label[label]["rhs_log10"] > 0


def json_keys(text):
    """Every object key of a JSON text, in the order the text has them."""
    def walk(value):
        if isinstance(value, tuple):  # an object, as its (key, value) pairs
            for key, item in value:
                yield key
                yield from walk(item)
        elif isinstance(value, list):
            for item in value:
                yield from walk(item)

    return list(walk(json.loads(text, object_pairs_hook=tuple)))


def verify_trace_argv(tmp_path, capsys, spoil_densities):
    rcg, trace = tmp_path / "c.rcg", tmp_path / "t.jsonl"
    invoke(capsys, "generate", "--n", "30", "--r", "2", "--seed", "4", "-o", str(rcg))
    invoke(capsys, "run-book", "-i", str(rcg), "--t", "2", "--lambda0", "5", "--delta", "1/8",
           "--trace", str(trace))
    if spoil_densities:  # every density of step 2, the last step with a non-empty X, set to 0
        lines = trace.read_text().splitlines()
        rec = json.loads(lines[-2])
        assert rec["s"] == 2 and rec["x_size"] > 0  # step 3, the last, empties X
        rec["densities"] = ["0/1", "0/1"]
        lines[-2] = json.dumps(rec, separators=(",", ":"))
        trace.write_text("\n".join(lines) + "\n")
    return ["verify-trace", "--trace", str(trace)]


class TestJsonKeyOrder:
    """The CLI prints each report's keys in a fixed order (``_emit`` does not
    sort them); this pins the exact stdout and exit code of the report commands."""

    THM_BOOK = ["bounds", "thm-book", "--m", "476", "--r", "2", "--t", "30", "--mu"]
    LINK = ["label", "description", "pass", "exact", "lhs_log10", "rhs_log10", "slack_log"]

    @pytest.mark.parametrize(
        "argv, code, keys, digest",
        [
            (["bounds", "thm51", "--r", "2"], 0,
             ["r", "k", "t", "all_pass", "links", *7 * LINK],
             "47706e1300f52a8f7b8dae75c7971a3ec87ca846edc57a2bed8fdbbde4692ae2"),
            (["bounds", "appendix", "--k", "12", "--t", "4", "--r", "3"], 0,
             ["k", "t", "r", "pass", "identity_ok", "lhs_log10", "rhs_log10"],
             "b1424b2dc913e0d4696d63752125337fe272fa913a640ac9bce299d6f7c30e26"),
            # mu and both Y_i hold, t and X fail
            ([*THM_BOOK, "8192", "--p", "1", "--size-x", "174233214",
              "--size-ys", "993596360619,65327533428"], 0,
             ["all_pass", "hypotheses", *5 * LINK],
             "3db95e76eb67140e35f4e1a84a390f93203de9f3ce3489eb02bc6e16c9f0e79e"),
            # every hypothesis fails
            ([*THM_BOOK, "100", "--p", "1/2", "--size-x", "10", "--size-ys", "10,10"], 0,
             ["all_pass", "hypotheses", *5 * LINK],
             "fc05198636f823a48e19f062f8b605a5c3328f7cb0be40f24644cd0cab27887c"),
        ],
        ids=["thm51", "appendix", "thm-book-some-hold", "thm-book-none-hold"],
    )
    def test_bounds(self, capsys, argv, code, keys, digest):
        got, out, _ = invoke(capsys, *argv)
        assert (got, json_keys(out)) == (code, keys)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    MONITOR = ["lemma", "ok", "skipped", "reason", "checked", "violations"]
    VIOLATION = ["s", "colour", "lhs", "rhs"]

    @pytest.mark.parametrize(
        "spoil, code, keys, digest",
        [
            (False, 0, ["trace", "monitors", *7 * MONITOR, "ok"],
             "dab33662a94a1ffe8d899dadfb7a2ccd8a2defcdbc554d50b3339bf95111a715"),
            # structure, 4.1 and 4.2 fail: structure's two violations first, then 4.1's two and 4.2's four
            (True, 1, ["trace", "monitors", *MONITOR, *2 * ["s", "problem"], *MONITOR, *2 * VIOLATION,
                       *MONITOR, *4 * VIOLATION, *4 * MONITOR, "ok"],
             "2a734d68b80d64ab15c54b3a57c9d478263893633b441266bca1da23d93b14b6"),
        ],
        ids=["engine-trace", "zeroed-densities"],
    )
    def test_verify_trace(self, tmp_path, capsys, spoil, code, keys, digest):
        argv = verify_trace_argv(tmp_path, capsys, spoil)
        got, out, _ = invoke(capsys, *argv)
        assert (got, json_keys(out)) == (code, keys)
        out = out.replace(argv[-1], "TRACE")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOracleCmd:
    def test_ramsey_pentagon_counterexample(self, capsys):
        code, out, _ = invoke(capsys, "oracle", "ramsey", "--r", "2", "--ks", "3,3", "--n", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "CounterexampleFound"
        assert payload["counterexample"].startswith("5 2\n")

    def test_python_m_matches_main(self, capsys):
        argv = ["oracle", "ramsey", "--r", "2", "--ks", "3,3", "--n", "5"]
        code, out, _ = invoke(capsys, *argv)
        proc = fresh_python("-m", "ramseybook", *argv)
        assert code == proc.returncode == 0
        assert proc.stdout == out

    def test_book(self, tmp_path, capsys):
        rcg = tmp_path / "c5.rcg"
        invoke(capsys, "generate", "--kind", "pentagon", "-o", str(rcg))
        code, out, _ = invoke(capsys, "oracle", "book", "-i", str(rcg), "--t", "1")
        assert code == 0
        assert json.loads(out)["m_max"] == 2


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    def test_removed_moments_command(self, capsys):
        assert invoke(capsys, "moments", "--seed", "3", "--ells", "2,1")[0] == EXIT_USAGE

    def test_missing_required(self, capsys):
        assert invoke(capsys, "generate")[0] == 2

    def test_missing_file(self, capsys):
        assert invoke(capsys, "regularise", "-i", "/nonexistent.rcg", "--eps", "1/10")[0] == 2

    def test_run_book_needs_thresholds(self, tmp_path, capsys):
        rcg = tmp_path / "c.rcg"
        invoke(capsys, "generate", "--n", "10", "--r", "2", "--seed", "1", "-o", str(rcg))
        code, _, _ = invoke(capsys, "run-book", "-i", str(rcg), "--t", "1",
                            "--trace", str(tmp_path / "t.jsonl"))
        assert code == 2

    def test_run_book_threshold_modes_exclusive(self, tmp_path, capsys):
        rcg = tmp_path / "c.rcg"
        trace = tmp_path / "t.jsonl"
        invoke(capsys, "generate", "--n", "10", "--r", "2", "--seed", "1", "-o", str(rcg))
        code, _, err = invoke(capsys, "run-book", "-i", str(rcg), "--t", "1",
                              "--lambda0", "10", "--delta", "1/16", "--mu", "4", "--p", "1/4",
                              "--trace", str(trace))
        assert code == 2
        assert "not both" in err
        assert not trace.exists()

    def test_oracle_zero_node_limit(self, capsys):
        code, _, err = invoke(capsys, "oracle", "ramsey", "--r", "2", "--ks", "3,3", "--n", "6",
                              "--node-limit", "0")
        assert code == 2
        assert "budget fields must be positive" in err

    @pytest.mark.parametrize("bad", [
        ["--mu", "0"],
        ["--mu", "-1"],
        ["--size-x", "-4"],
        ["--size-ys", "-3"],
    ])
    def test_thm_book_bad_mu_or_size(self, capsys, bad):
        base = {"--p": "1", "--mu": "1", "--t": "1", "--m": "1", "--r": "1",
                "--size-x": "1", "--size-ys": "1"}
        base[bad[0]] = bad[1]
        code, out, err = invoke(capsys, "bounds", "thm-book", *(x for kv in base.items() for x in kv))
        assert code == 2
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("sizes", ["100000000000000", "1,1,1", ""])
    def test_thm_book_needs_one_y_size_per_colour(self, capsys, sizes):
        code, out, err = invoke(capsys, "bounds", "thm-book", "--p", "1/2", "--mu", "8192", "--t", "100",
                                "--m", "1", "--r", "2", "--size-x", "1", "--size-ys", sizes)
        assert code == 2
        assert out == "" and "2 sizes" in err

    # the variable is read when the package is imported, so only a fresh
    # interpreter sees it
    @pytest.mark.parametrize("bits, code", [("24", 3), ("128", 0)])
    def test_undecided_has_its_own_exit_code(self, bits, code):
        proc = fresh_python("-m", "ramseybook.cli", "bounds", "thm51", "--r", "2", RF_PRECISION_BITS=bits)
        assert proc.returncode == code
        assert ("undecided: cannot order overlapping intervals at 24 bits" in proc.stderr) == (code == 3)

    @pytest.mark.parametrize("bits", ["abc", "8"])
    def test_bad_precision_env_is_usage_error(self, bits):
        proc = fresh_python("-m", "ramseybook.cli", "bounds", "thm51", "--r", "2", RF_PRECISION_BITS=bits)
        assert proc.returncode == 2
        assert f"bad RF_PRECISION_BITS value {bits!r}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("bits, want", [("abc", "128 'abc'"), ("8", "128 '8'"), ("64", "64 None")])
    def test_precision_env_is_parsed_once_on_import(self, bits, want):
        # bounds keeps the rejected text; cli.main only reports it
        probe = "from ramseybook import bounds; print(bounds.precision(), repr(bounds.REJECTED_PRECISION))"
        proc = fresh_python("-c", probe, RF_PRECISION_BITS=bits)
        assert proc.returncode == 0 and proc.stdout.strip() == want

    @pytest.mark.parametrize("bits", ["abc", "8"])
    def test_bad_precision_env_keeps_default_on_import(self, bits):
        proc = fresh_python("-c", "from ramseybook import bounds; print(bounds.precision())",
                            RF_PRECISION_BITS=bits)
        assert proc.returncode == 0 and proc.stdout.strip() == "128"


class TestConsoleScript:
    """The ``ramseybook`` command that ``pyproject.toml`` declares."""

    @staticmethod
    def declared():
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            return tomllib.load(fh)["project"]["scripts"]["ramseybook"]

    def test_declared_entry_point_is_callable(self):
        assert self.declared() == "ramseybook.cli:entrypoint"
        module, _, name = self.declared().partition(":")
        assert callable(getattr(importlib.import_module(module), name))

    @pytest.mark.parametrize("r, code", [("1", 2), ("2", 0)])
    def test_entry_point_exits_with_mains_code(self, r, code):
        # call the entry point as the installed script does, with sys.argv set
        run = ("import importlib, sys; module, _, name = sys.argv.pop(1).partition(':'); "
               "getattr(importlib.import_module(module), name)()")
        proc = fresh_python("-c", run, self.declared(), "bounds", "thm51", "--r", r)
        assert proc.returncode == code
        if code == 0:
            assert proc.stdout and proc.stdout == fresh_python("-m", "ramseybook", "bounds", "thm51", "--r", r).stdout
