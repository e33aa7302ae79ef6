"""Command-line surface: generate | run-book | verify-trace | regularise |
bounds | oracle.

Machine-readable JSON goes to stdout, human summaries to stderr.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 undecided at the working
precision.  RF_PRECISION_BITS, read once when the package is imported and
applied when the package loads mpmath at its first interval enclosure,
overrides the working precision (default 128 bits); a bad value is a usage
error.  At desk scale, generate, regularise, oracle and run-book given
--lambda0 and --delta build no interval, so they never load mpmath.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import book_engine, colouring, monitors, oracle, pipeline
from .errors import (
    BudgetExceeded,
    DegenerateDensity,
    InvalidInput,
    LemmaViolation,
    ParseError,
    PrecisionExhausted,
    RamseyBookError,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


def _rational(text: str) -> Fraction:
    """A rational option, by the package's one reader ``bounds.read_rational``."""
    try:
        return bounds_mod.read_rational(text)
    except InvalidInput as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from None


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, allow_nan=False))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_colouring(path: str) -> colouring.EdgeColouring:
    # universal newlines, as a text-mode read gives; no name keeps the bytes,
    # so that parse_colouring frees them before it builds the colouring
    return colouring.parse_colouring(colouring.read_ascii(path).replace(b"\r\n", b"\n").replace(b"\r", b"\n"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    if args.kind == "pentagon":
        c = colouring.pentagon_colouring()
    elif args.kind == "random":
        c = colouring.random_colouring(args.n, args.r, args.seed)
    else:  # product of two seeded random factors
        c1 = colouring.random_colouring(args.n, args.r, args.seed)
        c2 = colouring.random_colouring(args.n, args.r, args.seed + 1)
        c = colouring.product_colouring(c1, c2)
    data = c.serialize().encode("ascii")
    Path(args.output).write_bytes(data)
    _emit({"file": args.output, "n": c.n, "r": c.r, "sha256": hashlib.sha256(data).hexdigest()})
    _note(f"wrote {args.kind} colouring n={c.n} r={c.r} to {args.output}")
    return EXIT_OK


def _cmd_run_book(args) -> int:
    c = _load_colouring(args.input)
    if (args.mu, args.p) == (None, None) and None not in (args.lambda0, args.delta):
        delta, lambda0 = args.delta, args.lambda0
    elif (args.lambda0, args.delta) == (None, None) and None not in (args.mu, args.p):
        delta, lambda0 = book_engine.derive_boost_threshold(args.mu, args.p, c.r)
    else:
        raise InvalidInput("give either --lambda0 and --delta or --mu and --p, not both")
    params = book_engine.EngineParams(t=args.t, lambda0=lambda0, delta=delta)
    full = c.vertices
    summary = {"n": c.n, "r": c.r, "t": args.t}
    try:
        outcome = book_engine.run(c, full, [full] * c.r, params)
        trace = outcome.trace
        summary["result"] = outcome.result
        if outcome.found:
            summary["book"] = {
                "colour": outcome.book_colour,
                "spine": colouring.vertex_list(outcome.spine),
                "pages": outcome.pages.bit_count(),
            }
    except DegenerateDensity as e:
        trace = e.trace
        summary["result"] = "degenerate_density"
        summary["colour"] = e.colour
    summary["steps"] = len(trace.records)
    book_engine.write_trace(trace, args.trace)
    summary["trace"] = args.trace
    _emit(summary)
    _note(f"{summary['result']} after {summary['steps']} steps; trace in {args.trace}")
    return EXIT_OK


def _cmd_verify_trace(args) -> int:
    trace = book_engine.read_trace(args.trace)
    reports = monitors.run_all_monitors(trace)
    payload = {"trace": args.trace, "monitors": [r.to_json() for r in reports]}
    failing = [r.lemma for r in reports if not r.ok]
    payload["ok"] = not failing
    _emit(payload)
    if failing:
        _note(f"violated: {', '.join(failing)}")
        return EXIT_VERIFY
    _note(f"all monitors passed ({sum(r.checked for r in reports)} checks)")
    return EXIT_OK


def _cmd_regularise(args) -> int:
    c = _load_colouring(args.input)
    res = pipeline.regularise(c, args.eps)
    _emit(
        {
            "n": c.n,
            "r": c.r,
            "eps": str(args.eps),
            "s_sets": [colouring.vertex_list(s) for s in res.s_sets],
            "w_size": res.w.bit_count(),
            "w": colouring.vertex_list(res.w),
            "invariants_ok": True,
        }
    )
    _note(f"peeled {res.total_spine} vertices; |W| = {res.w.bit_count()}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if args.which == "thm51":
        report = bounds_mod.thm51_chain(args.r)
        _emit(report.to_json())
        if not report.all_pass:
            bad = [l.label for l in report.links if not l.passes]
            _note(f"failing links: {', '.join(bad)}")
            return EXIT_VERIFY
        _note("all chain links pass")
        return EXIT_OK
    if args.which == "appendix":
        report = bounds_mod.appendix_check(args.k, args.t, args.r)
        _emit(report.to_json())
        if not (report.passes and report.identity_ok):
            _note("appendix bound failed")
            return EXIT_VERIFY
        _note("appendix bound and product identity verified")
        return EXIT_OK
    # thm-book
    report = bounds_mod.thm_book_hypotheses(
        args.p, args.mu, args.t, args.m, args.r, args.size_x, args.size_ys
    )
    _emit(report.to_json())
    _note("all hypotheses hold" if report.all_pass else "some hypotheses fail")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    budget = None if args.node_limit is None else oracle.SearchBudget(node_limit=args.node_limit)
    if args.which == "ramsey":
        res = oracle.ramsey_exhaustive(args.r, args.ks, args.n, budget)
        payload = {"result": res.result, "nodes": res.nodes}
        if res.counterexample is not None:
            payload["counterexample"] = res.counterexample.serialize()
        _emit(payload)
        _note(res.result)
        return EXIT_OK
    c = _load_colouring(args.input)
    res = oracle.best_book(c, args.t, budget)
    if res is None:
        _emit({"result": "NoSpine", "t": args.t})
        _note(f"no monochromatic clique of size {args.t}")
        return EXIT_OK
    _emit(
        {
            "m_max": res.pages,
            "colour": res.colour,
            "spine": colouring.vertex_list(res.spine),
            "pages": colouring.vertex_list(res.pages_mask),
        }
    )
    _note(f"best ({args.t}, m)-book has m = {res.pages} in colour {res.colour}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ramseybook", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a colouring file")
    g.add_argument("--n", type=int, default=5)
    g.add_argument("--r", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--kind", choices=["random", "product", "pentagon"], default="random")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_generate)

    rb = sub.add_parser("run-book", help="run the book algorithm and write a trace")
    rb.add_argument("-i", "--input", required=True)
    rb.add_argument("--t", type=int, required=True)
    for option in ("--lambda0", "--delta", "--mu", "--p"):
        rb.add_argument(option, type=_rational)
    rb.add_argument("--trace", required=True)
    rb.set_defaults(func=_cmd_run_book)

    vt = sub.add_parser("verify-trace", help="run every invariant monitor over a trace")
    vt.add_argument("--trace", required=True)
    vt.set_defaults(func=_cmd_verify_trace)

    rg = sub.add_parser("regularise", help="peel to a near-regular core")
    rg.add_argument("-i", "--input", required=True)
    rg.add_argument("--eps", type=_rational, required=True)
    rg.set_defaults(func=_cmd_regularise)

    b = sub.add_parser("bounds", help="closed-form bound verification")
    bsub = b.add_subparsers(dest="which", required=True)
    b51 = bsub.add_parser("thm51")
    b51.add_argument("--r", type=int, required=True)
    bap = bsub.add_parser("appendix")
    bap.add_argument("--k", type=int, required=True)
    bap.add_argument("--t", type=int, required=True)
    bap.add_argument("--r", type=int, required=True)
    btb = bsub.add_parser("thm-book")
    btb.add_argument("--p", type=_rational, required=True)
    btb.add_argument("--mu", type=_rational, required=True)
    btb.add_argument("--t", type=int, required=True)
    btb.add_argument("--m", type=int, required=True)
    btb.add_argument("--r", type=int, required=True)
    btb.add_argument("--size-x", type=int, required=True)
    btb.add_argument("--size-ys", type=_int_list, required=True)
    b.set_defaults(func=_cmd_bounds)

    o = sub.add_parser("oracle", help="brute-force reference searches")
    osub = o.add_subparsers(dest="which", required=True)
    oram = osub.add_parser("ramsey")
    oram.add_argument("--r", type=int, required=True)
    oram.add_argument("--ks", type=_int_list, required=True)
    oram.add_argument("--n", type=int, required=True)
    oram.add_argument("--node-limit", type=int, default=None)
    obook = osub.add_parser("book")
    obook.add_argument("-i", "--input", required=True)
    obook.add_argument("--t", type=int, required=True)
    obook.add_argument("--node-limit", type=int, default=None)
    o.set_defaults(func=_cmd_oracle)

    return ap


def main(argv=None) -> int:
    if bounds_mod.REJECTED_PRECISION is not None:
        _note(f"bad {bounds_mod.PRECISION_ENV} value {bounds_mod.REJECTED_PRECISION!r}")
        return EXIT_USAGE
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except LemmaViolation as e:
        _note(f"verification failure: {e}")
        return EXIT_VERIFY
    except (InvalidInput, ParseError, OSError, BudgetExceeded) as e:
        _note(f"error: {e}")
        return EXIT_USAGE
    except PrecisionExhausted as e:
        _note(f"undecided: {e}")
        return EXIT_UNDECIDED
    except RamseyBookError as e:
        _note(f"error: {e}")
        return EXIT_VERIFY


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
