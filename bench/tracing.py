"""Spans and counters recorded from outside the program.

``Tracer.install()`` replaces module attributes of ``ramseybook`` (the names
the package itself calls through, such as ``book_engine.key_lemma_step``)
with wrappers that record a span per call and update counters from the
call's arguments and result.  ``restore()`` puts the originals back.  Spans
are kept in memory; ``layer_metrics()`` derives the per-layer metrics and
``write_spans()`` saves them as JSON lines.

A layer is the prefix of a span name before its first dot.  A span's self
time is its duration minus the time its direct children cover; the job's
root span, named ``bench.job``, keeps what no layer covers, which is the
benchmark's own loop and checks.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from time import perf_counter_ns

from ramseybook import book_engine, bounds, colouring, geometry, monitors, oracle, pipeline
from ramseybook.errors import DegenerateDensity, PrecisionExhausted

LAYERS = ("colouring", "geometry", "book_engine", "monitors", "pipeline", "oracle", "bounds")
DRIVER_BRANCHES = ("trivial", "spine_clique", "escape", "degenerate", "book", "book_clique")

# (metric, unit, better) for every per-layer metric, in report order
LAYER_METRICS = [
    ("colouring.parse_s", "s", "lower"),
    ("colouring.parse_calls", "count", "lower"),
    ("colouring.edges_parsed", "count", "lower"),
    ("colouring.sha256_s", "s", "lower"),
    ("geometry.key_step_s", "s", "lower"),
    ("geometry.key_step_calls", "count", "lower"),
    ("geometry.key_step_pairs", "count", "lower"),
    ("geometry.build_embedding_s", "s", "lower"),
    ("geometry.min_density_s", "s", "lower"),
    ("geometry.min_density_calls", "count", "lower"),
    ("geometry.witness_bound_s", "s", "lower"),
    ("geometry.witness_bound_calls", "count", "lower"),
    ("geometry.find_witness_s", "s", "lower"),
    ("geometry.verify_witness_s", "s", "lower"),
    ("geometry.verify_witness_pairs", "count", "lower"),
    ("geometry.verify_key_step_s", "s", "lower"),
    ("geometry.special_bounds_s", "s", "lower"),
    ("geometry.special_bounds_calls", "count", "lower"),
    ("geometry.size_bound_met_ratio", "share", "higher"),
    ("geometry.nondiagonal_witness_ratio", "share", "higher"),
    ("book_engine.run_self_s", "s", "lower"),
    ("book_engine.runs", "count", "lower"),
    ("book_engine.rounds", "count", "lower"),
    ("book_engine.degenerate_runs", "count", "lower"),
    ("book_engine.codec_s", "s", "lower"),
    ("book_engine.trace_bytes", "bytes", "lower"),
    ("monitors.s", "s", "lower"),
    ("monitors.checks", "count", "higher"),
    ("monitors.skipped", "count", "lower"),
    ("monitors.violations", "count", "lower"),
    ("pipeline.regularise_s", "s", "lower"),
    ("pipeline.driver_self_s", "s", "lower"),
    ("pipeline.driver_calls", "count", "lower"),
    *((f"pipeline.branch.{b}", "count", "higher") for b in DRIVER_BRANCHES),
    ("oracle.clique_s", "s", "lower"),
    ("oracle.clique_calls", "count", "lower"),
    ("oracle.ramsey_s", "s", "lower"),
    ("oracle.ramsey_nodes", "count", "lower"),
    ("bounds.interval_compares", "count", "lower"),
    ("bounds.precision_exhausted", "count", "lower"),
    ("bounds.appendix_s", "s", "lower"),
    ("bounds.thm_book_s", "s", "lower"),
    ("bounds.lemma53_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("bench.job_self_s", "s", "lower"),
    ("bench.job_wall_s", "s", "lower"),
    ("trace.untraced_jobs_per_s", "jobs/s", "higher"),
    ("trace.traced_jobs_per_s", "jobs/s", "higher"),
    ("trace.overhead_share", "share", "lower"),
]

# per-layer "<name>_s" metric -> the span whose total duration it reports
DURATION_OF = {
    "colouring.parse_s": "colouring.parse",
    "colouring.sha256_s": "colouring.sha256",
    "geometry.key_step_s": "geometry.key_step",
    "geometry.build_embedding_s": "geometry.build_embedding",
    "geometry.min_density_s": "geometry.min_density",
    "geometry.witness_bound_s": "geometry.witness_bound",
    "geometry.find_witness_s": "geometry.find_witness",
    "geometry.verify_witness_s": "geometry.verify_witness",
    "geometry.verify_key_step_s": "geometry.verify_key_step",
    "geometry.special_bounds_s": "geometry.special_bounds",
    "book_engine.codec_s": "book_engine.codec",
    "monitors.s": "monitors.run_all",
    "pipeline.regularise_s": "pipeline.regularise",
    "oracle.clique_s": "oracle.clique",
    "oracle.ramsey_s": "oracle.ramsey",
    "bounds.appendix_s": "bounds.appendix",
    "bounds.thm_book_s": "bounds.thm_book",
    "bounds.lemma53_s": "bounds.lemma53",
}
SELF_OF = {"book_engine.run_self_s": "book_engine.run", "pipeline.driver_self_s": "pipeline.driver"}
CALLS_OF = {
    "colouring.parse_calls": "colouring.parse",
    "geometry.key_step_calls": "geometry.key_step",
    "geometry.min_density_calls": "geometry.min_density",
    "geometry.witness_bound_calls": "geometry.witness_bound",
    "geometry.special_bounds_calls": "geometry.special_bounds",
    "book_engine.runs": "book_engine.run",
    "pipeline.driver_calls": "pipeline.driver",
    "oracle.clique_calls": "oracle.clique",
}


# ---------------------------------------------------------------------------
# counters updated from arguments and results
# ---------------------------------------------------------------------------

def _parsed(counts, args, result):
    counts["colouring.edges_parsed"] += result.n * (result.n - 1) // 2


def _witness(counts, pair_count: int, xsize: int):
    counts["witnesses"] += 1
    counts["nondiagonal_witnesses"] += pair_count > xsize


def _key_step(counts, args, result):
    c, xset = args[0], args[1]
    xsize = xset.bit_count()
    counts["geometry.key_step_pairs"] += xsize * xsize * c.r
    counts["size_bound_met"] += result.met_size_bound
    _witness(counts, int(result.q * xsize * xsize), xsize)


def _found_witness(counts, args, result):
    _witness(counts, result.pair_count, math.isqrt(result.total_pairs))


def _verify_witness(counts, args, result):
    counts["geometry.verify_witness_pairs"] += args[1].bit_count() ** 2


def _engine_run(counts, args, result):
    counts["book_engine.rounds"] += len(result.trace.records)


def _engine_degenerate(counts, args, exc):
    if isinstance(exc, DegenerateDensity) and exc.trace is not None:
        counts["book_engine.degenerate_runs"] += 1
        counts["book_engine.rounds"] += len(exc.trace.records)


def _trace_text(counts, args, result):
    counts["book_engine.trace_bytes"] += len(result)


def _monitors(counts, args, result):
    for rep in result:
        counts["monitors.checks"] += rep.checked
        counts["monitors.skipped"] += rep.skipped
        counts["monitors.violations"] += len(rep.violations)


def _driver(counts, args, result):
    counts[f"pipeline.branch.{result.report['branch']}"] += 1


def _ramsey(counts, args, result):
    counts["oracle.ramsey_nodes"] += result.nodes


def _compare(counts, args, result):
    counts["bounds.interval_compares"] += 1


def _compare_undecided(counts, args, exc):
    counts["bounds.interval_compares"] += 1
    counts["bounds.precision_exhausted"] += isinstance(exc, PrecisionExhausted)


# (owner, attribute, span name or None for a counter only, on_return, on_raise)
WRAPS = [
    (colouring, "parse_colouring", "colouring.parse", _parsed, None),
    (colouring.EdgeColouring, "sha256", "colouring.sha256", None, None),
    (geometry, "key_lemma_step", "geometry.key_step", _key_step, None),
    (book_engine, "key_lemma_step", "geometry.key_step", _key_step, None),
    (geometry, "build_embedding", "geometry.build_embedding", None, None),
    (geometry, "min_density", "geometry.min_density", None, None),
    (book_engine, "min_density", "geometry.min_density", None, None),
    (geometry, "witness_bound_upper", "geometry.witness_bound", None, None),
    (geometry, "find_lambda_witness", "geometry.find_witness", _found_witness, None),
    (geometry, "verify_witness", "geometry.verify_witness", _verify_witness, None),
    (geometry, "verify_key_step", "geometry.verify_key_step", None, None),
    (geometry, "check_special_bounds", "geometry.special_bounds", None, None),
    (book_engine, "run", "book_engine.run", _engine_run, _engine_degenerate),
    (pipeline, "run", "book_engine.run", _engine_run, _engine_degenerate),
    (book_engine.Trace, "to_text", "book_engine.codec", _trace_text, None),
    (book_engine, "parse_trace", "book_engine.codec", None, None),
    (monitors, "run_all_monitors", "monitors.run_all", _monitors, None),
    (pipeline, "desk_ramsey_driver", "pipeline.driver", _driver, None),
    (pipeline, "regularise", "pipeline.regularise", None, None),
    (pipeline, "max_mono_clique", "oracle.clique", None, None),
    (oracle, "ramsey_exhaustive", "oracle.ramsey", _ramsey, None),
    (bounds, "appendix_check", "bounds.appendix", None, None),
    (bounds, "thm_book_hypotheses", "bounds.thm_book", None, None),
    # lemma53_check lives in pipeline but is LogScalar arithmetic throughout
    (pipeline, "lemma53_check", "bounds.lemma53", None, None),
    *((mod, "certify_interval_ge", None, _compare, _compare_undecided)
      for mod in (bounds, geometry, monitors, pipeline)),
]


class Tracer:
    """Records spans ``[name, start_ns, end_ns, parent_index, job]`` and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._job = None
        self._saved: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0, 0, parent, self._job])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter_ns()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter_ns()
        self._stack.pop()

    def begin_job(self, job: int) -> int:
        self._job = job
        return self.begin("bench.job")

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, on_return, on_raise):
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = None if name is None else self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if idx is not None:
                    self.end(idx)
                if on_raise is not None:
                    on_raise(counts, args, exc)
                raise
            if idx is not None:
                self.end(idx)
            if on_return is not None:
                on_return(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, attr, name, on_return, on_raise in WRAPS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, on_return, on_raise))

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metric values from the recorded spans and counters."""
        duration = Counter()
        self_ns = Counter()
        calls = Counter()
        for name, start, end, _parent, _job in self.spans:
            duration[name] += end - start
            self_ns[name] += end - start
            calls[name] += 1
        for name, start, end, parent, _job in self.spans:
            if parent is not None:
                self_ns[self.spans[parent][0]] -= end - start
        layer_self = Counter()
        for name, ns in self_ns.items():
            layer_self[name.split(".", 1)[0]] += ns

        out = {}
        for metric, span in DURATION_OF.items():
            out[metric] = duration[span] / 1e9
        for metric, span in SELF_OF.items():
            out[metric] = self_ns[span] / 1e9
        for metric, span in CALLS_OF.items():
            out[metric] = calls[span]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / 1e9
        out["bench.job_self_s"] = self_ns["bench.job"] / 1e9
        out["bench.job_wall_s"] = duration["bench.job"] / 1e9
        c = self.counts
        out["geometry.size_bound_met_ratio"] = _ratio(c["size_bound_met"], calls["geometry.key_step"])
        out["geometry.nondiagonal_witness_ratio"] = _ratio(c["nondiagonal_witnesses"], c["witnesses"])
        for metric, _unit, _better in LAYER_METRICS:
            if metric not in out and not metric.startswith("trace."):
                out[metric] = c[metric]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "job": job}) + "\n")


def _ratio(num: int, den: int) -> float:
    """num / den, or 0.0 on a workload that never reaches the layer."""
    return num / den if den else 0.0
