"""Self-test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest bench/test_bench.py -q``.
Checks that every metric named in BENCHMARK.json is emitted with its unit,
and that a deliberately wrong program output is counted as a failed job.
"""

import dataclasses
import json
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

from ramseybook import book_engine, geometry, oracle

import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(workload, trace):
    result = run.measure(workload, seed=7, seconds=0, trace=trace, tiny=True)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        value = {name: m["value"] for name, m in result["metrics"].items()}
        covered = sum(value[f"{layer}.self_s"] for layer in tracing.LAYERS) + value["bench.job_self_s"]
        assert covered == pytest.approx(value["bench.job_wall_s"], rel=1e-9)


def test_counts_repeat_for_a_seed():
    first, second = (
        run.measure("trace-audit", seed=3, seconds=0, trace=True, tiny=True)["result"]["metrics"]
        for _ in range(2)
    )
    counts = [name for name, unit in _units("per_layer").items() if unit in ("count", "bytes")]
    assert counts and all(first[n]["value"] == second[n]["value"] for n in counts)


def _shrink_first_step(real_run):
    """Engine whose first trace record claims X did not shrink."""

    def wrong(*args, **kwargs):
        out = real_run(*args, **kwargs)
        rec = dataclasses.replace(out.trace.records[0], x_size=out.trace.header.initial_x_size)
        trace = dataclasses.replace(out.trace, records=(rec,) + out.trace.records[1:])
        return dataclasses.replace(out, trace=trace)

    return wrong


def _overcount_witness(real_find):
    def wrong(*args, **kwargs):
        rep = real_find(*args, **kwargs)
        return dataclasses.replace(rep, pair_count=rep.pair_count + 1)

    return wrong


def _flip_ramsey(real_ramsey):
    def wrong(*args, **kwargs):
        res = real_ramsey(*args, **kwargs)
        return dataclasses.replace(res, all_contain=not res.all_contain)

    return wrong


WRONG_OUTPUTS = {
    "book-large": (book_engine, "run", _shrink_first_step),
    "trace-audit": (book_engine, "run", _shrink_first_step),
    "keystep-audit": (geometry, "find_lambda_witness", _overcount_witness),
    "certify": (oracle, "ramsey_exhaustive", _flip_ramsey),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_output_counts_as_failed(workload, monkeypatch):
    owner, attr, corrupt = WRONG_OUTPUTS[workload]
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    out = run.measure(workload, seed=7, seconds=0, trace=False, tiny=True)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(line.startswith("FAILED ") for line in out["report"])
