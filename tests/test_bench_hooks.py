"""The benchmark's hooks into ``ramseybook``, checked without running it.

The tracer replaces names in ``ramseybook`` with timing wrappers
(``bench/tracing.py``'s ``WRAPS``); deleting or renaming one of those names in
``src/`` breaks ``Tracer.install()``.  Each workload's digest covers the
outputs (traces and report texts) of its first pass; a change that alters any
output changes the digest, so the tiny passes' digests are pinned here.  The
import itself must load no numpy, whose memory every workload's peak RSS would
carry, and no mpmath, which desk-scale runs never use."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = BENCH.parent / "src"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_to_a_callable():
    wraps = _load("tracing").WRAPS
    assert wraps
    broken = [f"{owner.__name__}.{attr}" for owner, attr, *_ in wraps
              if not callable(getattr(owner, attr, None))]
    assert broken == []


# SHA-256 over the outputs of one tiny pass at seed 1, in job order, as ``Loop`` hashes them
TINY_DIGESTS = {
    "book-large": "79e0dc5b464050708885dac1aef1c181d46385e4336cafcec6ca421842022f24",
    "keystep-audit": "4fc2bc10b116a8175125ed2f36b657b5c481582eb59f32d025203e7afca25015",
    "trace-audit": "ef6a8361ebe1b227bcd3721b23e05de913776335ac8c5d3ab41899d90aa6e61a",
    "certify": "9dc91272a3ede9db1f1f23af79ee69766d9ec2fdbc53e5384caf0f997b5e5041",
}


@pytest.mark.parametrize("workload", TINY_DIGESTS)
def test_tiny_pass_outputs_unchanged(workload):
    h = hashlib.sha256()
    for job in _load("workloads").build(workload, 1, tiny=True):
        ok, output = job()
        assert ok
        h.update(b"" if output is None else output.encode("ascii"))
    assert h.hexdigest() == TINY_DIGESTS[workload]


def _loaded_after(body: str, package: str) -> str:
    """The printed sorted list of ``package``'s modules loaded after ``import ramseybook``
    and ``body``, in a fresh interpreter."""
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import ramseybook\n"
        f"{body}\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout.splitlines()[-1]


def test_import_loads_no_numpy():
    # importing numpy alone raises ru_maxrss by 8-13.5 MiB, and every
    # workload's peak_rss_mb includes the import
    assert _loaded_after("", "numpy") == "[]"


def test_import_loads_no_mpmath():
    # mpmath adds about 4 MiB to ru_maxrss; the package loads it at its first
    # interval enclosure (bounds.load_mpmath)
    assert _loaded_after("", "mpmath") == "[]"


# book-large's and keystep-audit's paths, and the CLI's generate, run-book and verify-trace, at desk scale:
# every decision there is an exact cap, so none of them builds an interval
DESK_SCALE = """
import os, tempfile
from fractions import Fraction as F
from ramseybook import book_engine, cli, colouring, geometry, monitors
from ramseybook.errors import DegenerateDensity

params = book_engine.EngineParams(t=2, lambda0=F(10), delta=F(1, 16))
for seed, (n, r) in enumerate([(40, 2), (50, 3), (20, 2), (24, 3)]):
    c = colouring.random_colouring(n, r, seed)
    full = c.vertices
    try:
        trace = book_engine.run(c, full, [full] * r, params).trace
    except DegenerateDensity as e:
        trace = e.trace
    trace.to_text()
    assert all(rep.ok for rep in monitors.run_all_monitors(trace))
    densities = [geometry.min_density(c, full, full, i) for i in range(r)]
    alphas = [(p - min(densities) + F(1, 4)) / 2 for p in densities]  # keystep-audit's alphas
    ks = geometry.key_lemma_step(c, full, [full] * r, alphas)
    assert geometry.verify_key_step(c, full, [full] * r, alphas, ks).all_ok
    report = geometry.find_lambda_witness(geometry.build_embedding(c, full, [full] * r, alphas))
    geometry.verify_witness(c, full, [full] * r, alphas, report)
with tempfile.TemporaryDirectory() as tmp:
    rcg, trace = os.path.join(tmp, "c.rcg"), os.path.join(tmp, "t.jsonl")
    assert cli.main(["generate", "--n", "30", "--r", "2", "--seed", "1", "-o", rcg]) == 0
    assert cli.main(["run-book", "-i", rcg, "--t", "2", "--lambda0", "10", "--delta", "1/16", "--trace", trace]) == 0
    assert cli.main(["verify-trace", "--trace", trace]) == 0
"""


def test_desk_scale_paths_load_no_mpmath():
    assert _loaded_after(DESK_SCALE, "mpmath") == "[]"
