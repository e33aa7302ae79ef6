"""The benchmark's hooks into ``ramseybook``, checked without running it.

The tracer replaces names in ``ramseybook`` with timing wrappers
(``bench/tracing.py``'s ``WRAPS``); deleting or renaming one of those names in
``src/`` breaks ``Tracer.install()``.  Each workload's digest covers the
outputs (traces and report texts) of its first pass; a change that alters any
output changes the digest, so the tiny passes' digests are pinned here.  The
import itself must load no numpy, whose memory every workload's peak RSS would
carry."""

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


def test_import_loads_no_numpy():
    # importing numpy alone raises ru_maxrss by 8-13.5 MiB, and every
    # workload's peak_rss_mb includes the import
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import ramseybook\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
