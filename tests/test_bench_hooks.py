"""The benchmark's tracer replaces names in ``ramseybook`` with timing wrappers
(``bench/tracing.py``'s ``WRAPS``).  Deleting or renaming one of those names
in ``src/`` breaks ``Tracer.install()``; this test catches that without
running the benchmark."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_to_a_callable():
    wraps = _load_tracing().WRAPS
    assert wraps
    broken = [f"{owner.__name__}.{attr}" for owner, attr, *_ in wraps
              if not callable(getattr(owner, attr, None))]
    assert broken == []
