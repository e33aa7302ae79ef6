"""Check each workload's seed-1 trace digest against its pinned value.

For each named workload (all four when none is named) this runs

    python3 bench/run.py --workload W --seed 1 --seconds 0 --trace 0

once, in a subprocess, and compares the ``trace_sha256`` line it prints with
the full digest pinned below.  A digest changes only when a workload's
output does, so a change meant to keep every output byte-identical must
leave all four as they are; a change that alters an output re-pins its
digest here and names the old and new values.

    python3 tools/check_digests.py [WORKLOAD ...]

Exit status: 0 when every digest matches, 1 when some workload's digest
differs, is missing or its run failed (each named on stdout), 2 for an
unknown workload.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
PINNED = {
    "book-large": "7d37f80b1f395a986b821e6ac215f781ade2b95eb5058e40d12b59ddc68217c6",
    "keystep-audit": "a6a3810bb25af79e8e720289d37a2fa7b50993d5b54814a71322df7e37221ed6",
    "trace-audit": "ec5439604574516790706709973ca8248d687ba535453885e4a84ada4f5bbe8a",
    "certify": "a1de26161bf6eec8bdd03efbc321e2dbc9957664e0a26568a402f807aca0e579",
}


def digest(workload: str) -> tuple[str | None, int]:
    """The seed-1 ``trace_sha256`` that ``bench/run.py`` prints for ``workload``
    (None if it prints none), and its exit status."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    prefix = f"trace_sha256 {workload} seed={SEED} "
    found = [line.removeprefix(prefix) for line in proc.stdout.splitlines() if line.startswith(prefix)]
    return (found[0] if found else None), proc.returncode


def mismatches(pins: dict[str, str]) -> list[str]:
    """One line per workload in ``pins`` whose run fails or whose digest is not its pin."""
    bad = []
    for workload, want in pins.items():
        got, status = digest(workload)
        if got != want or status != 0:
            bad.append(f"{workload}: trace_sha256 {got}, pinned {want}, bench/run.py exit status {status}")
    return bad


def main(argv: list[str] | None = None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = [name for name in names if name not in PINNED]
    if unknown:
        print(f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(PINNED)}", file=sys.stderr)
        return 2
    pins = {name: PINNED[name] for name in names or PINNED}
    bad = mismatches(pins)
    for line in bad:
        print(f"MISMATCH {line}")
    if not bad:
        print(f"all {len(pins)} seed-{SEED} trace digests match: {', '.join(pins)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
