"""``tools/src_size.py``, the size measure cited for ``src/``, on a fixture
whose counts can be read off by hand; checks that no ``src/`` module keeps an
import it never uses and that no new ``src/`` definition goes uncalled; and
``tools/check_digests.py`` on one workload."""

import ast
import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SRC = Path(__file__).resolve().parents[1] / "src" / "ramseybook"

FIXTURE = '''"""A module docstring
over two lines."""

# a comment on a line of its own
import os  # a trailing comment

total = sum(
    [1, len(os.sep)])
"a bare string statement"
if total > 2:
    x = 1
elif total:
    x = 2
y = 1 if x else 2
z = [v for v in range(3) if v]
'''


def _load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_size_counts_the_fixture(tmp_path):
    src_size = _load("src_size")
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    # code lines: import, the two lines of the call, if, x = 1, elif, x = 2, y, z;
    # not the docstring, the comment, the bare string or the blank lines
    assert src_size.code_lines(path) == 9
    # branches: the if, the elif and the conditional expression; a
    # comprehension's if is a filter, not an ast.If or ast.IfExp
    assert src_size.branches(path) == 3


def _unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_import_finder_on_a_fixture():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nos.sep\nd()\n"
    assert _unused_imports(source) == ["b"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name)
def test_src_modules_have_no_unused_imports(path):
    # __init__.py is skipped: its imports are re-exports
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unnamed_definitions(sources: dict[str, str]) -> set[str]:
    """The top-level functions and classes, as ``module.name``, whose name
    no code in ``sources`` (module -> source) mentions outside the
    definition's own body, as a name or as an attribute."""
    definitions, mentioned_in = set(), {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            if owner:
                definitions.add((module, owner))
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name:
                    mentioned_in.setdefault(name, set()).add((module, owner))
    return {f"{module}.{name}" for module, name in definitions
            if mentioned_in.get(name, set()) <= {(module, name)}}


def test_unnamed_definition_finder_on_a_fixture():
    sources = {
        "a": "def f():\n    return g()\ndef g():\n    return 1\ndef h():\n    return h()\nclass K:\n    pass\n",
        "b": "from . import a\na.K\n",
    }
    assert _unnamed_definitions(sources) == {"a.f", "a.h"}


# the top-level definitions of src/ that only the tests and the bench call
# (ROADMAP item 25); moving or wiring one takes it off this list
UNCALLED_IN_SRC = {
    "bounds.es_upper",
    "geometry.check_special_bounds",
    "geometry.find_lambda_witness",
    "geometry.verify_key_step",
    "geometry.verify_witness",
    "pipeline.desk_ramsey_driver",
}


def test_src_definitions_uncalled_in_src_are_the_listed_ones():
    # __init__.py is skipped: its imports are re-exports, not calls
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py") if p.name != "__init__.py"}
    assert _unnamed_definitions(sources) == UNCALLED_IN_SRC


def test_check_digests_names_a_doctored_digest(monkeypatch, capsys):
    check_digests = _load("check_digests")
    pinned = check_digests.PINNED["keystep-audit"]
    assert check_digests.main(["keystep-audit"]) == 0
    assert "all 1 seed-1 trace digests match: keystep-audit" in capsys.readouterr().out
    monkeypatch.setitem(check_digests.PINNED, "keystep-audit", "0" * 64)
    assert check_digests.main(["keystep-audit"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith(f"MISMATCH keystep-audit: trace_sha256 {pinned[:8]}")
    assert check_digests.main(["no-such-workload"]) == 2
