"""``tools/src_size.py``, the size measure cited for ``src/``, on a fixture
whose counts can be read off by hand, and a check that no ``src/`` module
keeps an import it never uses."""

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
