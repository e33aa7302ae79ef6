"""``tools/src_size.py``, the size measure cited for ``src/``, on a fixture
whose counts can be read off by hand."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

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
