"""The README's CLI examples, run in order in a fresh directory."""

import json
import re
import shlex
from pathlib import Path

from ramseybook.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """Every ``ramseybook ...`` line of README's ``sh`` blocks, as argv lists."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "ramseybook":
                commands.append(argv[1:])
    return commands


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_readme_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    """Each example exits 0 and prints strict JSON (no NaN or Infinity) on stdout."""
    commands = readme_commands()
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0, (argv, err)
        json.loads(out, parse_constant=reject_constant)
