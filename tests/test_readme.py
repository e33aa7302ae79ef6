"""The README's CLI examples, run in order in a fresh directory."""

import argparse
import json
import re
import shlex
from pathlib import Path

from ramseybook import cli
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


def test_cli_docs_name_every_subcommand():
    """The parser's subcommands are exactly the ``generate | ... | oracle``
    list of the cli docstring, and each one starts a README example."""
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    listed = re.search(r"Command-line surface: ([^.]*)\.", cli.__doc__).group(1)
    documented = [name.strip() for name in listed.split("|")]
    assert sorted(subparsers.choices) == sorted(documented)
    examples = {argv[0] for argv in readme_commands()}
    assert set(documented) <= examples, set(documented) - examples
