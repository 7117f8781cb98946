"""The README's `>>>` examples run as doctests, and its command lines run
through the CLI."""

import doctest
import shlex
from pathlib import Path

from harmgerm.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_commands_succeed(capsys):
    commands = [
        shlex.split(line, comments=True)
        for line in README.read_text().splitlines()
        if line.startswith("harmgerm ")
    ]
    assert len(commands) >= 9
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()
