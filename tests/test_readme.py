"""The README's `>>>` examples run as doctests, its command lines run
through the CLI, and its list of exports is `harmgerm.__all__`."""

import doctest
import re
import shlex
from pathlib import Path

import harmgerm
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


def test_exports_list_is_all():
    section = README.read_text().split("\n### Exports\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^- `(\w+)`", section, re.MULTILINE) == harmgerm.__all__
