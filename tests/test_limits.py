"""`tools/limits.py` runs every command at the limits the CLI accepts, on
arguments one argv string can carry, and pins each row's stdout. Its
inputs are built here; no row is run."""

import importlib.util
import re
from pathlib import Path

import pytest

from harmgerm.cli import MAX_DEGREE, RANGES, build_parser
from harmgerm.polyring import parse_poly

ROOT = Path(__file__).resolve().parent.parent
# Linux's MAX_ARG_STRLEN: the bytes of one argv string, its terminating NUL included
MAX_ARG_STRLEN = 131072


@pytest.fixture(scope="module")
def limits():
    spec = importlib.util.spec_from_file_location("limits", ROOT / "tools" / "limits.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def rows(limits):
    """(parsed CLI arguments, argv, expected exit code) of each row."""
    parser, table = build_parser(), []
    for _, build, _, code, _, _ in limits.ROWS:
        argv = build()
        table.append((parser.parse_args(argv), argv, code))
    return table


def test_every_limit_has_a_row(rows):
    accepted = [args for args, _, code in rows if code != 2]
    assert {args.command for args, _, _ in rows} == RANGES.keys() | MAX_DEGREE.keys()
    for command, options in RANGES.items():
        for option, (_, high) in options.items():
            # at degree 400 the Almansi layers stop at 201, the row's --s
            if high is None or (command, option) == ("almansi", "s"):
                continue
            assert any(args.command == command and getattr(args, option) == high for args in accepted), (command, option)
    for command, cap in MAX_DEGREE.items():
        assert any(args.command == command and parse_poly(args.poly).degree() == cap for args in accepted), command


def test_every_argument_fits_one_argv_string(rows):
    for _, argv, _ in rows:
        assert all(len(arg.encode()) + 1 <= MAX_ARG_STRLEN for arg in argv)


def test_every_row_pins_its_stdout(limits):
    for name, *_, digest in limits.ROWS:
        assert re.fullmatch("[0-9a-f]{64}", digest), name
