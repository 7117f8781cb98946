"""The CI workflow runs every architecture rule of `tools/rules.py`, one
step per rule, under the step name the rule's docstring gives."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def rule_table():
    spec = importlib.util.spec_from_file_location("rules", ROOT / "tools" / "rules.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RULES


def test_one_ci_step_runs_each_rule():
    rules = rule_table()
    text = WORKFLOW.read_text(encoding="utf-8")
    # each run names exactly one rule, and each rule is run once
    runs = [args.split() for args in re.findall(r"tools/rules\.py\b(.*)", text)]
    assert sorted(runs) == sorted([rule] for rule in rules)
    steps = re.findall(r"- name: (.*)\n\s+run: python tools/rules\.py (\S+)\n", text)
    assert sorted((rule, name) for name, rule in steps) == sorted(
        (rule, function.__doc__.splitlines()[0]) for rule, function in rules.items()
    )
    # each docstring names the commit that introduced its rule
    assert all(re.search(r"\b[0-9a-f]{7}\b", function.__doc__) for function in rules.values())
