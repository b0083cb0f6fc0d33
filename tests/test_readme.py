import argparse
import re
from pathlib import Path

import pytest

from lnoisim.cli import _add_common_arguments
from lnoisim.experiments import COMMON_FIELDS, FIELDS

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_example_runs(index):
    # A name the README uses but the package no longer has fails here.
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def _names(cell):
    return re.findall(r"`([^`]+)`", cell)


def test_readme_key_table_lists_the_declared_keys():
    # The (experiment, key) pairs of the README key table are those of
    # experiments.FIELDS; a cell like `voltage_start`, `voltage_stop` names two.
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| experiment | key | when absent | accepted |")
    listed, experiment = set(), None
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        _, first, second, *_ = line.split("|")
        experiment = (_names(first) or [experiment])[0]
        listed |= {(experiment, key) for key in _names(second)}
    assert listed == {(experiment, key) for experiment, keys in FIELDS.items() for key in keys}
    common = next(line for line in lines[:start] if line.startswith("Every config carries"))
    assert set(COMMON_FIELDS) <= set(_names(common + lines[lines.index(common) + 1]))


def test_readme_usage_line_names_the_declared_flags():
    # A flag the CLI retires cannot linger in the usage line, nor a new one go unlisted.
    usage = next(line for line in README.read_text(encoding="utf-8").splitlines()
                 if line.startswith("lnoisim <experiment> "))
    parser = argparse.ArgumentParser(add_help=False)
    _add_common_arguments(parser)
    declared = {flag for action in parser._actions for flag in action.option_strings}
    assert set(re.findall(r"--[a-z][a-z-]*", usage)) == declared
