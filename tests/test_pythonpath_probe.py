"""Which sources the suite tests: the probe that
test_cli.test_explicit_pythonpath_wins_over_the_checkout runs in child pytest
processes. It stays a module of its own, so that a child collects this one
test and not all of test_cli."""

import os
from pathlib import Path

from invariant_control import cli


def test_package_comes_from_the_first_pythonpath_entry_that_holds_it():
    # conftest appends the checkout's src behind PYTHONPATH, so an explicit
    # PYTHONPATH decides which sources are tested
    entries = [Path(e).resolve() for e in os.environ.get("PYTHONPATH", "").split(os.pathsep) if e]
    holders = [e for e in entries if (e / "invariant_control" / "__init__.py").is_file()]
    holders.append(Path(__file__).resolve().parents[1] / "src")
    assert Path(cli.__file__).resolve().parents[1] == holders[0]
