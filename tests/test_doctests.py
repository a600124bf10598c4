"""Run the docstring examples embedded in each module."""

from __future__ import annotations

import doctest
from pathlib import Path

import pytest

from dualschubert import bruhat, perm, poly, polytope, scnp, tiling

MODULES = [perm, bruhat, poly, polytope, tiling, scnp]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0


def test_readme_quick_start():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
