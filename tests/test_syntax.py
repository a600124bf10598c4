"""Every source and test file parses as Python 3.10, the oldest supported version."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


def test_files_found():
    assert ROOT / "src" / "dualschubert" / "__init__.py" in FILES
    assert Path(__file__).resolve() in FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    # grammar only: library APIs new after 3.10 are not caught here
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
