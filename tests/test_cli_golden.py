"""The CLI's bytes on the corpus recorded in `cli_golden.json`.

Each entry holds an argv and the exit code, stdout and stderr that `main`
gave it; `make_cli_golden.py` says what the corpus covers and regenerates it.
"""

from __future__ import annotations

import json

import pytest
from make_cli_golden import GOLDEN, invoke

ENTRIES = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("command", sorted({e["argv"][0] for e in ENTRIES}))
def test_cli_bytes_match_the_golden_file(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # --help text wraps to the terminal
    entries = [e for e in ENTRIES if e["argv"][0] == command]
    changed = [(e, got) for e in entries if (got := invoke(e["argv"])) != e]
    assert not changed, f"{len(changed)} of {len(entries)} changed, first: {changed[0]}"
