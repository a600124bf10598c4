"""Output checks for the sweep workloads.

Sweep reports and checkpoints are compared against values recorded at the
commit that defined the benchmark (`expected.json`).  Each check returns
None when the output is right and a short reason when it is not; a reason
marks the op as failed.
"""

from __future__ import annotations

import hashlib
import json
from itertools import permutations

SWEEP_PAIRS = {"scnp-pattern": 3781, "ps-mconvex": 3781, "paper-theorems": 120}
SWEEP_UNITS = ["".join(map(str, p)) for p in permutations(range(1, 6))]


def failures_digest(pairs) -> str:
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def sweep_report_problem(mode: str, rc: int, stdout: str, expected: dict) -> str | None:
    """Check one `verify --json` run as a whole."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        rep = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    if not isinstance(rep, dict):
        return "report is not an object"
    if rep.get("mode") != mode or rep.get("n") != 5:
        return "report names another sweep"
    if rep.get("complete") is not True:
        return "sweep incomplete"
    if rep.get("counterexamples") != []:
        return "counterexamples reported"
    if rep.get("checked_pairs") != SWEEP_PAIRS[mode]:
        return f"checked_pairs {rep.get('checked_pairs')}"
    if mode == "scnp-pattern":
        if failures_digest(rep.get("scnp_failures")) != expected["scnp_failures_sha256"]:
            return "scnp_failures differ from the recorded digest"
    return None


def bad_units(mode: str, checkpoint_text: str | None, expected: dict) -> list[str]:
    """Units missing from the checkpoint or holding a wrong record."""
    try:
        done = json.loads(checkpoint_text)["done"]
    except (TypeError, ValueError, KeyError):
        return list(SWEEP_UNITS)
    if not isinstance(done, dict):
        return list(SWEEP_UNITS)
    fails_by_u: dict[str, list[str]] = {}
    if mode == "scnp-pattern":
        for u, w in expected["scnp_failures"]:
            fails_by_u.setdefault(u, []).append(w)
    bad = [u for u in SWEEP_UNITS if not isinstance(done.get(u), dict)
           or done[u].get("fails") != fails_by_u.get(u, [])]
    extra = sorted(set(done) - set(SWEEP_UNITS))
    return bad + extra


def sweep_failed_units(mode: str, rc: int, stdout: str, checkpoint_text: str | None,
                       expected: dict) -> tuple[int, list[str]]:
    """(failed unit count, reasons) for one sweep; a bad report fails every unit."""
    problem = sweep_report_problem(mode, rc, stdout, expected)
    if problem is not None:
        return len(SWEEP_UNITS), [problem]
    bad = bad_units(mode, checkpoint_text, expected)
    return len(bad), [f"unit {u} record wrong or missing" for u in bad[:5]]
