"""One-shot timing of the ROADMAP Baseline rows.  Not a workload; never repeated.

    python3 perfbench/baseline.py [--only NAME ...]

Each row runs in a fresh interpreter with `src` on PYTHONPATH and is timed
there, around the work only (imports excluded).  A row that passes its cap
is killed and reported as "did not finish" with the cap it hit.  `--only`
runs a subset of the rows.  The table
goes to stdout and, with machine details, to
`.perfbench-out/BENCH_baseline.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

from run import git_revision, source_digest
from workloads import OUT, ROOT, child_env

PRELUDE = """
import time
from dualschubert import scnp
from dualschubert.perm import all_perms, parse_perm
from dualschubert.poly import dual_schubert_table, global_weight
from dualschubert.polytope import hull_vertices, is_snp
start = time.perf_counter()
"""
DONE = "\nprint(time.perf_counter() - start)\n"


def unit(mode: str, key: str) -> str:
    return f"scnp._run_unit({mode!r}, {len(key)}, {key!r})"


def verify(mode: str) -> str:
    return f"scnp.verify_{mode}(5)"


# name, cap in seconds, statement timed in the child
ROWS = [
    ("verify-n5-ps-mconvex", 120, verify("ps_mconvex")),
    ("verify-n5-scnp-pattern", 120, verify("scnp_pattern")),
    ("verify-n5-paper-theorems", 300, verify("theorems")),
    ("rank5-is_snp-all-w", 300,
     "table = dual_schubert_table(5)\nfor f in table.values(): is_snp(f)"),
    ("rank5-hull_vertices-all-global-weights", 300,
     "for w in all_perms(5): hull_vertices(global_weight(w).support())"),
    ("rank6-ps-mconvex-unit-123456", 600, unit("ps-mconvex", "123456")),
    ("rank6-ps-mconvex-unit-132456", 600, unit("ps-mconvex", "132456")),
    ("rank6-ps-mconvex-unit-214365", 600, unit("ps-mconvex", "214365")),
    ("rank6-scnp-pattern-unit-123456", 120, unit("scnp-pattern", "123456")),
    ("rank6-scnp-pattern-unit-132456", 600, unit("scnp-pattern", "132456")),
    ("rank6-paper-theorems-654321-hull_vertices", 900,
     "hull_vertices(global_weight(parse_perm('654321')).support())"),
]
SUITE = ("tier1-suite", 600)


def run_row(code: list[str], cap: float) -> tuple[str, float | None]:
    """(status, seconds) for one child; status is 'ok', 'did not finish' or 'error'."""
    start = time.perf_counter()
    try:
        out = subprocess.run(code, cwd=ROOT, env=child_env(), capture_output=True,
                             text=True, timeout=cap)
    except subprocess.TimeoutExpired:
        return "did not finish", None
    if out.returncode != 0:
        return f"error (exit {out.returncode})", None
    if code[1] == "-c":
        return "ok", float(out.stdout.split()[-1])
    return "ok", time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="*", help="run only the named rows")
    args = parser.parse_args(argv)

    plan = [(name, cap, [sys.executable, "-c", PRELUDE + stmt + DONE])
            for name, cap, stmt in ROWS]
    plan.insert(0, (SUITE[0], SUITE[1], [sys.executable, "-m", "pytest", "-q",
                                         "--continue-on-collection-errors", "-p",
                                         "no:cacheprovider"]))
    if args.only:
        plan = [row for row in plan if row[0] in args.only]
    rows = []
    for name, cap, code in plan:
        status, seconds = run_row(code, cap)
        rows.append({"row": name, "cap_s": cap, "status": status, "seconds": seconds})
        shown = f"{seconds:.2f} s" if seconds is not None else f"{status} (cap {cap:g} s)"
        print(f"{name:45s} {shown}", flush=True)
    record = {
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "loadavg_end": os.getloadavg(),
        "timing": "wall clock inside a fresh interpreter, imports excluded;"
                  " the suite row is the whole child's wall time",
        "rows": rows,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / "BENCH_baseline.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
