"""Record the reference outputs that the checks compare against.

    python3 perfbench/record.py

Writes `perfbench/expected.json`: the non-dominant pairs of the rank-5
scnp-pattern sweep with their digest.  Rerun only when a change is meant
to alter these outputs.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads


def main() -> int:
    workloads.OUT.mkdir(exist_ok=True)
    run = workloads.run_sweep_child("scnp-pattern", 1, workloads.OUT / "ck-record.json")
    report = json.loads(run.stdout)
    pairs = report["scnp_failures"]
    expected = {"scnp_failures_sha256": checks.failures_digest(pairs), "scnp_failures": pairs}
    if checks.sweep_report_problem("scnp-pattern", run.rc, run.stdout, expected):
        print("error: the scnp-pattern sweep did not run cleanly", file=sys.stderr)
        return 1
    workloads.EXPECTED.write_text(
        "{\n"
        f' "scnp_failures_sha256": {json.dumps(expected["scnp_failures_sha256"])},\n'
        f' "scnp_failures": {json.dumps(pairs)}\n'
        "}\n"
    )
    print(f"recorded {len(pairs)} scnp failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
