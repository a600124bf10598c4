"""Benchmark entry point: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload sweep-scnp --seed 0 --seconds 35 --trace 0

Run from a checkout that holds `src/dualschubert`.  The last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`;
the line before it, `provenance: {...}`, says where and how the numbers
were taken.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer metrics and writes the spans to `.perfbench-out/`.  Each
workload runs a fixed number of passes; `--seconds` is recorded but does
not change the work, so that every run takes the same samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

import workloads
from workloads import OUT, ROOT, SRC, SWEEPS


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dualschubert").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(SWEEPS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="nominal run length; the pass counts are fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dualschubert" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    load_start = os.getloadavg()
    started = time.time()
    spans_file = None
    if args.trace:
        metrics, tally, info, tracer = workloads.trace_sweep(args.workload, args.seed)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans_file)
        total = info["walls_s"]["traced"]
        info["layer_shares"] = {b: round(t / total, 4)
                                for b, t in sorted(tracer.bucket_self().items())}
    else:
        metrics, tally, info = workloads.measure_sweep(args.workload, args.seed)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "run_wall_s": time.time() - started,
        "failed_ratio": {"value": tally.failed / max(tally.attempted, 1),
                         "base": f"{tally.attempted} attempted ops"},
        "failures": tally.reasons,
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
        **info,
    }
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"provenance": provenance, **result}, indent=1))
    print("provenance: " + json.dumps(provenance))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
