"""The sweep workloads, measured untraced (end-to-end) or traced (per layer).

Measured passes run `dualschubert verify` as users do, in a child
interpreter, and time each unit from the `progress:` lines the child writes
to stderr, as they arrive here.  Their times are reported in reference
seconds, divided by the run's median time of a fixed task that runs no
package code (`ref_probe.py`), so that the machine's speed of the moment
drops out.  Traced passes run in this process at --jobs 1 with
`spans.Tracer` installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import checks
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
EXPECTED = HERE / "expected.json"


class Sweep(NamedTuple):
    mode: str  # verify --mode
    passes: int  # measured passes per run, fixed so every run takes the same samples


# Pass counts make an untraced run measure 30-50 s on a 2-vCPU machine.
SWEEPS = {
    "sweep-scnp": Sweep("scnp-pattern", 10),
    "sweep-mconvex": Sweep("ps-mconvex", 12),
    "sweep-theorems": Sweep("paper-theorems", 3),
}
# --jobs of the measured passes, and the pool timed against --jobs 1 in traced
# runs.  On a shared 2-vCPU machine the speed of each vCPU drifts by tens of
# percent within seconds; in five-run trials sweep-scnp passes on both vCPUs
# spread 11-17 % from run to run where --jobs 1 passes spread 31-41 %.
JOBS = 2
SWEEP_CAP_S = 150.0  # a sweep that runs longer is killed and fails every unit
PROBES = 2  # of each probe script, before every pass and after the last
# The reference probe's median time on the 2-vCPU machine the benchmark was
# built on, in a calm phase.  Reference seconds are measured seconds times
# REF_PROBE_S / (this run's median reference probe).
REF_PROBE_S = 0.060
DEFAULT_SEED = 0

clock = time.perf_counter


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), by linear interpolation; 0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Highest RSS of any waited-for child, a pool's workers included."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def probe_times(script: str, probes: int) -> list[float]:
    """Seconds that a probe script reports, each run in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / script)]
    times = []
    for _ in range(probes):
        out = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                             timeout=60, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def load_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dualschubert.cli as cli

    return cli


def package_modules(cli) -> dict:
    from dualschubert import bruhat, perm, poly, polytope, scnp, tiling

    return {"perm": perm, "bruhat": bruhat, "poly": poly, "polytope": polytope,
            "tiling": tiling, "scnp": scnp, "cli": cli}


# -- sweeps -------------------------------------------------------------------------


class SweepRun(NamedTuple):
    rc: int
    stdout: str
    progress_times: list[float]
    wall: float
    checkpoint_text: str | None

    @property
    def gaps(self) -> list[float]:
        t = self.progress_times
        return [b - a for a, b in zip(t, t[1:])]

    @property
    def checkpoint_bytes(self) -> int:
        return len((self.checkpoint_text or "").encode())

    @property
    def busy(self) -> float:
        """The report's `elapsed`: the units with their checkpoint writes, no start-up."""
        try:
            return float(json.loads(self.stdout)["elapsed"])
        except (ValueError, TypeError, KeyError):
            return self.wall  # a broken report has already failed its checks


def sweep_argv(mode: str, jobs: int, checkpoint: Path) -> list[str]:
    return ["verify", "--mode", mode, "--n", "5", "--jobs", str(jobs),
            "--checkpoint", str(checkpoint), "--json"]


def _read_and_remove(path: Path) -> str | None:
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    path.unlink()
    return text


def run_sweep_child(mode: str, jobs: int, checkpoint: Path) -> SweepRun:
    """One `dualschubert verify` in a child interpreter, progress timestamped here."""
    cmd = [sys.executable, "-m", "dualschubert.cli", *sweep_argv(mode, jobs, checkpoint)]
    start = clock()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    killer = threading.Timer(SWEEP_CAP_S, proc.kill)
    killer.start()
    stdout_parts: list[str] = []
    reader = threading.Thread(target=lambda: stdout_parts.append(proc.stdout.read()))
    reader.start()
    times = []
    try:
        for line in proc.stderr:
            if line.startswith("progress:"):
                times.append(clock())
        rc = proc.wait()
        wall = clock() - start
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return SweepRun(rc, "".join(stdout_parts), times, wall, _read_and_remove(checkpoint))


class StderrSink(io.TextIOBase):
    """Stands in for stderr and timestamps each `progress:` line as written."""

    def __init__(self):
        self.times: list[float] = []
        self._partial = ""

    def write(self, s: str) -> int:
        now = clock()
        text = self._partial + s
        *lines, self._partial = text.split("\n")
        self.times.extend(now for line in lines if line.startswith("progress:"))
        return len(s)


def run_sweep_inprocess(cli, mode: str, checkpoint: Path) -> SweepRun:
    """The same sweep through `cli.main` in this process, at --jobs 1."""
    out, sink = io.StringIO(), StderrSink()
    start = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(sink):
        rc = cli.main(sweep_argv(mode, 1, checkpoint))
    wall = clock() - start
    return SweepRun(rc, out.getvalue(), sink.times, wall, _read_and_remove(checkpoint))


class Tally:
    """Attempted and failed ops, with the first few reasons for failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, failed: int, reasons=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.reasons.extend(list(reasons)[: max(0, 10 - len(self.reasons))])


def tally_sweep(tally: Tally, mode: str, run: SweepRun, expected: dict) -> None:
    nfail, reasons = checks.sweep_failed_units(
        mode, run.rc, run.stdout, run.checkpoint_text, expected)
    tally.add(len(checks.SWEEP_UNITS), nfail, reasons)


def measure_sweep(workload: str, seed: int) -> tuple[dict, Tally, dict]:
    mode, passes = SWEEPS[workload]
    expected = load_expected()
    tally = Tally()
    walls: list[float] = []
    gaps: list[float] = []
    setups: list[float] = []
    refs: list[float] = []

    def probe():
        # spread over the run, so that the probes see the same machine as the passes
        setups.extend(probe_times("setup_probe.py", PROBES))
        refs.extend(probe_times("ref_probe.py", PROBES))

    for i in range(passes):
        probe()
        run = run_sweep_child(mode, JOBS, OUT / f"ck-{workload}-{seed}-{i}.json")
        tally_sweep(tally, mode, run, expected)
        walls.append(run.wall)
        gaps.extend(run.gaps)
    probe()
    pairs = checks.SWEEP_PAIRS[mode]
    measured = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": percentile(gaps, 50) * 1e3,
        "op_p90_ms": percentile(gaps, 90) * 1e3,
        "ref_probe_s": statistics.median(refs),
    }
    scale = REF_PROBE_S / measured["ref_probe_s"]
    metrics = {
        "ref_wall_s": (measured["wall_s"] * scale, "s"),
        "ref_ops_per_s": (pairs / (measured["wall_s"] * scale), "1/s"),
        "ref_op_p50_ms": (measured["op_p50_ms"] * scale, "ms"),
        "ref_op_p90_ms": (measured["op_p90_ms"] * scale, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {
        "input": f"verify --mode {mode} --n 5 --jobs {JOBS}: 120 units, {pairs} checked pairs per sweep",
        "passes": passes,
        "pass_walls_s": walls,
        "measured": {**measured, "ops_per_s": pairs / measured["wall_s"]},
        "samples": {"wall_s": len(walls), "op_p50_ms": len(gaps), "op_p90_ms": len(gaps),
                    "setup_s": len(setups), "ref_probe_s": len(refs)},
        "op": f"gap between consecutive progress lines: completion interval of {JOBS} workers",
    }
    return metrics, tally, info


# -- traced runs ------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, traced_busy: float, untraced_busy: float,
                  parallel_wall: float, checkpoint_bytes: int, import_s: float) -> dict:
    """Every per-layer metric from one traced pass and its untraced references."""
    own = tracer.bucket_self()
    c = tracer.counts
    decisions = tracer.calls("scnp._scnp_decide")
    searches = tracer.calls("scnp._scnp_search")
    settled = decisions - searches - c["scnp.trivial"]

    def layer_self(layer: str) -> float:
        return sum((t for b, t in own.items() if b == layer or b.startswith(layer + ".")), 0.0)

    def s(value):
        return (value, "s")

    def n(value):
        return (value, "count")

    return {
        "perm.calls.bruhat_leq": n(tracer.calls("perm.bruhat_leq")),
        "perm.calls.covers": n(tracer.calls("perm.up_covers") + tracer.calls("perm.down_covers")),
        "perm.self_s": s(layer_self("perm")),
        "bruhat.calls.interval_elements": n(tracer.calls("bruhat.interval_elements")),
        "bruhat.interval.elements": n(c["bruhat.interval.elements"]),
        "bruhat.self_s": s(layer_self("bruhat")),
        "poly.calls.dp": n(tracer.calls("poly.postnikov_stanley_dp")
                           + tracer.calls("poly.dual_schubert_table")),
        "poly.self_s": s(layer_self("poly")),
        "polytope.calls.lp": n(tracer.calls("polytope.hull_contains")),
        "polytope.lp.self_s": s(own.get("polytope.lp", 0.0)),
        "polytope.hull.self_s": s(own.get("polytope.hull", 0.0)),
        "polytope.snp.self_s": s(own.get("polytope.snp", 0.0)),
        "polytope.mconvex.self_s": s(own.get("polytope.mconvex", 0.0)),
        "polytope.mconvex.points": n(c["polytope.mconvex.points"]),
        "polytope.gp_points.self_s": s(own.get("polytope.gp_points", 0.0)),
        "tiling.calls": n(tracer.entries("tiling")),
        "tiling.self_s": s(layer_self("tiling")),
        "scnp.self_s": s(own.get("scnp", 0.0)),
        "scnp.support_dp.self_s": s(own.get("scnp.support_dp", 0.0)),
        "scnp.decisions": n(decisions),
        "scnp.greedy_settled_ratio": (settled / decisions if decisions else 0.0, "ratio"),
        "scnp.chains_examined": n(c["scnp.chains_examined"]),
        "driver.self_s": s(layer_self("driver")),
        "driver.checkpoint_bytes": (checkpoint_bytes, "bytes"),
        "driver.parallel_efficiency": (untraced_busy / (JOBS * parallel_wall), "ratio"),
        "cli.self_s": s(layer_self("cli")),
        "cli.import_s": s(import_s),
        "trace.overhead_ratio": (traced_busy / untraced_busy, "ratio"),
    }


def trace_sweep(workload: str, seed: int) -> tuple[dict, Tally, dict, Tracer]:
    """A traced --jobs 1 pass in this process, then untraced --jobs 1 and --jobs 2 children.

    The overhead ratio compares the traced pass with the --jobs 1 child that
    follows it, and the parallel efficiency that child with the --jobs 2
    child after it: each pair is timed back to back, on the same work.
    """
    mode = SWEEPS[workload].mode
    expected = load_expected()
    import_s = statistics.median(probe_times("setup_probe.py", 3))
    cli = load_cli()
    tracer = Tracer()
    with tracer.installed(package_modules(cli)):
        traced = run_sweep_inprocess(cli, mode, OUT / f"ck-{workload}-{seed}-traced.json")
    serial = run_sweep_child(mode, 1, OUT / f"ck-{workload}-{seed}-jobs1.json")
    parallel = run_sweep_child(mode, JOBS, OUT / f"ck-{workload}-{seed}-jobs2.json")
    tally = Tally()
    for run in (traced, serial, parallel):
        tally_sweep(tally, mode, run, expected)
    metrics = layer_metrics(tracer, traced.busy, serial.busy, parallel.wall,
                            checkpoint_bytes=traced.checkpoint_bytes, import_s=import_s)
    info = {
        "busy_s": {"traced": traced.busy, "jobs1": serial.busy},
        "walls_s": {"traced": traced.wall, "jobs1": serial.wall,
                    f"jobs{JOBS}": parallel.wall},
        "greedy_settled_base": metrics["scnp.decisions"][0],
        "parallel_efficiency_base": (f"{serial.busy:.3f} s of --jobs 1 units /"
                                     f" ({JOBS} x {parallel.wall:.3f} s --jobs"
                                     f" {JOBS} wall)"),
    }
    return metrics, tally, info, tracer
