"""
Single-chain support decisions and exhaustive rank sweeps.

An interval [u, w] has the single-chain property when one saturated chain's
weight has the full support T of the interval's weight; such a chain is
dominant.  A chain's support C is the set of integer points of the
generalized permutahedron whose z_C(I) counts the chain's labels (a, b) with
{a, ..., b-1} inside I (Postnikov, "Permutohedra, associahedra, and beyond").
C lies inside T, the weight being a positive sum of chain weights, so z_T <=
z_C for z_T(I) = min over t in T of sum(t_i, i in I).  z_C is additive over
the maximal segments of I and z_T superadditive, so C = T exactly when they
agree on the n(n-1)/2 segments {i, ..., j-1}.  Counts only grow along a
chain: a prefix exceeding z_T on a segment is cut.  `is_scnp` reads z_T off
the support, tries the greedy chain for its witness, then a DFS over (node,
counts); the scnp-pattern sweep uses floors alone (`_floor_fold`).

Supports are the key sets of the integer chain-weight sums that also give
the coefficients (`poly._count_table`): every coefficient is positive, so
the keys are exactly the support.  Tests pin this against a set-union
dynamic program and against the rational coefficients.

The rank sweeps walk the whole symmetric group.  `SWEEPS` maps each mode
to a unit (one base permutation) and a merge; `verify_ps_mconvex`,
`verify_scnp_pattern` and `verify_theorems` run one mode each, through one
sweep body.  It supports budget-bounded partial runs with resumable
checkpoints and can fan units out over worker processes.  Results are merged
in a fixed order, so reports are deterministic regardless of worker
scheduling.
"""

from __future__ import annotations

import json
import math
import os
import time
import traceback
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from multiprocessing import Pipe, Process
from multiprocessing.connection import wait
from operator import add, gt, le
from pathlib import Path
from typing import Callable

from . import bruhat
from .bruhat import SaturatedChain, greedy_chain, is_greedy
from .perm import (
    Perm,
    all_perms,
    bruhat_leq,
    contains_pattern,
    format_perm,
    identity,
    length,
    longest_element,
    parse_perm,
    up_covers,
    validate,
)
from .poly import _count_table, chain_weight, dual_schubert_table, global_weight
from .polytope import (
    gp_from_inversions,
    hull_vertices,
    is_snp,
    m_convex_certificate,
    m_convex_failure,
)
from .tiling import vertices_via_tilings

# Pattern whose containment in the lower (resp. upper) endpoint is expected
# to predict the existence of a partner making the single-chain property fail.
LOWER_PATTERN: Perm = (1, 3, 2, 4)
UPPER_PATTERN: Perm = (4, 2, 3, 1)


@dataclass(frozen=True)
class ScnpVerdict:
    """Outcome of a single-chain decision: the witness is a dominant chain."""

    holds: bool
    witness: SaturatedChain | None
    chains_examined: int  # the greedy chain, plus the chain a search found


@dataclass
class ConjectureReport:
    """Outcome of an exhaustive sweep; empty counterexamples means it held."""

    mode: str
    n: int
    checked_pairs: int
    counterexamples: list[dict]
    elapsed: float
    complete: bool = True
    resume_token: dict | None = None
    scnp_failures: list[tuple[str, str]] = field(default_factory=list)

    def ok(self) -> bool:
        return self.complete and not self.counterexamples

    def to_json_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "n": self.n,
            "checked_pairs": self.checked_pairs,
            "counterexamples": self.counterexamples,
            "elapsed": self.elapsed,
            "complete": self.complete,
        }
        if self.resume_token is not None:
            out["resume_token"] = self.resume_token
        if self.mode == "scnp-pattern":
            out["scnp_failures"] = [list(p) for p in self.scnp_failures]
        return out

    def summary(self) -> str:
        lines = [
            f"mode             {self.mode}",
            f"rank             {self.n}",
            f"checked pairs    {self.checked_pairs}",
            f"counterexamples  {len(self.counterexamples)}",
            f"elapsed          {self.elapsed:.2f}s",
            f"complete         {'yes' if self.complete else 'no (resumable)'}",
        ]
        if self.mode == "scnp-pattern" and self.complete:
            pairs = ", ".join(f"({u}, {w})" for u, w in self.scnp_failures)
            lines.append(f"non-dominant pairs  {pairs if pairs else '(none)'}")
        for rec in self.counterexamples:
            lines.append("counterexample: " + json.dumps(rec))
        return "\n".join(lines)


# -- support dynamic programs -------------------------------------------------


def ps_support(u: Perm, w: Perm) -> frozenset:
    """Support of the interval weight polynomial of [u, w]: its count table's keys."""
    u, w = validate(u), validate(w)
    if not bruhat_leq(u, w):
        raise ValueError(
            f"{format_perm(u)} is not below {format_perm(w)} in Bruhat order"
        )
    return frozenset(_count_table(u, w)[w])


def support_table_above(u: Perm) -> dict[Perm, frozenset]:
    """ps_support(u, v) for every v above u in its symmetric group."""
    u = validate(u)
    table = _count_table(u, longest_element(len(u)))
    return {v: frozenset(c) for v, c in table.items()}


# -- the single-chain decision -------------------------------------------------


@lru_cache(maxsize=None)
def _label_steps(n: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """Label (a, b) -> its count on each segment (i, j), the same pairs in order."""
    segs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    return {(a, b): tuple(int(i <= a and b <= j) for i, j in segs) for a, b in segs}


def _label_counts(labels, n: int) -> tuple[int, ...]:
    """Per segment: how many of the labels lie inside it."""
    return tuple(sum(i <= a and b <= j for a, b in labels) for i, j in _label_steps(n))


def _segment_floors(target: frozenset, n: int) -> tuple[int, ...]:
    """Per segment (i, j): z_T(i, j) = min over t in T of t_i + ... + t_{j-1}."""
    sums = [list(accumulate(t, initial=0)) for t in target]
    return tuple(min(s[j - 1] - s[i - 1] for s in sums) for i, j in _label_steps(n))


def _scnp_search(u: Perm, w: Perm, z: tuple, examined: int) -> ScnpVerdict:
    """DFS over (node, counts) states; a child above z or seen before is cut."""
    interval = bruhat.interval_elements(u, w)
    steps = _label_steps(len(u))
    ups: dict[Perm, list] = {}
    seen: set = set()

    def dfs(v, counts, nodes, labels):
        if v == w:
            return SaturatedChain(nodes, labels) if counts == z else None
        if v not in ups:
            ups[v] = [(v2, lab) for v2, lab in up_covers(v) if v2 in interval]
        for v2, lab in ups[v]:
            c2 = tuple(map(add, counts, steps[lab]))
            if (v2, c2) in seen or any(map(gt, c2, z)):
                continue
            seen.add((v2, c2))
            found = dfs(v2, c2, nodes + (v2,), labels + (lab,))
            if found is not None:
                return found
        return None

    chain = dfs(u, (0,) * len(z), (u,), ())
    return ScnpVerdict(chain is not None, chain, examined + (chain is not None))


def _scnp_decide(u: Perm, w: Perm, target: frozenset) -> ScnpVerdict:
    z = _segment_floors(target, len(u))
    g = greedy_chain(u, w)
    if _label_counts(g.labels, len(u)) == z:
        return ScnpVerdict(True, g, 1)
    return _scnp_search(u, w, z, examined=1)


def _floor_fold(u: Perm) -> tuple[dict, dict]:
    """interval_covers(u, w0), and z_T per segment for the support T of each [u, v].

    T is the union of the chains' supports, each the Minkowski sum of its
    label simplices.  A linear form's minimum over a union is the least of
    the minima, over a Minkowski sum the sum of the minima, and a segment
    form's minimum over a label simplex is that label's 0/1 step: z_T is a
    min-plus fold over last covers.
    """
    w = longest_element(len(u))
    steps, covers = _label_steps(len(u)), bruhat.interval_covers(u, w)

    def step(v, below):
        return tuple(map(min, zip(*(map(add, z, steps[lab]) for z, lab in below))))

    return covers, bruhat._interval_fold(u, w, (0,) * len(steps), step, covers)


def _floor_path(covers: dict, u: Perm, v: Perm, floors: dict) -> tuple | None:
    """Labels, from u up, of a dominant chain u -> v, or None: a DFS down from v.

    A partial chain x -> v with counts `top` is cut when seen before, or when
    top + floors[x] exceeds floors[v] on a segment: floors[x] is the least
    count of any chain from u to x.  At u, top is floors[v].
    """
    steps, cap, seen = _label_steps(len(u)), floors[v], set()

    def dfs(x, top):
        if x == u:
            return ()
        for x2, lab in covers[x]:
            t2 = tuple(map(add, top, steps[lab]))
            if (x2, t2) not in seen and all(map(le, map(add, t2, floors[x2]), cap)):
                seen.add((x2, t2))
                if (found := dfs(x2, t2)) is not None:
                    return found + (lab,)
        return None

    return dfs(v, (0,) * len(cap))


def is_scnp(u: Perm, w: Perm) -> ScnpVerdict:
    """Decide whether some single chain of [u, w] carries the full support.

    Raises ValueError when u is not below w.  The verdict's witness, when
    the property holds, is a dominant chain; chains_examined is 2 when the
    search found it, else 1.
    """
    u, w = validate(u), validate(w)
    return _scnp_decide(u, w, ps_support(u, w))


# -- sweep units and their merges -----------------------------------------------


@lru_cache(maxsize=2)
def _dual_table_cached(n: int):
    return dual_schubert_table(n)


def _unit_ps_mconvex(n: int, key: str) -> dict:
    table = support_table_above(parse_perm(key))
    ordered = sorted(table, key=lambda p: (length(p), p))
    fails = [v for v in ordered if m_convex_failure(table[v]) is not None]
    return {"pairs": len(table), "fails": [format_perm(v) for v in fails]}


def _unit_scnp_pattern(n: int, key: str) -> dict:
    u = parse_perm(key)
    covers, floors = _floor_fold(u)
    ordered = sorted(covers, key=lambda p: (length(p), p))
    fails = [v for v in ordered if _floor_path(covers, u, v, floors) is None]
    return {"pairs": len(covers), "fails": [format_perm(v) for v in fails]}


def _unit_theorems(n: int, key: str) -> dict:
    w = parse_perm(key)
    fails: list[dict] = []
    dual = _dual_table_cached(n)[w]
    gw = global_weight(w)
    supp, gsupp = dual.support(), gw.support()
    if supp != gsupp:
        fails.append({"kind": "support-mismatch", "w": key})
    e = identity(n)
    g = greedy_chain(e, w)
    if not is_greedy(g, e, w):
        fails.append({"kind": "greedy-chain-not-greedy", "w": key})
    if chain_weight(g) != gw:
        fails.append({"kind": "greedy-weight-mismatch", "w": key})
    # one certificate proves M-convexity and SNP and gives the hull vertices;
    # without it the support is not M-convex, and the exact routes decide the rest
    cert = m_convex_certificate(supp)
    if cert is None:
        fails.append({"kind": "support-not-m-convex", "w": key})
    if cert is None and not is_snp(dual):
        fails.append({"kind": "support-not-snp", "w": key})
    if gp_from_inversions(w).integer_points() != supp:
        fails.append({"kind": "polytope-points-mismatch", "w": key})
    vt = vertices_via_tilings(w)
    vc = gw.coeff_one_exponents()
    vh = cert.vertices() if cert is not None and gsupp == supp else hull_vertices(gsupp)
    if not (vt == vc == vh):
        fails.append({"kind": "vertex-method-mismatch", "w": key})
    return {"pairs": 1, "fails": fails}


def _merge_ps_mconvex(n: int, fails: dict[str, list]) -> tuple[list, list]:
    return [
        {"kind": "support-not-m-convex", "u": u, "w": w}
        for u, ws in fails.items()
        for w in ws
    ], []


def _merge_scnp_pattern(n: int, fails: dict[str, list]) -> tuple[list, list]:
    failing_ws = {w for ws in fails.values() for w in ws}
    counterexamples = []
    for u, ws in fails.items():
        exists = bool(ws)
        expected = n >= len(LOWER_PATTERN) and contains_pattern(
            parse_perm(u), LOWER_PATTERN
        )
        if exists != expected:
            counterexamples.append(
                {
                    "kind": "lower-pattern-mismatch",
                    "perm": u,
                    "has_failing_partner": exists,
                    "contains_pattern": expected,
                    "witness": ws[0] if exists else None,
                }
            )
    for w in fails:
        exists = w in failing_ws
        expected = n >= len(UPPER_PATTERN) and contains_pattern(
            parse_perm(w), UPPER_PATTERN
        )
        if exists != expected:
            counterexamples.append(
                {
                    "kind": "upper-pattern-mismatch",
                    "perm": w,
                    "has_failing_partner": exists,
                    "contains_pattern": expected,
                }
            )
    return counterexamples, [(u, w) for u, ws in fails.items() for w in ws]


def _merge_theorems(n: int, fails: dict[str, list]) -> tuple[list, list]:
    return [rec for recs in fails.values() for rec in recs], []


# mode -> (unit, merge).  One unit per permutation key of S_n: unit(n, key)
# returns {"pairs": int, "fails": list}.  merge(n, fails) takes every unit's
# fails in key order and returns the report's counterexamples and
# scnp_failures.
SWEEPS: dict[str, tuple[Callable[[int, str], dict], Callable[[int, dict], tuple]]] = {
    "ps-mconvex": (_unit_ps_mconvex, _merge_ps_mconvex),
    "scnp-pattern": (_unit_scnp_pattern, _merge_scnp_pattern),
    "paper-theorems": (_unit_theorems, _merge_theorems),
}


def _run_unit(mode: str, n: int, key: str) -> dict:
    return SWEEPS[mode][0](n, key)


# -- sweep driver ----------------------------------------------------------------


def _write_checkpoint(path, token: dict) -> None:
    """Replace the checkpoint atomically; a crash keeps the previous one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(token))
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise ValueError(f"cannot write checkpoint {path}: {exc}") from exc


def _check_token(token) -> None:
    """Raise ValueError unless token has the shape `_sweep` writes."""
    done = token.get("done") if isinstance(token, dict) else None
    if not (
        isinstance(done, dict)
        and {"mode", "n"} <= token.keys()
        and isinstance(token.get("elapsed", 0.0), (int, float))
        and all(
            isinstance(r, dict)
            and isinstance(r.get("pairs"), int)
            and isinstance(r.get("fails"), list)
            for r in done.values()
        )
    ):
        raise ValueError(
            "malformed resume token: expected mode, n and done,"
            " with pairs and fails in every record"
        )


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve(conn, mode: str, n: int) -> None:
    """Worker process: run each unit key that `conn` brings, send back its record."""
    with suppress(EOFError):  # the sweep has closed its end
        while True:
            key = conn.recv()
            try:
                conn.send((_run_unit(mode, n, key), None))
            except Exception as exc:  # the sweep raises it
                conn.send((exc, traceback.format_exc()))


def _sweep(
    mode: str,
    n: int,
    jobs: int,
    budget: float | None,
    resume: dict | None,
    checkpoint_path,
    progress: Callable[[int, int, str], None] | None,
) -> ConjectureReport:
    """Run the units of SWEEPS[mode] over S_n and merge them into a report.

    Units recorded in `resume` are skipped.  The rest run in-process when
    min(jobs, pending units, usable CPUs) is 1, else on that many worker
    processes.  The checkpoint is written before the first unit and after
    every unit.  Once the budget has run out no further result is awaited
    and the report is partial, with a resume token.  A worker that dies
    raises RuntimeError naming its unit and exit code.  Leaving the loop, on
    budget or on error, terminates the worker processes.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if budget is not None and not math.isfinite(budget):
        raise ValueError(f"budget must be a finite number of seconds, got {budget}")
    keys = [format_perm(p) for p in all_perms(n)]
    done: dict[str, dict] = {}
    prior = 0.0
    if resume is not None:
        _check_token(resume)
        if resume["mode"] != mode or resume["n"] != n:
            raise ValueError("resume token does not match this sweep")
        done = dict(resume["done"])
        prior = float(resume.get("elapsed", 0.0))
    pending = [k for k in keys if k not in done]
    start = time.monotonic()

    def token() -> dict:
        return {
            "mode": mode,
            "n": n,
            "elapsed": prior + (time.monotonic() - start),
            "done": done,
        }

    if checkpoint_path is not None:
        _write_checkpoint(checkpoint_path, token())
    workers = min(jobs, len(pending), _usable_cpus())
    todo = iter(pending)
    procs, held = {}, {}  # each pipe's worker, and the unit it is running
    try:
        # Each worker is sent its next unit only when it returns one: with
        # units queued ahead, the sweep's pace varied more from run to run.
        for _ in range(workers if workers > 1 else 0):
            conn, child = Pipe()
            procs[conn] = Process(target=_serve, args=(child, mode, n), daemon=True)
            procs[conn].start()
            child.close()
            held[conn] = next(todo)
            conn.send(held[conn])
        for _ in pending:
            left = None if budget is None else start + budget - time.monotonic()
            if left is not None and left < 0:
                break
            if not procs:
                key = next(todo)
                record = _run_unit(mode, n, key)
            elif ready := wait(list(held), left):
                try:
                    record, failure = ready[0].recv()
                except EOFError:  # the worker died
                    procs[ready[0]].join()
                    raise RuntimeError(f"the worker running unit {held[ready[0]]} died"
                                       f" with exit code {procs[ready[0]].exitcode}")
                if failure is not None:
                    raise record from RuntimeError(f"in a worker process:\n{failure}")
                key = held.pop(ready[0])
                if (following := next(todo, None)) is not None:
                    held[ready[0]] = following
                    ready[0].send(following)
            else:
                break
            done[key] = record
            if checkpoint_path is not None:
                _write_checkpoint(checkpoint_path, token())
            if progress is not None:
                progress(len(done), len(keys), key)
    finally:
        for proc in procs.values():
            proc.terminate()
            proc.join()
    final = token()
    if checkpoint_path is not None:
        _write_checkpoint(checkpoint_path, final)
    pairs = sum(done[k]["pairs"] for k in keys if k in done)
    elapsed = final["elapsed"]
    if any(k not in done for k in keys):
        return ConjectureReport(
            mode, n, pairs, [], elapsed, complete=False, resume_token=final
        )
    counterexamples, scnp_failures = SWEEPS[mode][1](
        n, {k: done[k]["fails"] for k in keys}
    )
    return ConjectureReport(
        mode, n, pairs, counterexamples, elapsed, scnp_failures=scnp_failures
    )


def verify_ps_mconvex(
    n: int,
    *,
    jobs: int = 1,
    budget: float | None = None,
    resume: dict | None = None,
    checkpoint_path=None,
    progress=None,
) -> ConjectureReport:
    """Is the interval weight support M-convex for every pair u <= w in S_n?"""
    return _sweep("ps-mconvex", n, jobs, budget, resume, checkpoint_path, progress)


def verify_scnp_pattern(
    n: int,
    *,
    jobs: int = 1,
    budget: float | None = None,
    resume: dict | None = None,
    checkpoint_path=None,
    progress=None,
) -> ConjectureReport:
    """Check the pattern law for single-chain failures over all of S_n.

    A lower endpoint u should admit some w >= u without the single-chain
    property exactly when u contains LOWER_PATTERN; dually an upper endpoint
    w should admit such a u <= w exactly when w contains UPPER_PATTERN.
    """
    return _sweep("scnp-pattern", n, jobs, budget, resume, checkpoint_path, progress)


def verify_theorems(
    n: int,
    *,
    jobs: int = 1,
    budget: float | None = None,
    resume: dict | None = None,
    checkpoint_path=None,
    progress=None,
) -> ConjectureReport:
    """Exhaustively re-verify the structural theorems at rank n.

    Per w: support of the interval weight polynomial equals the global
    weight support; the greedy chain is greedy and carries the global
    weight; the support is M-convex and saturates its Newton polytope; the
    inversion polytope's integer points equal the support; and the three
    vertex enumeration methods agree.
    """
    return _sweep("paper-theorems", n, jobs, budget, resume, checkpoint_path, progress)
