"""
Single-chain support decisions and exhaustive rank sweeps.

An interval [u, w] has the single-chain property when some one saturated
chain's weight already has the full support of the interval's weight
polynomial; such a chain is called dominant.  The decision procedure tries
the greedy chain first (for intervals starting at the identity it is always
dominant), then falls back to a depth-first search over chains that memoizes
(node, accumulated support) states and prunes any partial chain whose
support sticks out of the target's coordinatewise shadow.

Supports are computed by the same cover-split fold over the interval as the
coefficients (`bruhat._interval_fold`), with a union step: the support of a
cover step is the segment {e_a, ..., e_{b-1}}, and unions over last covers
replace the rational coefficient arithmetic.  Tests pin this against the
coefficient-level dynamic program.

The rank sweeps (`verify_ps_mconvex`, `verify_scnp_pattern`,
`verify_theorems`) walk the whole symmetric group, support budget-bounded
partial runs with resumable checkpoints (one unit = one base permutation),
and can fan units out over a process pool.  Results are merged in a fixed
order, so reports are deterministic regardless of worker scheduling.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

from . import bruhat
from .bruhat import SaturatedChain, greedy_chain, is_greedy, trivial_chain
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
from .poly import chain_weight, dual_schubert_table, global_weight
from .polytope import (
    _msum_segment,
    gp_from_inversions,
    hull_vertices,
    is_snp,
    m_convex_failure,
    newton_vertices_coeff1,
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
    chains_examined: int


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


def _union_step(v: Perm, below) -> frozenset:
    """The fold step of the support DP: union over last covers."""
    acc: set = set()
    for prev, (a, b) in below:
        acc |= _msum_segment(prev, a, b)
    return frozenset(acc)


def ps_support(u: Perm, w: Perm) -> frozenset:
    """Support of the interval weight polynomial of [u, w], by union DP."""
    u, w = validate(u), validate(w)
    if not bruhat_leq(u, w):
        raise ValueError(
            f"{format_perm(u)} is not below {format_perm(w)} in Bruhat order"
        )
    origin = frozenset({(0,) * (len(u) - 1)})
    return bruhat._interval_fold(u, w, origin, _union_step)[w]


def support_table_above(u: Perm) -> dict[Perm, frozenset]:
    """ps_support(u, v) for every v above u in its symmetric group."""
    u = validate(u)
    n = len(u)
    origin = frozenset({(0,) * (n - 1)})
    return bruhat._interval_fold(u, longest_element(n), origin, _union_step)


# -- the single-chain decision -------------------------------------------------


def _scnp_search(u: Perm, w: Perm, target: frozenset, examined: int) -> ScnpVerdict:
    """Exhaustive dominant-chain search with state dedup and shadow pruning."""
    interval = bruhat.interval_elements(u, w)
    ups = {
        v: [(v2, lab) for v2, lab in up_covers(v) if v2 in interval]
        for v in interval
    }
    shadow: dict[tuple, bool] = {}

    def under(p: tuple) -> bool:
        r = shadow.get(p)
        if r is None:
            r = any(all(x <= y for x, y in zip(p, t)) for t in target)
            shadow[p] = r
        return r

    seen: set = set()
    count = [examined]

    def dfs(v, supp, nodes, labels):
        if v == w:
            count[0] += 1
            return SaturatedChain(nodes, labels) if supp == target else None
        children = []
        for v2, lab in ups[v]:
            s2 = _msum_segment(supp, *lab)
            if (v2, s2) in seen:
                continue
            if all(under(p) for p in s2):
                children.append((-len(s2), lab, v2, s2))
        children.sort(key=lambda t: (t[0], t[1]))
        for _, lab, v2, s2 in children:
            seen.add((v2, s2))
            found = dfs(v2, s2, nodes + (v2,), labels + (lab,))
            if found is not None:
                return found
        return None

    chain = dfs(u, frozenset({(0,) * (len(u) - 1)}), (u,), ())
    return ScnpVerdict(chain is not None, chain, count[0])


def _scnp_decide(u: Perm, w: Perm, target: frozenset) -> ScnpVerdict:
    if u == w:
        return ScnpVerdict(True, trivial_chain(u), 1)
    g = greedy_chain(u, w)
    supp = frozenset({(0,) * (len(u) - 1)})
    for a, b in g.labels:
        supp = _msum_segment(supp, a, b)
    if supp == target:
        return ScnpVerdict(True, g, 1)
    return _scnp_search(u, w, target, examined=1)


def is_scnp(u: Perm, w: Perm) -> ScnpVerdict:
    """Decide whether some single chain of [u, w] carries the full support.

    Raises ValueError when u is not below w.  The verdict's witness, when
    the property holds, is a dominant chain; chains_examined counts the
    complete chains whose support was compared against the target.
    """
    u, w = validate(u), validate(w)
    return _scnp_decide(u, w, ps_support(u, w))


# -- sweep units ----------------------------------------------------------------


@lru_cache(maxsize=2)
def _dual_table_cached(n: int):
    return dual_schubert_table(n)


def _unit_ps_mconvex(n: int, key: str) -> dict:
    u = parse_perm(key)
    table = support_table_above(u)
    fails = [
        format_perm(v)
        for v in sorted(table, key=lambda p: (length(p), p))
        if m_convex_failure(table[v]) is not None
    ]
    return {"pairs": len(table), "fails": fails}


def _unit_scnp_pattern(n: int, key: str) -> dict:
    u = parse_perm(key)
    table = support_table_above(u)
    fails = [
        format_perm(v)
        for v in sorted(table, key=lambda p: (length(p), p))
        if not _scnp_decide(u, v, table[v]).holds
    ]
    return {"pairs": len(table), "fails": fails}


def _unit_theorems(n: int, key: str) -> dict:
    w = parse_perm(key)
    fails: list[dict] = []
    dual = _dual_table_cached(n)[w]
    gw = global_weight(w)
    supp = dual.support()
    if supp != gw.support():
        fails.append({"kind": "support-mismatch", "w": key})
    e = identity(n)
    g = greedy_chain(e, w)
    if not is_greedy(g, e, w):
        fails.append({"kind": "greedy-chain-not-greedy", "w": key})
    if chain_weight(g) != gw:
        fails.append({"kind": "greedy-weight-mismatch", "w": key})
    if m_convex_failure(supp) is not None:
        fails.append({"kind": "support-not-m-convex", "w": key})
    if not is_snp(dual):
        fails.append({"kind": "support-not-snp", "w": key})
    if gp_from_inversions(w).integer_points() != supp:
        fails.append({"kind": "polytope-points-mismatch", "w": key})
    vt = vertices_via_tilings(w)
    vc = newton_vertices_coeff1(w)
    vh = hull_vertices(gw.support())
    if not (vt == vc == vh):
        fails.append({"kind": "vertex-method-mismatch", "w": key})
    return {"pairs": 1, "fails": fails}


_UNIT_FN: dict[str, Callable[[int, str], dict]] = {
    "ps-mconvex": _unit_ps_mconvex,
    "scnp-pattern": _unit_scnp_pattern,
    "paper-theorems": _unit_theorems,
}


def _run_unit(mode: str, n: int, key: str) -> dict:
    return _UNIT_FN[mode](n, key)


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
    """Raise ValueError unless token has the shape `_run_sweep` writes."""
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


def _run_sweep(
    mode: str,
    n: int,
    keys: list[str],
    jobs: int,
    budget: float | None,
    resume: dict | None,
    checkpoint_path,
    progress: Callable[[int, int, str], None] | None,
) -> tuple[dict[str, dict], bool, float]:
    """Run units, honoring resume state and the wall-clock budget.

    Uses at most min(jobs, pending units, usable CPUs) worker processes,
    and none when that is 1.  Returns (unit results by key, complete flag,
    cumulative elapsed).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
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

    def note(key: str) -> None:
        if progress is not None:
            progress(len(done), len(keys), key)

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
    complete = True
    if workers <= 1:
        for key in pending:
            if budget is not None and time.monotonic() - start > budget:
                complete = False
                break
            done[key] = _run_unit(mode, n, key)
            if checkpoint_path is not None:
                _write_checkpoint(checkpoint_path, token())
            note(key)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_unit, mode, n, k): k for k in pending}
            remaining = set(futures)
            while remaining:
                timeout = None
                if budget is not None:
                    timeout = max(0.0, budget - (time.monotonic() - start))
                finished, remaining = wait(
                    remaining, timeout=timeout, return_when=FIRST_COMPLETED
                )
                for fut in finished:
                    key = futures[fut]
                    done[key] = fut.result()
                    note(key)
                if checkpoint_path is not None and finished:
                    _write_checkpoint(checkpoint_path, token())
                if budget is not None and time.monotonic() - start > budget:
                    if remaining:
                        complete = False
                        for fut in remaining:
                            fut.cancel()
                    break
    if checkpoint_path is not None:
        _write_checkpoint(checkpoint_path, token())
    return done, complete, prior + (time.monotonic() - start)


def _partial_report(mode, n, done, elapsed) -> ConjectureReport:
    return ConjectureReport(
        mode=mode,
        n=n,
        checked_pairs=sum(r["pairs"] for r in done.values()),
        counterexamples=[],
        elapsed=elapsed,
        complete=False,
        resume_token={"mode": mode, "n": n, "elapsed": elapsed, "done": done},
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
    keys = [format_perm(u) for u in all_perms(n)]
    done, complete, elapsed = _run_sweep(
        "ps-mconvex", n, keys, jobs, budget, resume, checkpoint_path, progress
    )
    if not complete:
        return _partial_report("ps-mconvex", n, done, elapsed)
    counterexamples = [
        {"kind": "support-not-m-convex", "u": u, "w": w}
        for u in keys
        for w in done[u]["fails"]
    ]
    return ConjectureReport(
        mode="ps-mconvex",
        n=n,
        checked_pairs=sum(done[u]["pairs"] for u in keys),
        counterexamples=counterexamples,
        elapsed=elapsed,
    )


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
    keys = [format_perm(u) for u in all_perms(n)]
    done, complete, elapsed = _run_sweep(
        "scnp-pattern", n, keys, jobs, budget, resume, checkpoint_path, progress
    )
    if not complete:
        return _partial_report("scnp-pattern", n, done, elapsed)
    fails_by_u = {u: done[u]["fails"] for u in keys}
    failing_ws = {w for fails in fails_by_u.values() for w in fails}
    counterexamples = []
    for u in keys:
        exists = bool(fails_by_u[u])
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
                    "witness": fails_by_u[u][0] if exists else None,
                }
            )
    for w in keys:
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
    return ConjectureReport(
        mode="scnp-pattern",
        n=n,
        checked_pairs=sum(done[u]["pairs"] for u in keys),
        counterexamples=counterexamples,
        elapsed=elapsed,
        scnp_failures=[(u, w) for u in keys for w in fails_by_u[u]],
    )


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
    keys = [format_perm(w) for w in all_perms(n)]
    done, complete, elapsed = _run_sweep(
        "paper-theorems", n, keys, jobs, budget, resume, checkpoint_path, progress
    )
    if not complete:
        return _partial_report("paper-theorems", n, done, elapsed)
    counterexamples = [rec for w in keys for rec in done[w]["fails"]]
    return ConjectureReport(
        mode="paper-theorems",
        n=n,
        checked_pairs=len(keys),
        counterexamples=counterexamples,
        elapsed=elapsed,
    )
