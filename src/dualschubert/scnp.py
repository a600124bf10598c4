"""
Single-chain support decisions and exhaustive rank sweeps.

An interval [u, w] has the single-chain property when one saturated chain's
weight has the full support T of the interval's weight; such a chain is
dominant.  A chain's support C is the set of integer points of the
generalized permutahedron P(z_C) whose z_C(I), for each subset I of 1..n-1,
counts the chain's labels (a, b) with {a, ..., b-1} inside I (Postnikov,
"Permutohedra, associahedra, and beyond").  C lies inside T, the weight
being a positive sum of chain weights, so z_T <= z_C for z_T(I) = min over t
in T of sum(t_i, i in I).  C = T exactly when they agree on every subset:
then T lies inside P(z_T) = P(z_C), whose integer points are C, so T is C.
Counts only grow along a chain: a prefix exceeding z_T on a subset is cut.
`is_scnp` reads z_T off the support (`polytope._subset_floors`), tries the
greedy chain for its witness, then a DFS over (node, counts).  The sweeps
search no chain: one fold, `_dominance_fold`, gives each v its floors and
marks [u, v] dominant when some cover x < v is dominant and tight:
floors[x] + step == floors[v].

Supports come from `poly`'s key-set fold, `_key_table`, for `ps_support`
(hence `is_scnp`) and the ps-mconvex unit, which reads only sizes.  Every
fold streams and holds two lengths at once (`bruhat._interval_fold`).

Label counts, floors and the paper-theorems unit's monomials are packed
ints, one field per subset of 1..n-1.  `_steps` holds each label's packed
0/1 counts and says why no field carries or borrows, so a chain's counts
are a sum of steps, a comparison with z_T is one subtract and mask, and a
field-wise min (`_least`) is a few operations on whole ints.

The ps-mconvex sweep counts lattice points only where no chain is dominant:
a dominant chain's support is T and a Minkowski sum of label simplices, so T
is M-convex (Murota 2003; Postnikov 2009).  For the rest, the dominance
fold's floors are z_T, and the key-set fold over their down-closure gives
|T|; neither reads a support point.  T lies inside P(z_T), so it is every
integer point of P(z_T) exactly when P(z_T) has |T| of them; with z_T
supermodular that is M-convexity (`polytope._base_size`, which counts 0 when
z_T is not supermodular).

Conjugation rc(v) = w0 v w0 is an automorphism of Bruhat order that fixes
w0 (Bjorner-Brenti 2005).  It turns the cover label (a, b) into
(n+1-b, n+1-a), whose segment {n+1-b, ..., n-a} is the image of
{a, ..., b-1} under i -> n-i.  So it maps the chains of [u, v] onto those of
[rc(u), rc(v)] and every chain's support, hence T, onto its reversal.
Reversing the coordinates keeps M-convexity and maps a dominant chain to a
dominant chain: v fails at u exactly when rc(v) fails at rc(u), and [u, w0]
and [rc(u), w0] have as many elements.  rc preserves length, so the
conjugated fails sorted by (length, v) are in the order of rc(u)'s own walk
(`_mirror`).  The ps-mconvex and scnp-pattern sweeps run a unit u only when
u <= rc(u) and derive rc(u)'s record from it.

Complementing values, v -> w0 v, is an antiautomorphism of Bruhat order
that keeps every cover label (`perm._complement`).  It maps the chains of
[u, w] onto those of [w0 w, w0 u], label words and weights included, so
[u, w] is single-chain exactly when [w0 w, w0 u] is.  Thus w has a failing
partner below it exactly when w0 w has one above it, and w contains
UPPER_PATTERN exactly when w0 w contains LOWER_PATTERN: the scnp-pattern
merge computes the lower law and reads the upper one off it.

The rank sweeps walk the whole symmetric group.  `SWEEPS` maps each mode
to a unit (one base permutation), a merge, the modules its unit loads and
whether it is mirrored; `verify_ps_mconvex`, `verify_scnp_pattern` and
`verify_theorems` run one mode each, through one sweep body.  It supports
budget-bounded partial runs with resumable checkpoints and can fan units
out over worker processes from `_POOL_RANK`, 6, on; below it every unit of
every mode runs in this process, and `multiprocessing` is imported only
when a sweep starts workers.  Results are merged in a fixed order, so
reports are deterministic regardless of worker scheduling.

This module imports `poly`, `polytope` and `tiling` only inside the
functions that use them, so a command loads only what it runs: the
scnp-pattern unit none of them, the ps-mconvex unit `poly` and `polytope`,
the paper-theorems unit all three, `ps_support` `poly`, and `is_scnp` `poly`
and `polytope`.  `_sweep` imports a mode's modules (`SWEEPS`) before it
starts any worker, which would otherwise compile them in its first unit.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from contextlib import suppress
from functools import lru_cache, reduce
from importlib import import_module
from operator import lt
from pathlib import Path
from typing import Callable

from . import bruhat
from .bruhat import SaturatedChain, generating_multiset, greedy_chain, is_greedy
from .perm import (
    Perm,
    _complement,
    _Value,
    all_perms,
    bruhat_leq,
    contains_pattern,
    format_perm,
    identity,
    inversions,
    length,
    longest_element,
    parse_perm,
    validate,
)

# Pattern whose containment in the lower (resp. upper) endpoint is expected
# to predict the existence of a partner making the single-chain property fail.
LOWER_PATTERN: Perm = (1, 3, 2, 4)
UPPER_PATTERN: Perm = (4, 2, 3, 1)


class ScnpVerdict(_Value):
    """Outcome of a single-chain decision: the witness is a dominant chain."""

    __slots__ = ("holds", "witness", "chains_examined")

    def __init__(
        self,
        holds: bool,
        witness: SaturatedChain | None,
        chains_examined: int,  # the greedy chain, plus the chain a search found
    ) -> None:
        super().__init__(holds, witness, chains_examined)


class ConjectureReport(_Value):
    """Outcome of an exhaustive sweep; empty counterexamples means it held.
    Unlike the other value classes it may be assigned to, and is unhashable."""

    __slots__ = ("mode", "n", "checked_pairs", "counterexamples", "elapsed",
                 "complete", "resume_token", "scnp_failures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        mode: str,
        n: int,
        checked_pairs: int,
        counterexamples: list[dict],
        elapsed: float,
        complete: bool = True,
        resume_token: dict | None = None,
        scnp_failures: list[tuple[str, str]] | None = None,
    ) -> None:
        super().__init__(mode, n, checked_pairs, counterexamples, elapsed, complete,
                         resume_token, [] if scnp_failures is None else scnp_failures)

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
    """Support of the interval weight polynomial of [u, w], by the key-set fold."""
    from .poly import _key_table, _unpacker

    u, w = validate(u), validate(w)
    if not bruhat_leq(u, w):
        raise ValueError(
            f"{format_perm(u)} is not below {format_perm(w)} in Bruhat order"
        )
    for _, keys in _key_table(u, w):  # w comes last
        pass
    return frozenset(map(_unpacker(len(u) - 1), keys))


# -- the single-chain decision -------------------------------------------------


@lru_cache(maxsize=None)
def _steps(n: int) -> tuple[dict, int, int]:
    """Each label's packed counts on the subsets of 1..n-1, the field width
    W, and G, the int with every field's top bit set.

    Subset I, as a bitmask with bit i-1 for coordinate i, has the field bits
    [WI, W(I+1)), where label (a, b) counts 1 when I holds {a, ..., b-1}; a
    chain's counts are the sum of its labels' steps.  W = bit_length(n(n-1)/2)
    + 1.  Every field here counts the labels of one chain, or is a monomial's
    sum over I in a product of at most n(n-1)/2 segments (`poly`), so it is
    at most n(n-1)/2 < 2^(W-1): a sum carries into no other field, and
    (z | G) - c borrows from none and keeps a field's top bit exactly when
    c <= z there.
    """
    width = (n * (n - 1) // 2).bit_length() + 1
    fields = [1 << width * m for m in range(1 << n - 1)]
    steps = {}
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            seg = (1 << b - 1) - (1 << a - 1)
            steps[a, b] = sum(f for m, f in enumerate(fields) if m & seg == seg)
    return steps, width, sum(fields) << width - 1


@lru_cache(maxsize=None)
def _least(n: int):
    """The field-wise min of two ints packed as in `_steps`: ge keeps the top
    bit of each field where z >= t, ge - (ge >> W-1) sets the bits below
    those top bits, and there z takes t's value."""
    _, width, high = _steps(n)

    def least(z, t):
        ge = ((z | high) - t) & high
        return z ^ (z ^ t) & (ge - (ge >> width - 1))
    return least


def _scnp_search(u: Perm, w: Perm, z: int) -> ScnpVerdict:
    """DFS over (node, counts) states; a child above z or seen before is cut.
    It runs after the greedy chain failed, so the verdict counts that chain."""
    interval = bruhat.interval_elements(u, w)
    steps, _, high = _steps(len(u))
    cap = z | high
    ups: dict[Perm, list] = {}
    seen: set = set()

    def dfs(v, counts, nodes, labels):
        if v == w:
            return SaturatedChain(nodes, labels) if counts == z else None
        if v not in ups:
            ups[v] = [(v2, lab) for v2, lab in bruhat._covers(v) if v2 in interval]
        for v2, lab in ups[v]:
            c2 = counts + steps[lab]
            if (v2, c2) in seen or cap - c2 & high != high:
                continue
            seen.add((v2, c2))
            found = dfs(v2, c2, nodes + (v2,), labels + (lab,))
            if found is not None:
                return found
        return None

    chain = dfs(u, 0, (u,), ())
    return ScnpVerdict(chain is not None, chain, 1 + (chain is not None))


def _pack(z: list[int], n: int) -> int:
    """z on the subsets of 1..n-1, by bitmask, packed as in `_steps`."""
    width = _steps(n)[1]
    return sum(f << width * m for m, f in enumerate(z))


def _scnp_decide(u: Perm, w: Perm, target: frozenset) -> ScnpVerdict:
    from .polytope import _subset_floors

    steps = _steps(len(u))[0]
    z = _pack(_subset_floors(list(zip(*target)))[0], len(u))
    g = greedy_chain(u, w)
    if sum(steps[lab] for lab in g.labels) == z:
        return ScnpVerdict(True, g, 1)
    return _scnp_search(u, w, z)


def _dominance_fold(u: Perm) -> tuple[dict, dict, list[Perm]]:
    """interval_covers(u, w0); z_T on every subset, packed as in `_steps`,
    for the support T of each [u, v]; and the v, in the covers' order, such
    that [u, v] has no dominant chain.  One fold: v's value is its floors
    and whether [u, v] has a dominant chain.

    T is the union of the chains' supports, each the Minkowski sum of its
    label simplices.  A linear form's minimum over a union is the least of
    the minima, over a Minkowski sum the sum of the minima, and the minimum
    of sum(t_i, i in I) over a label simplex is that label's 0/1 step: z_T
    is a min-plus fold over last covers, its min field-wise (`_least`).

    So a chain's count on I is z_C(I) for its support C, and floors[x] is
    the least count of any chain u -> x.  A chain is dominant exactly when
    its counts equal floors on every subset: z_C = z_T makes C = T (module
    docstring).  [u, u] has a dominant chain, and [u, v] has one exactly
    when some cover x < v has one and floors[x] + step(label) == floors[v]:
    if a chain u -> x -> v counts c_x + step = floors[v], then c_x <=
    floors[x], hence c_x = floors[x], so every prefix of a dominant chain is
    dominant and its last cover is tight; conversely a dominant chain to x
    plus a tight cover is dominant.  No field carries (`_steps`), so int
    equality is field-wise equality.
    """
    steps, least = _steps(len(u))[0], _least(len(u))
    w = longest_element(len(u))
    covers = bruhat.interval_covers(u, w)

    def step(v, below):
        sums = [(z + steps[lab], dominant) for (z, dominant), lab in below]
        floor = reduce(least, [z for z, _ in sums])
        return floor, any(dominant and z == floor for z, dominant in sums)

    floors, pending = {}, []
    for v, (z, dominant) in bruhat._interval_fold(u, w, (0, True), step, covers):
        floors[v] = z
        if not dominant:
            pending.append(v)
    return covers, floors, pending


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
def _theorem_floors(n: int) -> tuple[dict, frozenset]:
    """`_dominance_fold(identity(n))` without its covers, for paper-theorems."""
    _, floors, pending = _dominance_fold(identity(n))
    return floors, frozenset(pending)


@lru_cache(maxsize=1 << 16)
def _floors_base_size(n: int, floors: int) -> int:
    """`_base_size` of z_T, packed as `_dominance_fold` packs it: each
    distinct vector is read back and counted once per process.  The key
    holds the rank, on which the packing depends; the bound is
    `bruhat._covers`'s."""
    from .poly import _unpacker
    from .polytope import _base_size

    unpack = _unpacker(1 << n - 1, _steps(n)[1])
    return _base_size(unpack(floors), n - 1)


def _unit_ps_mconvex(n: int, key: str) -> dict:
    """Is the support T of [u, v] M-convex, for every v above u?

    One dominance fold gives each v its z_T on every subset and its
    verdict.  Only the v with no dominant chain are counted (module
    docstring): the key-set fold runs over their down-closure, which is
    empty when every v is dominant, and the unit reads each one's size as
    the fold streams.  Of the 2,053 pairs a rank-5 sweep runs,
    42 are counted, with 26 distinct floor vectors; of its 53,527 rank-6
    pairs, 2,896 with 837.  Vectors repeat across units, so the point count
    of P(z_T) comes from a per-process memo (`_floors_base_size`).
    """
    from .poly import _key_table

    u = parse_perm(key)
    covers, floors, pending = _dominance_fold(u)
    todo, closure = set(pending), set(pending)
    for v in reversed(covers):
        if v in closure:
            closure.update(x for x, _ in covers[v])
    part = {v: below for v, below in covers.items() if v in closure}
    fails = [format_perm(v) for v, keys in _key_table(u, longest_element(n), part)
             if v in todo and _floors_base_size(n, floors[v]) != len(keys)]
    return {"pairs": len(covers), "fails": fails}


def _unit_scnp_pattern(n: int, key: str) -> dict:
    covers, _, fails = _dominance_fold(parse_perm(key))
    return {"pairs": len(covers), "fails": [format_perm(v) for v in fails]}


def _unit_theorems(n: int, key: str) -> dict:
    """The paper's claims for one w, each checked on its own route.

    Multiplying w's inversion segments with x_i as `_steps(n)[i, i+1]`
    (`poly._segment_terms`) makes field I of each key of the global weight
    its point's sum over I, at most l(w) as `_steps` requires, and the field
    of {i} its exponent of x_i.  So the keys S give z_S as one field-wise
    min (`_least`), packed as `_theorem_floors` packs z_T, and their largest
    sum as the largest full-set field: the M-convexity certificate
    (`polytope._certificate`) reads no point.  S must be the support T of
    [id, w]: no dominant chain is a mismatch, as the greedy chain carries T;
    with one, T is every lattice point of P(z_T), and a passing certificate
    makes S every lattice point of P(z_S), so S = T iff z_S = z_T.  The
    greedy chain carries the global weight iff its labels are w's
    inversions: segment polynomials are linear, hence irreducible, and no
    two are associates (unique factorization in Z[x]).  Points are decoded,
    from the singleton fields, for the coefficient-1 keys, and for all of S
    only if the certificate fails.  Otherwise the hull's vertices are z_S's
    greedy points, and S is the inversion polytope's points iff z_S = z_P, a
    sum of steps (`polytope._inversion_floors`): each z is the floor vector
    of its polytope's integer points, z_P by `gp_from_inversions` and z_S as
    S is all of P(z_S)'s, and such z's with the same points agree.
    """
    from .poly import _reader, _segment_terms, _unpacker
    from .polytope import (_certificate, _greedy_points, _inversion_floors, _snp_by_hull,
                           gp_from_inversions, hull_vertices)
    from .tiling import vertices_via_tilings

    w, (steps, width, _) = parse_perm(key), _steps(n)
    inv = sorted(inversions(w))
    gw = _segment_terms(inv, [steps[i, i + 1] for i in range(1, n)])
    zs = reduce(_least(n), gw)
    z = _unpacker(1 << n - 1, width)(zs)
    passes = _certificate(z, max(gw) >> width * (len(z) - 1), len(gw), n - 1)
    point = _reader([width << i for i in range(n - 1)], width)  # the singletons
    if passes:  # which also proves SNP
        snp, vh = True, _greedy_points(z, n - 1)
        same_points = _inversion_floors(w, steps) == zs
    else:
        supp = frozenset(map(point, gw))
        snp, vh = _snp_by_hull(supp), hull_vertices(supp)
        same_points = gp_from_inversions(w).integer_points() == supp
    (floors, pending), g = _theorem_floors(n), greedy_chain(identity(n), w)
    vc = frozenset(point(m) for m, c in gw.items() if c == 1)
    wrong = {  # in the order of the records
        "support-mismatch": w in pending or passes and zs != floors[w],
        "greedy-chain-not-greedy": not is_greedy(g, g.start, w),
        "greedy-weight-mismatch": sorted(generating_multiset(g).elements()) != inv,
        "support-not-m-convex": not passes,
        "support-not-snp": not snp,
        "polytope-points-mismatch": not same_points,
        "vertex-method-mismatch": not vertices_via_tilings(w) == vc == vh,
    }
    return {"pairs": 1, "fails": [{"kind": k, "w": key} for k, bad in wrong.items() if bad]}


def _merge_ps_mconvex(n: int, fails: dict[str, list]) -> tuple[list, list]:
    return [
        {"kind": "support-not-m-convex", "u": u, "w": w}
        for u, ws in fails.items()
        for w in ws
    ], []


def _merge_scnp_pattern(n: int, fails: dict[str, list]) -> tuple[list, list]:
    """The lower law's mismatches, then the upper law's: w0 u's upper record
    is u's lower one without its witness (module docstring), and w0 reverses
    the key order.  In a mismatch, contains_pattern is not has_failing_partner."""

    def record(kind, u, perm):
        return {"kind": kind, "perm": perm, "has_failing_partner": bool(fails[u]),
                "contains_pattern": not fails[u]}

    ranked = n >= len(LOWER_PATTERN)  # contains_pattern raises below its rank
    lower = [
        u for u, ws in fails.items()
        if bool(ws) != (ranked and contains_pattern(parse_perm(u), LOWER_PATTERN))
    ]
    return [
        {**record("lower-pattern-mismatch", u, u), "witness": (fails[u] or [None])[0]}
        for u in lower
    ] + [
        record("upper-pattern-mismatch", u, format_perm(_complement(parse_perm(u))))
        for u in reversed(lower)
    ], [(u, w) for u, ws in fails.items() for w in ws]


def _merge_theorems(n: int, fails: dict[str, list]) -> tuple[list, list]:
    return [rec for recs in fails.values() for rec in recs], []


# mode -> (unit, merge, modules, mirrored).  One unit per permutation key of
# S_n: unit(n, key) returns {"pairs": int, "fails": list}.  merge(n, fails)
# takes every unit's fails in key order and returns the report's
# counterexamples and scnp_failures.  modules are those the unit imports
# beyond this one's, loaded before the sweep forks.  A mirrored sweep's fails
# are permutation keys, and unit rc(u)'s record is `_mirror` of unit u's;
# the paper-theorems unit cross-checks independent routes for one w.
SWEEPS: dict[str, tuple[Callable[[int, str], dict], Callable[[int, dict], tuple],
                        tuple[str, ...], bool]] = {
    "ps-mconvex": (_unit_ps_mconvex, _merge_ps_mconvex, ("poly", "polytope"), True),
    "scnp-pattern": (_unit_scnp_pattern, _merge_scnp_pattern, (), True),
    "paper-theorems": (_unit_theorems, _merge_theorems, ("poly", "polytope", "tiling"),
                       False),
}

# Below this rank every unit runs in this process, whatever `jobs` says: on
# a shared 2-core machine, starting two workers took 12-19 ms, two forked CPU
# loops ran only 0.8-1.4 times as fast as one, and a rank-5 ps-mconvex pass
# ran a quarter faster in one process (`BENCH_onepool.json`).
_POOL_RANK = 6


def _run_unit(mode: str, n: int, key: str) -> dict:
    return SWEEPS[mode][0](n, key)


def _conjugate(v: Perm) -> Perm:
    """rc(v) = w0 v w0: v's one-line form reversed, its values complemented."""
    return tuple(len(v) + 1 - x for x in reversed(v))


def _mirror(record: dict) -> dict:
    """Unit rc(u)'s record, from unit u's (see the module docstring)."""
    fails = sorted(
        map(_conjugate, map(parse_perm, record["fails"])), key=lambda v: (length(v), v)
    )
    return {"pairs": record["pairs"], "fails": list(map(format_perm, fails))}


# -- sweep driver ----------------------------------------------------------------


# While units finish, `_sweep` rewrites the checkpoint at most this often:
# a rewrite and rename per unit took nearly half of a rank-5 sweep's time.
_CHECKPOINT_EVERY_S = 1.0


def _write_checkpoint(path, text: str) -> None:
    """Replace the checkpoint atomically.  The rename means a process crash
    keeps the previous checkpoint; the fsync before it, that after a machine
    crash the renamed file is not empty."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise ValueError(f"cannot write checkpoint {path}: {exc}") from exc


def _read_token(
    token, mode: str, n: int, partner: dict, mirrored: bool
) -> tuple[dict, float]:
    """The records and elapsed seconds of a resume token for this sweep,
    ({}, 0.0) for None; ValueError unless it is one `_sweep` could write.

    Counts must be ints, not bools (True == 1), and elapsed a non-negative
    number that is finite as a float: Python's json reads NaN and Infinity.
    The mode and rank must be this sweep's, every unit a key of `partner`.
    In a mirrored sweep, which conjugates fails, a unit's fails are keys
    too, as its unit writes them: each above the unit and not the unit, in
    strictly increasing (length, v) order, so no two alike.  In a sweep that
    is not mirrored every fail is a record of its own unit, as
    `_unit_theorems` writes them: a string kind and w, the unit's key.  A
    paper-theorems unit counts 1 pair, a mirrored unit at least 1 + its
    fails, as u and each fail lie in [u, w0]; an exact count needs a walk.
    """
    if token is None:
        return {}, 0.0
    token = token if isinstance(token, dict) else {}
    done, elapsed = token.get("done"), token.get("elapsed", 0.0)
    if not (
        isinstance(done, dict)
        and "mode" in token
        and type(token.get("n")) is int
        and type(elapsed) in (int, float)
        and 0 <= elapsed <= sys.float_info.max
        and all(
            isinstance(r, dict)
            and type(r.get("pairs")) is int
            and r["pairs"] >= 0
            and isinstance(r.get("fails"), list)
            for r in done.values()
        )
    ):
        raise ValueError(
            "malformed resume token: expected mode, an integer n, a finite,"
            " non-negative elapsed and done, with non-negative integer pairs and a fails"
            " list in every record"
        )
    if token["mode"] != mode or token["n"] != n:
        raise ValueError("resume token does not match this sweep")
    if not done.keys() <= partner.keys():
        raise ValueError(f"resume token records units that are not permutations of S_{n}")

    def as_written(key: str, fails: list) -> bool:
        if not all(isinstance(v, str) and v in partner for v in fails):
            return False
        u, seq = parse_perm(key), [(length(v), v) for v in map(parse_perm, fails)]
        return all(map(lt, seq, seq[1:])) and all(u != v and bruhat_leq(u, v) for _, v in seq)

    if mirrored and not all(as_written(key, r["fails"]) for key, r in done.items()):
        raise ValueError(f"resume token lists fails that are not permutations of S_{n}"
                         " above their unit, distinct and in (length, v) order")
    if not mirrored and not all(
        isinstance(f, dict) and f.keys() == {"kind", "w"} and type(f["kind"]) is str
        and f["w"] == key for key, r in done.items() for f in r["fails"]
    ):
        raise ValueError("resume token lists fails that are not records of their units")
    if not all(r["pairs"] > len(r["fails"]) if mirrored else r["pairs"] == 1
               for r in done.values()):
        raise ValueError("resume token counts pairs its units could not: 1 per"
                         " paper-theorems unit, else at least 1 + the unit's fails")
    return dict(done), float(elapsed)


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
                import traceback  # only a failing unit needs it

                conn.send((exc, traceback.format_exc()))


def _sweep(
    mode: str,
    n: int,
    *,
    jobs: int = 1,
    budget: float | None = None,
    resume: dict | None = None,
    checkpoint_path=None,
    progress: Callable[[int, int, str], None] | None = None,
) -> ConjectureReport:
    """Run the units of SWEEPS[mode] over S_n and merge them into a report.

    A mirrored sweep runs unit u only when u <= rc(u) as tuples, and writes
    unit rc(u)'s record, with its own progress call, right after u's: it
    has u's pair count and u's fails conjugated, in (length, v) order
    (module docstring).  rc is an involution, so a resumed pair with either
    half recorded gets the other half up front, with no progress call.

    Units recorded in `resume`, a token `_read_token` accepts, are skipped.
    The rest run in-process below `_POOL_RANK` or when
    min(jobs, units to run, usable CPUs) is 1, else on that many worker
    processes, and only then is `multiprocessing` imported.  The
    checkpoint, its records in key order, is written before the first unit,
    then when a unit finishes `_CHECKPOINT_EVERY_S` or more after the last
    write, and on every way out: complete, budget spent, or any exception,
    including KeyboardInterrupt, which a failed final write does not hide.
    Each write survives a crash (`_write_checkpoint`), so only a hard kill
    (SIGKILL, out of memory) loses finished units: those that finished less
    than `_CHECKPOINT_EVERY_S` after the last write.
    Once the budget has run out no further result is awaited and the report
    is partial, with a resume token; an in-process run first finishes the
    unit it is running.  A worker that dies raises RuntimeError naming its
    unit and exit code.  Leaving the loop, on budget or on error, terminates
    the worker processes.
    """
    if n > 9:  # listing S_10 alone took 39 s and 1.7 GB, before any budget
        raise ValueError(f"rank must be <= 9, got {n}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if budget is not None and not math.isfinite(budget):
        raise ValueError(f"budget must be a finite number of seconds, got {budget}")
    perms = list(all_perms(n))
    keys = [format_perm(p) for p in perms]
    *_, modules, mirrored = SWEEPS[mode]
    # unit u's partner: rc(u) in a mirrored sweep, else u itself
    images = list(map(_conjugate, perms)) if mirrored else perms
    partner = dict(zip(keys, map(format_perm, images)))
    done, prior = _read_token(resume, mode, n, partner, mirrored)
    for key in [k for k in done if partner[k] not in done]:
        done[partner[key]] = _mirror(done[key])
    pending = [k for k, p, q in zip(keys, perms, images) if p <= q and k not in done]
    workers = min(jobs, len(pending), _usable_cpus()) if n >= _POOL_RANK else 1
    for name in modules:  # here, so that no worker compiles them in its first unit
        import_module(f".{name}", __package__)
    if workers > 1:
        from multiprocessing import Pipe, Process
        from multiprocessing.connection import wait
    start = saved = time.monotonic()
    # each record is serialized once, and a write joins them: the file's
    # text is json.dumps of the token {mode, n, elapsed, done}
    records = {k: f"{json.dumps(k)}: {json.dumps(r)}" for k, r in done.items()}

    def save() -> float:
        """Write the checkpoint, if any, and note when; return the elapsed
        time it holds."""
        nonlocal saved
        saved = time.monotonic()
        elapsed = prior + (saved - start)
        if checkpoint_path is not None:
            head = json.dumps({"mode": mode, "n": n, "elapsed": elapsed})[:-1]
            body = ", ".join(records[k] for k in keys if k in records)
            text = head + ', "done": {' + body + "}}"
            _write_checkpoint(checkpoint_path, text)
        return elapsed

    save()
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
            derived = [(partner[key], _mirror(record))] if partner[key] != key else []
            for key, record in [(key, record), *derived]:
                done[key] = record
                records[key] = f"{json.dumps(key)}: {json.dumps(record)}"
                if time.monotonic() - saved >= _CHECKPOINT_EVERY_S:
                    save()
                if progress is not None:
                    progress(len(done), len(keys), key)
    except BaseException:
        with suppress(ValueError):  # the original error is the one to report
            save()
        raise
    finally:
        for proc in procs.values():
            proc.terminate()
            proc.join()
    elapsed = save()
    pairs = sum(done[k]["pairs"] for k in keys if k in done)
    if any(k not in done for k in keys):
        final = {"mode": mode, "n": n, "elapsed": elapsed, "done": done}
        return ConjectureReport(
            mode, n, pairs, [], elapsed, complete=False, resume_token=final
        )
    counterexamples, scnp_failures = SWEEPS[mode][1](
        n, {k: done[k]["fails"] for k in keys}
    )
    return ConjectureReport(
        mode, n, pairs, counterexamples, elapsed, scnp_failures=scnp_failures
    )


def verify_ps_mconvex(n: int, **options) -> ConjectureReport:
    """Is the interval weight support M-convex for every pair u <= w in S_n?"""
    return _sweep("ps-mconvex", n, **options)


def verify_scnp_pattern(n: int, **options) -> ConjectureReport:
    """Check the pattern law for single-chain failures over all of S_n.

    A lower endpoint u should admit some w >= u without the single-chain
    property exactly when u contains LOWER_PATTERN; dually an upper endpoint
    w should admit such a u <= w exactly when w contains UPPER_PATTERN.
    The second law is the first read through v -> w0 v: each upper mismatch
    is a lower one complemented, without its witness.  The merge reads only
    whether each unit fails and its first witness; `scnp_failures` lists all.
    """
    return _sweep("scnp-pattern", n, **options)


def verify_theorems(n: int, **options) -> ConjectureReport:
    """Exhaustively re-verify the structural theorems at rank n.

    Per w: support of the interval weight polynomial equals the global
    weight support; the greedy chain is greedy and carries the global
    weight; the support is M-convex and saturates its Newton polytope; the
    inversion polytope's integer points equal the support; and the three
    vertex enumeration methods agree.
    """
    return _sweep("paper-theorems", n, **options)
