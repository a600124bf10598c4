"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately naive: covers by trying every transposition,
order relations by BFS closure, matchings by trying every pairing, hulls by
Caratheodory enumeration over exact linear solves, dominant chains by a
search over lattice-point sets or over packed label counts.  Two routes are
the paper's definitions: `postnikov_stanley_chainsum` averages the weight of
every chain of [u, w], and `gp_from_segment` builds a label's segment simplex
as support numbers, whose Minkowski sums give `gp_from_inversions`.  Slow but
obviously correct, which is the point.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial
from operator import sub
from types import MappingProxyType

from dualschubert import bruhat
from dualschubert.bruhat import SaturatedChain, interval_elements
from dualschubert.perm import (
    Perm,
    PositionPair,
    apply_t,
    bruhat_leq,
    contains_pattern,
    down_covers,
    format_perm,
    length,
    longest_element,
    parse_perm,
    up_covers,
)
from dualschubert.poly import SparsePolynomial, _count_table, _unpacker, chain_weight
from dualschubert.polytope import (
    GeneralizedPermutahedron,
    _is_supermodular,
    _mask_subsets,
    _walk_bounds,
)
from dualschubert.scnp import UPPER_PATTERN, _steps


def inversion_count(w):
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def covers_bruteforce(w):
    """All (label, v) with w covered by v, found by trying every swap."""
    n = len(w)
    out = []
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            v = list(w)
            v[a - 1], v[b - 1] = v[b - 1], v[a - 1]
            v = tuple(v)
            if inversion_count(v) == inversion_count(w) + 1:
                out.append(((a, b), v))
    return out


@lru_cache(maxsize=None)
def _upset(u):
    """Every v with u <= v, by BFS over brute-force covers."""
    seen = {u}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            for _, v in covers_bruteforce(x):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return frozenset(seen)


def bruhat_leq_bruteforce(u, w):
    return w in _upset(u)


def interval_covers_by_down_walk(u, w):
    """Each v in [u, w] with its labelled down-covers inside, walking down from w.

    Every element of [u, w] is reached from w by covers that stay above u,
    and whatever the walk meets is below w, so each candidate is compared
    with u once.  Keys come in walk order; empty when u is not below w.
    """
    if not bruhat_leq(u, w):
        return {}
    above_u = {w: True}
    covers = {}
    queue = deque([w])
    while queue:
        v = queue.popleft()
        inside = []
        for v2, lab in down_covers(v):
            ok = above_u.get(v2)
            if ok is None:
                ok = above_u[v2] = bruhat_leq(u, v2)
                if ok:
                    queue.append(v2)
            if ok:
                inside.append((v2, lab))
        covers[v] = inside
    return covers


def chain_count_bruteforce(u, w):
    """Number of saturated chains from u to w, by recursion over covers."""
    memo = {}

    def count(x):
        if x == w:
            return 1
        if x not in memo:
            memo[x] = sum(
                count(v) for _, v in covers_bruteforce(x)
                if bruhat_leq_bruteforce(v, w)
            )
        return memo[x]

    return count(u) if bruhat_leq_bruteforce(u, w) else 0


def dominates_bruteforce(labels, targets):
    """Interval-containment matching by trying every pairing."""
    labels = sorted(labels)
    targets = sorted(targets)
    if len(labels) != len(targets):
        raise ValueError("size mismatch")
    for order in permutations(targets):
        if all(c <= a and b <= d for (a, b), (c, d) in zip(labels, order)):
            return True
    return False


def tilings_bruteforce(n):
    """All corner-rectangle combos that exactly partition the staircase.

    Corner k admits rects (top, left, k, n-k) with any top <= k, left <= n-k;
    the cross product is filtered down to exact partitions.
    """
    cells = {(i, j) for i in range(1, n) for j in range(1, n - i + 1)}
    per_corner = [
        [(t, l, k, n - k) for t in range(1, k + 1) for l in range(1, n - k + 1)]
        for k in range(1, n)
    ]
    out = []
    for combo in product(*per_corner):
        covered = [
            (i, j)
            for (t, l, b, r) in combo
            for i in range(t, b + 1)
            for j in range(l, r + 1)
        ]
        if len(covered) == len(cells) and set(covered) == cells:
            out.append(combo)
    return out


def solve_exact(rows, rhs):
    """Solve a linear system over the rationals by Gaussian elimination.

    Returns the unique solution as a list of Fractions, or None when the
    system is inconsistent or has free variables.
    """
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    nrows, ncols = len(m), len(m[0]) - 1
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if any(all(x == 0 for x in row[:-1]) and row[-1] != 0 for row in m):
        return None
    if len(pivots) < ncols:
        return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = m[i][-1]
    return sol


def hull_contains_bruteforce(points, target):
    """Caratheodory test: some affinely independent subset carries target."""
    points = sorted(set(points))
    if not points:
        return False
    d = len(points[0])
    for size in range(1, min(len(points), d + 1) + 1):
        for sub in combinations(points, size):
            rows = [[v[j] for v in sub] for j in range(d)]
            rows.append([1] * size)
            sol = solve_exact(rows, list(target) + [1])
            if sol is not None and all(lam >= 0 for lam in sol):
                return True
    return False


def snp_bruteforce(points):
    """SNP: no lattice point of the bounding box outside the set lies in its
    hull, by the Caratheodory test."""
    box = product(*(range(min(c), max(c) + 1) for c in zip(*points)))
    return not any(c not in points and hull_contains_bruteforce(points, c) for c in box)


def add_segment(points, a, b):
    """Minkowski-add the segment {e_a, ..., e_{b-1}} to a lattice-point set."""
    return frozenset(
        p[:i] + (p[i] + 1,) + p[i + 1:] for p in points for i in range(a - 1, b - 1)
    )


def minkowski_support(w):
    """Minkowski sum, over the inversions (a, b) of w, of {e_a, ..., e_{b-1}}.

    Equals the support of the global weight polynomial term for term: a set
    route independent of the package's segment step.
    """
    points = frozenset({(0,) * (len(w) - 1)})
    for a, b in combinations(range(1, len(w) + 1), 2):
        if w[a - 1] > w[b - 1]:
            points = add_segment(points, a, b)
    return points


def gp_from_segment(seg: PositionPair, nvars: int) -> GeneralizedPermutahedron:
    """The segment simplex conv{e_a, ..., e_{b-1}} as a support-number table:
    z_I = 1 exactly when I contains all of {a, ..., b-1}."""
    a, b = seg
    if not (1 <= a < b <= nvars + 1):
        raise ValueError(f"segment ({a}, {b}) out of range for {nvars} vars")
    cells = frozenset(range(a, b))
    return GeneralizedPermutahedron(
        nvars, {s: int(cells <= s) for s in _mask_subsets(nvars)}
    )


@lru_cache(maxsize=None)
def support_table_by_union(u):
    """Support of [u, v] for every v >= u, by a set-union DP over brute-force covers.

    Pushes each support up every cover in increasing length order: the
    support of [u, v] is the union, over covers x < v above u with label
    (a, b), of the support of [u, x] plus the segment {e_a, ..., e_{b-1}}.
    Built once per u and shared, so it is returned read-only.
    """
    table = {u: frozenset({(0,) * (len(u) - 1)})}
    for x in sorted(_upset(u), key=inversion_count):
        for (a, b), v in covers_bruteforce(x):
            table[v] = table.get(v, frozenset()) | add_segment(table[x], a, b)
    return MappingProxyType(table)


def count_table_by_tuples(u):
    """Chain-weight sums of [u, v] for every v >= u, one exponent tuple per monomial.

    The cover-split fold over brute-force covers in increasing length order:
    the sum of [u, v] adds, over covers x < v above u with label (a, b), the
    sum of [u, x] times x_a + ... + x_{b-1}, exponent tuple -> int coefficient.
    """
    table = {u: {(0,) * (len(u) - 1): 1}}
    for x in sorted(_upset(u), key=inversion_count):
        for (a, b), v in covers_bruteforce(x):
            out = table.setdefault(v, {})
            for i in range(a - 1, b - 1):
                for e, c in table[x].items():
                    k = e[:i] + (e[i] + 1,) + e[i + 1:]
                    out[k] = out.get(k, 0) + c
    return table


def postnikov_stanley_chainsum(u: Perm, w: Perm) -> SparsePolynomial:
    """Definitional form: average of chain weights over all chains of [u, w].

    Sums chain_weight over enumerate_chains(u, w) and divides by r! where
    r = length(w) - length(u).  Exponential in r; intended as the oracle
    the dynamic program is checked against.
    """
    u, w = bruhat._require_below(u, w)
    nvars = len(w) - 1
    total = SparsePolynomial.zero(nvars)
    for chain in bruhat.enumerate_chains(u, w):
        total = total + chain_weight(chain)
    return total * Fraction(1, factorial(length(w) - length(u)))


def floors_by_tuples(u, sets):
    """z_T on each coordinate set, one tuple per v >= u, for the support T of [u, v].

    `sets` are bitmasks, bit i-1 for coordinate i.  The min-plus fold over
    brute-force covers in increasing length order: a label (a, b) counts 1
    on each set that holds {a, ..., b-1}, and z of [u, v] is the coordinatewise
    least, over covers x < v above u, of z of [u, x] plus that label's counts.
    """
    table = {u: (0,) * len(sets)}
    for x in sorted(_upset(u), key=inversion_count):
        for (a, b), v in covers_bruteforce(x):
            seg = (1 << b - 1) - (1 << a - 1)
            z = tuple(c + (m & seg == seg) for c, m in zip(table[x], sets))
            table[v] = tuple(map(min, table.get(v, z), z))
    return table


def greedy_chain_by_pairs(u, w):
    """The greedy chain from u to w, with u <= w: at each node, from the
    top down, the least available label that no other available label
    widens, every pair of labels compared and every lower endpoint
    compared with u."""
    nodes, labels, v = [w], [], w
    while v != u:
        avail = [lab for x, lab in down_covers(v) if bruhat_leq(u, x)]
        best = min(
            (a, b) for a, b in avail
            if not any((x == a and y > b) or (y == b and x < a) for x, y in avail)
        )
        v = apply_t(v, *best)
        nodes.append(v)
        labels.append(best)
    return SaturatedChain(tuple(reversed(nodes)), tuple(reversed(labels)))


def base_points_by_recursion(z, n):
    """Yield the integer t with sum(t) = z(full) and t(I) >= z(I), by
    bitmask: a depth-first walk over prefixes that carries t(I) for every
    subset I of the prefix, the last coordinate included, and bounds each
    coordinate k by every inequality whose largest member is k."""
    bounds = _walk_bounds(z, n)

    def walk(k, sums, prefix):
        if k == n:
            yield prefix
            return
        lows, highs = bounds[k]
        for v in range(max(map(sub, lows, sums)), min(map(sub, highs, sums)) + 1):
            yield from walk(k + 1, sums + [s + v for s in sums], prefix + (v,))

    return walk(0, [0], ())


def base_size_by_walk(z, n):
    """The number of points `base_points_by_recursion` yields for a
    supermodular z with z(empty) = 0, 0 when z is not supermodular: the
    same walk, stopped at the second-to-last coordinate, whose range's
    length it counts."""
    if not _is_supermodular(z, n):
        return 0
    if n < 2:
        return 1
    bounds, last = _walk_bounds(z, n), n - 2

    def walk(k, sums):
        lows, highs = bounds[k]
        lo, hi = max(map(sub, lows, sums)), min(map(sub, highs, sums))
        if k == last:
            return max(hi - lo + 1, 0)
        return sum(walk(k + 1, sums + [s + v for s in sums]) for v in range(lo, hi + 1))

    return walk(0, [0])


def ps_mconvex_record_by_counts(n, key):
    """The ps-mconvex unit record of u = key, pair by pair, with no memo:
    the reference for `scnp._unit_ps_mconvex`.

    T is the key set of the coefficient fold, read back as points, and
    z_T(I) is the least sum over I of a point of T, taken over each subset
    I.  T is M-convex exactly when z_T is supermodular and P(z_T) has |T|
    integer points, each of them listed one by one.
    """
    u, d = parse_perm(key), n - 1
    counts = dict(_count_table(u, longest_element(n)))
    unpack = _unpacker(d)

    def subset_sums(t):
        """t(I) for every subset I, at index sum(2^i for i in I)."""
        sums = [0]
        for x in t:
            sums += [s + x for s in sums]
        return sums

    fails = []
    for v, terms in counts.items():
        points = [unpack(e) for e in terms]
        z = list(map(min, zip(*map(subset_sums, points))))
        size = len(list(base_points_by_recursion(z, d)))
        if not (_is_supermodular(z, d) and size == len(points)):
            fails.append(format_perm(v))
    return {"pairs": len(counts), "fails": fails}


def dominant_chain_by_sets(u, w, target):
    """A chain from u to w whose support is the point set target, or None.

    Depth-first over (node, support set) states: each step Minkowski-adds
    its label's segment, a prefix with a point outside the coordinatewise
    shadow of target is cut, and larger supports are tried first.
    """
    interval = interval_elements(u, w)
    shadow = {}

    def under(p):
        if p not in shadow:
            shadow[p] = any(all(x <= y for x, y in zip(p, t)) for t in target)
        return shadow[p]

    seen = set()

    def dfs(v, supp, nodes, labels):
        if v == w:
            return SaturatedChain(nodes, labels) if supp == target else None
        children = []
        for v2, lab in up_covers(v):
            if v2 in interval:
                s2 = add_segment(supp, *lab)
                if (v2, s2) not in seen and all(under(p) for p in s2):
                    children.append((-len(s2), lab, v2, s2))
        for _, lab, v2, s2 in sorted(children):
            seen.add((v2, s2))
            found = dfs(v2, s2, nodes + (v2,), labels + (lab,))
            if found is not None:
                return found
        return None

    return dfs(u, frozenset({(0,) * (len(u) - 1)}), (u,), ())


def floor_path(covers, u, v, floors):
    """Labels, from u up, of a dominant chain u -> v, or None: a DFS down from v.

    `covers` is interval_covers(u, w0) and `floors` maps each x in it to z_T
    of [u, x] on every subset (`scnp._dominance_fold`).  A partial chain
    x -> v with counts `top` is cut when seen before, or when top +
    floors[x] exceeds floors[v] on a subset: floors[x] is the least count
    of any chain from u to x.  At u, top is floors[v].  Each field of
    top + floors[x] counts the labels of one chain u -> v, so the packed cut
    is exact (`scnp._steps`).
    """
    steps, _, high = _steps(len(u))
    cap, seen = floors[v] | high, set()

    def dfs(x, top):
        if x == u:
            return ()
        for x2, lab in covers[x]:
            t2 = top + steps[lab]
            if (cap - (t2 + floors[x2])) & high == high and (x2, t2) not in seen:
                seen.add((x2, t2))
                if (found := dfs(x2, t2)) is not None:
                    return found + (lab,)
        return None

    return dfs(v, 0)


def upper_pattern_records(n, fails):
    """The upper pattern law's mismatches, computed directly: w has a failing
    partner when some unit lists it, which should hold exactly when w
    contains UPPER_PATTERN.  `fails` maps every key of S_n, in key order, to
    its unit's fails."""
    failing_ws = {w for ws in fails.values() for w in ws}
    records = []
    for w in fails:
        exists = w in failing_ws
        expected = n >= len(UPPER_PATTERN) and contains_pattern(
            parse_perm(w), UPPER_PATTERN
        )
        if exists != expected:
            records.append(
                {
                    "kind": "upper-pattern-mismatch",
                    "perm": w,
                    "has_failing_partner": exists,
                    "contains_pattern": expected,
                }
            )
    return records
