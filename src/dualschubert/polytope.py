"""
Lattice supports, Newton polytopes, and generalized permutahedra, all in
exact rational arithmetic.

A point set has the saturated-support property (SNP) when it equals the set
of integer points of its own convex hull.  It is M-convex when it satisfies
the exchange axiom: for any two members a, b and any coordinate i with
a_i > b_i there is a j with a_j < b_j such that both a - e_i + e_j and
b - e_j + e_i are members.

Convex-hull membership questions are decided by a phase-1 simplex over
Fractions with Bland's rule; no verdict ever touches floating point.

A generalized permutahedron in k coordinates is stored as its support
numbers z_I, one per subset I of {1..k}: the polytope of points t with
sum(t) = z_{full} and sum(t_i, i in I) >= z_I for every other I.
Minkowski sums add z-values pointwise.

One certificate settles M-convexity, SNP and the vertices together.  For a
set S of points with one coordinate sum let z_S(I) = min over S of sum(s_i,
i in I).  S is M-convex exactly when z_S is supermodular and S is every
integer point of the polytope z_S defines (Murota, "Discrete Convex
Analysis", 2003); that polytope is then conv(S), and its vertices are its
greedy points (Edmonds, "Submodular functions, matroids, and certain
polyhedra", 1970).  S lies inside that polytope by the definition of z_S,
so "S is every integer point" is a count: `_base_size` walks the points of
the polytope of a supermodular z two coordinates short of the end, and the
certificate compares that count with |S|.  One core, `_certificate`,
decides this from z_S by bitmask, the largest coordinate sum and |S|, and
it has two feeders.  `m_convex_certificate` reads z_S and the largest sum
off a point set's columns (`_subset_floors`).  The paper-theorems unit
packs its global weight by subsets (`poly`), so each key already holds its
point's sum over every subset: z_S is their field-wise min and the largest
sum the largest full-set field, and no point is decoded unless the
certificate fails.  The ps-mconvex sweep makes the same count from the
floors it folds and the size of a key set.  The certificate alone decides
M-convexity; `is_snp` and the paper-theorems sweep try it before the
simplex, and the exchange-pair loop runs only to name a rejected set's
witness.  One routine, `_greedy_points`, gives the greedy points, for
`GeneralizedPermutahedron.vertices` and that unit alike.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from operator import add, sub
from typing import Iterable, Mapping, Sequence

from .perm import Perm, inversions, validate
from .poly import ExponentVector, SparsePolynomial, global_weight

LatticePoint = tuple[int, ...]


# -- exact linear feasibility -------------------------------------------------


def _nonneg_combination_exists(
    columns: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> bool:
    """Is rhs a nonnegative linear combination of the columns?  Exact.

    Phase-1 simplex: minimize the sum of one artificial variable per row,
    steered by Bland's rule (smallest eligible index enters; ties on the
    ratio test leave by smallest basis index), which cannot cycle.
    Feasible exactly when the optimal artificial mass is zero.
    """
    k = len(rhs)
    m = len(columns)
    rows = [[Fraction(col[i]) for col in columns] for i in range(k)]
    b = [Fraction(v) for v in rhs]
    for i in range(k):
        if b[i] < 0:
            rows[i] = [-v for v in rows[i]]
            b[i] = -b[i]
    # tableau columns: m structural then k artificial
    for i in range(k):
        rows[i].extend(Fraction(1) if j == i else Fraction(0) for j in range(k))
    basis = list(range(m, m + k))
    # reduced costs under the all-artificial basis
    cost = [-sum(rows[i][j] for i in range(k)) for j in range(m)]
    cost.extend(Fraction(0) for _ in range(k))
    neg_obj = -sum(b)
    banned = [False] * (m + k)

    while True:
        enter = -1
        for j in range(m + k):
            if not banned[j] and cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return neg_obj == 0
        leave = -1
        best: Fraction | None = None
        for i in range(k):
            coeff = rows[i][enter]
            if coeff > 0:
                ratio = b[i] / coeff
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise ArithmeticError("phase-1 objective cannot be unbounded")
        piv = rows[leave][enter]
        rows[leave] = [v / piv for v in rows[leave]]
        b[leave] /= piv
        for i in range(k):
            if i != leave and rows[i][enter]:
                f = rows[i][enter]
                rows[i] = [v - f * p for v, p in zip(rows[i], rows[leave])]
                b[i] -= f * b[leave]
        if cost[enter]:
            f = cost[enter]
            cost = [v - f * p for v, p in zip(cost, rows[leave])]
            neg_obj -= f * b[leave]
        if basis[leave] >= m:
            banned[basis[leave]] = True
        basis[leave] = enter


def _points(points: Iterable[tuple]) -> tuple[list[tuple], int]:
    """The distinct points as tuples, unsorted, and their one dimension."""
    pts = list(set(map(tuple, points)))
    if not pts:
        raise ValueError("need at least one point")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("points have mixed dimensions")
    return pts, d


def hull_contains(points: Iterable[tuple], target: tuple) -> bool:
    """Is target in the convex hull of the points?  Exact.

    >>> hull_contains({(1, 1), (0, 2)}, (0, 2))
    True
    >>> hull_contains({(1, 1), (0, 2)}, (2, 0))
    False
    """
    pts, d = _points(points)
    pts.sort()  # a fixed simplex column order
    target = tuple(target)
    if len(target) != d:
        raise ValueError(f"target has dimension {len(target)}, points {d}")
    if target in pts:
        return True
    columns = [p + (1,) for p in pts]
    return _nonneg_combination_exists(columns, target + (1,))


def hull_vertices(points: Iterable[tuple]) -> frozenset[tuple]:
    """Vertices of the convex hull of a finite point set.  Exact.

    Midpoints of two other members are discarded without touching the
    simplex.  No vertex is such a midpoint, so the survivors have the same
    hull as the whole set; a survivor is kept exactly when it is not in the
    hull of the other survivors.
    """
    pts, _ = _points(points)
    if len(pts) == 1:
        return frozenset(pts)
    pset = set(pts)
    survivors = [
        alpha
        for alpha in pts
        if not any(
            beta != alpha and tuple(2 * a - c for a, c in zip(alpha, beta)) in pset
            for beta in pts
        )
    ]
    return frozenset(
        v for v in survivors if not hull_contains([p for p in survivors if p != v], v)
    )


# -- supports and their polytopes ---------------------------------------------


def _subset_order(subset: frozenset[int]) -> tuple[int, list[int]]:
    """The order of support numbers in `repr`, JSON and the `newton`
    command: by size, then by sorted members."""
    return len(subset), sorted(subset)


def _subset_key(subset: frozenset[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(subset)) + "}"


def _parse_subset_key(key: str) -> frozenset[int]:
    key = key.strip()
    if not (key.startswith("{") and key.endswith("}")):
        raise ValueError(f"bad subset key {key!r}")
    body = key[1:-1].strip()
    if not body:
        return frozenset()
    return frozenset(int(part) for part in body.split(","))


@lru_cache(maxsize=None)
def _mask_subsets(n: int) -> tuple[frozenset[int], ...]:
    """The subsets of 1..n indexed by bitmask: bit i-1 stands for coordinate i."""
    return tuple(
        frozenset(i + 1 for i in range(n) if m >> i & 1) for m in range(1 << n)
    )


@lru_cache(maxsize=None)
def _squares(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """(A+i, A+j, A+i+j, A) as bitmasks, for every A and i < j outside it."""
    return tuple(
        (a | 1 << i, a | 1 << j, a | 1 << i | 1 << j, a)
        for a in range(1 << n)
        for i in range(n)
        if not a >> i & 1
        for j in range(i + 1, n)
        if not a >> j & 1
    )


def _is_supermodular(z: Sequence[int], n: int) -> bool:
    """z(A+i) + z(A+j) <= z(A+i+j) + z(A) for every A and i, j outside it.

    These local inequalities imply supermodularity on all pairs of subsets.
    """
    return all(z[x] + z[y] <= z[xy] + z[a] for x, y, xy, a in _squares(n))


@lru_cache(maxsize=None)
def _prefix_bounds(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Per coordinate k, over the subsets I of 0..k-1: the masks I+k, full-I-k."""
    full = (1 << n) - 1
    return tuple(
        (
            tuple(i | 1 << k for i in range(1 << k)),
            tuple(full ^ i ^ 1 << k for i in range(1 << k)),
        )
        for k in range(n)
    )


def _walk_bounds(z: Sequence[int], n: int) -> list[tuple[list[int], list[int]]]:
    """Per coordinate k, over the subsets I of 0..k-1: z(I+k), z(full) - z(full-I-k)."""
    top = z[-1]
    return [
        ([z[m] for m in lo], [top - z[m] for m in hi]) for lo, hi in _prefix_bounds(n)
    ]


def _base_points(z: Sequence[int], n: int) -> list[tuple[int, ...]]:
    """The integer t with sum(t) = z(full) and t(I) >= z(I), by bitmask.

    Coordinates are fixed in order, one level of prefixes at a time, with
    the sums t(I) over the subsets I of each prefix carried along.
    Coordinate k meets every inequality whose largest member is k: z(I+k) -
    t(I) <= t_k <= z(full) - z(full-I-k) - t(I), so each inequality is read
    once per prefix, and the last coordinate needs no sums of its own.  For
    a supermodular z every prefix that gets a value extends to a point.
    """
    level = [((), [0])]
    for k, (lows, highs) in enumerate(_walk_bounds(z, n)):
        grow = k < n - 1
        level = [
            (prefix + (v,), sums + [s + v for s in sums] if grow else sums)
            for prefix, sums in level
            for v in range(max(map(sub, lows, sums)), min(map(sub, highs, sums)) + 1)
        ]
    return [prefix for prefix, _ in level]


def _base_size(z: Sequence[int], n: int) -> int:
    """How many integer points the base polytope P(z) has when z, with
    z(empty) = 0, is supermodular; 0 when it is not.

    No point set is empty, so a set with floors z fills P(z) exactly when
    this is its size.  The count is the walk of `_base_points`, stopped two
    coordinates early.  For a supermodular z every value in a prefix's range
    extends to a point, and the last coordinate is then fixed, to z(full)
    minus the others, since I = everything before it gives it equal bounds.
    So the second-to-last coordinate contributes its range's length: its
    bounds over the subsets I of the coordinates before it split by whether
    I holds the third-to-last, whose value v they then subtract.  With A, B
    the largest lower bounds without and with it, and C, D the least upper
    ones, the length is max(min(C, D - v) - max(A, B - v) + 1, 0).  With
    fewer than two coordinates there is exactly one point.
    """
    if not _is_supermodular(z, n):
        return 0
    if n < 2:
        return 1
    bounds = _walk_bounds(z, n)
    if n == 2:
        (lo,), (hi,) = bounds[0]
        return max(hi - lo + 1, 0)
    last, half = n - 3, 1 << n - 3
    lows2, highs2 = bounds[n - 2]

    def walk(k: int, sums: list[int]) -> int:
        lows, highs = bounds[k]
        lo, hi = max(map(sub, lows, sums)), min(map(sub, highs, sums))
        if k < last:
            return sum(
                walk(k + 1, sums + [s + v for s in sums]) for v in range(lo, hi + 1)
            )
        a, b = max(map(sub, lows2[:half], sums)), max(map(sub, lows2[half:], sums))
        c, d = min(map(sub, highs2[:half], sums)), min(map(sub, highs2[half:], sums))
        return sum(max(min(c, d - v) - max(a, b - v) + 1, 0) for v in range(lo, hi + 1))

    return walk(0, [0])


def _subset_floors(coords: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """z(I) = min over the points of sum(p_i, i in I), for every subset I of
    1..d by bitmask (`_mask_subsets`), z(empty) = 0; and the largest sum of
    a point's coordinates.  The points come as their d coordinate columns,
    each listing the points in one order.

    Subsets grow by coordinates above their largest, with one list of the
    points' sums per depth, so each z(I) costs one addition per point; the
    full set's list gives the largest sum too.
    """
    d = len(coords)
    full, z, top = (1 << d) - 1, [0] * (1 << d), 0

    def fill(mask: int, sums: list[int], start: int) -> None:
        nonlocal top
        for k in range(start, d):
            grown = list(map(add, sums, coords[k]))
            z[mask | 1 << k] = min(grown)
            if mask | 1 << k == full:
                top = max(grown)
            fill(mask | 1 << k, grown, k + 1)

    fill(0, [0] * len(coords[0]) if d else [], 0)
    return z, top


def _certificate(z: Sequence[int], top: int, size: int, n: int) -> bool:
    """Do `size` distinct points in n coordinates, with floors z by bitmask
    and largest coordinate sum top, pass the M-convexity certificate (the
    module docstring)?

    They pass when they share one coordinate sum, which is when the least,
    z(full), is top, and P(z) has as many integer points as the set
    (`_base_size`, 0 when z is not supermodular).  A point set with no
    coordinates is one point, the empty tuple.
    """
    return top == z[-1] and _base_size(z, n) == size


def _greedy_points(z: Sequence[int], n: int) -> frozenset[tuple[int, ...]]:
    """The greedy point of z, by bitmask, for every order s of the n
    coordinates: t_{s(k)} = z(s(1..k)) - z(s(1..k-1)).  When z is
    supermodular these are exactly the vertices of P(z) (Edmonds 1970)."""
    out = set()
    for order in permutations(range(n)):
        t, mask = [0] * n, 0
        for k in order:
            t[k] = z[mask | 1 << k] - z[mask]
            mask |= 1 << k
        out.add(tuple(t))
    return frozenset(out)


class GeneralizedPermutahedron:
    """Polytope described by one support number per coordinate subset."""

    __slots__ = ("nvars", "z")

    def __init__(self, nvars: int, z: Mapping[frozenset[int], int]):
        if nvars < 0:
            raise ValueError(f"nvars must be >= 0, got {nvars}")
        self.nvars = nvars
        full = frozenset(range(1, nvars + 1))
        table: dict[frozenset[int], int] = {}
        for subset, val in z.items():
            subset = frozenset(subset)
            if not subset <= full:
                raise ValueError(f"subset {sorted(subset)} not within 1..{nvars}")
            table[subset] = val
        if table.get(frozenset(), 0) != 0:
            raise ValueError("the empty set must carry z = 0")
        for subset in _mask_subsets(nvars):
            table.setdefault(subset, 0)
        self.z = table

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GeneralizedPermutahedron)
            and self.nvars == other.nvars
            and self.z == other.z
        )

    def __repr__(self) -> str:
        return f"GeneralizedPermutahedron({self.nvars}, {self.to_json_dict()['z']})"

    def __add__(self, other: "GeneralizedPermutahedron") -> "GeneralizedPermutahedron":
        if not isinstance(other, GeneralizedPermutahedron):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")
        return GeneralizedPermutahedron(
            self.nvars, {s: v + other.z[s] for s, v in self.z.items()}
        )

    def contains(self, t: Sequence) -> bool:
        """Membership test; works for integer or rational coordinates."""
        if len(t) != self.nvars:
            raise ValueError(f"point has dimension {len(t)}, expected {self.nvars}")
        full = frozenset(range(1, self.nvars + 1))
        if sum(t) != self.z[full]:
            return False
        for subset, bound in self.z.items():
            if subset and subset != full:
                if sum(t[i - 1] for i in subset) < bound:
                    return False
        return True

    def _masks(self) -> list[int]:
        """The support numbers indexed by bitmask, as in `_mask_subsets`."""
        return [self.z[s] for s in _mask_subsets(self.nvars)]

    def integer_points(self) -> frozenset[LatticePoint]:
        """All integer points of the polytope; see `_base_points`."""
        return frozenset(_base_points(self._masks(), self.nvars))

    def vertices(self) -> frozenset[LatticePoint]:
        """The vertices, as greedy points: no linear programming.

        For a coordinate order s the greedy point t has t_{s(k)} =
        z(s(1..k)) - z(s(1..k-1)).  When z is supermodular the polytope is a
        base polytope and its vertices are exactly its greedy points (Edmonds
        1970).  Raises ValueError when z is not supermodular.
        """
        n, z = self.nvars, self._masks()
        if not _is_supermodular(z, n):
            raise ValueError("the support numbers are not supermodular")
        return _greedy_points(z, n)

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "z": {_subset_key(s): self.z[s] for s in sorted(self.z, key=_subset_order)},
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "GeneralizedPermutahedron":
        z = {_parse_subset_key(k): int(v) for k, v in d["z"].items()}
        return cls(int(d["nvars"]), z)


def gp_from_inversions(w: Perm) -> GeneralizedPermutahedron:
    """Support numbers z_I = number of inversions (a, b) of w with
    {a, ..., b-1} contained in I.

    z is tight: it is the floor vector of its own integer points, z_I = min
    over them of t(I).  Each indicator [{a, ..., b-1} inside I] is
    supermodular, so z is, P(z) is an integral base polytope, and its greedy
    vertices attain z_I for every I (Edmonds 1970).

    >>> gp_from_inversions((3, 2, 1)).z[frozenset({1, 2})]
    3
    """
    w = validate(w)
    nvars = len(w) - 1
    # {a, ..., b-1} as bits a-1 .. b-2, subsets by bitmask as in _mask_subsets
    segs = [(1 << b - 1) - (1 << a - 1) for a, b in inversions(w)]
    return GeneralizedPermutahedron(nvars, {
        s: sum(m & seg == seg for seg in segs)
        for m, s in enumerate(_mask_subsets(nvars))
    })


def _inversion_floors(w: Perm, steps: Mapping) -> int:
    """`gp_from_inversions(w)`'s z, packed as steps packs: the sum of
    steps[a, b] over the inversions (a, b) of w.  Each step holds 1 in the
    field of every subset I that contains {a, ..., b-1} (`scnp._steps`), so
    field I counts the inversions whose segment lies in I, which is z_I."""
    return sum(steps[seg] for seg in inversions(w))


# -- SNP and M-convexity ------------------------------------------------------


def m_convex_certificate(
    points: Iterable[LatticePoint],
) -> GeneralizedPermutahedron | None:
    """The base polytope whose integer points are exactly the points, or None.

    With z(I) = min over the points of sum(p_i, i in I) for every subset I,
    the points pass when they share one coordinate sum, z is supermodular,
    and the polytope P(z) has as many integer points as the set
    (`_certificate`, fed by `_subset_floors` on the points' columns).  Why
    this is exact: P(z) is then an integral base polytope, so its integer
    points, which are the set, are M-convex; the set is every integer point
    of P(z), so conv(set) = P(z) and the set has SNP; and the vertices of
    P(z) are its greedy points.  Conversely an M-convex set is every integer
    point of its hull P(z) with z supermodular, so it passes: None proves
    the set is not M-convex.

    >>> sorted(m_convex_certificate({(2, 0), (1, 1), (0, 2)}).vertices())
    [(0, 2), (2, 0)]
    >>> m_convex_certificate({(2, 0), (0, 2)}) is None
    True
    """
    pts, d = _points(points)
    z, top = _subset_floors(list(zip(*pts)))
    if not _certificate(z, top, len(pts), d):
        return None
    return GeneralizedPermutahedron(d, dict(zip(_mask_subsets(d), z)))


def is_snp(f: SparsePolynomial) -> bool:
    """Does the support of f saturate its Newton polytope?

    True when every integer point of the convex hull of the support is
    itself a support point (`_snp_support`).  The zero polynomial is
    rejected; negative coefficients only draw a warning, the definition
    still applies.
    """
    supp = f.support()
    if not supp:
        raise ValueError("the zero polynomial has no Newton polytope")
    if any(c < 0 for _, c in f.items()):
        warnings.warn("polynomial has negative coefficients", stacklevel=2)
    return _snp_support(supp)


def _snp_support(supp: frozenset[LatticePoint]) -> bool:
    """Is the nonempty point set every integer point of its convex hull?

    A set that passes `m_convex_certificate` is every integer point of an
    integral polytope, its own hull, so it is SNP at once; any other set is
    decided by exact hull membership of the candidate points.
    """
    return m_convex_certificate(supp) is not None or _snp_by_hull(supp)


def _snp_by_hull(supp: frozenset[LatticePoint]) -> bool:
    """SNP by the simplex: no lattice point outside supp lies in its hull.

    Every point of the hull lies in supp's bounding box and has a coordinate
    sum between supp's least and greatest, so only those points are tried.
    """
    verts = hull_vertices(supp)
    sums = [sum(p) for p in supp]
    lo, hi = min(sums), max(sums)
    box = product(*(range(min(c), max(c) + 1) for c in zip(*supp)))
    return not any(
        lo <= sum(c) <= hi and c not in supp and hull_contains(verts, c) for c in box
    )


def m_convex_failure(points: Iterable[LatticePoint]):
    """First exchange-axiom violation, or None if the set is M-convex.

    Returns (alpha, beta, i): member alpha exceeds member beta in
    coordinate i (1-based) yet no coordinate j with alpha_j < beta_j makes
    both alpha - e_i + e_j and beta - e_j + e_i members.  The certificate
    decides; only a set it rejects runs the exchange-pair loop, in its
    fixed order, for the witness.
    """
    points = list(points)
    return None if m_convex_certificate(points) is not None else _exchange_failure(points)


def _exchange_failure(points: Iterable[LatticePoint]):
    """m_convex_failure by the exchange-pair loop alone, over all pairs in
    sorted order, alpha's excess coordinates before beta's."""
    pts, d = _points(points)
    members = set(pts)
    pts.sort()  # fixes which witness is named

    def moved(p: LatticePoint, i: int, j: int) -> LatticePoint:
        q = list(p)
        q[i], q[j] = q[i] - 1, q[j] + 1
        return tuple(q)

    for xi, alpha in enumerate(pts):
        for beta in pts[xi + 1:]:
            up = [i for i in range(d) if alpha[i] > beta[i]]
            down = [i for i in range(d) if alpha[i] < beta[i]]
            for a, b, more, less in ((alpha, beta, up, down), (beta, alpha, down, up)):
                for i in more:
                    if not any(moved(a, i, j) in members and moved(b, j, i) in members
                               for j in less):
                        return (a, b, i + 1)
    return None


def is_m_convex(points: Iterable[LatticePoint]) -> bool:
    """Does the set satisfy the exchange axiom?  Decided by m_convex_certificate.

    >>> is_m_convex({(2, 1), (1, 2)})
    True
    >>> is_m_convex({(2, 0), (0, 2)})
    False
    """
    return m_convex_certificate(points) is not None


def newton_vertices_coeff1(w: Perm) -> frozenset[ExponentVector]:
    """Exponents of the global weight polynomial that carry coefficient 1."""
    return global_weight(w).coeff_one_exponents()
