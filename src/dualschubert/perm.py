"""
Permutations of [n] = {1, ..., n} in one-line notation.

A permutation is the tuple ``w = (w(1), ..., w(n))`` of its values; positions
and values are both 1-based throughout.  Tuples are never mutated, so every
operation returns a fresh value and permutations can be dict keys.

Two string forms are accepted on input: compact digits ``"4213"`` (only for
n <= 9) and a bracketed comma list ``"[4,2,1,3]"`` (any rank).  On output the
compact form is canonical for n <= 9 and the comma form for larger ranks.

Complementing values, v -> w0 v (`_complement`), reverses Bruhat order and
keeps cover labels, so `down_covers` is `up_covers` of the complement.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
from itertools import combinations, permutations
from operator import le
from typing import Iterator

Perm = tuple[int, ...]
PositionPair = tuple[int, int]


def validate(w: Perm) -> Perm:
    """Check that ``w`` is a permutation of [n] with n >= 1 and return it.

    >>> validate((2, 1, 3))
    (2, 1, 3)
    >>> validate(())
    Traceback (most recent call last):
        ...
    ValueError: not a permutation of [0]: ()
    """
    w = tuple(w)
    n = len(w)
    if n < 1 or sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of [{n}]: {w!r}")
    return w


def identity(n: int) -> Perm:
    """The identity permutation of rank n.

    >>> identity(4)
    (1, 2, 3, 4)
    """
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The order-reversing permutation (n, n-1, ..., 1)."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    return tuple(range(n, 0, -1))


def inversions(w: Perm) -> frozenset[PositionPair]:
    """Position pairs (a, b), a < b, with w(a) > w(b).

    >>> sorted(inversions((4, 2, 1, 3)))
    [(1, 2), (1, 3), (1, 4), (2, 3)]
    """
    n = len(w)
    return frozenset(
        (a, b)
        for a in range(1, n)
        for b in range(a + 1, n + 1)
        if w[a - 1] > w[b - 1]
    )


def length(w: Perm) -> int:
    """Coxeter length = number of inversions.

    >>> length((3, 2, 1))
    3
    """
    n = len(w)
    return sum(
        1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b]
    )


def apply_t(w: Perm, a: int, b: int) -> Perm:
    """Right-multiply by the transposition t_ab: swap positions a and b.

    >>> apply_t((1, 3, 2), 1, 3)
    (2, 3, 1)
    >>> apply_t((1, 3, 2), 2, 2)
    Traceback (most recent call last):
        ...
    ValueError: need 1 <= a < b <= 3, got (2, 2)
    """
    n = len(w)
    if not (1 <= a < b <= n):
        raise ValueError(f"need 1 <= a < b <= {n}, got ({a}, {b})")
    v = list(w)
    v[a - 1], v[b - 1] = v[b - 1], v[a - 1]
    return tuple(v)


@lru_cache(maxsize=None)
def _labels(n: int) -> list[list[PositionPair]]:
    """labels[a][b] is the label (a + 1, b + 1), one shared tuple per pair."""
    return [[(a + 1, b + 1) for b in range(n)] for a in range(n)]


def up_covers(w: Perm) -> list[tuple[Perm, PositionPair]]:
    """Covers of w from above: pairs (w t_ab, (a, b)) with length(w)+1.

    w t_ab covers w exactly when w(a) < w(b) and no position strictly
    between a and b holds a value strictly between w(a) and w(b).  So one
    scan of b per position a finds them all: w(b) gives a cover exactly
    when it lies above w(a) and below every value above w(a) passed so far.
    Labels come out in lexicographic (a, b) order.

    >>> [(v, lab) for v, lab in up_covers((1, 2, 3))]
    [((2, 1, 3), (1, 2)), ((1, 3, 2), (2, 3))]
    """
    n, out, v = len(w), [], list(w)
    labels = _labels(n)
    for a in range(n - 1):
        x, above = w[a], n + 1
        for b in range(a + 1, n):
            y = w[b]
            if x < y < above:
                above = y
                v[a], v[b] = y, x
                out.append((tuple(v), labels[a][b]))
                v[a], v[b] = x, y
    return out


def _complement(w: Perm) -> Perm:
    """w0 w: each value x replaced by n+1-x."""
    return tuple(len(w) + 1 - x for x in w)


def down_covers(w: Perm) -> list[tuple[Perm, PositionPair]]:
    """Covers of w from below: pairs (w t_ab, (a, b)) with length(w)-1.

    The up-covers of w0 w, complemented back: v -> w0 v reverses Bruhat
    order and commutes with swapping positions, so it keeps every label and
    the lexicographic label order.

    >>> [(v, lab) for v, lab in down_covers((3, 2, 1))]
    [((2, 3, 1), (1, 2)), ((3, 1, 2), (2, 3))]
    """
    return [(_complement(v), lab) for v, lab in up_covers(_complement(w))]


def bruhat_leq(u: Perm, w: Perm) -> bool:
    """Strong Bruhat order comparison u <= w.

    Uses the prefix-dominance criterion: for every k, the sorted value set
    {u(1), ..., u(k)} must be entrywise <= the sorted {w(1), ..., w(k)}.

    >>> bruhat_leq((2, 1, 3), (3, 2, 1))
    True
    >>> bruhat_leq((1, 3, 2), (2, 1, 3))
    False
    """
    if len(u) != len(w):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(w)}")
    n = len(u)
    if u == w:
        return True
    su: list[int] = []
    sw: list[int] = []
    for k in range(n - 1):
        # maintain sorted prefixes incrementally
        insort(su, u[k])
        insort(sw, w[k])
        if not all(map(le, su, sw)):
            return False
    return True


def contains_pattern(w: Perm, p: Perm) -> bool:
    """Does w contain p as a (classical) pattern?

    True when some subsequence of w is order-isomorphic to p.

    >>> contains_pattern((4, 2, 3, 1), (4, 2, 3, 1))
    True
    >>> contains_pattern((1, 2, 3), (2, 1))
    False
    """
    n, k = len(w), len(p)
    if k > n:
        raise ValueError(f"pattern rank {k} exceeds permutation rank {n}")
    for idxs in combinations(range(n), k):
        sub = [w[i] for i in idxs]
        ranks = {v: r + 1 for r, v in enumerate(sorted(sub))}
        if all(ranks[sub[i]] == p[i] for i in range(k)):
            return True
    return False


def parse_perm(s: str) -> Perm:
    """Parse either string form into a permutation.

    >>> parse_perm("4213")
    (4, 2, 1, 3)
    >>> parse_perm("[4,2,1,3]")
    (4, 2, 1, 3)
    """
    s = s.strip()
    bracketed = s.startswith("[") and s.endswith("]")
    parts = [p.strip() for p in s[1:-1].split(",")] if bracketed else list(s)
    # ASCII only: str.isdigit and int() also take other scripts' digits
    if not s or not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"cannot parse permutation from {s!r}")
    return validate(tuple(map(int, parts)))


def format_perm(w: Perm) -> str:
    """Canonical string form: compact digits for n <= 9, comma list above.

    >>> format_perm((4, 2, 1, 3))
    '4213'
    >>> format_perm(tuple(range(1, 11)))
    '[1,2,3,4,5,6,7,8,9,10]'
    """
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return "[" + ",".join(str(v) for v in w) + "]"


def all_perms(n: int) -> Iterator[Perm]:
    """All rank-n permutations in lexicographic order."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    return iter(permutations(range(1, n + 1)))


class _Value:
    """Base of the package's value classes, the chains, verdicts, reports and
    tilings: their fields are their `__slots__`, set once by `__init__`.
    They compare, hash, print and pickle by those fields and refuse
    assignment, as frozen dataclasses do, without importing `dataclasses`.
    """

    __slots__ = ()

    def __init__(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
