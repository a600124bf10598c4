"""
Sparse multivariate polynomials with exact rational coefficients, and the
weight constructions built on them.

A polynomial in k variables x1..xk is a map from exponent tuples of width k
to nonzero Fractions; zero coefficients are never stored.  All arithmetic is
exact.  Terms serialize and print in graded reverse lexicographic order
(higher total degree first; within a degree, smaller reversed exponent tuple
first), e.g. ``x1*x2 + 1/2*x2^2``.

The weight of a saturated chain is the product, over its labels (a, b), of
the segment polynomial x_a + x_{a+1} + ... + x_{b-1}; the global weight of a
permutation takes that product over its inversion set instead.  Averaging
chain weights over all saturated chains of [u, w] (dividing by r! where r is
the number of steps) gives the interval's weight polynomial.  One integer
step, `_times_segment`, makes every segment product: of one chain, and of the
fold `_count_table`, which splits each chain of an interval at its last cover
and sums chain weights with integer coefficients; those sums are divided by
r! once, when a polynomial is read out.

The same cover-split fold has a second step, for supports.  Every
coefficient is positive, so nothing cancels: the support of a sum is the
union of the supports, and a segment product shifts each monomial by each of
the segment's variables.  `_key_table` folds those key sets with no
coefficients; `_count_table` is for coefficients only.  Both stream each v
with its value in (length, v) order and hold two lengths at once (Bruhat
order is graded, so a step reads only the length below); each caller keeps
what it reads: the top element alone, or every polynomial read out.

Inside those products a monomial is one int, not a tuple: the exponent of x_i
sits in bits [W(i-1), Wi), so multiplying by x_i adds 1 << W(i-1).  In S_n the
exponent of x_k is at most k(n-k) (`_field_width`), so W is the bit length of
the largest of those and no field carries into the next.  Keys are read back
as exponent tuples only where a result leaves the module.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterator, Mapping

from . import bruhat
from .perm import (
    Perm,
    PositionPair,
    identity,
    inversions,
    length,
    longest_element,
    validate,
)
from .bruhat import SaturatedChain

ExponentVector = tuple[int, ...]


def grevlex_key(exp: ExponentVector) -> tuple:
    """Sort key putting exponents in graded reverse lexicographic order."""
    return (-sum(exp), tuple(reversed(exp)))


class SparsePolynomial:
    """Immutable-by-convention sparse polynomial over the rationals."""

    __slots__ = ("nvars", "_terms")

    def __init__(
        self,
        nvars: int,
        terms: Mapping[ExponentVector, Fraction | int] | None = None,
    ):
        if nvars < 0:
            raise ValueError(f"nvars must be >= 0, got {nvars}")
        self.nvars = nvars
        clean: dict[ExponentVector, Fraction] = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != nvars or any(e < 0 or not isinstance(e, int) for e in exp):
                raise ValueError(f"bad exponent vector for {nvars} vars: {exp!r}")
            c = Fraction(coeff)
            if c != 0:
                clean[exp] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "SparsePolynomial":
        return SparsePolynomial(nvars, {})

    @staticmethod
    def one(nvars: int) -> "SparsePolynomial":
        return SparsePolynomial(nvars, {(0,) * nvars: Fraction(1)})

    @staticmethod
    def variable(i: int, nvars: int) -> "SparsePolynomial":
        """The monomial x_i (1-based)."""
        if not (1 <= i <= nvars):
            raise ValueError(f"variable index {i} out of range 1..{nvars}")
        exp = tuple(1 if j == i else 0 for j in range(1, nvars + 1))
        return SparsePolynomial(nvars, {exp: Fraction(1)})

    # -- inspection --------------------------------------------------------

    def items(self):
        return self._terms.items()

    def coefficient(self, exp: ExponentVector) -> Fraction:
        return self._terms.get(tuple(exp), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> frozenset[ExponentVector]:
        return frozenset(self._terms)

    def coeff_one_exponents(self) -> frozenset[ExponentVector]:
        return frozenset(e for e, c in self._terms.items() if c == 1)

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self._terms}) <= 1

    def sorted_terms(self) -> list[tuple[ExponentVector, Fraction]]:
        return sorted(self._terms.items(), key=lambda t: grevlex_key(t[0]))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")
        out = dict(self._terms)
        for exp, c in other._terms.items():
            out[exp] = out.get(exp, 0) + c
        return SparsePolynomial(self.nvars, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return SparsePolynomial(
                self.nvars, {e: c * v for e, v in self._terms.items()}
            )
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError(f"nvars mismatch: {self.nvars} vs {other.nvars}")
        out: dict[ExponentVector, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return SparsePolynomial(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp, coeff in self.sorted_terms():
            factors = []
            if coeff != 1 or not any(exp):
                factors.append(str(coeff))
            for i, e in enumerate(exp, start=1):
                if e == 1:
                    factors.append(f"x{i}")
                elif e >= 2:
                    factors.append(f"x{i}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SparsePolynomial({self.nvars}, {dict(self.sorted_terms())!r})"

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {
                    "exp": list(exp),
                    "num": str(coeff.numerator),
                    "den": str(coeff.denominator),
                }
                for exp, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "SparsePolynomial":
        terms = {
            tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"]))
            for t in d["terms"]
        }
        return cls(int(d["nvars"]), terms)


# -- segment and chain weights ----------------------------------------------


def _field_width(nvars: int) -> int:
    """Bits per exponent in a packed monomial of nvars variables, n = nvars + 1.

    A cover (a, b) of S_n with a <= k < b raises v(1) + ... + v(k) by at least
    1, and that sum runs from k(k+1)/2 to k(k+1)/2 + k(n-k).  So on any
    saturated chain, and over the inversions of any permutation, at most
    k(n-k) labels contain k: the exponent of x_k in a chain or global weight
    is at most k(n-k) <= n^2/4.
    """
    return ((nvars + 1) ** 2 // 4).bit_length()


def _unpacker(nvars: int, width: int | None = None):
    """The function that reads a packed int back as the tuple of its nvars
    fields, each `width` bits: by default a packed monomial's exponents."""
    width = _field_width(nvars) if width is None else width
    mask, shifts = (1 << width) - 1, [width * i for i in range(nvars)]
    return lambda key: tuple(key >> s & mask for s in shifts)


def _times_segment(terms: dict, a: int, b: int, out: dict, width: int) -> dict:
    """Add terms * (x_a + ... + x_{b-1}) into out, packed monomial -> int coefficient."""
    for i in range(a - 1, b - 1):
        bit = 1 << width * i
        for e, c in terms.items():
            out[e + bit] = out.get(e + bit, 0) + c
    return out


def _segment_terms(segs, nvars: int) -> dict:
    """The product of the segment polynomials of the labels segs, in order,
    as packed monomial -> int coefficient.

    The labels are a chain's or a permutation's inversions, so every exponent
    fits its field (`_field_width`).
    """
    width, terms = _field_width(nvars), {0: 1}
    for a, b in segs:
        terms = _times_segment(terms, a, b, {}, width)
    return terms


def _segment_product(segs, nvars: int) -> SparsePolynomial:
    """`_segment_terms` read back as a polynomial."""
    unpack = _unpacker(nvars)
    return SparsePolynomial(
        nvars, {unpack(e): c for e, c in _segment_terms(segs, nvars).items()}
    )


def segment_poly(seg: PositionPair, nvars: int) -> SparsePolynomial:
    """x_a + x_{a+1} + ... + x_{b-1} for a label (a, b) with b <= nvars + 1.

    >>> str(segment_poly((1, 3), 2))
    'x1 + x2'
    """
    a, b = seg
    if not (1 <= a < b <= nvars + 1):
        raise ValueError(f"segment ({a}, {b}) out of range for {nvars} vars")
    return _segment_product([seg], nvars)


def chain_weight(chain: SaturatedChain) -> SparsePolynomial:
    """Product of the segment polynomials of the chain's labels.

    The trivial chain has weight 1.
    """
    return _segment_product(chain.labels, len(chain.start) - 1)


def global_weight(w: Perm) -> SparsePolynomial:
    """Product of segment polynomials over all inversions of w.

    >>> str(global_weight((3, 2, 1)))
    'x1^2*x2 + x1*x2^2'
    """
    w = validate(w)
    return _segment_product(sorted(inversions(w)), len(w) - 1)


# -- interval weight polynomials ---------------------------------------------


def _count_table(u: Perm, w: Perm) -> Iterator[tuple[Perm, dict]]:
    """Each v in [u, w], with the sum of the chain weights of [u, v] as int
    terms, streamed in (length, v) order: the fold holds two lengths at once
    (`bruhat._interval_fold`), and the caller keeps what it reads.

    Keys are packed monomials (see the module docstring; read them back with
    `_unpacker`): one int per monomial, W = `_field_width` bits per variable,
    and no field overflows because no chain puts more than k(n-k) labels on
    x_k.
    """
    width = _field_width(len(w) - 1)

    def step(v: Perm, below) -> dict:
        out: dict = {}
        for prev, (a, b) in below:
            _times_segment(prev, a, b, out, width)
        return out

    return bruhat._interval_fold(u, w, {0: 1}, step)


def _key_table(u: Perm, w: Perm, covers=None) -> Iterator[tuple[Perm, set]]:
    """Each v in [u, w], with the support of [u, v] as a set of packed
    monomials, streamed as `_count_table` streams.

    The keys of `_count_table`, folded without coefficients: the support of
    [u, v] is the union, over covers v' < v in [u, w] with label (a, b), of
    the support of [u, v'] shifted by each of x_a, ..., x_{b-1}.  Pass
    `covers` when interval_covers(u, w) is already at hand, or any down-closed
    part of it: the fold then runs over that part alone, each v's down-covers
    being all in it.
    """
    width = _field_width(len(w) - 1)

    def step(v: Perm, below) -> set:
        out: set = set()
        for prev, (a, b) in below:
            for i in range(a - 1, b - 1):
                bit = 1 << width * i
                out.update([e + bit for e in prev])
        return out

    return bruhat._interval_fold(u, w, {0}, step, covers)


def _read_out(counts: dict, steps: int, nvars: int) -> SparsePolynomial:
    """A chain-weight sum over an interval of that many steps, divided by steps!."""
    d, unpack = factorial(steps), _unpacker(nvars)
    return SparsePolynomial(
        nvars, {unpack(e): Fraction(c, d) for e, c in counts.items()}
    )


def postnikov_stanley_dp(u: Perm, w: Perm) -> SparsePolynomial:
    """Interval weight polynomial by dynamic programming.

    Splitting every chain at its final cover gives, for each v in (u, w],
    the chain-weight sum C(v) = sum over covers v' < v in [u, w] of
    C(v') * segment(label(v', v)), with C(u) = 1, in increasing length
    order (`_count_table`).  The polynomial is C(w) / (length(w) - length(u))!.
    """
    u, w = bruhat._require_below(u, w)
    for _, counts in _count_table(u, w):  # w comes last
        pass
    return _read_out(counts, length(w) - length(u), len(w) - 1)


def dual_schubert(w: Perm) -> SparsePolynomial:
    """Interval weight polynomial of [identity, w].

    >>> str(dual_schubert((3, 2, 1)))
    '1/2*x1^2*x2 + 1/2*x1*x2^2'
    """
    w = validate(w)
    return postnikov_stanley_dp(identity(len(w)), w)


def dual_schubert_table(n: int) -> dict[Perm, SparsePolynomial]:
    """All rank-n dual Schubert polynomials: the DP over [identity, w0].

    One pass in increasing length order costs what a single call for the
    longest element would, and each polynomial is read out as the fold
    streams it; the acceptance gate and `perfbench`'s
    baseline read a whole rank this way.
    """
    return {
        v: _read_out(c, length(v), n - 1)
        for v, c in _count_table(identity(n), longest_element(n))
    }
