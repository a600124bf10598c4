"""Sparse polynomial arithmetic and the chain-weight constructions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dualschubert import (
    SaturatedChain,
    all_perms,
    bruhat_leq,
    chain_weight,
    dual_schubert,
    dual_schubert_table,
    enumerate_chains,
    global_weight,
    greedy_chain,
    identity,
    inversions,
    length,
    longest_element,
    postnikov_stanley_dp,
    ps_support,
    segment_poly,
)
from dualschubert.poly import (
    SparsePolynomial,
    _count_table,
    _field_width,
    _key_table,
    _segment_terms,
    _unpacker,
    grevlex_key,
)

from oracles import (
    count_table_by_tuples,
    postnikov_stanley_chainsum,
    support_table_by_union,
)


def poly(nvars, terms):
    return SparsePolynomial(nvars, terms)


def random_poly(rng, nvars, nterms, maxexp=3, nonneg=False):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randrange(0, maxexp + 1) for _ in range(nvars))
        num = rng.randrange(1, 9) if nonneg else rng.randrange(-8, 9) or 1
        terms[exp] = Fraction(num, rng.randrange(1, 5))
    return SparsePolynomial(nvars, terms)


def test_constructors_and_zero_dropping():
    z = SparsePolynomial.zero(3)
    assert z.is_zero() and z.support() == frozenset()
    assert SparsePolynomial(3, {(1, 0, 0): Fraction(0)}) == z
    one = SparsePolynomial.one(2)
    assert one.coefficient((0, 0)) == 1
    x2 = SparsePolynomial.variable(2, 3)
    assert x2.coefficient((0, 1, 0)) == 1


def test_addition_cancels_and_multiplies():
    x1 = SparsePolynomial.variable(1, 2)
    x2 = SparsePolynomial.variable(2, 2)
    s = x1 + x2
    assert str(s * s) == "x1^2 + 2*x1*x2 + x2^2"
    assert (s + s * -1).is_zero()
    assert str(s * Fraction(1, 2)) == "1/2*x1 + 1/2*x2"
    assert str(s * 3) == "3*x1 + 3*x2"
    p = (x1 + x2 * -1) * s  # (x1 - x2)(x1 + x2): the x1*x2 terms cancel
    assert dict(p.items()) == {(2, 0): 1, (0, 2): -1}


def test_constructor_and_arithmetic_errors():
    with pytest.raises(ValueError, match="nvars must be >= 0"):
        SparsePolynomial(-1)
    for bad in [(1,), (1, -1), (1, 0.5)]:
        with pytest.raises(ValueError, match="bad exponent vector"):
            SparsePolynomial(2, {bad: 1})
    with pytest.raises(ValueError, match="variable index 0 out of range 1..2"):
        SparsePolynomial.variable(0, 2)
    a, b = SparsePolynomial.one(2), SparsePolynomial.one(3)
    with pytest.raises(ValueError, match="nvars mismatch: 2 vs 3"):
        a + b
    with pytest.raises(ValueError, match="nvars mismatch: 2 vs 3"):
        a * b
    with pytest.raises(TypeError):
        a + 1
    with pytest.raises(TypeError):
        a * "x"


def test_repr_lists_terms_in_grevlex_order():
    p = poly(2, {(0, 1): Fraction(1, 2), (1, 1): 3})
    assert repr(p) == (
        "SparsePolynomial(2, {(1, 1): Fraction(3, 1), (0, 1): Fraction(1, 2)})"
    )


def test_equality_and_hash():
    a = poly(2, {(1, 1): Fraction(2)})
    b = poly(2, {(1, 1): Fraction(4, 2)})
    assert a == b and hash(a) == hash(b)
    assert a != poly(2, {(1, 1): Fraction(3)})
    assert poly(2, {}) != poly(3, {})


def test_degree_and_homogeneity():
    assert SparsePolynomial.zero(2).degree() == -1
    assert SparsePolynomial.one(2).degree() == 0
    f = poly(2, {(1, 1): Fraction(1), (0, 2): Fraction(1, 2)})
    assert f.degree() == 2 and f.is_homogeneous()
    g = poly(2, {(1, 1): Fraction(1), (0, 1): Fraction(1)})
    assert not g.is_homogeneous()


def test_str_formats():
    assert str(SparsePolynomial.zero(2)) == "0"
    assert str(SparsePolynomial.one(2)) == "1"
    f = poly(2, {(1, 1): Fraction(1), (0, 2): Fraction(1, 2)})
    assert str(f) == "x1*x2 + 1/2*x2^2"
    assert str(poly(1, {(3,): Fraction(-2)})) == "-2*x1^3"


def test_grevlex_term_order():
    # higher total degree first, then reversed-exponent comparison
    f = poly(2, {(2, 0): Fraction(1), (1, 1): Fraction(1), (0, 1): Fraction(1)})
    assert [e for e, _ in f.sorted_terms()] == [(2, 0), (1, 1), (0, 1)]
    exps = [(3, 1, 0), (2, 2, 0), (1, 3, 0), (2, 1, 1), (1, 2, 1)]
    assert sorted(exps, key=grevlex_key) == exps


def test_json_round_trip_preserves_big_fractions():
    f = poly(
        2,
        {
            (7, 0): Fraction(10**30, 7**20),
            (0, 1): Fraction(-3, 2),
        },
    )
    assert SparsePolynomial.from_json_dict(f.to_json_dict()) == f
    d = f.to_json_dict()
    assert d["nvars"] == 2
    assert all(set(t) == {"exp", "num", "den"} for t in d["terms"])


def test_ring_laws_random():
    rng = random.Random(17)
    for _ in range(30):
        f = random_poly(rng, 3, 4)
        g = random_poly(rng, 3, 4)
        h = random_poly(rng, 3, 4)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f


def test_support_laws_for_nonnegative_polys():
    rng = random.Random(19)
    for _ in range(30):
        f = random_poly(rng, 3, 4, nonneg=True)
        g = random_poly(rng, 3, 4, nonneg=True)
        assert (f + g).support() == f.support() | g.support()
        assert (f * g).support() == frozenset(
            tuple(a + b for a, b in zip(e1, e2))
            for e1 in f.support()
            for e2 in g.support()
        )


def test_segment_poly():
    assert str(segment_poly((1, 2), 3)) == "x1"
    assert str(segment_poly((1, 4), 3)) == "x1 + x2 + x3"
    assert str(segment_poly((2, 4), 3)) == "x2 + x3"
    with pytest.raises(ValueError):
        segment_poly((2, 2), 3)
    with pytest.raises(ValueError):
        segment_poly((1, 5), 3)


def generic_segment_product(labels, nvars):
    """Segment forms summed from variables, multiplied by SparsePolynomial.__mul__."""
    out = SparsePolynomial.one(nvars)
    for a, b in labels:
        seg = SparsePolynomial.zero(nvars)
        for i in range(a, b):
            seg = seg + SparsePolynomial.variable(i, nvars)
        out = out * seg
    return out


def test_segment_products_match_generic_product():
    chains = list(enumerate_chains(identity(4), longest_element(4)))
    assert len(chains) > 1
    for chain in chains:
        assert chain_weight(chain) == generic_segment_product(chain.labels, 3)
    for w in all_perms(5):
        assert global_weight(w) == generic_segment_product(sorted(inversions(w)), 4)


def test_segment_terms_match_generic_product():
    def read_back(segs, nvars):
        unpack = _unpacker(nvars)
        terms = {unpack(m): c for m, c in _segment_terms(segs, nvars).items()}
        return SparsePolynomial(nvars, terms)

    for chain in enumerate_chains(identity(4), longest_element(4)):
        assert read_back(chain.labels, 3) == generic_segment_product(chain.labels, 3)
    for w in all_perms(5):
        segs = sorted(inversions(w))
        assert read_back(segs, 4) == generic_segment_product(segs, 4)
    assert _segment_terms([], 2) == {0: 1}


def test_chain_weight_fixtures():
    assert chain_weight(SaturatedChain(((2, 1, 3),), ())) == SparsePolynomial.one(2)
    c = SaturatedChain(
        ((2, 1, 3), (3, 1, 2), (3, 2, 1)), ((1, 3), (2, 3))
    )
    assert str(chain_weight(c)) == "x1*x2 + x2^2"
    c2 = SaturatedChain(
        ((2, 1, 3), (2, 3, 1), (3, 2, 1)), ((2, 3), (1, 2))
    )
    assert str(chain_weight(c2)) == "x1*x2"


def test_global_weight_fixtures():
    assert global_weight(identity(3)) == SparsePolynomial.one(2)
    assert str(global_weight((3, 2, 1))) == "x1^2*x2 + x1*x2^2"
    assert (
        str(global_weight((4, 2, 1, 3)))
        == "x1^3*x2 + 2*x1^2*x2^2 + x1*x2^3 + x1^2*x2*x3 + x1*x2^2*x3"
    )


def test_postnikov_stanley_fixture():
    f = postnikov_stanley_dp((2, 1, 3), (3, 2, 1))
    assert str(f) == "x1*x2 + 1/2*x2^2"
    assert f == postnikov_stanley_chainsum((2, 1, 3), (3, 2, 1))


def test_postnikov_stanley_trivial_and_errors():
    assert postnikov_stanley_dp((2, 1, 3), (2, 1, 3)) == SparsePolynomial.one(2)
    with pytest.raises(ValueError):
        postnikov_stanley_dp((2, 1, 3), (1, 3, 2))
    with pytest.raises(ValueError):
        postnikov_stanley_chainsum((3, 2, 1), (1, 2, 3))
    with pytest.raises(ValueError):
        postnikov_stanley_dp((1, 2), (1, 2, 3))


def test_dp_equals_chainsum_s3_exhaustive():
    perms = list(all_perms(3))
    for u in perms:
        for w in perms:
            if bruhat_leq(u, w):
                assert postnikov_stanley_dp(u, w) == postnikov_stanley_chainsum(u, w)


def test_dual_schubert_fixtures():
    assert str(dual_schubert((3, 2, 1))) == "1/2*x1^2*x2 + 1/2*x1*x2^2"
    assert dual_schubert(identity(4)) == SparsePolynomial.one(3)


def test_dual_schubert_table_consistency():
    table = dual_schubert_table(4)
    assert len(table) == 24
    for w, f in table.items():
        assert f == dual_schubert(w)
        assert f.degree() == length(w)
        assert f.is_homogeneous() or w == identity(4)
        assert all(c > 0 for _, c in f.items())


def test_greedy_chain_weight_equals_global_weight_s4():
    e = identity(4)
    for w in all_perms(4):
        assert chain_weight(greedy_chain(e, w)) == global_weight(w)


def test_support_equality_of_both_weight_routes_s4():
    table = dual_schubert_table(4)
    for w, f in table.items():
        assert f.support() == global_weight(w).support()


# -- packed monomials in the count fold ---------------------------------------


def unpacked_count_table(u):
    unpack = _unpacker(len(u) - 1)
    table = dict(_count_table(u, longest_element(len(u))))
    return {v: {unpack(e): c for e, c in terms.items()} for v, terms in table.items()}


def test_packed_count_table_matches_tuple_oracle_s5():
    for u in all_perms(5):  # the identity first: [identity, w0]
        assert unpacked_count_table(u) == count_table_by_tuples(u)


@pytest.mark.parametrize("u", [(1, 2, 3, 4, 5, 6), (2, 1, 4, 3, 6, 5)])
def test_packed_count_table_matches_tuple_oracle_rank6(u):
    assert unpacked_count_table(u) == count_table_by_tuples(u)


def unpacked_key_table(u):
    unpack = _unpacker(len(u) - 1)
    table = dict(_key_table(u, longest_element(len(u))))
    return {v: frozenset(map(unpack, keys)) for v, keys in table.items()}


def test_key_table_matches_union_oracle_s5():
    for n in range(1, 6):
        for u in all_perms(n):
            assert unpacked_key_table(u) == support_table_by_union(u)


@pytest.mark.parametrize("key", ["123456", "132456", "214365", "345612"])
def test_key_table_matches_union_oracle_rank6(key):
    u = tuple(map(int, key))
    assert unpacked_key_table(u) == support_table_by_union(u)


def assert_key_table_matches_pointwise(u):
    """The fold over [u, w0] gives every v above u, and at each v the
    support that `ps_support`'s fold over [u, v] gives."""
    table = unpacked_key_table(u)
    assert set(table) == {w for w in all_perms(len(u)) if bruhat_leq(u, w)}
    for w, supp in table.items():
        assert supp == ps_support(u, w)


def test_key_table_matches_ps_support_pointwise_s5():
    for n in range(1, 6):
        for u in all_perms(n):
            assert_key_table_matches_pointwise(u)


# 123456 and 132456 take 2.5 and 2.1 CPU-s pointwise; the union oracle
# checks their whole tables
@pytest.mark.parametrize("key", ["214365", "345612"])
def test_key_table_matches_ps_support_pointwise_rank6(key):
    assert_key_table_matches_pointwise(tuple(map(int, key)))


@pytest.mark.parametrize("u", [(2, 1, 3, 4), (1, 3, 2, 4, 5), (2, 1, 4, 3, 6, 5)])
def test_key_table_holds_the_count_table_keys(u):
    w = longest_element(len(u))
    counts = dict(_count_table(u, w))
    assert dict(_key_table(u, w)) == {v: set(terms) for v, terms in counts.items()}


@pytest.mark.parametrize("n", range(2, 8))
def test_field_width_holds_the_largest_exponent(n):
    # every inversion (a, b) of w0 with a <= k < b can put its variable on x_k
    top = global_weight(longest_element(n)).support()
    for k in range(1, n):
        assert max(e[k - 1] for e in top) == k * (n - k) < 2 ** _field_width(n - 1)

