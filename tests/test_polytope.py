"""Exact hull membership, generalized permutahedra, SNP and M-convexity."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from dualschubert import (
    GeneralizedPermutahedron,
    all_perms,
    dual_schubert,
    dual_schubert_table,
    global_weight,
    gp_from_inversions,
    hull_contains,
    hull_vertices,
    inversions,
    is_m_convex,
    is_snp,
    length,
    m_convex_certificate,
    m_convex_failure,
    newton_vertices_coeff1,
    segment_poly,
)
from dualschubert import polytope, scnp
from dualschubert.poly import SparsePolynomial, _unpacker
from dualschubert.polytope import _exchange_failure, _snp_by_hull
from dualschubert.tiling import vertices_via_tilings

from oracles import (
    base_points_by_recursion,
    base_size_by_walk,
    gp_from_segment,
    hull_contains_bruteforce,
    minkowski_support,
    snp_bruteforce,
    support_table_by_union,
)


def frac_poly(nvars, exps):
    return SparsePolynomial(nvars, {e: Fraction(1) for e in exps})


def test_hull_contains_fixtures():
    square = [(0, 0), (0, 2), (2, 0), (2, 2)]
    assert hull_contains(square, (1, 1))
    assert hull_contains(square, (0, 0))
    assert hull_contains(square, (2, 1))
    assert not hull_contains(square, (3, 1))
    assert not hull_contains(square, (1, -1))
    assert hull_contains([(5,)], (5,))
    assert not hull_contains([(5,)], (4,))
    assert hull_contains([()], ())


def test_hull_contains_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        hull_contains([(0, 0), (1, 1)], (1, 1, 1))
    with pytest.raises(ValueError):
        hull_contains([(0, 0), (1,)], (0, 0))


POINT_SET_ROUTES = [
    lambda pts: hull_contains(pts, (0, 0)),
    hull_vertices,
    m_convex_certificate,
    _exchange_failure,
]


@pytest.mark.parametrize("route", POINT_SET_ROUTES,
                         ids=["hull_contains", "hull_vertices",
                              "m_convex_certificate", "_exchange_failure"])
def test_point_set_routes_share_their_input_checks(route):
    with pytest.raises(ValueError, match="need at least one point"):
        route([])
    with pytest.raises(ValueError, match="points have mixed dimensions"):
        route([(0, 0), (1,)])
    # repeated points and lists count once, as tuples
    assert route([[1, 1], (1, 1), [0, 2]]) == route({(1, 1), (0, 2)})


def test_hull_contains_matches_caratheodory_random():
    rng = random.Random(23)
    for _ in range(60):
        d = rng.choice([2, 3])
        pts = [
            tuple(rng.randrange(0, 5) for _ in range(d))
            for _ in range(rng.randrange(1, 7))
        ]
        target = tuple(rng.randrange(0, 5) for _ in range(d))
        assert hull_contains(pts, target) == hull_contains_bruteforce(pts, target)


def test_hull_vertices_fixtures():
    square = [(0, 0), (0, 2), (2, 0), (2, 2), (1, 1), (2, 1)]
    assert hull_vertices(square) == frozenset({(0, 0), (0, 2), (2, 0), (2, 2)})
    assert hull_vertices([(1, 5)]) == frozenset({(1, 5)})
    assert hull_vertices([(0,), (1,), (2,), (3,)]) == frozenset({(0,), (3,)})
    assert hull_vertices([(2, 2), (2, 2)]) == frozenset({(2, 2)})


def test_hull_vertices_match_definition_random():
    rng = random.Random(29)
    for _ in range(25):
        pts = list(
            {
                tuple(rng.randrange(0, 4) for _ in range(3))
                for _ in range(rng.randrange(2, 8))
            }
        )
        expected = {
            v
            for v in pts
            if not hull_contains_bruteforce([p for p in pts if p != v], v)
        }
        assert hull_vertices(pts) == frozenset(expected)


def test_minkowski_support_equals_weight_support_s4():
    for w in all_perms(4):
        assert minkowski_support(w) == global_weight(w).support()


def test_gp_table_normalization():
    # missing subsets default to 0; the empty set must stay at 0
    p = GeneralizedPermutahedron(2, {frozenset({1, 2}): 1})
    assert p.z[frozenset({1})] == 0
    assert len(p.z) == 4
    with pytest.raises(ValueError):
        GeneralizedPermutahedron(2, {frozenset(): 1})
    with pytest.raises(ValueError):
        GeneralizedPermutahedron(2, {frozenset({3}): 1})
    with pytest.raises(ValueError, match="nvars must be >= 0, got -1"):
        GeneralizedPermutahedron(-1, {})


def test_gp_input_errors():
    p = gp_from_segment((1, 2), 2)
    with pytest.raises(ValueError, match="nvars mismatch: 2 vs 3"):
        p + gp_from_segment((1, 2), 3)
    with pytest.raises(ValueError, match="point has dimension 3, expected 2"):
        p.contains((1, 0, 0))
    with pytest.raises(ValueError, match=r"segment \(2, 2\) out of range for 3 vars"):
        gp_from_segment((2, 2), 3)
    with pytest.raises(ValueError, match="bad subset key '1,2'"):
        GeneralizedPermutahedron.from_json_dict({"nvars": 2, "z": {"1,2": 1}})


def test_gp_from_segment_table():
    p = gp_from_segment((1, 3), 3)
    assert p.z[frozenset({1, 2})] == 1
    assert p.z[frozenset({1, 2, 3})] == 1
    assert p.z[frozenset({1})] == 0
    assert p.z[frozenset({3})] == 0
    assert p.integer_points() == frozenset({(1, 0, 0), (0, 1, 0)})


def test_gp_from_inversions_fixture():
    p = gp_from_inversions((3, 2, 1))
    assert p.z == {
        frozenset(): 0,
        frozenset({1}): 1,
        frozenset({2}): 1,
        frozenset({1, 2}): 3,
    }
    assert p.integer_points() == frozenset({(1, 2), (2, 1)})


def test_gp_from_inversions_is_the_sum_of_its_segments():
    for w in all_perms(5):
        total = GeneralizedPermutahedron(4, {})
        for seg in inversions(w):
            total = total + gp_from_segment(seg, 4)
        assert gp_from_inversions(w) == total


def test_gp_contains_and_points():
    p = gp_from_inversions((4, 2, 1, 3))
    for t in p.integer_points():
        assert p.contains(t)
    assert not p.contains((4, 0, 0))
    assert not p.contains((1, 1, 1))
    assert p.contains((Fraction(3, 2), Fraction(3, 2), 1))
    assert p.integer_points() == dual_schubert((4, 2, 1, 3)).support()


def test_gp_minkowski_sum_adds_tables():
    a = gp_from_segment((1, 2), 2)
    b = gp_from_segment((1, 3), 2)
    s = a + b
    assert s.z[frozenset({1})] == a.z[frozenset({1})] + b.z[frozenset({1})]
    assert s.z[frozenset({1, 2})] == 2
    assert s.integer_points() == frozenset({(2, 0), (1, 1)})


def test_gp_json_round_trip():
    p = gp_from_inversions((4, 2, 1, 3))
    d = p.to_json_dict()
    assert d["nvars"] == 3
    # by size, then by sorted members
    assert list(d["z"]) == [
        "{}", "{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{2,3}", "{1,2,3}",
    ]
    assert GeneralizedPermutahedron.from_json_dict(d) == p
    assert repr(p) == f"GeneralizedPermutahedron(3, {d['z']})"


def test_is_snp_fixtures():
    assert is_snp(frac_poly(2, [(1, 1), (0, 2)]))
    assert is_snp(SparsePolynomial.one(2))
    assert is_snp(SparsePolynomial.one(0))
    assert is_snp(frac_poly(3, [(2, 0, 0)]))
    # missing the interior point (1, 1) of the segment (2,0)-(0,2)
    assert not is_snp(frac_poly(2, [(2, 0), (0, 2)]))


def test_is_snp_degree_four_nonexample():
    # support misses (1,1,2) and its orbit but the hull contains them
    f = frac_poly(
        3, [(0, 1, 3), (0, 3, 1), (1, 0, 3), (1, 3, 0), (3, 0, 1), (3, 1, 0)]
    )
    assert not is_snp(f)


def test_is_snp_handles_inhomogeneous_and_errors():
    assert is_snp(frac_poly(2, [(0, 0), (1, 0), (0, 1)]))
    assert not is_snp(frac_poly(1, [(0,), (2,)]))
    with pytest.raises(ValueError):
        is_snp(SparsePolynomial.zero(2))


def test_is_snp_warns_on_negative_coefficients():
    f = SparsePolynomial(2, {(1, 0): Fraction(-1), (0, 1): Fraction(1)})
    with pytest.warns(UserWarning):
        is_snp(f)


def test_segment_products_are_snp_random():
    rng = random.Random(31)
    for _ in range(20):
        nvars = 3
        f = SparsePolynomial.one(nvars)
        for _ in range(rng.randrange(1, 5)):
            a = rng.randrange(1, nvars + 1)
            b = rng.randrange(a + 1, nvars + 2)
            f = f * segment_poly((a, b), nvars)
        assert is_snp(f)


def test_m_convex_fixtures():
    assert is_m_convex({(1, 2), (2, 1)})
    assert is_m_convex({(2, 0), (1, 1), (0, 2)})
    assert is_m_convex({(3, 1, 0)})
    with pytest.raises(ValueError):
        is_m_convex(set())
    # hole at (1, 1) breaks the exchange between (2, 0) and (0, 2)
    assert not is_m_convex({(2, 0), (0, 2)})


def test_m_convex_failure_witness_is_valid():
    failure = m_convex_failure({(2, 0), (0, 2)})
    alpha, beta, i = failure
    assert {alpha, beta} == {(2, 0), (0, 2)}
    assert alpha[i - 1] > beta[i - 1]


def test_m_convexity_is_decided_by_the_certificate_alone(monkeypatch):
    def loop(points):
        raise AssertionError("the exchange-pair loop ran")

    monkeypatch.setattr(polytope, "_exchange_failure", loop)
    assert m_convex_failure({(1, 0), (0, 1)}) is None  # fewer points than 2^d
    assert not is_m_convex({(2, 0), (0, 2)})
    assert is_m_convex({(k, 4 - k) for k in range(5)})  # more points than 2^d


def test_m_convex_failure_inhomogeneous():
    # differing coordinate sums can never satisfy the exchange axiom
    assert m_convex_failure({(0, 2), (1, 0)}) == ((0, 2), (1, 0), 2)
    assert not is_m_convex({(0, 0), (1, 1)})


def test_m_convex_handles_negative_coordinates():
    assert is_m_convex({(-1, 1), (0, 0), (1, -1)})
    assert not is_m_convex({(-2, 2), (2, -2)})


def test_weight_supports_are_m_convex_s4():
    for w in all_perms(4):
        assert m_convex_failure(global_weight(w).support()) is None


def test_newton_vertices_coeff1_fixture():
    assert newton_vertices_coeff1((4, 2, 1, 3)) == frozenset(
        {(3, 1, 0), (1, 3, 0), (1, 2, 1), (2, 1, 1)}
    )


def test_vertex_routes_agree_s4():
    for w in all_perms(4):
        assert newton_vertices_coeff1(w) == hull_vertices(
            global_weight(w).support()
        )


# -- the supermodular certificate against the exchange loop and the simplex ------


def random_point_set(rng):
    """A small point set: scattered, on one hyperplane, or a permutahedron
    with a point taken out or added; coordinates may be negative."""
    d = rng.randrange(1, 5)
    kind = rng.randrange(3)
    if kind == 0:
        return {
            tuple(rng.randrange(-2, 3) for _ in range(d))
            for _ in range(rng.randrange(1, 9))
        }
    if kind == 1:
        total = rng.randrange(-2, 4)
        pts = set()
        for _ in range(rng.randrange(1, 12)):
            head = [rng.randrange(-1, 3) for _ in range(d - 1)]
            pts.add(tuple(head) + (total - sum(head),))
        return pts
    gp = GeneralizedPermutahedron(d, {})
    for _ in range(rng.randrange(0, 3 * d + 3)):
        a = rng.randrange(1, d + 1)
        gp = gp + gp_from_segment((a, rng.randrange(a + 1, d + 2)), d)
    shift = [rng.randrange(-2, 3) for _ in range(d)]
    pts = {tuple(c + s for c, s in zip(p, shift)) for p in gp.integer_points()}
    edit = rng.randrange(3)
    if edit == 1 and len(pts) > 1:
        pts.discard(rng.choice(sorted(pts)))
    elif edit == 2:
        pts.add(tuple(rng.randrange(-2, 4) for _ in range(d)))
    return pts


def test_certificate_matches_exchange_loop_random():
    rng = random.Random(37)
    seen = Counter()  # (passed, more points than coordinate subsets)
    for trial in range(3200):
        pts = random_point_set(rng)
        cert = m_convex_certificate(pts)
        failure = _exchange_failure(pts)
        assert (cert is None) == (failure is not None), sorted(pts)
        assert m_convex_failure(pts) == failure
        # the sweep's decision, on floors taken here from the points
        d = len(next(iter(pts)))
        z = [min(sum(p[i] for i in range(d) if m >> i & 1) for p in pts)
             for m in range(1 << d)]
        one_sum = len({sum(p) for p in pts}) == 1
        assert (one_sum and polytope._base_size(z, d) == len(pts)) == (failure is None)
        seen[cert is not None, len(pts) > 2 ** len(next(iter(pts)))] += 1
        if cert is not None:
            assert cert.integer_points() == pts
            if trial % 8 == 0:
                assert cert.vertices() == hull_vertices(pts)
    assert len(seen) == 4 and min(seen.values()) >= 50, seen
    assert seen[False, False] + seen[False, True] == 1898


def test_base_size_counts_every_point_on_rank5_floors():
    subsets = tuple(range(1 << 4))
    unpack = _unpacker(len(subsets), scnp._steps(5)[1])
    floors = {z for u in all_perms(5) for z in scnp._dominance_fold(u)[1].values()}
    assert len(floors) == 387  # distinct among the 3,781 rank-5 pairs
    for z in map(unpack, floors):
        assert polytope._base_size(z, 4) == len(list(polytope._base_points(z, 4))) > 0


def random_floor_vector(rng):
    """z on the subsets of 1..d by bitmask, d in 0..5: a Minkowski sum of
    segment simplices, supermodular, or that sum with one entry moved, or
    small values at random, z(empty) included."""
    d = rng.randrange(6)
    kind = rng.randrange(3)
    if kind == 2:
        return [rng.randrange(-1, 3) for _ in range(1 << d)], d
    count = rng.randrange(8) if d else 0
    ends = [sorted(rng.sample(range(d + 1), 2)) for _ in range(count)]
    segs = [(1 << b) - (1 << a) for a, b in ends]
    z = [sum(m & seg == seg for seg in segs) for m in range(1 << d)]
    if kind == 1 and d:
        z[rng.randrange(1, 1 << d)] += rng.choice((-1, 1))
    return z, d


def test_base_points_and_size_match_the_recursive_walk():
    # every inversion polytope of S4-S6, then random z, supermodular or not
    vectors = [(gp_from_inversions(w)._masks(), n - 1)
               for n in (4, 5, 6) for w in all_perms(n)]
    rng = random.Random(2000)
    vectors += [random_floor_vector(rng) for _ in range(3000)]
    seen = Counter()
    for z, d in vectors:
        points = polytope._base_points(z, d)
        assert len(points) == len(set(points))
        assert set(points) == set(base_points_by_recursion(z, d)), (z, d)
        size = polytope._base_size(z, d)
        assert size == base_size_by_walk(z, d), (z, d)
        if size and z[0] == 0:  # the count's contract
            assert size == len(points)
        seen[d, polytope._is_supermodular(z, d), len(points) > 1] += 1
    assert all(seen[d, modular, True] >= 20
               for d in range(3, 6) for modular in (False, True)), seen


def test_base_size_is_zero_off_supermodular_floors():
    # floors of {(1,1,0,0), (0,0,1,1)}: z({1,3}) + z({2,3}) = 2 > z({1,2,3}) + z({3}) = 1
    pts = [(1, 1, 0, 0), (0, 0, 1, 1)]
    z = [min(sum(p[i] for i in range(4) if m >> i & 1) for p in pts) for m in range(16)]
    assert not polytope._is_supermodular(z, 4)
    assert len(list(polytope._base_points(z, 4))) > 0
    assert polytope._base_size(z, 4) == 0
    assert m_convex_certificate(pts) is None


def test_certificate_matches_exchange_loop_on_rank5_interval_supports():
    sizes = set()
    for u in all_perms(5):
        for supp in support_table_by_union(u).values():
            failure = _exchange_failure(supp)
            assert failure is None
            assert m_convex_certificate(supp) is not None
            assert m_convex_failure(supp) is None
            sizes.add(len(supp) > 2 ** 4)
    assert sizes == {False, True}  # up to 2^d points and more


def test_is_snp_certificate_matches_hull_route_rank5(monkeypatch):
    calls = []

    def counted(points, target):
        calls.append(target)
        return hull_contains(points, target)

    monkeypatch.setattr(polytope, "hull_contains", counted)
    for f in dual_schubert_table(5).values():
        assert m_convex_certificate(f.support()) is not None
        assert is_snp(f) and _snp_by_hull(f.support())
    # hull_vertices' calls and the candidates', all from _snp_by_hull
    assert len(calls) == 1068


def test_is_snp_settles_one_point_by_the_certificate(monkeypatch):
    def hull_route(supp):
        raise AssertionError("the simplex ran")

    monkeypatch.setattr(polytope, "_snp_by_hull", hull_route)
    assert is_snp(SparsePolynomial.one(0))  # z = [0] on no coordinates
    assert is_snp(frac_poly(3, [(2, 0, 1)]))
    assert is_snp(frac_poly(1, [(4,)]))


def small_point_set(rng):
    """1 to 6 points in up to 3 coordinates: on one hyperplane or scattered."""
    d = rng.randrange(1, 4)
    if rng.randrange(2):
        total = rng.randrange(0, 4)
        heads = [tuple(rng.randrange(0, total + 1) for _ in range(d - 1))
                 for _ in range(rng.randrange(1, 7))]
        return {h + (total - sum(h),) for h in heads if sum(h) <= total}
    return {tuple(rng.randrange(0, 3) for _ in range(d)) for _ in range(rng.randrange(1, 7))}


def test_snp_routes_match_bruteforce_random():
    rng = random.Random(47)
    seen = Counter()  # (one coordinate sum, SNP)
    for _ in range(400):
        pts = small_point_set(rng)
        if not pts:
            continue
        snp = snp_bruteforce(pts)
        assert _snp_by_hull(frozenset(pts)) == snp, sorted(pts)
        assert is_snp(frac_poly(len(next(iter(pts))), pts)) == snp, sorted(pts)
        seen[len({sum(p) for p in pts}) == 1, snp] += 1
    assert sum(seen.values()) >= 200 and len(seen) == 4 and min(seen.values()) >= 10, seen


def test_is_snp_falls_back_to_the_hull_route():
    # SNP but not M-convex: no common coordinate sum
    f = frac_poly(2, [(0, 0), (1, 0), (0, 1)])
    assert m_convex_certificate(f.support()) is None
    assert is_snp(f) and _snp_by_hull(f.support())


def test_is_snp_by_certificate_still_warns_on_negative_coefficients():
    f = SparsePolynomial(
        2, {(2, 0): Fraction(1), (1, 1): Fraction(-3), (0, 2): Fraction(1)}
    )
    assert m_convex_certificate(f.support()) is not None
    with pytest.warns(UserWarning):
        assert is_snp(f)


def test_certificate_core_reads_columns_random():
    rng = random.Random(53)
    for _ in range(400):
        pts = random_point_set(rng)
        order = list(pts)
        rng.shuffle(order)
        cols = list(zip(*order))
        d = len(order[0])
        z, top = polytope._subset_floors(cols)
        assert z == [min(sum(p[i] for i in range(d) if m >> i & 1) for p in pts)
                     for m in range(1 << d)]
        assert top == max(map(sum, pts))
        cert = m_convex_certificate(pts)
        core = polytope._certificate(z, top, len(pts), d)
        assert core == (cert is not None)
        assert cert is None or cert._masks() == z
    # the one point with no coordinates
    assert polytope._subset_floors([]) == ([0], 0)
    assert polytope._certificate([0], 0, 1, 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_inversion_polytope_floors_are_tight(n):
    # z_P is the floor vector of its own integer points, the premise of the
    # paper-theorems unit's comparison by z
    for w in all_perms(n):
        gp = gp_from_inversions(w)
        assert polytope._subset_floors(list(zip(*gp.integer_points())))[0] == gp._masks()


@pytest.mark.parametrize("n", range(1, 7))
def test_inversion_floors_are_the_packed_inversion_polytope(n):
    # z_P as a sum of subset steps, as the paper-theorems unit compares it
    steps = scnp._steps(n)[0]
    for w in all_perms(n):
        assert (polytope._inversion_floors(w, steps)
                == scnp._pack(gp_from_inversions(w)._masks(), n))


def test_greedy_vertices_match_hull_vertices_s5():
    for w in all_perms(5):
        supp = global_weight(w).support()
        cert = m_convex_certificate(supp)
        assert cert == gp_from_inversions(w)
        assert cert.vertices() == hull_vertices(supp)


def test_greedy_vertices_match_tilings_s6_sample():
    rng = random.Random(41)
    for w in rng.sample(sorted(all_perms(6)), 24) + [(6, 5, 4, 3, 2, 1)]:
        cert = m_convex_certificate(global_weight(w).support())
        assert cert.vertices() == vertices_via_tilings(w)


def test_gp_vertices_reject_non_supermodular_tables():
    # z({1}) + z({2}) = 2 > z({1, 2}) + z({}) = 1
    p = GeneralizedPermutahedron(2, {frozenset({1}): 1, frozenset({2}): 1,
                                     frozenset({1, 2}): 1})
    with pytest.raises(ValueError):
        p.vertices()
    assert p.integer_points() == frozenset()
    assert gp_from_segment((1, 3), 2).vertices() == frozenset({(1, 0), (0, 1)})


def test_gp_integer_points_match_box_filter_random():
    # any table, supermodular or not, against its own membership test
    rng = random.Random(43)
    for _ in range(300):
        d = rng.randrange(0, 4)
        p = GeneralizedPermutahedron(
            d, {frozenset(s): rng.randrange(-2, 3)
                for r in range(1, d + 1) for s in combinations(range(1, d + 1), r)}
        )
        box = product(range(-2 * d - 2, 2 * d + 3), repeat=d)
        assert p.integer_points() == frozenset(t for t in box if p.contains(t))
