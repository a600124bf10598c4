"""Acceptance gate: one test per release criterion, each with a time bound.

Each test prints one PASS/FAIL line (visible with pytest -s); the assertions
are exact, with only wall-clock limits as tolerances.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

from dualschubert import (
    all_perms,
    bruhat_leq,
    chain_weight,
    dual_schubert_table,
    enumerate_chains,
    enumerate_tilings,
    generating_multiset,
    global_weight,
    gp_from_inversions,
    greedy_chain,
    hull_vertices,
    identity,
    inversions,
    is_m_convex,
    is_scnp,
    is_snp,
    multiset_dominates,
    newton_vertices_coeff1,
    postnikov_stanley_dp,
    tiling_vertex_list,
    verify_ps_mconvex,
    verify_scnp_pattern,
    vertices_via_tilings,
)
from dualschubert.tiling import RectTiling, build_diagram, tiling_vertex

from oracles import (
    dominates_bruteforce,
    postnikov_stanley_chainsum,
    tilings_bruteforce,
)


@contextmanager
def criterion(number: int, limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} FAIL ({elapsed:.2f}s)", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number} {verdict} ({elapsed:.2f}s)", file=sys.stderr)
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s (limit {limit}s)"


def test_criterion_01_interval_weight_fixture():
    with criterion(1, 1.0):
        u, w = (2, 1, 3), (3, 2, 1)
        assert str(postnikov_stanley_dp(u, w)) == "x1*x2 + 1/2*x2^2"
        weights = {c.render(): str(chain_weight(c)) for c in enumerate_chains(u, w)}
        assert weights == {
            "213 <(1,3) 312 <(2,3) 321": "x1*x2 + x2^2",
            "213 <(2,3) 231 <(1,2) 321": "x1*x2",
        }


def test_criterion_02_vertex_routes_4213():
    with criterion(2, 1.0):
        w = (4, 2, 1, 3)
        expected = frozenset({(3, 1, 0), (1, 3, 0), (1, 2, 1), (2, 1, 1)})
        assert vertices_via_tilings(w) == expected
        assert newton_vertices_coeff1(w) == expected
        assert hull_vertices(global_weight(w).support()) == expected
        corner_sums = Counter(v for _, v in tiling_vertex_list(w))
        assert corner_sums == Counter(
            {(3, 1, 0): 2, (1, 3, 0): 1, (1, 2, 1): 1, (2, 1, 1): 1}
        )


def test_criterion_03_diagram_fill_253641():
    with criterion(3, 1.0):
        w = (2, 5, 3, 6, 4, 1)
        d = build_diagram(w)
        assert d.fill == (
            (1, 0, 0, 0, 0),
            (1, 1, 0, 1),
            (1, 0, 0),
            (1, 1),
            (1,),
        )
        pinned = RectTiling(
            6,
            ((1, 3, 1, 5), (2, 4, 2, 4), (2, 3, 3, 3), (1, 1, 4, 2), (5, 1, 5, 1)),
        )
        assert tiling_vertex(d, pinned) == (0, 1, 0, 6, 1)


def test_criterion_04_support_and_greedy_weight_s5():
    with criterion(4, 120.0):
        table = dual_schubert_table(5)
        e = identity(5)
        for w, f in table.items():
            gw = global_weight(w)
            assert f.support() == gw.support()
            assert chain_weight(greedy_chain(e, w)) == gw


def test_criterion_05_mconvex_snp_polytope_s5():
    with criterion(5, 300.0):
        table = dual_schubert_table(5)
        for w, f in table.items():
            supp = f.support()
            assert is_m_convex(supp)
            assert is_snp(f)
            assert gp_from_inversions(w).integer_points() == supp


def test_criterion_06_vertex_triple_agreement_s5():
    with criterion(6, 300.0):
        for w in all_perms(5):
            vt = vertices_via_tilings(w)
            vc = newton_vertices_coeff1(w)
            vh = hull_vertices(global_weight(w).support())
            assert vt == vc == vh


def test_criterion_07_chain_multiset_dominance_s4():
    with criterion(7, 60.0):
        e = identity(4)
        for w in all_perms(4):
            inv = sorted(inversions(w))
            for c in enumerate_chains(e, w):
                labels = sorted(generating_multiset(c).elements())
                assert multiset_dominates(labels, inv)
                if len(labels) <= 6:
                    assert dominates_bruteforce(labels, inv)


def test_criterion_08_snp_without_single_chain():
    with criterion(8, 60.0):
        u, w = (1, 3, 2, 4), (4, 2, 3, 1)
        assert is_snp(postnikov_stanley_dp(u, w))
        assert is_scnp(u, w).holds is False


def test_criterion_09_conjecture_sweeps():
    with criterion(9, 120.0 + 7200.0):
        r4m = verify_ps_mconvex(4)
        assert r4m.ok() and r4m.counterexamples == []
        r4p = verify_scnp_pattern(4)
        assert r4p.ok() and r4p.counterexamples == []
        assert r4p.scnp_failures == [("1324", "4231")]
        r5p = verify_scnp_pattern(5)
        assert r5p.ok() and r5p.counterexamples == []


def test_criterion_10_tiling_counts():
    with criterion(10, 60.0):
        for n, count in [(2, 1), (3, 2), (4, 5), (5, 14), (6, 42)]:
            ours = {t.rects for t in enumerate_tilings(n)}
            assert len(ours) == count
            assert ours == set(map(tuple, tilings_bruteforce(n)))


def test_criterion_11_dp_equals_chainsum_s4():
    with criterion(11, 120.0):
        perms = list(all_perms(4))
        for u in perms:
            for w in perms:
                if bruhat_leq(u, w):
                    assert postnikov_stanley_dp(u, w) == postnikov_stanley_chainsum(
                        u, w
                    )
