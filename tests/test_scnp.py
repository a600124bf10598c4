"""Single-chain support decisions and the exhaustive sweep harness."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
import time
from collections import Counter
from functools import lru_cache
from itertools import accumulate

import pytest

from dualschubert import (
    SaturatedChain,
    all_perms,
    apply_t,
    bruhat_leq,
    chain_weight,
    dual_schubert_table,
    enumerate_chains,
    format_perm,
    greedy_chain,
    identity,
    inversions,
    is_scnp,
    is_snp,
    length,
    m_convex_certificate,
    m_convex_failure,
    parse_perm,
    postnikov_stanley_dp,
    ps_support,
    up_covers,
    verify_ps_mconvex,
    verify_scnp_pattern,
    verify_theorems,
)
from dualschubert import bruhat, poly, polytope, scnp, tiling
from dualschubert.scnp import LOWER_PATTERN, UPPER_PATTERN
from dualschubert.perm import _complement
from dualschubert.poly import _increments, _segment_terms, _unpacker
from dualschubert.polytope import _subset_floors
from oracles import (
    add_segment,
    dominant_chain_by_sets,
    floor_path,
    floors_by_tuples,
    ps_mconvex_record_by_counts,
    support_table_by_union,
    theorems_record_by_listing,
    upper_pattern_records,
)


def comparable_pairs(n):
    perms = list(all_perms(n))
    return [(u, w) for u in perms for w in perms if bruhat_leq(u, w)]


def test_pattern_constants():
    assert LOWER_PATTERN == (1, 3, 2, 4)
    assert UPPER_PATTERN == (4, 2, 3, 1)


def test_upper_pattern_is_the_complement_of_the_lower():
    assert UPPER_PATTERN == _complement(LOWER_PATTERN)


def test_ps_support_matches_polynomial_route_s4():
    for u, w in comparable_pairs(4):
        assert ps_support(u, w) == postnikov_stanley_dp(u, w).support()


def test_support_table_above_matches_union_oracle_s5():
    # the key-set fold over the dominance fold's covers, as the ps-mconvex
    # unit runs it, gives the whole support table above u
    for u in all_perms(5):
        covers, _, _ = scnp._dominance_fold(u)
        table = dict(poly._key_table(u, (5, 4, 3, 2, 1), covers))
        unpack = _unpacker(4)
        supports = {v: frozenset(map(unpack, keys)) for v, keys in table.items()}
        assert supports == support_table_by_union(u)


def test_is_scnp_interval_fixture():
    v = is_scnp((2, 1, 3), (3, 2, 1))
    assert v.holds
    assert v.witness.render() == "213 <(1,3) 312 <(2,3) 321"
    assert v.chains_examined == 2
    assert chain_weight(v.witness).support() == ps_support((2, 1, 3), (3, 2, 1))


def test_is_scnp_greedy_shortcut():
    v = is_scnp((1, 2, 3), (3, 2, 1))
    assert v.holds
    assert v.chains_examined == 1
    assert v.witness.render() == "123 <(2,3) 132 <(1,3) 231 <(1,2) 321"


def test_is_scnp_trivial_pair():
    v = is_scnp((2, 1, 3), (2, 1, 3))
    assert v.holds
    assert v.witness is not None and len(v.witness) == 0


def test_is_scnp_negative_fixture():
    v = is_scnp((1, 3, 2, 4), (4, 2, 3, 1))
    assert not v.holds
    assert v.witness is None
    assert v.chains_examined == 1
    # the separating example: saturated but no single dominant chain
    assert is_snp(postnikov_stanley_dp((1, 3, 2, 4), (4, 2, 3, 1)))


def test_count_criterion_matches_chain_supports_s4():
    steps = scnp._steps(4)[0]
    for u, w in comparable_pairs(4):
        target = ps_support(u, w)
        floors = packed_floors(target, 4)
        for chain in enumerate_chains(u, w):
            dominant = chain_weight(chain).support() == target
            assert dominant == (sum(steps[lab] for lab in chain.labels) == floors)


def packed_floors(target, n):
    """z_T of the point set target on every subset, packed as in `scnp._steps`."""
    width = scnp._steps(n)[1]
    z, _ = _subset_floors(list(zip(*target)))
    return sum(f << width * m for m, f in enumerate(z))


class CountingSteps(dict):
    """A label -> step dict that counts its reads: the search reads one
    entry per child it tries."""

    reads = 0

    def __getitem__(self, lab):
        CountingSteps.reads += 1
        return super().__getitem__(lab)


@pytest.fixture
def step_reads(monkeypatch):
    """Make `scnp._steps` hand out counting dicts; returns the read counter."""
    real = scnp._steps

    def counting(n):
        steps, width, high = real(n)
        return CountingSteps(steps), width, high

    monkeypatch.setattr(scnp, "_steps", counting)
    return CountingSteps


def test_search_cut_reads_a_fixed_number_of_steps(step_reads):
    # without the cut on counts above z_T: 56, 681, 1,194 and 142,802 reads
    reads = []
    for u, w in [("1324", "4231"), ("13245", "45312"), ("21435", "54321")]:
        step_reads.reads = 0
        is_scnp(parse_perm(u), parse_perm(w))
        reads.append(step_reads.reads)
    step_reads.reads = 0
    for u, w in comparable_pairs(5):
        is_scnp(u, w)
    assert reads + [step_reads.reads] == [34, 18, 176, 39522]


def floor_chain(u, labels):
    """The saturated chain that climbs from u by the given labels."""
    return SaturatedChain(tuple(accumulate(labels, lambda v, lab: apply_t(v, *lab),
                                           initial=u)), labels)


def reference_unit(table, holds):
    """The scnp-pattern unit record for a support table, given each verdict."""
    fails = [v for v in sorted(table, key=lambda p: (length(p), p)) if not holds[v]]
    return {"pairs": len(table), "fails": [format_perm(v) for v in fails]}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_count_route_matches_set_oracle(n):
    for u in all_perms(n):
        table = support_table_by_union(u)
        covers, floors, pending = scnp._dominance_fold(u)
        assert floors.keys() == table.keys()
        holds = {}
        for w, target in table.items():
            assert floors[w] == packed_floors(target, n)
            verdict = scnp._scnp_decide(u, w, target)
            holds[w] = verdict.holds
            assert verdict.holds == (dominant_chain_by_sets(u, w, target) is not None)
            assert verdict.holds == (w not in pending)
            if verdict.holds:
                assert chain_weight(verdict.witness).support() == target
            path = floor_path(covers, u, w, floors)
            assert (path is not None) == verdict.holds
            if path is not None:
                assert chain_weight(floor_chain(u, path)).support() == target
        key = format_perm(u)
        assert scnp._run_unit("scnp-pattern", n, key) == reference_unit(table, holds)


@pytest.mark.parametrize("key", ["132456", "214365"])
def test_floor_unit_matches_reference_rank6(key):
    u = parse_perm(key)
    table = support_table_by_union(u)
    holds = {v: scnp._scnp_decide(u, v, target).holds for v, target in table.items()}
    reference = reference_unit(table, holds)
    assert scnp._run_unit("scnp-pattern", 6, key) == reference


def test_count_route_matches_set_oracle_rank6_sample():
    u = (1, 3, 2, 4, 5, 6)
    table = support_table_by_union(u)
    covers, floors, _ = scnp._dominance_fold(u)

    def greedy_support(w):
        support = frozenset({(0,) * 5})
        for a, b in greedy_chain(u, w).labels:
            support = add_segment(support, a, b)
        return support

    ordered = sorted(table, key=lambda p: (length(p), p))
    sample = [w for w in ordered if greedy_support(w) != table[w]][:40]
    assert len(sample) == 40
    for w in sample:
        verdict = scnp._scnp_decide(u, w, table[w])
        assert verdict.holds == (dominant_chain_by_sets(u, w, table[w]) is not None)
        path = floor_path(covers, u, w, floors)
        assert (path is not None) == verdict.holds
        if path is not None:
            assert chain_weight(floor_chain(u, path)).support() == table[w]


class CountingCovers(dict):
    """Interval covers that count their reads: the search reads x's covers
    once for each state (x, counts) it expands."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def test_floor_path_expands_a_fixed_number_of_states():
    # without floors[x] in the cut the same verdicts take 1,608 expansions
    u = (1, 3, 2, 4, 5)
    covers, floors, _ = scnp._dominance_fold(u)
    counting = CountingCovers(covers)
    fails = sum(floor_path(counting, u, v, floors) is None for v in covers)
    assert (len(covers), fails, counting.reads) == (108, 9, 437)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dominance_fold_matches_floor_path(n):
    for u in all_perms(n):
        covers, floors, pending = scnp._dominance_fold(u)
        assert pending == [v for v in covers if floor_path(covers, u, v, floors) is None]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dominance_fold_leaves_a_tight_witness(n):
    # from each dominant v, tight covers from dominant x lead back to u
    steps = scnp._steps(n)[0]
    for u in all_perms(n):
        table = support_table_by_union(u)
        covers, floors, pending = scnp._dominance_fold(u)
        dominant = covers.keys() - set(pending)
        for v in dominant:
            x, labels = v, ()
            while x != u:
                x, lab = next((x2, lab) for x2, lab in covers[x] if x2 in dominant
                              and floors[x2] + steps[lab] == floors[x])
                labels = (lab,) + labels
            assert sum(steps[lab] for lab in labels) == floors[v]
            assert chain_weight(floor_chain(u, labels)).support() == table[v]


def subsets(n):
    """Every coordinate subset of 1..n-1, as bitmasks in increasing order."""
    return tuple(range(1 << n - 1))


def unpacked(z, n):
    """Packed floors on the subsets, read back as a tuple."""
    return _unpacker(1 << n - 1, scnp._steps(n)[1])(z)


def assert_floors_match_tuple_oracle(u):
    n = len(u)
    _, floors, _ = scnp._dominance_fold(u)
    oracle = floors_by_tuples(u, subsets(n))
    assert {v: unpacked(z, n) for v, z in floors.items()} == oracle


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_packed_floor_fold_matches_tuple_oracle(n):
    for u in all_perms(n):
        assert_floors_match_tuple_oracle(u)


@pytest.mark.parametrize("key", ["123456", "214365"])
def test_packed_floor_fold_matches_tuple_oracle_rank6(key):
    assert_floors_match_tuple_oracle(parse_perm(key))


def certificate_record(u):
    """The ps-mconvex unit record from each support's own certificate."""
    table = support_table_by_union(u)
    fails = [v for v in sorted(table, key=lambda p: (length(p), p))
             if m_convex_failure(table[v]) is not None]
    return {"pairs": len(table), "fails": [format_perm(v) for v in fails]}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_subset_floor_unit_matches_certificate(n):
    for u in all_perms(n):
        covers, floors, _ = scnp._dominance_fold(u)
        table = support_table_by_union(u)
        assert covers.keys() == floors.keys() == table.keys()
        for v, supp in table.items():
            z = unpacked(floors[v], n)
            assert list(z) == m_convex_certificate(supp)._masks()
        assert scnp._run_unit("ps-mconvex", n, format_perm(u)) == certificate_record(u)


@pytest.mark.parametrize("key", ["123456", "214365", "345612"])
def test_subset_floor_unit_matches_certificate_rank6(key):
    u = parse_perm(key)
    _, floors, _ = scnp._dominance_fold(u)
    for v, supp in support_table_by_union(u).items():
        z = unpacked(floors[v], 6)
        assert list(z) == m_convex_certificate(supp)._masks()
    assert scnp._run_unit("ps-mconvex", 6, key) == certificate_record(u)


@pytest.fixture
def every_pair_counted(monkeypatch):
    """Mark every pair non-dominant, so that the ps-mconvex unit counts each
    one through the memo, as it does for a pair with no dominant chain."""
    dominance_fold = scnp._dominance_fold

    def none_dominant(u):
        covers, floors, _ = dominance_fold(u)
        return covers, floors, list(covers)

    monkeypatch.setattr(scnp, "_dominance_fold", none_dominant)


# the oracle counts every pair's points one by one; tests share its records
record_by_counts = lru_cache(maxsize=None)(ps_mconvex_record_by_counts)
RANK6_KEYS = ["123456", "214365", "345612"]


@pytest.mark.parametrize("n, keys", [pytest.param(n, None, id=str(n)) for n in (3, 4, 5)]
                         + [pytest.param(6, RANK6_KEYS, id="6-sample")])
def test_ps_mconvex_unit_counts_only_non_dominant_pairs(n, keys):
    for key in keys or [format_perm(u) for u in all_perms(n)]:
        scnp._floors_base_size.cache_clear()
        assert scnp._run_unit("ps-mconvex", n, key) == record_by_counts(n, key)
        memo = scnp._floors_base_size.cache_info()
        pending = scnp._dominance_fold(parse_perm(key))[2]
        assert memo.hits + memo.misses == len(pending)
    scnp._floors_base_size.cache_clear()


@pytest.mark.parametrize("mode, folds", [("ps-mconvex", 2), ("scnp-pattern", 1)])
def test_each_sweep_unit_folds_its_interval_once_per_question(mode, folds, monkeypatch):
    # the dominance fold gives floors and verdicts; ps-mconvex adds the key-set fold
    calls = []
    fold = bruhat._interval_fold
    monkeypatch.setattr(bruhat, "_interval_fold", lambda *args: calls.append(args) or fold(*args))
    for key in ("12345", "13245"):  # no non-dominant pair, and some
        calls.clear()
        scnp._run_unit(mode, 5, key)
        assert len(calls) == folds


@pytest.mark.usefixtures("every_pair_counted")
@pytest.mark.parametrize("n", [3, 4, 5])
def test_ps_mconvex_unit_matches_uncached_oracle(n):
    keys = [format_perm(u) for u in all_perms(n)]
    expected = {key: record_by_counts(n, key) for key in keys}
    scnp._floors_base_size.cache_clear()
    warm = {key: scnp._run_unit("ps-mconvex", n, key) for key in keys}
    assert scnp._floors_base_size.cache_info().hits > 0
    cold = {}
    for key in reversed(keys):
        scnp._floors_base_size.cache_clear()
        cold[key] = scnp._run_unit("ps-mconvex", n, key)
    assert warm == cold == expected


@pytest.mark.usefixtures("every_pair_counted")
@pytest.mark.parametrize("key", RANK6_KEYS)
def test_ps_mconvex_unit_matches_uncached_oracle_rank6(key):
    expected = record_by_counts(6, key)
    scnp._floors_base_size.cache_clear()
    scnp._run_unit("ps-mconvex", 6, "132546")
    hits = scnp._floors_base_size.cache_info().hits
    assert scnp._run_unit("ps-mconvex", 6, key) == expected  # memo warmed
    assert scnp._floors_base_size.cache_info().hits > hits
    scnp._floors_base_size.cache_clear()
    assert scnp._run_unit("ps-mconvex", 6, key) == expected  # memo cold


@pytest.mark.usefixtures("every_pair_counted")
def test_ps_mconvex_unit_fails_every_pair_whose_count_differs(monkeypatch):
    # no support of rank 7 or less fails; a count of 0 is what non-supermodular floors get
    monkeypatch.setattr(polytope, "_base_size", lambda z, d: 0)
    scnp._floors_base_size.cache_clear()
    try:
        record = scnp._run_unit("ps-mconvex", 4, "1324")
    finally:
        scnp._floors_base_size.cache_clear()
    table = support_table_by_union((1, 3, 2, 4))
    fails = [format_perm(v) for v in sorted(table, key=lambda v: (length(v), v))]
    assert record == {"pairs": 20, "fails": fails}


def test_floor_memo_is_bounded_like_the_cover_cache():
    assert scnp._floors_base_size.cache_info().maxsize == 1 << 16


def test_is_scnp_rejects_bad_pairs():
    with pytest.raises(ValueError):
        is_scnp((2, 1, 3), (1, 3, 2))
    with pytest.raises(ValueError):
        is_scnp((1, 2), (3, 2, 1))


def test_is_scnp_witness_recheck_s4_from_identity():
    e = identity(4)
    for w in all_perms(4):
        v = is_scnp(e, w)
        assert v.holds
        assert chain_weight(v.witness).support() == ps_support(e, w)


def test_scnp_implies_snp_s4():
    for u, w in comparable_pairs(4):
        v = is_scnp(u, w)
        if v.holds:
            assert is_snp(postnikov_stanley_dp(u, w))


def test_conjugation_is_a_bruhat_automorphism_reversing_labels_s4():
    for v in all_perms(4):
        rc = scnp._conjugate(v)
        assert scnp._conjugate(rc) == v
        assert length(rc) == length(v)
        mirrored = {(scnp._conjugate(v2), (5 - b, 5 - a)) for v2, (a, b) in up_covers(v)}
        assert mirrored == set(up_covers(rc))


def partner(key: str) -> str:
    return format_perm(scnp._conjugate(parse_perm(key)))


MIRRORED = [mode for mode, (*_, mirrored) in scnp.SWEEPS.items() if mirrored]


@pytest.mark.parametrize(
    "mode, n", [(mode, n) for mode in MIRRORED for n in (3, 4, 5)] + [("scnp-pattern", 6)]
)
def test_mirrored_record_is_the_partner_unit(mode, n):
    records = {format_perm(p): scnp._run_unit(mode, n, format_perm(p)) for p in all_perms(n)}
    for key, record in records.items():
        assert scnp._mirror(record) == records[partner(key)], key


@pytest.mark.parametrize(
    "mode, n, keys",
    [
        ("ps-mconvex", 6, ["213456", "132546", "214365", "345612", "516234", "625143"]),
        ("ps-mconvex", 7, ["2375614", "7152346"]),
        ("scnp-pattern", 7, ["1324567", "2143567"]),
    ],
)
def test_mirrored_record_is_the_partner_unit_sample(mode, n, keys):
    for key in keys:
        record = scnp._run_unit(mode, n, key)
        assert scnp._mirror(record) == scnp._run_unit(mode, n, partner(key)), key


def test_verify_ps_mconvex_small():
    r3 = verify_ps_mconvex(3)
    assert r3.ok() and r3.complete
    assert r3.checked_pairs == 19
    assert r3.counterexamples == []
    r4 = verify_ps_mconvex(4)
    assert r4.ok()
    assert r4.checked_pairs == 213


def test_verify_scnp_pattern_s4():
    r = verify_scnp_pattern(4)
    assert r.ok()
    assert r.checked_pairs == 213
    assert r.counterexamples == []
    assert r.scnp_failures == [("1324", "4231")]


@lru_cache(maxsize=None)
def scnp_pattern_report(n):
    return verify_scnp_pattern(n)


def fails_table(report) -> dict:
    """Every unit's fails, in key order, read back from scnp_failures."""
    fails = {format_perm(v): [] for v in all_perms(report.n)}
    for u, w in report.scnp_failures:
        fails[u].append(w)
    return fails


def test_verify_scnp_pattern_s6_summary_lists_each_counterexample():
    report = scnp_pattern_report(6)
    lines = report.summary().splitlines()
    assert [x for x in lines if x.startswith("counterexample: ")] == [
        "counterexample: " + json.dumps(rec) for rec in report.counterexamples
    ]
    assert lines[-1] == (
        'counterexample: {"kind": "upper-pattern-mismatch", "perm": "541632",'
        ' "has_failing_partner": true, "contains_pattern": false}'
    )


def test_verify_scnp_pattern_s6_counterexamples():
    assert scnp_pattern_report(6).counterexamples == [
        {
            "kind": "lower-pattern-mismatch",
            "perm": "236145",
            "has_failing_partner": True,
            "contains_pattern": False,
            "witness": "563412",
        },
        {
            "kind": "upper-pattern-mismatch",
            "perm": "541632",
            "has_failing_partner": True,
            "contains_pattern": False,
        },
    ]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_derived_upper_pattern_records_match_the_direct_loop(n):
    fails = fails_table(scnp_pattern_report(n))
    counterexamples, _ = scnp._merge_scnp_pattern(n, fails)
    upper = [r for r in counterexamples if r["kind"] == "upper-pattern-mismatch"]
    assert upper == upper_pattern_records(n, fails)


@pytest.mark.parametrize("seed", range(3))
def test_derived_upper_pattern_records_on_random_closed_tables(seed):
    # ranks 4-6 have at most one upper mismatch; a table closed under
    # (u, w) -> (w0 w, w0 u) with many of them also pins the records' order
    rng, perms = random.Random(seed), list(all_perms(5))
    pairs = {(rng.choice(perms), rng.choice(perms)) for _ in range(60)}
    pairs |= {(_complement(w), _complement(u)) for u, w in pairs}
    fails = {format_perm(u): sorted(format_perm(w) for x, w in pairs if x == u) for u in perms}
    counterexamples, _ = scnp._merge_scnp_pattern(5, fails)
    upper = [r for r in counterexamples if r["kind"] == "upper-pattern-mismatch"]
    assert len(upper) > 10
    assert upper == upper_pattern_records(5, fails)


def test_verify_scnp_pattern_below_pattern_rank():
    r = verify_scnp_pattern(3)
    assert r.ok()
    assert r.scnp_failures == []


def test_verify_theorems_small():
    r = verify_theorems(3)
    assert r.ok()
    assert r.checked_pairs == 6
    r4 = verify_theorems(4)
    assert r4.ok()
    assert r4.checked_pairs == 24


@pytest.mark.parametrize("n", range(1, 7))
def test_theorem_floors_match_the_support_table(n):
    floors, pending = scnp._theorem_floors(n)
    supports = support_table_by_union(identity(n))
    assert floors.keys() == supports.keys()
    for w, supp in supports.items():
        assert floors[w] == packed_floors(supp, n)
    assert pending == frozenset()


def test_verify_theorems_builds_no_support_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("the paper-theorems unit built a support table")

    monkeypatch.setattr(poly, "_key_table", refuse)
    scnp._theorem_floors.cache_clear()  # so that the rank-4 fold runs here
    assert verify_theorems(4).ok()


def test_label_multisets_agree_exactly_when_segment_products_do_s4():
    # the premise of the unit's weight check, on every saturated chain of S4
    # from the identity and every inversion set: distinct segments are
    # distinct linear, hence irreducible, factors
    incs = _increments(3)
    words = [c.labels for w in all_perms(4) for c in enumerate_chains(identity(4), w)]
    words += [sorted(inversions(w)) for w in all_perms(4)]
    pairs = {(tuple(sorted(ls)), frozenset(_segment_terms(ls, incs).items()))
             for ls in words}
    assert len(pairs) == len({m for m, _ in pairs}) == len({p for _, p in pairs})
    assert len(pairs) > 24


@pytest.mark.parametrize("n", range(1, 7))
def test_theorems_unit_matches_the_listing_route(n):
    for w in all_perms(n):
        key = format_perm(w)
        assert scnp._unit_theorems(n, key) == theorems_record_by_listing(n, key)


def test_theorems_unit_matches_the_listing_route_rank7_sample():
    for w in random.Random(7).sample(list(all_perms(7)), 40):
        key = format_perm(w)
        assert scnp._unit_theorems(7, key) == theorems_record_by_listing(7, key)


def test_verify_theorems_lists_no_points(monkeypatch):
    def refuse(*args):
        raise AssertionError("the paper-theorems unit listed points")

    monkeypatch.setattr(polytope.GeneralizedPermutahedron, "integer_points", refuse)
    monkeypatch.setattr(polytope, "hull_vertices", refuse)
    monkeypatch.setattr(polytope, "_snp_by_hull", refuse)
    assert verify_theorems(5).ok()


# Each fault makes one route of the paper-theorems unit wrong about w = 231
# alone; the sweep must report exactly the records that route feeds.
W = (2, 3, 1)


def wrong_at_w(monkeypatch, module, name, wrong, about=lambda *args: args[-1]):
    real = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda *args: wrong(*args) if about(*args) == W else real(*args)
    )


def fault_floors(monkeypatch):
    floors, pending = scnp._theorem_floors(3)
    floors = {**floors, W: floors[W] + 1}
    monkeypatch.setattr(scnp, "_theorem_floors", lambda n: (floors, pending))


def fault_dominance(monkeypatch):
    floors, pending = scnp._theorem_floors(3)
    monkeypatch.setattr(scnp, "_theorem_floors", lambda n: (floors, pending | {W}))


def fault_greedy(monkeypatch):
    wrong_at_w(monkeypatch, scnp, "is_greedy", lambda g, u, w: False)


def fault_weight(monkeypatch):
    # the greedy chain's labels, read as a multiset, gain a second copy
    wrong_at_w(monkeypatch, scnp, "generating_multiset",
               lambda chain: Counter(chain.labels * 2), about=lambda chain: chain.end)


def fault_certificate(monkeypatch):
    z = _subset_floors(list(zip(*ps_support(identity(3), W))))[0]
    wrong_at_w(monkeypatch, polytope, "_certificate", lambda *args: False,
               about=lambda floors, top, size, d: W if list(floors) == z else None)


def fault_certificate_and_snp(monkeypatch):
    fault_certificate(monkeypatch)
    monkeypatch.setattr(polytope, "_snp_by_hull", lambda supp: False)


def fault_inversion_polytope(monkeypatch):
    # both forms of the inversion polytope: its packed z, which the unit
    # compares while the certificate passes, and the polytope itself
    wrong_at_w(monkeypatch, polytope, "_inversion_floors",
               lambda w, steps: polytope._inversion_floors((3, 1, 2), steps),
               about=lambda w, steps: w)
    wrong_at_w(monkeypatch, polytope, "gp_from_inversions",
               lambda w: polytope.gp_from_inversions((3, 1, 2)))


def fault_tilings(monkeypatch):
    wrong_at_w(monkeypatch, tiling, "vertices_via_tilings", lambda w: frozenset())


THEOREM_FAULTS = [
    (fault_floors, ["support-mismatch"]),
    (fault_dominance, ["support-mismatch"]),
    (fault_greedy, ["greedy-chain-not-greedy"]),
    (fault_weight, ["greedy-weight-mismatch"]),
    (fault_certificate, ["support-not-m-convex"]),
    (fault_certificate_and_snp, ["support-not-m-convex", "support-not-snp"]),
    (fault_inversion_polytope, ["polytope-points-mismatch"]),
    (fault_tilings, ["vertex-method-mismatch"]),
]


@pytest.mark.parametrize("fault, kinds", THEOREM_FAULTS,
                         ids=[fault.__name__ for fault, _ in THEOREM_FAULTS])
def test_verify_theorems_records_each_wrong_route(fault, kinds, monkeypatch):
    fault(monkeypatch)
    r = verify_theorems(3)
    assert r.complete and not r.ok()
    assert r.counterexamples == [{"kind": kind, "w": "231"} for kind in kinds]


def test_theorems_unit_feeds_the_certificate_its_largest_sum(monkeypatch):
    # keys with two coordinate sums, as many as P(z_S) has points: only the
    # one-sum test, fed the largest full-set field, rejects them
    steps = scnp._steps(3)[0]
    points = [(0, 2), (2, 0), (2, 1)]
    keys = {a * steps[1, 2] + b * steps[2, 3]: 1 for a, b in points}
    wrong_at_w(monkeypatch, poly, "_segment_terms", lambda segs, incs: keys,
               about=lambda segs, incs: W if list(segs) == sorted(inversions(W)) else None)
    assert polytope._base_size([0, 0, 0, 2], 2) == len(points)
    kinds = ["support-not-m-convex", "support-not-snp", "polytope-points-mismatch",
             "vertex-method-mismatch"]
    assert scnp._unit_theorems(3, "231")["fails"] == [{"kind": k, "w": "231"} for k in kinds]


def test_theorems_unit_lists_points_only_where_the_certificate_fails(monkeypatch):
    fault_certificate(monkeypatch)
    supp, listed = ps_support(identity(3), W), []

    def listing(owner, name):
        real = getattr(owner, name)

        def route(*args):
            out = real(*args)
            listed.append((name, out if name == "integer_points" else args[0]))
            return out

        monkeypatch.setattr(owner, name, route)

    listing(polytope.GeneralizedPermutahedron, "integer_points")
    listing(polytope, "hull_vertices")
    listing(polytope, "_snp_by_hull")
    r = verify_theorems(3)
    assert r.counterexamples == [{"kind": "support-not-m-convex", "w": "231"}]
    assert {name for name, _ in listed} == {"integer_points", "hull_vertices",
                                            "_snp_by_hull"}
    assert all(points == supp for _, points in listed)


VERIFY = {
    "ps-mconvex": verify_ps_mconvex,
    "scnp-pattern": verify_scnp_pattern,
    "paper-theorems": verify_theorems,
}


def without_elapsed(report) -> dict:
    out = report.to_json_dict()
    del out["elapsed"]
    return out


def checkpoint_done(path) -> dict:
    return json.loads(path.read_text())["done"]


@pytest.mark.parametrize("mode", list(scnp.SWEEPS))
def test_budget_zero_yields_resumable_partial(mode, tmp_path):
    verify = VERIFY[mode]
    serial_path, path = tmp_path / "serial.json", tmp_path / "sweep.json"
    serial = verify(4, checkpoint_path=serial_path)
    r = verify(4, budget=0, checkpoint_path=path)
    assert not r.complete
    assert not r.ok()
    assert r.checked_pairs == 0
    token = r.resume_token
    assert token["mode"] == mode and token["n"] == 4 and token["done"] == {}
    full = verify(4, resume=token, checkpoint_path=path)
    assert full.ok()
    assert without_elapsed(full) == without_elapsed(serial)
    assert checkpoint_done(path) == checkpoint_done(serial_path)


@pytest.mark.parametrize("mode", list(scnp.SWEEPS))
def test_verify_passes_every_option_through(mode, tmp_path):
    verify, path = VERIFY[mode], tmp_path / "sweep.json"
    partial = verify(3, jobs=2, budget=0, checkpoint_path=path)
    assert not partial.complete and partial.resume_token["mode"] == mode
    assert json.loads(path.read_text()) == partial.resume_token
    seen = []
    full = verify(3, jobs=2, resume=partial.resume_token,
                  progress=lambda d, total, key: seen.append(key))
    assert full.complete and sorted(seen) == [format_perm(p) for p in all_perms(3)]
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        verify(3, jobs=0)
    with pytest.raises(TypeError):
        verify(3, budgets=0)
    with pytest.raises(TypeError):
        verify(3, 1)


@pytest.mark.parametrize("mode, n", [("ps-mconvex", 4), ("scnp-pattern", 5)])
@pytest.mark.parametrize("held", ["source", "derived", "key-order-prefix"])
def test_resume_completes_half_done_pairs(mode, n, held, tmp_path):
    verify = VERIFY[mode]
    serial_path, path = tmp_path / "serial.json", tmp_path / "sweep.json"
    serial = verify(n, checkpoint_path=serial_path)
    done = checkpoint_done(serial_path)
    keys = [format_perm(p) for p in all_perms(n)]
    source = "12435" if n == 5 else "1243"  # unit 13245 (2134) is its mirror
    held_keys = {
        "source": [source],
        "derived": [partner(source)],
        "key-order-prefix": keys[: len(keys) // 3],  # as a serial sweep writes them
    }[held]
    token = {"mode": mode, "n": n, "elapsed": 1.0, "done": {k: done[k] for k in held_keys}}
    assert any(partner(k) not in held_keys for k in held_keys)
    calls = []
    resumed = verify(n, resume=token, checkpoint_path=path,
                     progress=lambda d, total, key: calls.append((d, key)))
    assert without_elapsed(resumed) == without_elapsed(serial)
    assert checkpoint_done(path) == done
    # the missing halves were derived up front, without a progress call
    derived = {partner(k) for k in held_keys} - set(held_keys)
    assert not derived & {key for _, key in calls}
    assert calls[0][0] == len(held_keys) + len(derived) + 1
    assert len(calls) == len(keys) - len(held_keys) - len(derived)


def test_mirrored_sweep_runs_one_unit_per_pair(monkeypatch):
    ran, run_unit = [], scnp._run_unit

    def counted(mode, n, key):
        ran.append(key)
        return run_unit(mode, n, key)

    monkeypatch.setattr(scnp, "_run_unit", counted)
    seen = []
    verify_scnp_pattern(5, progress=lambda d, total, key: seen.append(key))
    assert len(ran) == 64 and all(parse_perm(k) <= parse_perm(partner(k)) for k in ran)
    assert sorted(seen) == [format_perm(p) for p in all_perms(5)]
    ran.clear()
    verify_theorems(4)
    assert len(ran) == 24


def test_resume_rejects_mismatched_token():
    r = verify_scnp_pattern(4, budget=0)
    with pytest.raises(ValueError):
        verify_ps_mconvex(4, resume=r.resume_token)
    with pytest.raises(ValueError):
        verify_scnp_pattern(5, resume=r.resume_token)


def test_theorems_resume_rejects_fails_that_are_not_its_records():
    token = {"mode": "paper-theorems", "n": 2, "elapsed": 0.0,
             "done": {"12": {"pairs": 1, "fails": [1, "x"]}}}
    with pytest.raises(ValueError, match="not records of their units"):
        verify_theorems(2, resume=token)


@pytest.mark.parametrize("mode, n, done", [
    ("paper-theorems", 2, {"12": {"pairs": 999, "fails": []}}),
    ("paper-theorems", 3, {"231": {"pairs": 2, "fails": []}}),
    ("ps-mconvex", 3, {"123": {"pairs": 2, "fails": ["132", "213"]}}),
    ("scnp-pattern", 4, {"1234": {"pairs": 0, "fails": []}}),
], ids=["theorems-999", "theorems-2", "mirrored-fewer-than-fails", "mirrored-0"])
def test_resume_rejects_pair_counts_the_unit_could_not_write(mode, n, done):
    # a paper-theorems unit counts 1 pair; a mirrored unit counts u and each
    # fail, all in [u, w0], so at least 1 + its fails
    token = {"mode": mode, "n": n, "elapsed": 0.0, "done": done}
    with pytest.raises(ValueError, match="counts pairs its units could not"):
        VERIFY[mode](n, resume=token)


def test_resume_accepts_the_least_pair_counts_a_unit_could_write():
    token = {"mode": "ps-mconvex", "n": 3, "elapsed": 0.0,
             "done": {"123": {"pairs": 3, "fails": ["132", "213"]}}}
    assert verify_ps_mconvex(3, resume=token).counterexamples == [
        {"kind": "support-not-m-convex", "u": "123", "w": w} for w in ("132", "213")]
    token = {"mode": "paper-theorems", "n": 2, "elapsed": 0.0,
             "done": {"12": {"pairs": 1, "fails": []}}}
    assert verify_theorems(2, resume=token).checked_pairs == 2


@pytest.mark.parametrize("key, fails", [
    ("123", ["123", "123"]),
    ("123", ["132", "132"]),
    ("132", ["132"]),
    ("132", ["213"]),
    ("123", ["321", "132"]),
], ids=["the-unit-twice", "repeated", "the-unit", "not-above", "out-of-order"])
def test_mirrored_resume_rejects_fails_the_unit_could_not_write(key, fails):
    token = {"mode": "ps-mconvex", "n": 3, "elapsed": 0.0,
             "done": {key: {"pairs": 999, "fails": fails}}}
    with pytest.raises(ValueError, match=r"above their unit, distinct and in \(length, v\)"):
        verify_ps_mconvex(3, resume=token)


def test_budget_cut_scnp_checkpoint_resumes_to_the_same_report(tmp_path):
    serial = verify_scnp_pattern(5)
    path = tmp_path / "sweep.json"
    partial = verify_scnp_pattern(5, budget=0.2, checkpoint_path=path,
                                  progress=lambda d, total, key: time.sleep(0.02))
    token = json.loads(path.read_text())
    assert not partial.complete and token == partial.resume_token
    assert any(r["fails"] for r in token["done"].values())
    resumed = verify_scnp_pattern(5, resume=token)
    assert without_elapsed(resumed) == without_elapsed(serial)


def test_checkpoint_file_round_trip(tmp_path):
    path = tmp_path / "sweep.json"
    partial = verify_ps_mconvex(3, budget=0, checkpoint_path=path)
    assert not partial.complete
    token = json.loads(path.read_text())
    full = verify_ps_mconvex(3, resume=token, checkpoint_path=path)
    assert full.ok() and full.checked_pairs == 19
    final_token = json.loads(path.read_text())
    assert set(final_token["done"]) == {
        "123", "132", "213", "231", "312", "321",
    }


@pytest.fixture
def pool(monkeypatch):
    """A `jobs=2` sweep starts two workers at any rank, on any machine."""
    monkeypatch.setattr(scnp, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(scnp, "_POOL_RANK", 1)


@pytest.mark.usefixtures("pool")
@pytest.mark.parametrize("mode", list(scnp.SWEEPS))
def test_parallel_sweep_matches_serial(mode, monkeypatch, tmp_path):
    verify = VERIFY[mode]
    serial_path, path = tmp_path / "serial.json", tmp_path / "sweep.json"
    serial = verify(4, checkpoint_path=serial_path)
    monkeypatch.setattr(scnp, "_CHECKPOINT_EVERY_S", 0)
    lag = []

    def progress(done, total, key):
        lag.append(done - len(checkpoint_done(path)))

    parallel = verify(4, jobs=2, checkpoint_path=path, progress=progress)
    assert parallel.ok()
    assert without_elapsed(parallel) == without_elapsed(serial)
    assert checkpoint_done(path) == checkpoint_done(serial_path)
    assert lag == [0] * 24  # with no interval, the checkpoint is written after every unit


def count_writes(monkeypatch) -> list[str]:
    """Patch `_write_checkpoint` to record the text of each write it makes."""
    writes, write = [], scnp._write_checkpoint

    def counted(path, text):
        writes.append(text)
        write(path, text)

    monkeypatch.setattr(scnp, "_write_checkpoint", counted)
    return writes


@pytest.mark.usefixtures("pool")
@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_within_the_interval_writes_its_checkpoint_twice(jobs, monkeypatch, tmp_path):
    path = tmp_path / "sweep.json"
    monkeypatch.setattr(scnp, "_CHECKPOINT_EVERY_S", 3600.0)
    writes = count_writes(monkeypatch)
    assert verify_scnp_pattern(4, jobs=jobs, checkpoint_path=path).ok()
    assert len(writes) == 2  # before the first unit, and at the end
    assert json.loads(writes[0])["done"] == {}
    assert writes[1] == path.read_text() and len(checkpoint_done(path)) == 24


@pytest.mark.usefixtures("pool")
def test_pool_sweep_writes_its_checkpoint_at_most_once_a_second(monkeypatch, tmp_path):
    path = tmp_path / "sweep.json"
    writes = count_writes(monkeypatch)
    report = verify_scnp_pattern(5, jobs=2, checkpoint_path=path)
    interval = scnp._CHECKPOINT_EVERY_S
    assert 2 <= len(writes) <= 2 + math.ceil(report.elapsed / interval)
    assert len(checkpoint_done(path)) == 120


@pytest.mark.usefixtures("pool")
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("jobs", [1, 2])
def test_stopped_sweep_checkpoints_its_finished_units(jobs, error, tmp_path):
    serial_path, path = tmp_path / "serial.json", tmp_path / "sweep.json"
    verify_scnp_pattern(4, checkpoint_path=serial_path)

    def stop(done, total, key):
        if done == 5:
            raise error("stopped")

    with pytest.raises(error, match="stopped"):
        verify_scnp_pattern(4, jobs=jobs, checkpoint_path=path, progress=stop)
    assert multiprocessing.active_children() == []
    done, serial = checkpoint_done(path), checkpoint_done(serial_path)
    assert len(done) == 5 and done == {key: serial[key] for key in done}


def test_failed_final_write_does_not_hide_the_error(monkeypatch, tmp_path):
    monkeypatch.setattr(scnp, "_CHECKPOINT_EVERY_S", 3600.0)
    write, writes = scnp._write_checkpoint, []

    def full_after_the_first(path, text):
        writes.append(text)
        if len(writes) > 1:
            raise ValueError("cannot write checkpoint: disk full")
        write(path, text)

    monkeypatch.setattr(scnp, "_write_checkpoint", full_after_the_first)

    def stop(done, total, key):
        raise RuntimeError("stopped")

    with pytest.raises(RuntimeError, match="stopped"):
        verify_scnp_pattern(4, checkpoint_path=tmp_path / "sweep.json", progress=stop)
    assert len(writes) == 2  # the final write was made, and failed


@pytest.mark.usefixtures("pool")
def test_budget_bounds_a_pool_sweep():
    start = time.monotonic()
    report = verify_ps_mconvex(7, jobs=2, budget=1.0)
    assert time.monotonic() - start < 15
    assert not report.complete
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("pool")
def test_error_in_pool_sweep_stops_the_workers():
    def fail(done, total, key):
        raise RuntimeError("progress failed")

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="progress failed"):
        verify_scnp_pattern(6, jobs=2, progress=fail)
    assert time.monotonic() - start < 15
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("pool")
def test_unit_error_in_a_worker_reaches_the_caller(monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the patched unit only when forked")

    def broken(mode, n, key):
        raise ValueError(f"unit {key} failed")

    monkeypatch.setattr(scnp, "_run_unit", broken)
    with pytest.raises(ValueError, match=r"unit \d+ failed") as info:
        verify_scnp_pattern(4, jobs=2)
    assert "in a worker process" in str(info.value.__cause__)
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("pool")
def test_dead_worker_is_named_and_finished_units_kept(monkeypatch, tmp_path):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the patched unit only when forked")
    serial_path, path = tmp_path / "serial.json", tmp_path / "sweep.json"
    verify_scnp_pattern(4, checkpoint_path=serial_path)
    run_unit = scnp._run_unit
    # set in the parent once a record is kept; the forked workers share it
    kept = multiprocessing.Event()

    def dying(mode, n, key):
        if key == "1243":
            kept.wait(timeout=60)
            os._exit(9)
        return run_unit(mode, n, key)

    monkeypatch.setattr(scnp, "_run_unit", dying)
    with pytest.raises(RuntimeError, match="unit 1243 died with exit code 9"):
        verify_scnp_pattern(4, jobs=2, checkpoint_path=path,
                            progress=lambda *args: kept.set())
    assert multiprocessing.active_children() == []
    done, serial = checkpoint_done(path), checkpoint_done(serial_path)
    assert done and "1243" not in done and "2134" not in done  # nor its mirror
    assert done == {key: serial[key] for key in done}


@pytest.mark.usefixtures("pool")
def test_single_usable_cpu_runs_serially(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(scnp, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(multiprocessing, "Process", no_pool)
    report = verify_scnp_pattern(4, jobs=2)
    assert report.ok() and report.scnp_failures == [("1324", "4231")]


@pytest.mark.parametrize("mode, n", [(mode, 5) for mode in scnp.SWEEPS])
def test_sweep_below_the_pool_rank_runs_in_one_process(mode, n, monkeypatch, tmp_path):
    # there a pool costs more than it saves, in every mode, so jobs=2
    # starts no worker
    verify = VERIFY[mode]
    serial_path, path = tmp_path / "serial.json", tmp_path / "sweep.json"
    serial = verify(n, checkpoint_path=serial_path)
    monkeypatch.setattr(scnp, "_usable_cpus", lambda: 2)
    alive = []  # worker processes alive as each unit finishes
    report = verify(n, jobs=2, checkpoint_path=path,
                    progress=lambda *args: alive.append(len(multiprocessing.active_children())))
    assert alive == [0] * math.factorial(n)
    assert without_elapsed(report) == without_elapsed(serial)
    assert checkpoint_done(path) == checkpoint_done(serial_path)


@pytest.mark.parametrize("mode, n", [(mode, 6) for mode in scnp.SWEEPS])
def test_sweep_at_the_pool_rank_starts_its_workers(mode, n, monkeypatch):
    monkeypatch.setattr(scnp, "_usable_cpus", lambda: 2)

    def stop(done, total, key):
        raise RuntimeError(f"{len(multiprocessing.active_children())} workers")

    with pytest.raises(RuntimeError, match="^2 workers$"):
        VERIFY[mode](n, jobs=2, progress=stop)
    assert multiprocessing.active_children() == []


def test_failed_checkpoint_write_keeps_previous_checkpoint(monkeypatch, tmp_path):
    path = tmp_path / "sweep.json"
    old = {"mode": "ps-mconvex", "n": 3, "elapsed": 1.0, "done": {}}
    scnp._write_checkpoint(path, json.dumps(old))

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(scnp.os, "replace", crash)
    with pytest.raises(ValueError, match="cannot write checkpoint"):
        scnp._write_checkpoint(path, json.dumps(dict(old, elapsed=2.0)))
    assert json.loads(path.read_text()) == old
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]


def test_checkpoint_write_is_synced_before_its_rename(monkeypatch, tmp_path):
    calls, fsync, replace = [], os.fsync, os.replace
    monkeypatch.setattr(os, "fsync", lambda fd: calls.append("fsync") or fsync(fd))
    monkeypatch.setattr(os, "replace",
                        lambda src, dst: calls.append("replace") or replace(src, dst))
    path = tmp_path / "sweep.json"
    scnp._write_checkpoint(path, '{"done": {}}')
    assert calls == ["fsync", "replace"]
    assert path.read_text() == '{"done": {}}'


def test_resumed_checkpoint_text_is_json_dumps_of_its_token(tmp_path):
    serial_path, path = tmp_path / "serial.json", tmp_path / "sweep.json"
    verify_scnp_pattern(4, checkpoint_path=serial_path)
    token = json.loads(serial_path.read_text())
    token["done"] = dict(list(token["done"].items())[1::2])
    path.write_text(json.dumps(token))
    verify_scnp_pattern(4, resume=json.loads(path.read_text()), checkpoint_path=path)
    text = path.read_text()
    assert text == json.dumps(json.loads(text))
    assert checkpoint_done(path) == checkpoint_done(serial_path)


def test_progress_callback_sees_every_unit():
    seen = []
    verify_theorems(3, progress=lambda done, total, key: seen.append((done, total, key)))
    assert len(seen) == 6
    assert all(total == 6 for _, total, _ in seen)
    assert [key for *_, key in seen] == ["123", "132", "213", "231", "312", "321"]


def test_report_json_and_summary():
    r = verify_scnp_pattern(4)
    d = r.to_json_dict()
    assert d["mode"] == "scnp-pattern"
    assert d["complete"] is True
    assert d["scnp_failures"] == [["1324", "4231"]]
    assert json.dumps(d)
    text = r.summary()
    assert "checked pairs    213" in text
    assert "non-dominant pairs  (1324, 4231)" in text


def test_support_table_route_matches_dual_table():
    for n in (4, 5):
        table = dual_schubert_table(n)
        supports = support_table_by_union(identity(n))
        assert supports.keys() == table.keys()
        for w, f in table.items():
            assert supports[w] == f.support()
