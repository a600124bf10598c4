"""Permutation primitives against brute-force oracles and pinned fixtures."""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from dualschubert import (
    ConjectureReport,
    RectTiling,
    SaturatedChain,
    ScnpVerdict,
    StaircaseDiagram,
    all_perms,
    apply_t,
    bruhat_leq,
    contains_pattern,
    down_covers,
    format_perm,
    identity,
    inversions,
    length,
    longest_element,
    parse_perm,
    up_covers,
)
from dualschubert.perm import _complement, validate

from oracles import bruhat_leq_bruteforce, covers_bruteforce, inversion_count


def test_identity_and_longest():
    assert identity(4) == (1, 2, 3, 4)
    assert longest_element(4) == (4, 3, 2, 1)
    assert length(identity(5)) == 0
    assert length(longest_element(5)) == 10


def test_validate_rejects_non_permutations():
    for bad in [(1, 1, 2), (0, 1, 2), (2, 3, 4), ()]:
        with pytest.raises(ValueError):
            validate(bad)


def test_inversions_fixture():
    assert inversions((4, 2, 1, 3)) == frozenset(
        {(1, 2), (1, 3), (1, 4), (2, 3)}
    )
    assert inversions((1, 2, 3)) == frozenset()


def test_length_matches_inversion_count_s4():
    for w in all_perms(4):
        assert length(w) == inversion_count(w)


def test_apply_t_swaps_and_is_involutive():
    assert apply_t((1, 2, 3), 1, 3) == (3, 2, 1)
    rng = random.Random(11)
    for _ in range(50):
        w = tuple(rng.sample(range(1, 7), 6))
        a = rng.randrange(1, 6)
        b = rng.randrange(a + 1, 7)
        assert apply_t(apply_t(w, a, b), a, b) == w


def test_apply_t_rejects_bad_positions():
    with pytest.raises(ValueError):
        apply_t((1, 2, 3), 2, 2)
    with pytest.raises(ValueError):
        apply_t((1, 2, 3), 1, 4)
    with pytest.raises(ValueError):
        apply_t((1, 2, 3), 0, 2)


def test_up_covers_match_bruteforce_s4():
    for w in all_perms(4):
        assert {(v, lab) for v, lab in up_covers(w)} == {
            (v, lab) for lab, v in covers_bruteforce(w)
        }


def test_up_covers_match_bruteforce_sampled_s6():
    rng = random.Random(7)
    for _ in range(25):
        w = tuple(rng.sample(range(1, 7), 6))
        assert {(v, lab) for v, lab in up_covers(w)} == {
            (v, lab) for lab, v in covers_bruteforce(w)
        }


def test_covers_match_bruteforce_s5():
    for w in all_perms(5):
        assert up_covers(w) == [(v, lab) for lab, v in covers_bruteforce(w)]
        assert down_covers(w) == sorted(
            (v, lab) for v in all_perms(5) for lab, x in covers_bruteforce(v) if x == w
        )


def test_up_covers_sorted_by_label():
    for w in all_perms(4):
        labels = [lab for _, lab in up_covers(w)]
        assert labels == sorted(labels)


def test_down_covers_invert_up_covers_s4():
    perms = list(all_perms(4))
    ups = {w: {v for v, _ in up_covers(w)} for w in perms}
    for v in perms:
        downs = {w for w, _ in down_covers(v)}
        assert downs == {w for w in perms if v in ups[w]}
        for w, lab in down_covers(v):
            assert apply_t(w, *lab) == v


def test_complement_reverses_bruhat_order_s4():
    perms = list(all_perms(4))
    for w in perms:
        assert _complement(_complement(w)) == w
        assert length(_complement(w)) == 6 - length(w)
        for u in perms:
            assert bruhat_leq(u, w) == bruhat_leq(_complement(w), _complement(u))


def test_bruhat_leq_matches_closure_s4():
    perms = list(all_perms(4))
    for u in perms:
        for w in perms:
            assert bruhat_leq(u, w) == bruhat_leq_bruteforce(u, w)


def test_bruhat_order_axioms_s4():
    perms = list(all_perms(4))
    e, w0 = identity(4), longest_element(4)
    for w in perms:
        assert bruhat_leq(w, w)
        assert bruhat_leq(e, w)
        assert bruhat_leq(w, w0)
    for u in perms:
        for w in perms:
            if u != w and bruhat_leq(u, w):
                assert not bruhat_leq(w, u)
                assert length(u) < length(w)


def test_bruhat_leq_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        bruhat_leq((1, 2), (1, 2, 3))


def test_contains_pattern_fixtures():
    assert contains_pattern((2, 5, 3, 6, 4, 1), (1, 3, 2))
    assert not contains_pattern((1, 2, 3, 4), (2, 1))
    assert contains_pattern((4, 2, 3, 1), (4, 2, 3, 1))
    assert not contains_pattern((4, 2, 3, 1), (1, 3, 2, 4))
    assert contains_pattern((3, 1, 2), (1, 2))


def test_contains_pattern_rejects_longer_pattern():
    with pytest.raises(ValueError):
        contains_pattern((2, 1), (1, 3, 2))


def test_pattern_counts_follow_known_enumerations():
    # avoiders of any length-3 pattern are Catalan-many: C_4 = 14 of 24
    perms = list(all_perms(4))
    assert sum(contains_pattern(w, (1, 2, 3)) for w in perms) == 10
    assert sum(contains_pattern(w, (1, 3, 2)) for w in perms) == 10
    # only the decreasing word avoids (1, 2); only the increasing avoids (2, 1)
    assert sum(contains_pattern(w, (1, 2)) for w in perms) == 23
    assert sum(contains_pattern(w, (2, 1)) for w in perms) == 23
    # |S_5| - |Av_5(1324)| = 120 - 103
    assert sum(contains_pattern(w, (1, 3, 2, 4)) for w in all_perms(5)) == 17



def test_parse_and_format_round_trip():
    assert parse_perm("4213") == (4, 2, 1, 3)
    assert parse_perm("[4,2,1,3]") == (4, 2, 1, 3)
    assert format_perm((4, 2, 1, 3)) == "4213"
    w10 = tuple(range(10, 0, -1))
    assert parse_perm(format_perm(w10)) == w10
    assert "," in format_perm(w10)


def test_parse_perm_rejects_garbage():
    for bad in ["999", "10", "", "[1,2", "abc", "1 2 3", "[]", "[1,x]"]:
        with pytest.raises(ValueError):
            parse_perm(bad)
    # digits outside ASCII, which str.isdigit or int() accept, and signs
    for bad in ["\u00b92", "\u0661\u0662", "[1,\u0662]", "[\u0661,2]", "[+1,2]", "[1_0]"]:
        with pytest.raises(ValueError, match="^cannot parse permutation from "):
            parse_perm(bad)


@pytest.mark.parametrize("make", [identity, longest_element, all_perms])
def test_rank_zero_is_rejected(make):
    with pytest.raises(ValueError, match="rank must be >= 1, got 0"):
        make(0)


def test_all_perms_is_lexicographic():
    perms = list(all_perms(4))
    assert len(perms) == 24
    assert perms[0] == identity(4)
    assert perms[-1] == longest_element(4)
    assert perms == sorted(perms)


# -- value classes ------------------------------------------------------------------


# each frozen value class, the fields of one instance, and one field changed
FROZEN = [
    (SaturatedChain, {"nodes": ((1, 2, 3), (2, 1, 3)), "labels": ((1, 2),)},
     {"nodes": ((1, 2, 3), (1, 3, 2)), "labels": ((2, 3),)}),
    (ScnpVerdict, {"holds": True, "witness": None, "chains_examined": 1},
     {"chains_examined": 2}),
    (StaircaseDiagram, {"n": 3, "fill": ((1, 0), (1,))}, {"fill": ((1, 1), (1,))}),
    (RectTiling, {"n": 3, "rects": ((1, 1, 1, 2), (2, 1, 2, 1))},
     {"rects": ((1, 2, 1, 2), (1, 1, 2, 1))}),
]


@pytest.mark.parametrize("cls, fields, changed", FROZEN, ids=[c.__name__ for c, _, _ in FROZEN])
def test_frozen_values_compare_and_hash_by_fields_and_refuse_assignment(cls, fields, changed):
    value, twin = cls(**fields), cls(**fields)
    assert twin == value and hash(twin) == hash(value) and twin is not value
    assert cls(**{**fields, **changed}) != value
    assert value != tuple(fields.values())  # the same fields in a tuple are not the value
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert [getattr(value, name) for name in fields] == list(fields.values())
    assert pickle.loads(pickle.dumps(value)) == value == copy.deepcopy(value)


def test_value_repr_names_each_field():
    assert repr(ScnpVerdict(False, None, 2)) == (
        "ScnpVerdict(holds=False, witness=None, chains_examined=2)")
    assert repr(RectTiling(2, ((1, 1, 1, 1),))) == "RectTiling(n=2, rects=((1, 1, 1, 1),))"


def test_conjecture_reports_compare_by_fields_and_share_no_list():
    a = ConjectureReport("scnp-pattern", 3, 5, [], 0.5)
    b = ConjectureReport("scnp-pattern", 3, 5, [], 0.5)
    assert a == b and a.complete and a.resume_token is None
    assert a.scnp_failures == [] and a.scnp_failures is not b.scnp_failures
    a.scnp_failures.append(("123", "321"))
    assert b.scnp_failures == [] and a != b
    b.scnp_failures = [("123", "321")]  # a report may be assigned to, as before
    assert a == b
    with pytest.raises(TypeError):
        hash(a)
    assert pickle.loads(pickle.dumps(a)) == a
