"""Saturated chains, greedy chains, and label-multiset dominance."""

from __future__ import annotations

import random
import weakref
from collections import Counter

import pytest

from dualschubert import (
    SaturatedChain,
    all_perms,
    bruhat_leq,
    enumerate_chains,
    generating_multiset,
    greedy_chain,
    identity,
    interval_covers,
    interval_elements,
    inversions,
    is_greedy,
    length,
    longest_element,
    multiset_dominates,
    parse_perm,
    up_covers,
)
from dualschubert import bruhat

from oracles import (
    bruhat_leq_bruteforce,
    chain_count_bruteforce,
    covers_bruteforce,
    dominates_bruteforce,
    greedy_chain_by_pairs,
    interval_covers_by_down_walk,
)


def comparable_pairs(n):
    perms = list(all_perms(n))
    return [(u, w) for u in perms for w in perms if bruhat_leq(u, w)]


def test_chain_validation_accepts_covers_only():
    c = SaturatedChain(
        ((1, 2, 3), (2, 1, 3), (2, 3, 1)), ((1, 2), (2, 3))
    )
    assert c.start == (1, 2, 3)
    assert c.end == (2, 3, 1)
    assert len(c) == 2


def test_chain_validation_rejects_non_covers():
    # 123 -> 321 is a single transposition but jumps three length levels
    with pytest.raises(ValueError):
        SaturatedChain(((1, 2, 3), (3, 2, 1)), ((1, 3),))
    # label does not produce the claimed next node
    with pytest.raises(ValueError):
        SaturatedChain(((1, 2, 3), (2, 1, 3)), ((2, 3),))


def test_chain_validation_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        SaturatedChain(((1, 2, 3), (2, 1, 3)), ())
    with pytest.raises(ValueError):
        SaturatedChain((), ())


def test_trivial_chain():
    c = SaturatedChain(((2, 1, 3),), ())
    assert c.start == c.end == (2, 1, 3)
    assert len(c) == 0
    assert generating_multiset(c) == Counter()


def test_chain_render_and_json():
    c = SaturatedChain(
        ((1, 2, 3), (2, 1, 3), (2, 3, 1)), ((1, 2), (2, 3))
    )
    assert c.render() == "123 <(1,2) 213 <(2,3) 231"
    assert c.to_json_dict() == {
        "nodes": ["123", "213", "231"],
        "labels": [[1, 2], [2, 3]],
    }


def test_interval_elements_fixtures():
    assert interval_elements((1, 2, 3), (3, 2, 1)) == frozenset(all_perms(3))
    assert interval_elements((2, 1, 3), (2, 1, 3)) == frozenset({(2, 1, 3)})
    assert interval_elements((2, 1, 3), (1, 3, 2)) == frozenset()
    assert len(interval_elements(identity(4), longest_element(4))) == 24


def test_interval_elements_matches_order_s4():
    perms = list(all_perms(4))
    for u, w in [((1, 2, 3, 4), (4, 2, 1, 3)), ((2, 1, 3, 4), (4, 3, 2, 1))]:
        expected = {
            v for v in perms if bruhat_leq(u, v) and bruhat_leq(v, w)
        }
        assert interval_elements(u, w) == frozenset(expected)


def test_interval_covers_matches_oracles_s4():
    perms = list(all_perms(4))
    for u in perms:
        for w in perms:
            if not bruhat_leq_bruteforce(u, w):
                assert interval_covers(u, w) == {}
                continue
            inside = {
                v for v in perms
                if bruhat_leq_bruteforce(u, v) and bruhat_leq_bruteforce(v, w)
            }
            expected = {
                v: sorted(
                    (x, lab) for x in inside
                    for lab, y in covers_bruteforce(x) if y == v
                )
                for v in inside
            }
            got = interval_covers(u, w)
            assert {v: sorted(c) for v, c in got.items()} == expected


def assert_same_walk(u, w):
    got = interval_covers(u, w)
    assert got == interval_covers_by_down_walk(u, w)
    assert list(got) == sorted(got, key=lambda v: (length(v), v))


@pytest.mark.parametrize("n", [4, 5])
def test_interval_covers_matches_down_walk(n):
    perms = list(all_perms(n))
    for u in perms:
        for w in perms:
            assert_same_walk(u, w)


@pytest.mark.parametrize("key", ["123456", "214365"])
def test_interval_covers_matches_down_walk_rank6(key):
    assert_same_walk(parse_perm(key), longest_element(6))


class Box:
    """A fold value that a weak reference can watch."""

    __slots__ = ("__weakref__",)


def test_interval_fold_holds_two_lengths():
    # Bruhat order is graded, so once the fold builds length l nothing reads
    # a value of length l - 2 or less, and the fold holds none of them
    refs = []  # (length of v, weak reference to v's value)
    seen = []
    for v, value in bruhat._interval_fold(identity(5), longest_element(5), Box(),
                                          lambda v, below: Box()):
        refs.append((length(v), weakref.ref(value)))
        seen.append(v)
        assert all(ref() is None for l, ref in refs if l <= length(v) - 2)
    assert seen == list(interval_covers(identity(5), longest_element(5)))


def test_enumerate_chains_s3_fixture():
    chains = list(enumerate_chains((1, 2, 3), (3, 2, 1)))
    assert len(chains) == 4
    assert [c.render() for c in chains] == [
        "123 <(1,2) 213 <(1,3) 312 <(2,3) 321",
        "123 <(1,2) 213 <(2,3) 231 <(1,2) 321",
        "123 <(2,3) 132 <(1,2) 312 <(2,3) 321",
        "123 <(2,3) 132 <(1,3) 231 <(1,2) 321",
    ]


def test_enumerate_chains_counts_match_bruteforce_s4():
    for u, w in comparable_pairs(4):
        assert sum(1 for _ in enumerate_chains(u, w)) == chain_count_bruteforce(u, w)


def test_cover_cache_holds_up_covers_only():
    for v in all_perms(4):
        assert bruhat._covers(v) == tuple(up_covers(v))


def test_enumerate_chains_streams_and_compares_each_element_once(monkeypatch):
    # the first chain costs only the covers of its own nodes, not the interval's
    bruhat._covers.cache_clear()
    first = next(enumerate_chains(identity(6), longest_element(6)))
    assert bruhat._covers.cache_info().currsize == len(first)
    compared, leq = Counter(), bruhat.bruhat_leq
    monkeypatch.setattr(bruhat, "bruhat_leq", lambda v, w: compared.update([v]) or leq(v, w))
    u, w = parse_perm("12345"), parse_perm("34512")
    assert sum(1 for _ in enumerate_chains(u, w)) == chain_count_bruteforce(u, w)
    assert set(compared.values()) == {1}


def test_enumerate_chains_endpoints_and_incomparable():
    for c in enumerate_chains((2, 1, 3, 4), (4, 2, 1, 3)):
        assert c.start == (2, 1, 3, 4)
        assert c.end == (4, 2, 1, 3)
    assert list(enumerate_chains((2, 1, 3), (1, 3, 2))) == []
    only = list(enumerate_chains((3, 1, 2), (3, 1, 2)))
    assert len(only) == 1 and len(only[0]) == 0


def test_greedy_chain_fixture():
    g = greedy_chain((1, 2, 3), (3, 2, 1))
    assert g.render() == "123 <(2,3) 132 <(1,3) 231 <(1,2) 321"


def test_greedy_chain_is_greedy_everywhere_s4():
    for u, w in comparable_pairs(4):
        g = greedy_chain(u, w)
        assert g.start == u and g.end == w
        assert len(g) == length(w) - length(u)
        assert is_greedy(g, u, w)


def test_greedy_chain_matches_the_all_pairs_rule():
    # every comparable pair of S1-S5, then a seeded rank-6 sample, a third
    # of it from the identity, where no lower endpoint is compared
    pairs = [p for n in range(1, 6) for p in comparable_pairs(n)]
    rng, perms = random.Random(6), list(all_perms(6))
    sample = []
    while len(sample) < 300:
        u = identity(6) if len(sample) % 3 == 0 else rng.choice(perms)
        w = rng.choice(perms)
        if bruhat_leq(u, w):
            sample.append((u, w))
    assert len(pairs) == 1 + 3 + 19 + 213 + 3781
    for u, w in pairs + sample:
        assert greedy_chain(u, w) == greedy_chain_by_pairs(u, w), (u, w)


def test_is_greedy_matches_the_definition_on_every_chain_s4():
    below = {v: [] for v in all_perms(4)}  # v -> (x, label) for x covered by v
    for x in below:
        for lab, v in covers_bruteforce(x):
            below[v].append((x, lab))

    def widened(chain, u):
        return any(
            (x == a and y > b or y == b and x < a) and bruhat_leq_bruteforce(u, v2)
            for (a, b), v in zip(chain.labels, chain.nodes[1:])
            for v2, (x, y) in below[v]
        )

    seen = Counter()
    for u, w in comparable_pairs(4):
        for chain in enumerate_chains(u, w):
            verdict = is_greedy(chain, u, w)
            assert verdict == (not widened(chain, u)), chain.render()
            seen[u == identity(4), verdict] += 1
    assert len(seen) == 4, seen


def test_greedy_chain_rejects_incomparable():
    with pytest.raises(ValueError):
        greedy_chain((2, 1, 3), (1, 3, 2))
    with pytest.raises(ValueError):
        greedy_chain((3, 2, 1), (1, 2, 3))


def test_is_greedy_spots_widenable_labels():
    # 123 <(1,2) 213 <(1,3) 231... first step (1,2) widens to (1,3) here
    chains = {c.render(): c for c in enumerate_chains((1, 2, 3), (3, 2, 1))}
    u, w = (1, 2, 3), (3, 2, 1)
    assert is_greedy(chains["123 <(2,3) 132 <(1,3) 231 <(1,2) 321"], u, w)
    assert not is_greedy(chains["123 <(1,2) 213 <(2,3) 231 <(1,2) 321"], u, w)


def test_is_greedy_rejects_endpoint_mismatch():
    g = greedy_chain((1, 2, 3), (3, 2, 1))
    with pytest.raises(ValueError):
        is_greedy(g, (2, 1, 3), (3, 2, 1))
    with pytest.raises(ValueError):
        is_greedy(g, (1, 2, 3), (2, 3, 1))


def test_generating_multiset_counts_labels():
    g = greedy_chain((1, 2, 3), (3, 2, 1))
    assert generating_multiset(g) == Counter({(2, 3): 1, (1, 3): 1, (1, 2): 1})
    c = SaturatedChain(
        ((1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)),
        ((1, 2), (2, 3), (1, 2)),
    )
    assert generating_multiset(c) == Counter({(1, 2): 2, (2, 3): 1})


def test_multiset_dominates_fixtures():
    assert multiset_dominates([(1, 2), (2, 3)], [(1, 2), (2, 3)])
    assert multiset_dominates([(1, 2), (2, 3)], [(1, 3), (2, 3)])
    assert not multiset_dominates([(1, 3), (1, 3)], [(1, 3), (2, 3)])
    assert multiset_dominates([], [])
    # giving (1, 2) the open pair with the largest right end would strand (1, 4)
    assert multiset_dominates([(1, 2), (1, 4)], [(1, 4), (1, 2)])


def test_multiset_dominates_counts_counter_multiplicities():
    twice = Counter({(1, 2): 2})
    assert multiset_dominates(twice, Counter({(1, 2): 1, (1, 3): 1}))
    assert multiset_dominates(twice, [(1, 2), (1, 2)])
    assert not multiset_dominates(Counter({(1, 3): 2}), Counter({(1, 3): 1, (2, 3): 1}))
    with pytest.raises(ValueError):  # two labels against one
        multiset_dominates(twice, [(1, 2)])


def test_multiset_dominates_rejects_size_mismatch():
    with pytest.raises(ValueError):
        multiset_dominates([(1, 2)], [(1, 2), (2, 3)])


def test_multiset_dominates_matches_bruteforce_random():
    rng = random.Random(13)
    pairs = [(a, b) for a in range(1, 5) for b in range(a + 1, 6)]
    for _ in range(2000):
        k = rng.randrange(0, 7)
        labels = [rng.choice(pairs) for _ in range(k)]
        targets = [rng.choice(pairs) for _ in range(k)]
        assert multiset_dominates(labels, targets) == dominates_bruteforce(
            labels, targets
        )


def test_chain_multisets_sit_below_inversions_s4():
    # spot-check of the global dominance property; the acceptance suite
    # sweeps every chain in S_4
    w = (3, 2, 4, 1)
    inv = inversions(w)
    for c in enumerate_chains(identity(4), w):
        g = generating_multiset(c)
        assert sum(g.values()) == len(inv)
        assert multiset_dominates(list(g.elements()), list(inv))
