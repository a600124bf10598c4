"""
Saturated chains, intervals, and label multisets in the strong Bruhat order.

A saturated chain from u to w is a sequence u = v_0 < v_1 < ... < v_r = w of
covers; step i carries the label (a, b) with v_i = v_{i-1} t_ab.  The labels
of a chain, taken with multiplicity, form its generating multiset.  Multisets
of position pairs are compared by interval dominance: G is dominated by H when
the pairs can be matched up so that each [a, b] from G sits inside its partner
[c, d] from H.

Each process computes a permutation's up-covers once, when a walk first
meets it, and keeps them (`_covers`); nothing is built per rank up front.
An interval is walked upward from its bottom: every element of [u, w] ends
a saturated chain from u inside [u, w], so the covers that stay below w
reach exactly [u, w], and when w is the longest element, which is above
every permutation, no comparison is made at all.  The walk notes each cover
it climbs as a down-cover of its top.  The greedy chain reads down-covers
off the same table through v -> w0 v, which reverses Bruhat order and keeps
labels: the down-covers of v are w0 x for the up-covers x of w0 v.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator

from .perm import (
    Perm,
    PositionPair,
    _complement,
    _Value,
    apply_t,
    bruhat_leq,
    format_perm,
    longest_element,
    up_covers,
    validate,
)


class SaturatedChain(_Value):
    """A cover-saturated chain, stored as its nodes plus step labels."""

    __slots__ = ("nodes", "labels")

    def __init__(self, nodes: tuple[Perm, ...], labels: tuple[PositionPair, ...]) -> None:
        super().__init__(nodes, labels)
        if len(nodes) != len(labels) + 1:
            raise ValueError("chain needs exactly one label per step")
        validate(nodes[0])
        for i, (a, b) in enumerate(labels):
            prev, cur = nodes[i], nodes[i + 1]  # the cover test of `up_covers`
            if apply_t(prev, a, b) != cur or not prev[a - 1] < prev[b - 1] or any(
                    prev[a - 1] < m < prev[b - 1] for m in prev[a:b - 1]):
                raise ValueError(
                    f"step {i + 1} is not the cover"
                    f" {format_perm(prev)} t_({a},{b})"
                )

    @property
    def start(self) -> Perm:
        return self.nodes[0]

    @property
    def end(self) -> Perm:
        return self.nodes[-1]

    def __len__(self) -> int:
        """Number of cover steps."""
        return len(self.labels)

    def render(self) -> str:
        """One-line text form: ``123 <(1,2) 213 <(2,3) 231``."""
        parts = [format_perm(self.nodes[0])]
        for (a, b), node in zip(self.labels, self.nodes[1:]):
            parts.append(f"<({a},{b})")
            parts.append(format_perm(node))
        return " ".join(parts)

    def to_json_dict(self) -> dict:
        return {
            "nodes": [format_perm(v) for v in self.nodes],
            "labels": [[a, b] for a, b in self.labels],
        }


def _require_below(u: Perm, w: Perm) -> tuple[Perm, Perm]:
    """The validated pair; ValueError unless u <= w in Bruhat order."""
    u, w = validate(u), validate(w)
    if not bruhat_leq(u, w):
        raise ValueError(
            f"{format_perm(u)} is not below {format_perm(w)} in Bruhat order"
        )
    return u, w


@lru_cache(maxsize=1 << 16)
def _covers(v: Perm) -> tuple:
    """v's `up_covers`, computed once per process.

    One entry per permutation met; all of S_8 fits, about 65 MiB of it
    (tracemalloc, Python 3.11).  A long-lived process that is done with a
    rank can free them with `_covers.cache_clear()`.
    """
    return tuple(up_covers(v))


def interval_covers(
    u: Perm, w: Perm
) -> dict[Perm, list[tuple[Perm, PositionPair]]]:
    """Each v in [u, w], in (length, v) order, with its labelled down-covers
    that stay in [u, w], in label order.  Empty when u is not below w.

    One upward walk from u, a level per length.  Every v in [u, w] ends a
    saturated chain from u whose nodes all lie in [u, w] (Bruhat order is
    graded), so climbing by covers that stay below w reaches all of [u, w],
    and nothing else: whatever it reaches is above u.  Each element met is
    compared with w once, and not at all when w is the longest element,
    which is above every permutation.  A down-cover x of v is in [u, w]
    exactly when the walk kept x, and each level is walked sorted: the
    down-covers v t_ab of v sort by a, then by v(b), which grows with b,
    so each list is in label order.

    >>> interval_covers((2, 1, 3), (2, 3, 1))
    {(2, 1, 3): [], (2, 3, 1): [((2, 1, 3), (2, 3))]}
    """
    u, w = validate(u), validate(w)
    if not bruhat_leq(u, w):
        return {}
    top = w == longest_element(len(w))
    covers, level = {u: []}, [u]
    while level:
        met, outside = {}, set()  # the next level's v, with their down-covers
        for x in level:
            for v, lab in _covers(x):
                if v in met:
                    met[v].append((x, lab))
                elif v not in outside:
                    if top or bruhat_leq(v, w):
                        met[v] = [(x, lab)]
                    else:
                        outside.add(v)
        level = sorted(met)
        covers.update((v, met[v]) for v in level)
    return covers


def interval_elements(u: Perm, w: Perm) -> frozenset[Perm]:
    """All v with u <= v <= w.  Empty when u is not below w.

    >>> sorted(interval_elements((2, 1, 3), (3, 2, 1)))
    [(2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    return frozenset(interval_covers(u, w))


def _interval_fold(u: Perm, w: Perm, one, step, covers=None) -> Iterator[tuple]:
    """Cover-split fold over [u, w]: split each chain at its last cover.

    Yields (v, value) in the covers' (length, v) order: u's value is one, and
    every other v's is step(v, [(value of v2, label) for each cover v2 < v in
    [u, w]]).  Callers check u <= w first, and pass `covers` when they
    already hold interval_covers(u, w), or any down-closed part of it.

    It holds the values of two lengths only: the one it is building and the
    one below.  That is exact because Bruhat order is graded: every
    down-cover of v has length length(v) - 1.  So v starts a new length
    exactly when its first down-cover was built in the current one, and from
    then on nothing reads the length below that.  A caller keeps what it reads.
    """
    # Private so that tracers wrapping the public API book each step's work
    # to the calling layer, not to this one.
    covers = interval_covers(u, w) if covers is None else covers
    below_built, built = {}, {u: one}  # values of the length below, and of this one
    del one  # held in `built` alone, so that it is freed two lengths on
    yield u, built[u]
    for v, below in covers.items():
        if v == u:
            continue
        if below[0][0] in built:  # v is the first of the next length
            below_built, built = built, {}
        built[v] = value = step(v, [(below_built[x], lab) for x, lab in below])
        yield v, value


def enumerate_chains(u: Perm, w: Perm) -> Iterator[SaturatedChain]:
    """All saturated chains from u to w, as a stream.

    Children are explored in lexicographic label order, so the stream is
    ordered by the label word.  A walk climbs only by covers that stay below
    w, so within [u, w]; every element of [u, w] below w has such a cover
    (Bruhat order is graded), so every walk ends at w.  Each element met is
    compared with w once, when first met, so the first chain comes after a
    single climb.  An incomparable pair yields an empty stream.
    """
    u, w = validate(u), validate(w)
    below: dict[Perm, bool] = {}  # bruhat_leq(v, w) for each v met so far

    def walk(
        v: Perm, nodes: tuple[Perm, ...], labels: tuple[PositionPair, ...]
    ) -> Iterator[SaturatedChain]:
        if v == w:
            yield SaturatedChain(nodes, labels)
            return
        for v2, lab in _covers(v):
            if (inside := below.get(v2)) is None:
                inside = below[v2] = bruhat_leq(v2, w)
            if inside:
                yield from walk(v2, nodes + (v2,), labels + (lab,))

    if bruhat_leq(u, w):
        yield from walk(u, (u,), ())


def greedy_chain(u: Perm, w: Perm) -> SaturatedChain:
    """The greedy saturated chain from u to w, built from the top down.

    At each node the available cover labels are those whose lower endpoint
    stays above u; a label (a, b) is kept only if it cannot be widened to
    another available label (a, b') with b' > b or (a', b) with a' < a.
    Ties between unextendable labels go to the lexicographically least.
    So (a, b) is kept exactly when b is the largest b' of an available
    (a, b') and a the smallest a' of an available (a', b), which one pass
    over the labels finds, with no comparison of label pairs.  Every
    permutation is below w0 = w0 e, so from the identity every label is
    available and no lower endpoint is compared.

    >>> greedy_chain((1, 2, 3), (3, 2, 1)).render()
    '123 <(2,3) 132 <(1,3) 231 <(1,2) 321'
    """
    u, w = _require_below(u, w)
    rev_nodes = [w]
    rev_labels: list[PositionPair] = []
    v, top = w, _complement(u)
    from_identity = top == longest_element(len(u))
    while v != u:  # down-covers w0 c of v, c above w0 v; u <= w0 c iff c <= w0 u
        avail = [lab for c, lab in _covers(_complement(v))
                 if from_identity or bruhat_leq(c, top)]
        # in (a, b) order, the last b of each a is its largest, the first a
        # of each b its least, and the first label kept the least
        widest, lowest = dict(avail), {b: a for a, b in reversed(avail)}
        best = next((a, b) for a, b in avail if widest[a] == b and lowest[b] == a)
        v = apply_t(v, *best)
        rev_nodes.append(v)
        rev_labels.append(best)
    return SaturatedChain(tuple(reversed(rev_nodes)), tuple(reversed(rev_labels)))


def is_greedy(chain: SaturatedChain, u: Perm, w: Perm) -> bool:
    """Does the chain satisfy the greedy (unextendable-label) condition?

    Each step label (a, b) into v_i must admit no widening: no cover of v_i
    from below with label (a, b'), b' > b, or (a', b), a' < a, whose lower
    endpoint lies in the interval [u, w].  That endpoint is below v_i, which
    is at most w, so only u <= v2 needs a comparison, and none when u is the
    identity.

    >>> c = SaturatedChain(((1,2,3), (2,1,3), (2,3,1), (3,2,1)),
    ...                    ((1, 2), (2, 3), (1, 2)))
    >>> is_greedy(c, (1, 2, 3), (3, 2, 1))
    False
    """
    u, w = validate(u), validate(w)
    if chain.start != u or chain.end != w:
        raise ValueError("chain endpoints do not match the given interval")
    top = _complement(u)
    from_identity = top == longest_element(len(u))
    for i, (a, b) in enumerate(chain.labels):
        for c, (x, y) in _covers(_complement(chain.nodes[i + 1])):
            wider = (x == a and y > b) or (y == b and x < a)
            if wider and (from_identity or bruhat_leq(c, top)):  # as in greedy_chain
                return False
    return True


def generating_multiset(chain: SaturatedChain) -> Counter[PositionPair]:
    """The chain's labels with multiplicity.

    >>> c = SaturatedChain(((2,1,3), (3,1,2), (3,2,1)), ((1, 3), (2, 3)))
    >>> sorted(generating_multiset(c).elements())
    [(1, 3), (2, 3)]
    """
    return Counter(chain.labels)


def _as_pair_list(m: Iterable[PositionPair] | Counter) -> list[PositionPair]:
    if isinstance(m, Counter):
        return sorted(m.elements())
    return sorted(tuple(p) for p in m)


def multiset_dominates(
    g: Iterable[PositionPair] | Counter, h: Iterable[PositionPair] | Counter
) -> bool:
    """Interval-dominance comparison of equal-size label multisets.

    True when there is a perfect matching pairing each (a, b) in g with a
    distinct (c, d) in h such that [a, b] is contained in [c, d].  Decided
    by one sweep over g by left end: every (c, d) of h with c <= a is open,
    and (a, b) takes the open pair with the least d >= b.  This is exact:
    if a perfect matching gives (a, b) the pair (c*, d*) and the sweep's
    pick (c, d) to a later (a', b'), swapping the two is still a matching,
    since c* <= a <= a' and b' <= d <= d*.

    >>> multiset_dominates([(2, 3), (1, 3), (1, 2)], [(1, 3), (1, 3), (1, 2)])
    True
    >>> multiset_dominates([(1, 2)], [(2, 3)])
    False
    """
    gs, hs = _as_pair_list(g), _as_pair_list(h)
    if len(gs) != len(hs):
        raise ValueError(f"multiset sizes differ: {len(gs)} vs {len(hs)}")
    closed, ends = hs[::-1], []  # h's pairs not yet open; open right ends, sorted
    for a, b in gs:
        while closed and closed[-1][0] <= a:
            insort(ends, closed.pop()[1])
        i = bisect_left(ends, b)
        if i == len(ends):
            return False
        del ends[i]
    return True
