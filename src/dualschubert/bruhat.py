"""
Saturated chains, intervals, and label multisets in the strong Bruhat order.

A saturated chain from u to w is a sequence u = v_0 < v_1 < ... < v_r = w of
covers; step i carries the label (a, b) with v_i = v_{i-1} t_ab.  The labels
of a chain, taken with multiplicity, form its generating multiset.  Multisets
of position pairs are compared by interval dominance: G is dominated by H when
the pairs can be matched up so that each [a, b] from G sits inside its partner
[c, d] from H.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .perm import (
    Perm,
    PositionPair,
    apply_t,
    bruhat_leq,
    down_covers,
    format_perm,
    length,
    up_covers,
    validate,
)


@dataclass(frozen=True)
class SaturatedChain:
    """A cover-saturated chain, stored as its nodes plus step labels."""

    nodes: tuple[Perm, ...]
    labels: tuple[PositionPair, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.labels) + 1:
            raise ValueError("chain needs exactly one label per step")
        validate(self.nodes[0])
        for i, (a, b) in enumerate(self.labels):
            prev, cur = self.nodes[i], self.nodes[i + 1]
            if apply_t(prev, a, b) != cur or length(cur) != length(prev) + 1:
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


def trivial_chain(u: Perm) -> SaturatedChain:
    """The length-0 chain from u to itself."""
    return SaturatedChain((validate(u),), ())


def interval_covers(
    u: Perm, w: Perm
) -> dict[Perm, list[tuple[Perm, PositionPair]]]:
    """Each v in [u, w] with its labelled down-covers that stay in [u, w].

    One downward walk from w.  Every element of [u, w] is reached from w by
    covers that stay above u, and whatever the walk meets is below w, so
    each candidate is compared with u once.  Empty when u is not below w.

    >>> interval_covers((2, 1, 3), (2, 3, 1))
    {(2, 3, 1): [((2, 1, 3), (2, 3))], (2, 1, 3): []}
    """
    u, w = validate(u), validate(w)
    if not bruhat_leq(u, w):
        return {}
    above_u = {w: True}
    covers: dict[Perm, list[tuple[Perm, PositionPair]]] = {}
    queue = deque([w])
    while queue:
        v = queue.popleft()
        inside = []
        for v2, lab in down_covers(v):
            ok = above_u.get(v2)
            if ok is None:
                ok = above_u[v2] = bruhat_leq(u, v2)
                if ok:
                    queue.append(v2)
            if ok:
                inside.append((v2, lab))
        covers[v] = inside
    return covers


def interval_elements(u: Perm, w: Perm) -> frozenset[Perm]:
    """All v with u <= v <= w.  Empty when u is not below w.

    >>> sorted(interval_elements((2, 1, 3), (3, 2, 1)))
    [(2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    """
    return frozenset(interval_covers(u, w))


def _interval_fold(u: Perm, w: Perm, one, step, covers=None) -> dict:
    """Cover-split fold over [u, w]: split each chain at its last cover.

    Runs in increasing length order: table[u] = one, and for every other v
    in the interval, table[v] = step(v, [(table[v2], label) for each cover
    v2 < v in [u, w]]).  Callers check u <= w first, and pass `covers` when
    they already hold interval_covers(u, w).
    """
    # Private so that tracers wrapping the public API book each step's work
    # to the calling layer, not to this one.
    covers = interval_covers(u, w) if covers is None else covers
    table = {u: one}
    for v in sorted(covers, key=lambda p: (length(p), p)):
        if v != u:
            table[v] = step(v, [(table[v2], lab) for v2, lab in covers[v]])
    return table


def enumerate_chains(u: Perm, w: Perm) -> Iterator[SaturatedChain]:
    """All saturated chains from u to w, as a stream.

    Children are explored in lexicographic label order, so the stream is
    ordered by the label word.  An incomparable pair yields an empty stream.
    """
    u, w = validate(u), validate(w)
    if not bruhat_leq(u, w):
        return
    steps = length(w) - length(u)

    def walk(
        v: Perm, nodes: tuple[Perm, ...], labels: tuple[PositionPair, ...]
    ) -> Iterator[SaturatedChain]:
        if len(labels) == steps:
            if v == w:
                yield SaturatedChain(nodes, labels)
            return
        for v2, lab in up_covers(v):
            if bruhat_leq(v2, w):
                yield from walk(v2, nodes + (v2,), labels + (lab,))

    yield from walk(u, (u,), ())


def greedy_chain(u: Perm, w: Perm) -> SaturatedChain:
    """The greedy saturated chain from u to w, built from the top down.

    At each node the available cover labels are those whose lower endpoint
    stays above u; a label (a, b) is kept only if it cannot be widened to
    another available label (a, b') with b' > b or (a', b) with a' < a.
    Ties between unextendable labels go to the lexicographically least.

    >>> greedy_chain((1, 2, 3), (3, 2, 1)).render()
    '123 <(2,3) 132 <(1,3) 231 <(1,2) 321'
    """
    u, w = _require_below(u, w)
    rev_nodes = [w]
    rev_labels: list[PositionPair] = []
    v = w
    while v != u:
        avail = [lab for v2, lab in down_covers(v) if bruhat_leq(u, v2)]
        best: PositionPair | None = None
        for a, b in avail:
            extendable = any(
                (x == a and y > b) or (y == b and x < a) for x, y in avail
            )
            if not extendable and (best is None or (a, b) < best):
                best = (a, b)
        assert best is not None, "nonempty interval must offer a cover"
        v = apply_t(v, *best)
        rev_nodes.append(v)
        rev_labels.append(best)
    return SaturatedChain(tuple(reversed(rev_nodes)), tuple(reversed(rev_labels)))


def is_greedy(chain: SaturatedChain, u: Perm, w: Perm) -> bool:
    """Does the chain satisfy the greedy (unextendable-label) condition?

    Each step label (a, b) into v_i must admit no widening: no cover of v_i
    from below with label (a, b'), b' > b, or (a', b), a' < a, whose lower
    endpoint lies in the interval [u, w].

    >>> c = SaturatedChain(((1,2,3), (2,1,3), (2,3,1), (3,2,1)),
    ...                    ((1, 2), (2, 3), (1, 2)))
    >>> is_greedy(c, (1, 2, 3), (3, 2, 1))
    False
    """
    u, w = validate(u), validate(w)
    if chain.start != u or chain.end != w:
        raise ValueError("chain endpoints do not match the given interval")
    for i, (a, b) in enumerate(chain.labels):
        v = chain.nodes[i + 1]
        for v2, (x, y) in down_covers(v):
            wider = (x == a and y > b) or (y == b and x < a)
            if wider and bruhat_leq(u, v2) and bruhat_leq(v2, w):
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
    with an augmenting-path bipartite matching.

    >>> multiset_dominates([(2, 3), (1, 3), (1, 2)], [(1, 3), (1, 3), (1, 2)])
    True
    >>> multiset_dominates([(1, 2)], [(2, 3)])
    False
    """
    gs, hs = _as_pair_list(g), _as_pair_list(h)
    if len(gs) != len(hs):
        raise ValueError(f"multiset sizes differ: {len(gs)} vs {len(hs)}")
    k = len(gs)
    allowed = [
        [j for j, (c, d) in enumerate(hs) if c <= a and b <= d]
        for a, b in gs
    ]
    match_of_h: list[int | None] = [None] * k

    def augment(i: int, visited: set[int]) -> bool:
        for j in allowed[i]:
            if j in visited:
                continue
            visited.add(j)
            if match_of_h[j] is None or augment(match_of_h[j], visited):
                match_of_h[j] = i
                return True
        return False

    return all(augment(i, set()) for i in range(k))
