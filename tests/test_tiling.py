"""Staircase diagrams, corner-rectangle tilings, and vertex extraction."""

from __future__ import annotations

import pytest

from dualschubert import (
    RectTiling,
    StaircaseDiagram,
    build_diagram,
    enumerate_tilings,
    length,
    render_diagram,
    render_tiling,
    tiling_vertex,
    tiling_vertex_list,
    vertices_via_tilings,
)
from dualschubert.tiling import tilings_json_dict

from oracles import tilings_bruteforce


def test_diagram_validation():
    StaircaseDiagram(3, ((1, 0), (1,)))
    with pytest.raises(ValueError):
        StaircaseDiagram(1, ())
    with pytest.raises(ValueError):
        StaircaseDiagram(3, ((1, 0),))
    with pytest.raises(ValueError):
        StaircaseDiagram(3, ((1, 0, 0), (1,)))
    with pytest.raises(ValueError):
        StaircaseDiagram(3, ((1, 2), (0,)))


def test_diagram_labels():
    d = StaircaseDiagram(4, ((0, 0, 0), (0, 0), (0,)))
    assert d.label(1, 1) == (1, 4)
    assert d.label(1, 3) == (1, 2)
    assert d.label(3, 1) == (3, 4)
    with pytest.raises(ValueError):
        d.label(1, 4)
    with pytest.raises(ValueError):
        d.label(4, 1)


def test_build_diagram_fixtures():
    assert build_diagram((4, 2, 1, 3)).fill == ((1, 1, 1), (0, 1), (0,))
    assert build_diagram((2, 5, 3, 6, 4, 1)).fill == (
        (1, 0, 0, 0, 0),
        (1, 1, 0, 1),
        (1, 0, 0),
        (1, 1),
        (1,),
    )
    assert build_diagram((1, 2, 3)).fill == ((0, 0), (0,))


def test_build_diagram_ones_is_length():
    for w in [(4, 2, 1, 3), (2, 5, 3, 6, 4, 1), (3, 2, 1)]:
        assert build_diagram(w).ones() == length(w)


def test_rect_tiling_validation():
    RectTiling(3, ((1, 1, 1, 2), (2, 1, 2, 1)))
    # wrong anchor cell
    with pytest.raises(ValueError):
        RectTiling(3, ((1, 1, 1, 1), (2, 1, 2, 1)))
    # overlap: both rects claim cell (1, 1)
    with pytest.raises(ValueError):
        RectTiling(3, ((1, 1, 1, 2), (1, 1, 2, 1)))
    # wrong count
    with pytest.raises(ValueError):
        RectTiling(3, ((1, 1, 1, 2),))
    # gap: cell (1, 1) uncovered
    with pytest.raises(ValueError):
        RectTiling(3, ((1, 2, 1, 2), (2, 1, 2, 1)))
    with pytest.raises(ValueError, match="staircase needs rank >= 2, got 1"):
        RectTiling(1, ())
    # rectangle 1 anchored at its corner but with top below bottom
    with pytest.raises(ValueError, match="rectangle 1 is empty or out of range"):
        RectTiling(3, ((2, 1, 1, 2), (2, 1, 2, 1)))


@pytest.mark.parametrize("route", [tiling_vertex, render_tiling])
def test_tiling_routes_reject_a_rank_mismatch(route):
    d = build_diagram((4, 2, 1, 3))
    t = next(enumerate_tilings(3))
    with pytest.raises(ValueError, match="rank mismatch: diagram 4 vs tiling 3"):
        route(d, t)


def test_enumerate_tilings_counts_are_catalan():
    for n, count in [(2, 1), (3, 2), (4, 5), (5, 14), (6, 42)]:
        assert sum(1 for _ in enumerate_tilings(n)) == count


def test_enumerate_tilings_matches_bruteforce():
    for n in range(2, 7):
        ours = {t.rects for t in enumerate_tilings(n)}
        brute = {combo for combo in map(tuple, tilings_bruteforce(n))}
        assert ours == brute


def test_enumerate_tilings_rejects_tiny_rank():
    with pytest.raises(ValueError):
        list(enumerate_tilings(1))


def test_tiling_vertex_pinned_fixture():
    d = build_diagram((2, 5, 3, 6, 4, 1))
    t = RectTiling(
        6, ((1, 3, 1, 5), (2, 4, 2, 4), (2, 3, 3, 3), (1, 1, 4, 2), (5, 1, 5, 1))
    )
    assert tiling_vertex(d, t) == (0, 1, 0, 6, 1)


def test_tiling_vertex_list_order_and_values():
    pairs = tiling_vertex_list((4, 2, 1, 3))
    assert [v for _, v in pairs] == [
        (3, 1, 0),
        (3, 1, 0),
        (1, 3, 0),
        (2, 1, 1),
        (1, 2, 1),
    ]
    assert pairs[0][0].rects == ((1, 1, 1, 3), (2, 1, 2, 2), (3, 1, 3, 1))


def test_vertices_via_tilings_fixtures():
    assert vertices_via_tilings((4, 2, 1, 3)) == frozenset(
        {(3, 1, 0), (1, 3, 0), (1, 2, 1), (2, 1, 1)}
    )
    assert vertices_via_tilings((1, 2, 3)) == frozenset({(0, 0)})
    assert vertices_via_tilings((1,)) == frozenset({()})
    assert vertices_via_tilings((3, 2, 1)) == frozenset({(2, 1), (1, 2)})


def test_tilings_json_dict_shape():
    d = tilings_json_dict((4, 2, 1, 3))
    assert d["w"] == "4213"
    assert len(d["tilings"]) == 5
    first = d["tilings"][0]
    assert first["rects"] == [[1, 1, 1, 3], [2, 1, 2, 2], [3, 1, 3, 1]]
    assert first["vertex"] == [3, 1, 0]


def test_render_diagram_golden():
    assert render_diagram(build_diagram((4, 2, 1, 3))) == (
        "+---+---+---+\n"
        "| 1 | 1 | 1 |\n"
        "+---+---+---+\n"
        "| 0 | 1 |\n"
        "+---+---+\n"
        "| 0 |\n"
        "+---+"
    )


def test_render_tiling_golden():
    d = build_diagram((4, 2, 1, 3))
    t = RectTiling(4, ((1, 1, 1, 3), (2, 1, 2, 2), (3, 1, 3, 1)))
    assert render_tiling(d, t) == (
        "+---+---+---+\n"
        "| 1   1   1 |\n"
        "+---+---+---+ 3\n"
        "| 0   1 |\n"
        "+---+---+ 1\n"
        "| 0 |\n"
        "+---+ 0"
    )
