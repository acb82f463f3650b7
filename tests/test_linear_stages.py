"""The linear stages of ``verify`` against their per-entry forms.

Each oracle below is a plain per-entry loop: index arithmetic, ``abs``
and a sign ternary per entry, all entries checked before any walk,
and a nested ``root`` closure in the union-find. The stages must return
the same values, and raise the same errors with the same messages, on
every input.
"""

import sys
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realtoric import (
    ALL_SIGN_HOMS,
    CellComplex,
    InvalidComplex,
    build_affine_span_complex,
    build_real_complex,
    complex_to_dot,
    corpus_fans,
    evaluate,
    find_ample,
    hirzebruch_fan,
    homology,
    orientable_fast,
    polygon_from_divisor,
    random_fan,
    self_intersections,
)
from test_acceptance import CORPUS_MAX_BLOWUPS, CORPUS_SEED, CORPUS_SIZE
from test_homology import HAND_BUILT, closed_walk, ladder_fan

GLUING = sys.modules["realtoric.gluing"]
HOMOLOGY = sys.modules["realtoric.homology"]


def check_chain_complex_per_entry(c):
    nv, ne = c.num_vertices, len(c.edges)
    for j, (tail, head) in enumerate(c.edges):
        if not (0 <= tail < nv and 0 <= head < nv):
            raise InvalidComplex(
                f"edge {j + 1} is {(tail, head)}, with an endpoint "
                f"outside 0..{nv - 1}"
            )
    for j, word in enumerate(c.faces):
        for signed in word:
            if not 0 < abs(signed) <= ne:
                raise InvalidComplex(
                    f"face {j + 1} has entry {signed}, not a signed "
                    f"edge index in 1..{ne}"
                )
    for j, word in enumerate(c.faces):
        # Each step from entry k - 1 to entry k, the closing step last.
        for k in [*range(1, len(word)), 0][: len(word)]:
            signed, before = word[k], word[k - 1]
            start = c.edges[abs(signed) - 1][0 if signed > 0 else 1]
            end = c.edges[abs(before) - 1][1 if before > 0 else 0]
            if start != end:
                raise InvalidComplex(
                    f"face {j + 1} is no closed walk: entry {k + 1} starts at "
                    f"vertex {start}, entry {(k - 1) % len(word) + 1} ends at "
                    f"vertex {end}"
                )


def spanning_forest_size_per_entry(num_vertices, edges):
    parent = list(range(num_vertices))

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    merges = 0
    for tail, head in edges:
        a, b = root(tail), root(head)
        if a != b:
            parent[a] = b
            merges += 1
    return merges


def distinct_columns_per_entry(c):
    rows = [[0] * len(c.edges) for _ in c.faces]
    for row, word in zip(rows, c.faces):
        for signed in word:
            row[abs(signed) - 1] += 1 if signed > 0 else -1
    distinct = {max(col, tuple(-x for x in col)) for col in set(zip(*rows))}
    distinct.discard((0,) * len(c.faces))
    return tuple(zip(*sorted(distinct)))


def glue_per_entry(fan, anchors):
    # The copies grouped straight from the sign values, not from the
    # module's parity tables.
    def corner(a):
        return GLUING._grouping(lambda eps: evaluate(eps, a))

    def along(v, a):
        turn = (-v[1], v[0])
        return GLUING._grouping(lambda eps: (evaluate(eps, turn), evaluate(eps, a)))

    corners = [corner(a) for a in anchors]
    first_vertex = []
    num_vertices = 0
    for _, reps in corners:
        first_vertex.append(num_vertices)
        num_vertices += len(reps)
    edges = []
    words = [[] for _ in ALL_SIGN_HOMS]
    for i, v in enumerate(fan.rays):
        classes, reps = along(v, anchors[i])
        tails, heads = corners[i - 1][0], corners[i][0]
        base = len(edges) + 1
        for k in reps:
            edges.append((first_vertex[i - 1] + tails[k], first_vertex[i] + heads[k]))
        for word, c in zip(words, classes):
            word.append(base + c)
    return CellComplex(num_vertices, tuple(edges), tuple(map(tuple, words)))


def self_intersections_per_entry(fan):
    rays = fan.rays
    d = len(rays)
    out = []
    for i in range(d):
        v = rays[i]
        p, q = rays[i - 1], rays[(i + 1) % d]
        w = (p[0] + q[0], p[1] + q[1])
        if w[0] * v[1] - w[1] * v[0] != 0:
            raise RuntimeError(f"neighbor sum {w} not parallel to ray {v}")
        if v[0] != 0:
            c, r = divmod(w[0], v[0])
        else:
            c, r = divmod(w[1], v[1])
        if r != 0 or w != (c * v[0], c * v[1]):
            raise RuntimeError(f"neighbor sum {w} not a multiple of ray {v}")
        out.append(-c)
    return tuple(out)


@cache
def stage_fans():
    # The acceptance corpus, random_fan(s, s % 60) for s < 500 and F_0 ...
    # F_40, built on first use: a module that imports the oracles above
    # does not wait about a second for them.
    return (
        corpus_fans(CORPUS_SEED, CORPUS_SIZE, CORPUS_MAX_BLOWUPS)
        + [random_fan(s, s % 60) for s in range(500)]
        + [hirzebruch_fan(a) for a in range(41)]
    )


def _outcome(fn, *args):
    # The value, or the type and message of the error raised.
    try:
        return fn(*args)
    except InvalidComplex as exc:
        return type(exc), str(exc)


def _assert_stages_match(c):
    assert _outcome(c.check_chain_complex) == _outcome(check_chain_complex_per_entry, c)
    if _outcome(check_chain_complex_per_entry, c) is None:
        assert HOMOLOGY._spanning_forest_size(
            c.num_vertices, c.edges
        ) == spanning_forest_size_per_entry(c.num_vertices, c.edges)
        assert HOMOLOGY._distinct_columns(c) == distinct_columns_per_entry(c)


def test_real_complexes_and_fans():
    for fan in stage_fans():
        c = build_real_complex(fan)
        assert c == glue_per_entry(fan, ((0, 0),) * fan.d), fan
        assert self_intersections(fan) == self_intersections_per_entry(fan), fan
        _assert_stages_match(c)


def test_affine_span_complexes():
    for fan in stage_fans()[:200] + stage_fans()[700:]:
        polygon = polygon_from_divisor(fan, find_ample(fan))
        c = build_affine_span_complex(fan, polygon)
        assert c == glue_per_entry(fan, polygon.vertices), fan
        _assert_stages_match(c)


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_surfaces(name):
    _assert_stages_match(HAND_BUILT[name][0])


BAD_COMPLEXES = {
    "endpoint out of range": CellComplex(2, ((0, 1), (1, 2)), ((1, 2),)),
    "face entry 0": CellComplex(2, ((0, 1), (1, 0)), ((1, 2), (0, 1))),
    "face entry past the edges": CellComplex(2, ((0, 1), (1, 0)), ((1, 2), (-3,))),
    "nonzero boundary on face 2": CellComplex(2, ((0, 1), (1, 0)), ((1, 2), (1, 1))),
    # Every entry is checked before any walk: face 2's entry is reported.
    "bad entry after a nonzero boundary": CellComplex(
        2, ((0, 1), (1, 0)), ((1,), (5,))
    ),
    # Each face's boundary is zero, but no word is a walk.
    "zero boundary on faces 1 and 2": CellComplex(
        3, ((0, 1), (1, 0), (2, 2)), ((2, 1, 3), (1, 3, 2))
    ),
    "open path of one entry": CellComplex(2, ((0, 1), (1, 1)), ((2,), (1,))),
    "open path of three entries": CellComplex(
        2, ((0, 1), (1, 0), (0, 1)), ((1, 2, 3),)
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_COMPLEXES))
def test_bad_complexes_raise_the_same_error(name):
    c = BAD_COMPLEXES[name]
    with pytest.raises(InvalidComplex) as expected:
        check_chain_complex_per_entry(c)
    with pytest.raises(InvalidComplex) as got:
        c.check_chain_complex()
    assert str(got.value) == str(expected.value)


@st.composite
def loose_complexes(draw):
    """Complexes on up to 4 vertices and 5 edges whose indices may be out
    of range: endpoints from -1 to the vertex count, face entries from
    -(edges + 1) to edges + 1, zero included. A face word is random, of 0
    or 1 entries, or a closed walk as it is, rotated, twice round, read
    backwards, in reversed order, shuffled, or without its last step; the
    reversed and shuffled ones keep a zero boundary but are seldom walks,
    and the open ones are walks but seldom closed. Random words and walks
    may repeat an entry. Half the complexes have walks alone, so that the
    closed-walk test decides more of them."""
    nv = draw(st.integers(1, 4))
    ne = draw(st.integers(1, 5))
    vertex = st.integers(-1, nv) if draw(st.booleans()) else st.integers(0, nv - 1)
    edges = tuple((draw(vertex), draw(vertex)) for _ in range(ne))
    entry = st.integers(-ne - 1, ne + 1)
    faces = []
    kinds = ["walk"] if draw(st.booleans()) else ["random", "short", "walk"]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind == "short":
            word = draw(st.lists(entry, max_size=1))
        elif kind == "random":
            word = draw(st.lists(entry, max_size=5))
            if word and draw(st.booleans()):
                word.insert(draw(st.integers(0, len(word))), draw(st.sampled_from(word)))
            if draw(st.booleans()):
                word += [-x for x in reversed(word)]
        else:
            word = closed_walk(draw, edges)
            order = draw(st.sampled_from(
                ["as is", "rotated", "twice", "backwards", "reversed", "shuffled", "open"]
            ))
            if order == "rotated":
                k = draw(st.integers(0, len(word) - 1))
                word = word[k:] + word[:k]
            elif order == "twice":
                word += word
            elif order == "backwards":
                word = [-x for x in reversed(word)]
            elif order == "reversed":
                word.reverse()
            elif order == "shuffled":
                word = draw(st.permutations(word))
            elif order == "open":
                word.pop()
        faces.append(tuple(word))
    return CellComplex(nv, edges, tuple(faces))


@given(c=loose_complexes())
@settings(max_examples=600, deadline=None)
def test_loose_complexes(c):
    _assert_stages_match(c)


def test_real_complexes_are_accepted_as_closed_walks(monkeypatch):
    # The C-level lookups accept them all: the pass that checks one entry
    # at a time, the one reader of _names, never runs.
    def refused(table, x):
        raise AssertionError(f"checked one entry at a time: {x}")

    monkeypatch.setattr(GLUING, "_names", refused)
    fans = corpus_fans(CORPUS_SEED, CORPUS_SIZE, CORPUS_MAX_BLOWUPS)
    fans += [random_fan(d, d - random_fan(d, 0).d) for d in (64, 128, 192)]
    fans += [ladder_fan(d) for d in (64, 128, 192, 1004)]
    assert {fan.d for fan in fans} >= {64, 128, 192, 1004}
    for fan in fans:
        build_real_complex(fan).check_chain_complex()


def test_zero_boundary_that_is_no_walk_is_refused():
    # Edges 1 and 2 run 0 -> 1 -> 0 and edge 3 is a loop at 2: every
    # vertex's count is zero, but the word jumps from vertex 0 to vertex 2,
    # so the word attaches no 2-cell.
    c = CellComplex(3, ((0, 1), (1, 0), (2, 2)), ((1, 2, 3),))
    message = (
        "face 1 is no closed walk: entry 3 starts at vertex 2, "
        "entry 2 ends at vertex 0"
    )
    checks = (
        c.check_chain_complex,
        lambda: homology(c),
        lambda: complex_to_dot(c),
        c.boundary_matrix_1,
        c.boundary_matrix_2,
    )
    for check in checks:
        with pytest.raises(InvalidComplex) as refused:
            check()
        assert str(refused.value) == message


# Each container kind, at each level of a plain complex: the edges, edge 1,
# the faces and face 1. The dict iterates as the cells do, so an edge
# {0: 0, 1: 1} reads as (0, 1).
CONTAINERS = {
    "tuple": tuple,
    "list": list,
    "set": set,
    "frozenset": frozenset,
    "dict": lambda cells: dict(zip(cells, cells)),
    "generator": lambda cells: (cell for cell in cells),
    "str": lambda cells: "".join(map(str, cells)),
}


def _probe(level, kind):
    make = CONTAINERS[kind]
    edges, faces = ((0, 1), (1, 0)), ((1, 2),)
    if level == "edges":
        edges = make(edges)
    elif level == "edge":
        edges = (make(edges[0]), edges[1])
    elif level == "faces":
        faces = make(faces)
    else:
        faces = (make(faces[0]),)
    return CellComplex(2, edges, faces)


@pytest.mark.parametrize("kind", CONTAINERS)
@pytest.mark.parametrize("level", ["edges", "edge", "faces", "word"])
def test_the_fast_path_gives_the_per_cell_verdict(monkeypatch, level, kind):
    # A set, a mapping or an iterator of cells, or an edge that is one,
    # used to pass the C-level lookups whenever its walks closed: its
    # iteration order then decided the complex, where the pass that checks
    # one cell at a time refuses it as no sequence. With those lookups
    # refused, that pass alone decides; the plain complex shows it runs.
    fast = _outcome(_probe(level, kind).check_chain_complex)
    cells, names = [], GLUING._names
    monkeypatch.setattr(GLUING, "_names", lambda t, x: cells.append(x) or names(t, x))
    monkeypatch.setattr(GLUING, "itemgetter", None)
    assert _probe("edges", "tuple").check_chain_complex() is None and cells
    assert fast == _outcome(_probe(level, kind).check_chain_complex)


def orientable_by_self_intersections(fan):
    return all(a % 2 == 0 for a in self_intersections(fan))


def test_orientable_fast_reads_the_self_intersection_parities():
    fans = [hirzebruch_fan(a) for a in range(61)]
    fans += corpus_fans(CORPUS_SEED, CORPUS_SIZE, CORPUS_MAX_BLOWUPS)
    fans += [random_fan(s, n) for s in range(500) for n in (0, 1, 2, 5, 13)]
    for fan in fans:
        assert orientable_fast(fan) == orientable_by_self_intersections(fan), fan
    assert {orientable_fast(fan) for fan in fans} == {True, False}
