"""Named mutants: each breaks one function or table, and some check must
catch it.

A mutant that survives points at a check that cannot fail. Each mutant
wraps one function or table where its caller looks it up, or, where the
fault lies inside one function, replaces it with a copy compiled from its
source with one expression changed. ``verify`` reads its helpers from the
module ``realtoric.homology``, which is reached
through ``sys.modules``: the package attribute of that name is the function
``homology`` (``from .homology import *`` rebinds it), so a patch through
the package would change nothing. ``realtoric.gluing`` and
``realtoric.moment`` are reached the same way, for uniformity, and a
method is wrapped on its class. Where ``realtoric.cli`` binds the same
function itself, the mutant replaces it there too. The package keeps a
few module-level memos, such as the samples' sign verdicts and magnitudes
per ``(seed, samples)`` and the invariant factors per Smith-form input:
``_apply`` empties every one of them, so that a warm entry cannot hide a
mutant, and so does every teardown, so that an entry made under a mutant
cannot reach a later test. An ``ast`` guard keeps ``MEMOS`` complete.
"""

import __future__
import ast
import inspect
import json
import math
import sys
import textwrap
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import Phase, find, settings

import realtoric.cli as cli
import test_acceptance
import test_fan
import test_intmat
import test_linear_stages
from realtoric import (
    CellComplex,
    InvalidComplex,
    NotExceptional,
    SurfaceType,
    blow_up,
    fan_to_json,
    hirzebruch_fan,
    homology,
    projective_plane_fan,
    random_fan,
    run_moment_checks,
    verify,
)
import test_homology
from test_homology import HAND_BUILT, full_smith_profile
import test_moment
from test_moment import REPORT_DIGEST, digest_reports, report_digest

FAN = sys.modules["realtoric.fan"]
GLUING = sys.modules["realtoric.gluing"]
HOMOLOGY = sys.modules["realtoric.homology"]
INTMAT = sys.modules["realtoric.intmat"]
MOMENT = sys.modules["realtoric.moment"]
SRC = Path(__file__).resolve().parents[1] / "src"

# Every module-level memo in the package, as (module, name).
MEMOS = [
    (cli, "_build_parser"),
    (GLUING, "_signed_indices"),
    (HOMOLOGY, "_factors"),
    (MOMENT, "_draws"),
]

P2 = projective_plane_fan()
FANS = [
    P2,
    hirzebruch_fan(0),
    hirzebruch_fan(1),
    hirzebruch_fan(4),
    blow_up(P2, 0),
    random_fan(3, 5),
]


def _swap_edge_classes(build):
    # Face 0 crosses ray 0 on the other of the ray's two parallel edges
    # (1-based indices 1 and 2). Both run between the same two vertices,
    # so the boundary of every face is still zero.
    def mutant(fan):
        c = build(fan)
        word = (3 - c.faces[0][0],) + c.faces[0][1:]
        return c._replace(faces=(word,) + c.faces[1:])

    return mutant


def _anchor_only(table):
    # Each ray's copies grouped by the anchor alone, as at a corner: the
    # ray's quarter-turn no longer splits them, so under the parallel rule
    # all four copies share one edge per ray. Entry 4 * ray + anchor of the
    # edge table becomes the corner table's entry for the anchor.
    return [GLUING._CORNER_CLASSES[k & 3] for k in range(len(table))]


def _without_closing_step(fn):
    # The walk test compares each entry's start with the end of the entry
    # before it, but never the first entry's start with the last one's end:
    # an open path passes. Each word is checked followed by its way back,
    # itself reversed with its signs flipped, which closes any path and
    # breaks first where the word breaks.
    def mutant(self):
        back = [w + tuple(-s for s in reversed(w)) for w in self.faces]
        return fn(self._replace(faces=tuple(back)))

    return mutant


def _zero_boundary_accepted(fn):
    # The older rule: a word that is no closed walk still passes when its
    # boundary, counted one entry at a time, is zero.
    def mutant(self):
        try:
            fn(self)
        except InvalidComplex as exc:
            if "no closed walk" not in str(exc):
                raise
            for j, word in enumerate(self.faces, 1):
                count = Counter()
                for s in word:
                    tail, head = self.edges[abs(s) - 1][:: 1 if s > 0 else -1]
                    count[head] += 1
                    count[tail] -= 1
                if any(count.values()):
                    raise InvalidComplex(
                        f"boundary of a boundary is not zero on face {j}"
                    )

    return mutant


def _negated(fn):
    return lambda fan: not fn(fan)


def _parity_shift_one(fn):
    # Each ray's parity compared with the next ray's, not with the one two
    # places on. Adjacent rays of a valid fan never agree mod 2, their
    # determinant being 1, so no fan reads as orientable.
    def mutant(fan):
        p = [(x & 1) << 1 | (y & 1) for x, y in fan.rays]
        return p[1:] + p[:1] == p

    return mutant


def _genus_offset(delta):
    def wrap(fn):
        def mutant(fan):
            t = fn(fan)
            return SurfaceType(orientable=t.orientable, genus=t.genus + delta)

        return mutant

    return wrap


def _every_edge_a_merge(fn):
    # rank ∂1 as if no edge closed a cycle: b0 = V - E goes negative.
    return lambda num_vertices, edges: len(edges)


def _loop_edge_a_merge(fn):
    # A loop edge counted as if it joined two components. No complex the
    # builders make has a loop edge.
    return lambda num_vertices, edges: fn(num_vertices, edges) + sum(
        tail == head for tail, head in edges
    )


def _unit_grid_width(fn):
    # The grid's log window is no longer scaled by the polygon's width: the
    # same as ``width = 1`` in ``_grid_images``, its only caller.
    return lambda coords, width: fn(coords, 1)


def _adjacent_pairs_only(fn):
    # The closest pair looked for among neighbours in x order alone, each
    # pair measured by the sweep itself.
    def mutant(points):
        pts = sorted(points)
        return min((fn(pair) for pair in zip(pts, pts[1:])), default=math.inf)

    return mutant


def _x_sign_flipped(fn):
    # A sample's sign profile read off the wrong sign of its x coordinate.
    return lambda x: fn((-x[0], x[1]))


def _axes_swapped(fn):
    # Each sample image comes as (y, x).
    return lambda *args: fn(*args)[::-1]


def _last_pass_skipped(fn):
    # The grid's sums leave out their last vertex, or their last four where
    # they take a multiple of 4, from every image. A sum of four vertices
    # alone keeps them, so that no total is 0.0 and no image 0/0.
    def mutant(pairs):
        short = pairs[: -1 if len(pairs) % 4 else -4]
        return fn(short or pairs)

    return mutant


def _one_ulp_up(fn):
    # Each sample image's x coordinate one ulp up, far inside any
    # containment tolerance.
    def mutant(*args):
        x, y = fn(*args)
        return math.nextafter(x, math.inf), y

    return mutant


def _rewritten(old, new):
    # A mutant inside one function or method: the function compiled again
    # from its source with ``old``, which occurs there once, replaced by
    # ``new``, under the globals of the original.
    def wrap(fn):
        source = textwrap.dedent(inspect.getsource(fn))
        assert source.count(old) == 1, old
        code = compile(
            source.replace(old, new),
            inspect.getsourcefile(fn),
            "exec",
            flags=__future__.annotations.compiler_flag,
            dont_inherit=True,
        )
        scope = {}
        exec(code, fn.__globals__, scope)
        return scope[fn.__name__]

    return wrap


def _rotated(table):
    # random_fan's first draw picks the next base of the table.
    return table[1:] + table[:1]


def _one_size_up(fn):
    # The signed-index table of a complex with one edge more: the entries
    # E + 1 and -(E + 1) read as edges.
    def mutant(num_edges):
        return fn(num_edges + 1)

    mutant.cache_clear = fn.cache_clear
    return mutant


def _last_column_dropped(fn):
    return lambda c: tuple(row[:-1] for row in fn(c))


def _keyed_by_shape(fn):
    # The factor memo keyed on the matrix's shape alone: the first matrix
    # of each shape answers for every later one.
    memo = {}

    def mutant(m):
        shape = (len(m), len(m[0]) if m else 0)
        if shape not in memo:
            memo[shape] = fn(m)
        return memo[shape]

    mutant.cache_clear = memo.clear
    return mutant


# name -> (module or class, function or table in it, wrapper that breaks it)
MUTANTS = {
    "edge-class-swap": (HOMOLOGY, "build_real_complex", _swap_edge_classes),
    "edge-key-without-ray": (GLUING, "_EDGE_CLASSES", _anchor_only),
    "random-fan-bases-rotated": (FAN, "_BASES", _rotated),
    "signed-index-table-one-size-up": (GLUING, "_signed_indices", _one_size_up),
    # The -1 test reads ray i - 1 twice: 2 v[i-1] == v[i] holds for no ray
    # of a valid fan, so no ray can be contracted.
    "blow-down-left-neighbor-twice": (
        FAN,
        "blow_down",
        _rewritten("rays[i - 1], rays[(i + 1) % d]", "rays[i - 1], rays[i - 1]"),
    ),
    # The fast path takes any field its lookups can read: a set or a
    # mapping of edges or faces, or an iterator of them.
    "container-guard-removed": (
        CellComplex,
        "check_chain_complex",
        _rewritten(
            "arrays = type(edges) in (tuple, list) and type(faces) in (tuple, list)",
            "arrays = True",
        ),
    ),
    # The fast path takes any iterable edge of two entries, as a set.
    "edge-pattern-any-iterable": (
        CellComplex, "check_chain_complex", _rewritten("match edge:", "match tuple(edge):")
    ),
    "walk-test-without-closing-step": (
        CellComplex, "check_chain_complex", _without_closing_step
    ),
    "zero-boundary-accepted": (
        CellComplex, "check_chain_complex", _zero_boundary_accepted
    ),
    "orientable-fast-negated": (HOMOLOGY, "orientable_fast", _negated),
    "orientable-parity-shift-one": (HOMOLOGY, "orientable_fast", _parity_shift_one),
    "predict-theorem-genus-plus-one": (HOMOLOGY, "predict_theorem", _genus_offset(1)),
    "predict-theorem-genus-minus-one": (HOMOLOGY, "predict_theorem", _genus_offset(-1)),
    "spanning-forest-every-edge": (HOMOLOGY, "_spanning_forest_size", _every_edge_a_merge),
    "loop-edge-counted-as-merge": (
        HOMOLOGY, "_spanning_forest_size", _loop_edge_a_merge
    ),
    "grid-width-one": (MOMENT, "_axis_table", _unit_grid_width),
    # One max over the whole table, not one per row of it.
    "axis-table-one-max": (
        MOMENT,
        "_axis_table",
        _rewritten("zip(map(max, rows), rows)", "zip([max(logs)] * len(rows), rows)"),
    ),
    "closest-pair-adjacent-only": (MOMENT, "_min_separation", _adjacent_pairs_only),
    "sample-sign-flipped": (MOMENT, "sign_profile", _x_sign_flipped),
    "sample-images-axes-swapped": (MOMENT, "_average", _axes_swapped),
    "sample-images-one-ulp-up": (MOMENT, "_average", _one_ulp_up),
    "grid-sums-drop-last-pass": (MOMENT, "_sums", _last_pass_skipped),
    # The x sums leave out the vertices with y = 0, not those with x = 0.
    "grid-zero-skip-wrong-axis": (
        MOMENT, "_grid_images", _rewritten("enumerate(xs)", "enumerate(ys)")
    ),
    "last-distinct-column-dropped": (HOMOLOGY, "_distinct_columns", _last_column_dropped),
    "smith-memo-keyed-by-shape": (HOMOLOGY, "_factors", _keyed_by_shape),
    # The pivots returned as found, without the gcd/lcm pass.
    "smith-diagonal-unnormalized": (
        INTMAT,
        "_dense_diag",
        _rewritten(
            "(1,) * (t - len(f)) + tuple(f)", "tuple(abs(d[i][i]) for i in range(t))"
        ),
    ),
}

# The mutants that verify's own comparisons catch, each with the fans of
# FANS it makes inconsistent; each of the others has a test of its own
# below. The parity shift reads every fan as nonorientable, so only the
# two tori show it. Counting every edge as a merge gives b0 = V - E < 0,
# which no closed surface has.
CAUGHT_BY_VERIFY = {
    "edge-class-swap": FANS,
    "edge-key-without-ray": FANS,
    "orientable-fast-negated": FANS,
    "orientable-parity-shift-one": [hirzebruch_fan(0), hirzebruch_fan(4)],
    "predict-theorem-genus-plus-one": FANS,
    "spanning-forest-every-edge": FANS,
}


def _clear_memos():
    for module, name in MEMOS:
        getattr(module, name).cache_clear()


@pytest.fixture(autouse=True)
def _empty_memos_after():
    # Runs after monkeypatch's teardown has put every original back.
    yield
    _clear_memos()


def _apply(monkeypatch, name):
    module, target, wrap = MUTANTS[name]
    original = getattr(module, target)
    mutant = wrap(original)
    for where in (module, cli):
        if getattr(where, target, None) is original:
            monkeypatch.setattr(where, target, mutant)
    _clear_memos()


def _run(capsys, argv):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, [json.loads(line) for line in out.splitlines()], err


def test_fans_are_consistent_without_a_mutant():
    assert all(verify(fan).all_consistent for fan in FANS)


@pytest.mark.parametrize("name", sorted(CAUGHT_BY_VERIFY))
def test_verify_catches_mutant(monkeypatch, name):
    _apply(monkeypatch, name)
    assert [fan for fan in FANS if not verify(fan).all_consistent] == CAUGHT_BY_VERIFY[name]


def _fan_files(tmp_path):
    for k, fan in enumerate(FANS):
        path = tmp_path / f"fan{k}.json"
        path.write_text(json.dumps(fan_to_json(fan)))
        yield fan, str(path)


def test_edge_class_swap_exits_2_with_computed_null(monkeypatch, capsys, tmp_path):
    # The fans are valid, so a complex that is not a closed surface is a
    # fault of the program: never exit 1, which means bad input.
    _apply(monkeypatch, "edge-class-swap")
    for fan, path in _fan_files(tmp_path):
        for command, want in (("verify", 2), ("classify", 0)):
            code, lines, err = _run(capsys, [command, path])
            assert (code, err) == (want, ""), (command, fan)
            assert len(lines) == 1
            assert lines[0]["computed"] is None
            assert lines[0]["all_consistent"] is False

    code, lines, err = _run(capsys, ["corpus", "--seed", "7", "--count", "3"])
    assert (code, err) == (2, "")
    summary = lines[-1]
    assert summary["consistent"] == 0
    assert len(summary["failing"]) == 3
    assert all(line["computed"] is None for line in lines[:-1])


def test_genus_minus_one_mutant_exits_3(monkeypatch, capsys, tmp_path):
    # On P2 the mutant predicts RP2 with genus 0, which SurfaceType refuses
    # with a ValueError. The fan is valid, so that is an internal error:
    # exit 3 with its stage, never exit 1, which means bad input.
    _apply(monkeypatch, "predict-theorem-genus-minus-one")
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(fan_to_json(P2)))
    for command in ("classify", "verify", "predict"):
        assert cli.run([command, str(path)]) == 3, command
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": "Internal",
            "stage": command,
            "detail": "ValueError: nonorientable genus must be >= 1",
        }


def test_open_path_fails_without_the_closing_step(monkeypatch):
    # Every real complex is a closed walk on each face, so verify cannot
    # see the mutant. Edges 1, 2 and 3 run 0 -> 1 -> 0 -> 1: a path that
    # does not close, whose boundary is v1 - v0.
    open_path = CellComplex(2, ((0, 1), (1, 0), (0, 1)), ((1, 2, 3),))
    message = (
        "face 1 is no closed walk: entry 1 starts at vertex 0, "
        "entry 3 ends at vertex 1"
    )
    with pytest.raises(InvalidComplex) as refused:
        open_path.check_chain_complex()
    assert str(refused.value) == message
    _apply(monkeypatch, "walk-test-without-closing-step")
    assert all(verify(fan).all_consistent for fan in FANS)
    assert open_path.check_chain_complex() is None
    # A word of one entry is an open path too.
    assert open_path._replace(faces=((1,),)).check_chain_complex() is None


def test_rotated_bases_move_the_random_fan_digest(monkeypatch):
    # Every fan keeps its size and validity, so verify cannot see the
    # mutant; the first block of tests/test_fan.py's digest does.
    _apply(monkeypatch, "random-fan-bases-rotated")
    assert all(verify(random_fan(s, 2)).all_consistent for s in range(6))
    block = test_fan.RANDOM_FAN_BLOCKS[0]
    assert test_fan.random_fan_digest(block) != test_fan.RANDOM_FAN_DIGESTS[0]


def test_left_neighbor_twice_fails_the_contraction_digest(monkeypatch):
    # verify never contracts a ray; minimal_model does, through blow_down,
    # and refuses the first fan that has a -1 ray.
    _apply(monkeypatch, "blow-down-left-neighbor-twice")
    assert all(verify(fan).all_consistent for fan in FANS)
    with pytest.raises(NotExceptional):
        test_fan.TestMinimalModel().test_contractions_keep_their_digest()


def test_container_guard_mutant_fails_the_per_cell_verdict(monkeypatch):
    # Real complexes are tuples of tuples, so verify cannot see the mutant;
    # a set of edges or of faces that closes its walks passes it.
    _apply(monkeypatch, "container-guard-removed")
    assert all(verify(fan).all_consistent for fan in FANS)
    for level in ("edges", "faces"):
        with pytest.raises(AssertionError), monkeypatch.context() as patch:
            test_linear_stages.test_the_fast_path_gives_the_per_cell_verdict(
                patch, level, "set"
            )


def test_any_iterable_edge_mutant_fails_the_per_cell_verdict(monkeypatch):
    # The edge {0, 1} passes as (0, 1), and so does the mapping {0: 0, 1: 1}.
    _apply(monkeypatch, "edge-pattern-any-iterable")
    assert all(verify(fan).all_consistent for fan in FANS)
    for kind in ("set", "dict"):
        with pytest.raises(AssertionError), monkeypatch.context() as patch:
            test_linear_stages.test_the_fast_path_gives_the_per_cell_verdict(
                patch, "edge", kind
            )


def test_table_one_size_up_fails_the_entry_refusals(monkeypatch):
    # Real complexes name only their own edges, so verify cannot see the
    # mutant. An entry one past the edges passes as an edge, and the walk
    # test decides what the refusal should have.
    _apply(monkeypatch, "signed-index-table-one-size-up")
    assert all(verify(fan).all_consistent for fan in FANS)
    assert CellComplex(2, ((0, 1), (1, 0)), ((3, 2),)).check_chain_complex() is None
    with pytest.raises(AssertionError):
        test_linear_stages.test_bad_complexes_raise_the_same_error(
            "face entry past the edges"
        )


def _counterexample(strategy, fails):
    # The first drawn example on which ``fails`` holds, unshrunk, or
    # Hypothesis's NoSuchExample. Derandomized, so every run draws the same
    # examples and a mutant caught once is caught every time.
    quick = settings(
        database=None, max_examples=600, phases=[Phase.generate], derandomize=True
    )
    return find(strategy, fails, settings=quick)


def test_zero_boundary_mutant_fails_the_walk_tests(monkeypatch):
    # A word with zero boundary that is no walk attaches no 2-cell. The
    # refusal test and the per-entry oracle on loose complexes both see it.
    _apply(monkeypatch, "zero-boundary-accepted")
    assert all(verify(fan).all_consistent for fan in FANS)
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_linear_stages.test_zero_boundary_that_is_no_walk_is_refused()
    outcome = test_linear_stages._outcome
    oracle = test_linear_stages.check_chain_complex_per_entry
    _counterexample(
        test_linear_stages.loose_complexes(),
        lambda c: outcome(c.check_chain_complex) is None and outcome(oracle, c),
    )


def test_grid_width_mutant_fails_the_separation_gate(monkeypatch):
    # A few fans of tests/test_moment.py's F_0 ... F_400 gate, which asks
    # for a separation above 1e-9 on every one.
    fans = [hirzebruch_fan(a) for a in (0, 11, 40, 400)]
    assert all(run_moment_checks(f, samples=1).min_mu_separation > 1e-9 for f in fans)
    _apply(monkeypatch, "grid-width-one")
    assert not all(
        run_moment_checks(f, samples=1).min_mu_separation > 1e-9 for f in fans
    )


@lru_cache(maxsize=1)
def _digest_reports_unmutated():
    # The reports tests/test_moment.py pins, built once, without a mutant:
    # each caller asks for them before it applies its own.
    reports = tuple(digest_reports())
    assert report_digest(reports) == REPORT_DIGEST
    return reports


def test_adjacent_only_mutant_moves_the_report_digest(monkeypatch):
    # tests/test_moment.py pins the digest of these reports. Missing the
    # closest pair can only raise a separation.
    before = _digest_reports_unmutated()
    _apply(monkeypatch, "closest-pair-adjacent-only")
    after = digest_reports()
    assert report_digest(after) != REPORT_DIGEST
    moved = [(a, b) for a, b in zip(after, before) if a != b]
    assert len(moved) == 28
    assert all(a.min_mu_separation > b.min_mu_separation for a, b in moved)


def test_sign_flipped_mutant_fails_criterion_7(monkeypatch, capsys, tmp_path):
    # Criterion 7's fans and seed, already drawn: the cache must not hide
    # the mutant. moment-check turns the false flag into an internal error.
    criterion_7 = test_acceptance.test_criterion_7_moment_suite.__wrapped__
    criterion_7()
    _apply(monkeypatch, "sample-sign-flipped")
    with pytest.raises(AssertionError, match="signs_exact"):
        criterion_7()
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(fan_to_json(P2)))
    assert cli.run(["moment-check", str(path), "--samples", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {
        "error": "Internal",
        "stage": "moment-check",
        "detail": "RuntimeError: sign profiles disagreed with the sign vectors",
    }


def test_axes_swapped_mutant_fails_the_violation_gate_and_the_digest(monkeypatch):
    # The acceptance gate asks for a violation of at most 1e-9; only the 8
    # polygons symmetric in the diagonal keep swapped images inside.
    _digest_reports_unmutated()
    _apply(monkeypatch, "sample-images-axes-swapped")
    after = digest_reports()
    assert report_digest(after) != REPORT_DIGEST
    outside = [r for r in after if r.max_inequality_violation > 1e-9]
    assert len(outside) == 64


def test_one_ulp_mutant_moves_the_report_digest(monkeypatch):
    # Images one ulp off stay inside the polygon by far, and no sign moves,
    # so criterion 7 passes. The digest pins the violations bit for bit,
    # and one of them moves from 3.55e-15 to 7.11e-15.
    before = _digest_reports_unmutated()
    _apply(monkeypatch, "sample-images-one-ulp-up")
    test_acceptance.test_criterion_7_moment_suite.__wrapped__()
    after = digest_reports()
    assert report_digest(after) != REPORT_DIGEST
    [(a, b)] = [(a, b) for a, b in zip(after, before) if a != b]
    assert a.max_inequality_violation == 2 * b.max_inequality_violation
    assert a._replace(max_inequality_violation=b.max_inequality_violation) == b


# Grid fans of tests/test_moment.py by their number of vertices.
LAST_PASS_FANS = {3: "P2", 4: "F0", 5: "wedge-1e2", 8: "corpus8"}


def test_dropped_last_pass_fails_the_grid_oracle_and_the_digest(monkeypatch):
    # A sum of four vertices alone keeps them, but every polygon here has a
    # sum that loses a vertex or four: the triangle's and the pentagon's
    # totals, the octagon's four of eight, and the square's x and y sums,
    # which leave out the two vertices on their axis and take two. The
    # per-image oracle and the report digest both see it.
    _apply(monkeypatch, "grid-sums-drop-last-pass")
    grid_test = test_moment.test_grid_images_match_the_per_image_sums_bit_for_bit
    for d, name in LAST_PASS_FANS.items():
        assert len(test_moment._grid_vertices(name)) == d
        with pytest.raises(AssertionError):
            grid_test(name)
    with pytest.raises(AssertionError):
        test_moment.test_reports_keep_their_digest()


def test_zero_skip_on_the_wrong_axis_fails_the_grid_oracle(monkeypatch):
    # The x sums leave out the vertices with y = 0: that loses a product
    # where a vertex off the origin lies on the x axis, and only there.
    # Of the polygons of tests/test_moment.py on the axes, only the
    # triangle has none; of the default polygons of its 59 grid fans, 43
    # have one. The kernel is reached through the module, so the oracle
    # keeps its own, unmutated helpers.
    _apply(monkeypatch, "grid-zero-skip-wrong-axis")
    bits = test_moment._bits
    for name, vertices in test_moment.AXIS_POLYGONS.items():
        kernel = bits(MOMENT._grid_images(vertices))
        oracle = bits(test_moment._per_image_grid(vertices))
        assert (kernel != oracle) == any(x != 0 == y for x, y in vertices), name


def test_one_max_table_fails_the_grid_oracle_and_the_digest(monkeypatch):
    # One max over the whole table scales each row of factors by
    # exp(row max - max): the images' ratios cancel it, but not their
    # rounding. Sums over the kernel's own table would still agree with
    # the kernel; the oracle's own factor rows and the report digest do not.
    _apply(monkeypatch, "axis-table-one-max")
    grid_test = test_moment.test_grid_images_match_the_per_image_sums_bit_for_bit
    for name in LAST_PASS_FANS.values():
        with pytest.raises(AssertionError):
            grid_test(name)
    with pytest.raises(AssertionError):
        test_moment.test_reports_keep_their_digest()


def test_dropped_column_mutant_fails_the_oracle(monkeypatch):
    # Every real complex keeps its invariant factors without any one of
    # its distinct columns (4 or 6 of them, the incidence patterns of a
    # 4-cycle and of K4), so only a complex with a column of 2s shows the
    # loss: the hand-built RP2 and Klein bottle of tests/test_homology.py.
    assert all(homology(c) == full_smith_profile(c) for c, _ in HAND_BUILT.values())
    _apply(monkeypatch, "last-distinct-column-dropped")
    caught = [n for n, (c, _) in HAND_BUILT.items() if homology(c) != full_smith_profile(c)]
    assert sorted(caught) == ["Klein bottle", "RP2"]


def _misclassified(drawn):
    # Whether a drawn closed surface, union or wedge gets homology other
    # than the sum of its parts'.
    parts, wedged, c = drawn
    return homology(c) != test_homology.expected_profile(parts, wedged)


def test_dropped_column_mutant_fails_the_surface_oracle(monkeypatch):
    # The closed-surface complexes of tests/test_homology.py show it alone.
    _apply(monkeypatch, "last-distinct-column-dropped")
    _counterexample(test_homology.closed_surfaces(), _misclassified)


def test_loop_merge_mutant_fails_the_surface_oracle(monkeypatch):
    # No complex the builders make has a loop edge, so verify cannot see
    # the mutant; the one-vertex normal forms of the closed surfaces, and
    # the complexes drawn from them, have loop edges.
    _apply(monkeypatch, "loop-edge-counted-as-merge")
    assert all(verify(fan).all_consistent for fan in FANS)
    _counterexample(test_homology.closed_surfaces(), _misclassified)


def test_shape_keyed_memo_fails_the_memo_test(monkeypatch):
    # Real complexes give two Smith-form inputs of different shapes, 4 x 4
    # and 4 x 6, so no fan-based check can see the mutant. The disk's (1)
    # and RP2's (2) share the shape 1 x 1: the one warm after the other
    # gets its factors.
    test_homology.test_cold_and_warm_memo_agree()
    _apply(monkeypatch, "smith-memo-keyed-by-shape")
    assert all(verify(fan).all_consistent for fan in FANS)
    with pytest.raises(AssertionError):
        test_homology.test_cold_and_warm_memo_agree()
    HOMOLOGY._factors.cache_clear()
    rp2, profile = HAND_BUILT["RP2"]
    assert (homology(rp2), homology(test_homology.DISK[0])) == (profile, profile)


def test_unnormalized_smith_diagonal_fails_the_oracles(monkeypatch):
    # Real complexes give torsion (2,) or () with the raw pivots too, so
    # verify cannot see the mutant. Pivots that divide no other, as in
    # diag(2, 3) and diag(6, 4, 10), do show it, and so do criterion 4's
    # seeded matrices and the unit-heavy matrices of tests/test_intmat.py.
    # The elementary oracle stands in for sympy, whose import alone takes
    # about 0.5 s.
    _apply(monkeypatch, "smith-diagonal-unnormalized")
    assert all(verify(fan).all_consistent for fan in FANS)
    examples = test_intmat.TestSmithExamples()
    for pinned in (
        examples.test_diagonal_needs_reordering,
        examples.test_diagonal_of_three_needs_gcd_and_lcm,
        test_acceptance.test_criterion_4_smith_suite.__wrapped__,
    ):
        with pytest.raises(AssertionError):
            pinned()
    smith, oracle = INTMAT.smith_normal_form, test_intmat.oracle_elementary_factors
    _counterexample(
        test_intmat.unit_heavy_matrices(), lambda a: smith(a).diag != oracle(a)
    )


def _is_lru_cache(node):
    return (isinstance(node, ast.Name) and node.id == "lru_cache") or (
        isinstance(node, ast.Attribute) and node.attr == "lru_cache"
    )


def test_every_package_memo_is_small_and_cleared():
    # Each lru_cache decorates a module-level function, with an integer
    # maxsize of at most 16; no functools.cache, which has no bound. Every
    # such memo is in MEMOS, so that _apply and each teardown empty it.
    found, faults = set(), []
    for path in sorted((SRC / "realtoric").glob("*.py")):
        tree = ast.parse(path.read_text())
        decorating = {
            id(d): f.name
            for f in tree.body
            if isinstance(f, ast.FunctionDef)
            for d in f.decorator_list
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                faults += [(path.name, a.name) for a in node.names if a.name == "cache"]
            elif isinstance(node, ast.Attribute) and node.attr == "cache":
                faults.append((path.name, ast.unparse(node)))
            elif isinstance(node, ast.Call) and _is_lru_cache(node.func):
                sizes = [k.value for k in node.keywords if k.arg == "maxsize"]
                size = (sizes + node.args)[0] if sizes or node.args else None
                bound = getattr(size, "value", None)
                if type(bound) is not int or not 0 < bound <= 16 or id(node) not in decorating:
                    faults.append((path.name, ast.unparse(node)))
                else:
                    found.add((f"realtoric.{path.stem}", decorating[id(node)]))
            elif _is_lru_cache(node) and id(node) in decorating:
                faults.append((path.name, f"bare {ast.unparse(node)}"))
    assert faults == []
    assert found == {(module.__name__, name) for module, name in MEMOS}


def test_every_mutant_has_a_target_and_a_test():
    # A mutant whose target is gone fails here by name, not as an
    # AttributeError inside the tests that apply it. Each wrapper builds on
    # its target, and each key is applied by a test: by name through
    # _apply, or through CAUGHT_BY_VERIFY.
    missing = [name for name, (where, attr, _) in MUTANTS.items() if not hasattr(where, attr)]
    assert missing == []
    for where, target, wrap in MUTANTS.values():
        wrap(getattr(where, target))
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    applied = {
        node.args[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_apply"
        and isinstance(node.args[1], ast.Constant)
    }
    assert sorted(MUTANTS.keys() - applied - CAUGHT_BY_VERIFY.keys()) == []
