"""Smith normal form against three independent oracles.

The first oracle diagonalizes by plain elementary operations; the second
computes invariant factors as quotients of gcds of k-by-k minors, with
determinants by recursive cofactor expansion; the third is sympy's
``invariant_factors``. None shares code with the library routine.
"""

import importlib
import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realtoric import (
    CellComplex,
    HomologyProfile,
    SmithForm,
    build_real_complex,
    corpus_fans,
    homology,
    mat_mul,
    normalize_fan,
    random_fan,
    smith_normal_form,
)
from realtoric.rng import SplitMix64


def oracle_elementary_factors(a):
    m = [list(row) for row in a]
    factors = []
    while m and m[0]:
        if not any(x for row in m for x in row):
            break
        # move some nonzero entry to the corner
        pi, pj = next(
            (i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x
        )
        m[0], m[pi] = m[pi], m[0]
        for row in m:
            row[0], row[pj] = row[pj], row[0]
        while True:
            # euclid down the first column
            for i in range(1, len(m)):
                while m[i][0]:
                    if abs(m[i][0]) < abs(m[0][0]) or m[0][0] == 0:
                        m[0], m[i] = m[i], m[0]
                    q = m[i][0] // m[0][0]
                    m[i] = [x - q * y for x, y in zip(m[i], m[0])]
            # euclid across the first row
            for j in range(1, len(m[0])):
                while m[0][j]:
                    if abs(m[0][j]) < abs(m[0][0]) or m[0][0] == 0:
                        for row in m:
                            row[0], row[j] = row[j], row[0]
                    q = m[0][j] // m[0][0]
                    for row in m:
                        row[j] -= q * row[0]
            if any(m[i][0] for i in range(1, len(m))):
                continue
            if any(m[0][j] for j in range(1, len(m[0]))):
                continue
            g = m[0][0]
            bad = None
            for i in range(1, len(m)):
                for j in range(1, len(m[0])):
                    if m[i][j] % g:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            m[0] = [x + y for x, y in zip(m[0], m[bad])]
        factors.append(abs(m[0][0]))
        m = [row[1:] for row in m[1:]]
    return tuple(factors)


def cofactor_det(a):
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        sign = -1 if j % 2 else 1
        total += sign * a[0][j] * cofactor_det(minor)
    return total


def oracle_minor_gcd_factors(a):
    m, n = len(a), len(a[0]) if a else 0
    rows = [list(row) for row in a]
    factors = []
    previous = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, cofactor_det(sub))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return tuple(factors)


def rank_over_rationals(a):
    m = [[Fraction(x) for x in row] for row in a]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(len(m)):
            if r != row and m[r][col]:
                f = m[r][col] / m[row][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        rank += 1
        row += 1
    return rank


def sympy_factors(a):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as reference

    return tuple(abs(int(x)) for x in reference(sympy.Matrix(a)) if x != 0)


def assert_smith_invariants(a, snf: SmithForm):
    assert all(x > 0 for x in snf.diag)
    for x, y in zip(snf.diag, snf.diag[1:]):
        assert y % x == 0


class TestSmithExamples:
    def test_two_by_two(self):
        snf = smith_normal_form([[2, 4], [6, 8]])
        assert snf.diag == (2, 4)
        assert_smith_invariants(((2, 4), (6, 8)), snf)

    def test_identity(self):
        assert smith_normal_form([[1, 0], [0, 1]]).diag == (1, 1)

    def test_diagonal_needs_reordering(self):
        # the chain condition forces (1, 6), not (2, 3)
        assert smith_normal_form([[2, 0], [0, 3]]).diag == (1, 6)

    def test_diagonal_of_three_needs_gcd_and_lcm(self):
        # no two of 6, 4 and 10 divide one another, in any order
        a = [[6, 0, 0], [0, 4, 0], [0, 0, 10]]
        assert smith_normal_form(a).diag == (2, 2, 60)

    def test_zero_matrix(self):
        snf = smith_normal_form([[0, 0], [0, 0]])
        assert snf.diag == ()
        assert snf.rank == 0

    def test_single_negative_entry(self):
        snf = smith_normal_form([[-5]])
        assert snf.diag == (5,)
        assert_smith_invariants(((-5,),), snf)

    def test_rectangular(self):
        a = ((1, 2, 3), (4, 5, 6))
        snf = smith_normal_form(a)
        assert snf.diag == (1, 3)
        assert_smith_invariants(a, snf)

    def test_empty(self):
        snf = smith_normal_form([])
        assert snf.diag == () and snf.rank == 0

    def test_zero_width(self):
        snf = smith_normal_form([[], []])
        assert snf.diag == () and snf.rank == 0

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([[1, 2], [3]])


NON_INTEGERS = [2.5, 3.0, 1e30, "3", Fraction(1, 2), Fraction(4, 1), None]


class TestIntegerEntries:
    @pytest.mark.parametrize("x", NON_INTEGERS, ids=repr)
    def test_smith_refuses_non_integer(self, x):
        with pytest.raises(ValueError, match=r"entry \(1, 0\) is .*not an integer"):
            smith_normal_form([[1, 2], [x, 4]])

    @pytest.mark.parametrize("x", NON_INTEGERS, ids=repr)
    def test_mat_mul_refuses_non_integer(self, x):
        with pytest.raises(ValueError, match=r"entry \(0, 1\) is .*not an integer"):
            mat_mul([[1, x]], [[2], [3]])
        with pytest.raises(ValueError, match=r"entry \(1, 0\) is .*not an integer"):
            mat_mul([[1, 1]], [[2], [x]])

    def test_one_shot_rows_refuse_non_integer(self):
        # rows from a generator can be read only once
        with pytest.raises(ValueError, match=r"^entry \(0, 1\) is 2.5, not an integer$"):
            smith_normal_form(r for r in [[1, 2.5]])

    def test_integer_types_pass(self):
        assert smith_normal_form([[True, False], [False, True]]).diag == (1, 1)
        assert smith_normal_form([[10**40, 0], [0, 6]]).diag == (2, 3 * 10**40)
        product = mat_mul([[True, 2]], [[3], [False]])
        assert product == ((3,),) and type(product[0][0]) is int


@pytest.mark.parametrize(
    "a, b, message",
    [
        ([[1, 2]], [[1, 2]], "shape mismatch: 1x2 times 1x?"),
        ([[1]], [], "shape mismatch: 1x1 times 0x?"),
        ([], [[1]], "shape mismatch: 0x0 times 1x?"),
    ],
)
def test_mat_mul_refuses_mismatched_shapes(a, b, message):
    with pytest.raises(ValueError) as refused:
        mat_mul(a, b)
    assert str(refused.value) == message


class TestAgainstOracles:
    def test_seeded_sample_against_both_oracles(self):
        rng = SplitMix64(777)
        for _ in range(80):
            m = rng.below(4) + 1
            n = rng.below(4) + 1
            a = [[rng.below(21) - 10 for _ in range(n)] for _ in range(m)]
            snf = smith_normal_form(a)
            assert_smith_invariants(a, snf)
            assert snf.diag == oracle_elementary_factors(a)
            assert snf.diag == oracle_minor_gcd_factors(a)
            assert snf.rank == rank_over_rationals(a)


def unit_heavy_matrices():
    """Matrices like boundary matrices: mostly 0 and +-1, with a few 2s and 3s.

    A column is either incidence-like (one +1 and one -1, as in the
    vertex-edge boundary), a single nonzero entry, or zero. With single
    entries of +-1 and +-2 alone the pivots of such matrices already divide
    one another (in each of 20,000 random draws), so the gcd/lcm pass would
    go untested; the single entries include 3s as well.
    """

    @st.composite
    def build(draw):
        m = draw(st.integers(1, 7))
        n = draw(st.integers(1, 7))
        a = [[0] * n for _ in range(m)]
        for j in range(n):
            kind = draw(st.sampled_from(["incidence", "single", "zero"]))
            if kind == "incidence" and m >= 2:
                head, tail = draw(
                    st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True)
                )
                a[head][j], a[tail][j] = 1, -1
            elif kind == "single":
                i = draw(st.integers(0, m - 1))
                a[i][j] = draw(st.sampled_from([1, -1, 1, -1, 2, -2, 3, -3]))
        return a

    return build()


@given(a=unit_heavy_matrices())
# After the unit pivot, [[2, 0], [0, 3]] is left: only the gcd/lcm pass
# turns its pivots 2 and 3 into 1 and 6.
@example(a=[[1, 0, 0], [-1, 2, 0], [0, 0, 3]])
@settings(max_examples=200, deadline=None)
def test_property_unit_heavy_against_elementary_oracle(a):
    snf = smith_normal_form(a)
    assert_smith_invariants(a, snf)
    assert snf.diag == oracle_elementary_factors(a)
    assert snf.diag == sympy_factors(a)
    assert snf.rank == rank_over_rationals(a)


def revisit_matrices():
    """Matrices whose first row has no unit until the second row's pivot.

    Row 0 is ``[c, c*y + s, ...]`` and row 1 is ``[1, y, ...]`` with
    ``|c|, |y|`` in {2, 3} and ``s = +-1``, and no other unit in either row.
    Clearing column 0 with the unit of row 1 turns the second entry of
    row 0 into ``s``, a unit that was not there before. Further columns
    and rows are random and small.
    """

    @st.composite
    def build(draw):
        non_units = st.sampled_from([0, 2, -2, 3, -3])
        c = draw(st.sampled_from([2, -2, 3, -3]))
        y = draw(st.sampled_from([2, -2, 3, -3]))
        s = draw(st.sampled_from([1, -1]))
        extra = draw(st.integers(0, 3))
        top = [c, c * y + s] + [draw(non_units) for _ in range(extra)]
        second = [1, y] + [draw(non_units) for _ in range(extra)]
        more = draw(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=2 + extra, max_size=2 + extra),
                max_size=3,
            )
        )
        return [top, second] + more

    return build()


@given(a=revisit_matrices())
@example(a=[[2, 5], [1, 2]])
@settings(max_examples=200, deadline=None)
def test_property_unit_created_in_a_visited_row(a):
    snf = smith_normal_form(a)
    assert_smith_invariants(a, snf)
    assert snf.diag == oracle_elementary_factors(a)
    assert snf.diag == sympy_factors(a)
    assert snf.rank == rank_over_rationals(a)


def fan_with_rays(seed, d):
    """``random_fan(seed, n)`` with ``n`` chosen so that it has ``d`` rays."""
    return random_fan(seed, d - random_fan(seed, 0).d)


def test_homology_takes_one_smith_form_and_no_vertex_edge_matrix(monkeypatch):
    # rank ∂1 comes from the graph's components: building ∂1 is an error.
    # The one Smith form left is on the distinct columns of ∂2's transpose:
    # 4 faces by at most 6 columns, whatever d is, on a cold memo, and none
    # at all when the same columns come again.
    homology_module = importlib.import_module("realtoric.homology")
    shapes = []

    def recorded(a, snf=homology_module.smith_normal_form):
        shapes.append((len(a), len(a[0]) if a else 0))
        return snf(a)

    def refused(self):
        raise AssertionError("homology built a boundary matrix")

    monkeypatch.setattr(homology_module, "smith_normal_form", recorded)
    monkeypatch.setattr(CellComplex, "boundary_matrix_1", refused)
    # random_fan is quadratic in its blow-ups, so the largest fan is built
    # from its rays.
    ladder = [(1, j) for j in range(1501)] + [(0, 1), (-1, 0), (0, -1)]
    try:
        for fan in (fan_with_rays(8503, 64), fan_with_rays(8503, 192), normalize_fan(ladder)):
            homology_module._factors.cache_clear()
            shapes.clear()
            d = fan.d
            c = build_real_complex(fan)
            assert homology(c) == HomologyProfile(1, d - 3, 0, (2,))
            assert len(shapes) == 1, d
            rows, columns = shapes[0]
            assert rows == 4 and columns <= 6, (d, shapes)
            assert homology(c) == HomologyProfile(1, d - 3, 0, (2,))
            assert len(shapes) == 1, (d, shapes)
    finally:
        # No entry taken under the recorder outlives the test.
        homology_module._factors.cache_clear()
    assert d == 1504


def test_memoized_factors_are_the_smith_form():
    # Small integer matrices, hashable as homology passes them, each asked
    # twice: once to fill the memo, once to read it.
    memo = importlib.import_module("realtoric.homology")._factors
    rng = SplitMix64(2024)
    memo.cache_clear()
    for _ in range(300):
        m = rng.below(5) + 1
        n = rng.below(7) + 1
        a = tuple(tuple(rng.below(7) - 3 for _ in range(n)) for _ in range(m))
        want = smith_normal_form(a).diag
        assert memo(a) == want == memo(a), a
    assert memo.cache_info().hits >= 300


def test_factor_memo_is_small():
    memo = importlib.import_module("realtoric.homology")._factors
    assert memo.cache_info().maxsize == 8


class TestAgainstSympy:
    def test_criterion_4_suite(self):
        # the 500 seeded matrices of acceptance criterion 4
        rng = SplitMix64(987654321)
        for _ in range(500):
            m = rng.below(6) + 1
            n = rng.below(6) + 1
            a = [[rng.below(21) - 10 for _ in range(n)] for _ in range(m)]
            assert smith_normal_form(a).diag == sympy_factors(a)

    def test_boundary_matrices_of_the_acceptance_corpus(self):
        # the 200-fan corpus of acceptance criterion 2
        for fan in corpus_fans(20260817, 200, 16):
            c = build_real_complex(fan)
            d1, d2 = c.boundary_matrix_1(), c.boundary_matrix_2()
            f1, f2 = sympy_factors(d1), sympy_factors(d2)
            assert smith_normal_form(d1).diag == f1
            assert smith_normal_form(d2).diag == f2
            assert homology(c) == HomologyProfile(
                c.num_vertices - len(f1),
                len(c.edges) - len(f1) - len(f2),
                len(c.faces) - len(f2),
                tuple(x for x in f2 if x > 1),
            )

    @pytest.mark.parametrize("d", [64, 128, 192])
    def test_boundary_matrices_of_a_large_fan(self, d):
        c = build_real_complex(fan_with_rays(d, d))
        for a in (c.boundary_matrix_1(), c.boundary_matrix_2()):
            assert smith_normal_form(a).diag == sympy_factors(a)


@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_property_smith_against_elementary_oracle(rows, cols, data):
    a = [
        [data.draw(st.integers(-10, 10)) for _ in range(cols)]
        for _ in range(rows)
    ]
    snf = smith_normal_form(a)
    assert_smith_invariants(a, snf)
    assert snf.diag == oracle_elementary_factors(a)
    assert snf.diag == sympy_factors(a)


@given(
    a=st.integers(1, 4).flatmap(
        lambda rows: st.lists(
            st.lists(st.integers(-10**6, 10**6), min_size=rows, max_size=rows),
            min_size=1,
            max_size=4,
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_property_large_entries_against_minor_gcd_oracle(a):
    # Entries this large leave a remainder on most division steps, so each
    # pivot takes several rounds of the search.
    snf = smith_normal_form(a)
    assert_smith_invariants(a, snf)
    assert snf.diag == oracle_minor_gcd_factors(a)


def test_consecutive_fibonacci_numbers():
    # [[F91, F90], [F90, F89]] has determinant (-1)^90 = 1 (Cassini). Its
    # quotients are all 1, Euclid's worst case (Lamé), so every division
    # step leaves a remainder and the pivot search runs again.
    fib = [0, 1]
    while len(fib) < 92:
        fib.append(fib[-1] + fib[-2])
    assert smith_normal_form([[fib[91], fib[90]], [fib[90], fib[89]]]).diag == (1, 1)
