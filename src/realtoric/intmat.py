"""Exact integer matrix utilities: products and Smith form.

Matrices are tuples of tuples of Python integers, so every operation here
is exact at any magnitude. Entries are coerced with ``operator.index``:
ints, bools and other integer types pass, and anything else (a float, a
string, a ``Fraction``) is refused with a ``ValueError`` that names the
entry, rather than truncated.

The Smith normal form routine returns only the invariant factors, which
is all that homology reads. It is the textbook reduction by division with
remainder (M. Newman, *Integral Matrices*, 1972, ch. II): take an entry of
least absolute value as the pivot, subtract multiples of its row and column
from the others, and pick a new, smaller pivot while a remainder is left.
Every step is a swap or adds a multiple of one row (column) to another, so
it is unimodular and the factors are those of the input; they are unique,
so any such reduction gives the same answer. The pivot search stops at the
first unit. Since diag(a, b) is equivalent to diag(gcd(a, b), lcm(a, b)),
a pairwise pass over the pivots above 1 makes the divisibility chain.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import index
from typing import NamedTuple, Sequence

__all__ = ["SmithForm", "mat_mul", "smith_normal_form"]

Matrix = tuple[tuple[int, ...], ...]


def _int_rows(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows of ``a`` as lists of ints; a non-integer entry is a ValueError."""
    rows = []
    for i, row in enumerate(a):
        rows.append(out := [])
        for j, x in enumerate(row):
            try:
                out.append(index(x))
            except TypeError:
                raise ValueError(f"entry ({i}, {j}) is {x!r}, not an integer") from None
    return rows


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Exact product; inner dimensions must agree."""
    a, b = _int_rows(a), _int_rows(b)
    m = len(a)
    k = len(a[0]) if m else 0
    if k != len(b):
        raise ValueError(f"shape mismatch: {m}x{k} times {len(b)}x?")
    n = len(b[0]) if b else 0
    bt = list(zip(*b)) if n else []
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


class SmithForm(NamedTuple):
    """The invariant factors of an integer matrix.

    ``diag`` holds only the nonzero diagonal entries of the Smith normal
    form; they are positive and each divides the next. ``rank`` is their
    count. The unimodular transforms are not kept.
    """

    diag: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.diag)


def _find_pivot(d: list[list[int]], t: int) -> tuple[int, int] | None:
    # The first nonzero entry of least absolute value in d[t:][t:], in
    # row-major order. Nothing is smaller than a unit, so a unit ends it.
    pivot = None
    best = None
    for i in range(t, len(d)):
        row = d[i]
        for j in range(t, len(row)):
            e = row[j]
            if e != 0 and (best is None or abs(e) < best):
                best = abs(e)
                pivot = (i, j)
                if best == 1:
                    return pivot
    return pivot


def _dense_diag(d: list[list[int]]) -> tuple[int, ...]:
    # The nonzero invariant factors of d by division steps, in place.
    m = len(d)
    n = len(d[0]) if m else 0
    t = 0
    while t < min(m, n):
        pivot = _find_pivot(d, t)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
        if pj != t:
            for row in d:
                row[t], row[pj] = row[pj], row[t]

        top = d[t]
        g = top[t]
        for i in range(t + 1, m):
            q = d[i][t] // g
            if q:
                d[i] = [x - q * y for x, y in zip(d[i], top)]
        for j in range(t + 1, n):
            q = top[j] // g
            if q:
                for row in d:
                    row[j] -= q * row[t]
        # A remainder is smaller than |g|: pivot on the least entry again.
        if not (any(top[t + 1 :]) or any(row[t] for row in d[t + 1 :])):
            t += 1

    # The loop stops at the first all-zero submatrix, so the nonzero
    # pivots are d[0][0], ..., d[t-1][t-1]. Units divide everything, so
    # they stay in front and a unit-heavy diagonal costs no pairs.
    f = [abs(d[i][i]) for i in range(t) if d[i][i] not in (1, -1)]
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            f[i], f[j] = gcd(f[i], f[j]), lcm(f[i], f[j])
    return (1,) * (t - len(f)) + tuple(f)


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form, diagonal only.

    Pivoting picks the entry of smallest absolute value in the remaining
    submatrix (the first one in row-major order, stopping at a unit) and
    subtracts its row and column, times the floor quotient, from every row
    and column with a nonzero quotient. A remainder left in the pivot row
    or column is smaller than the pivot, so searching again terminates.
    Once both are clear, the next pivot is searched for in the submatrix
    left. The pivots found are then replaced pairwise by their gcd and lcm
    until each divides the next. Handles empty and all-zero matrices; a
    ragged matrix or a non-integer entry is a ValueError.

    ``homology`` passes it the distinct columns of the faces-by-edges
    boundary of a real toric surface: 4 x 4 or 4 x 6, entries 0 and +-1,
    whatever the number of rays d. ``homology`` memoizes the factors of its
    last few inputs; this function itself keeps nothing between calls.
    """
    d = _int_rows(a)
    n = len(d[0]) if d else 0
    if any(len(row) != n for row in d):
        raise ValueError("ragged matrix")
    return SmithForm(diag=_dense_diag(d))
