"""Exact integer matrix utilities: products and Smith form.

Matrices are tuples of tuples of Python integers, so every operation here
is exact at any magnitude. Entries are coerced with ``operator.index``:
ints, bools and other integer types pass, and anything else (a float, a
string, a ``Fraction``) is refused with a ``ValueError`` that names the
entry, rather than truncated.

The Smith normal form routine returns only the invariant factors, which
is all that homology reads. Every step it takes is unimodular, so the
factors are those of the input: a row operation is either a swap, adding
a multiple of one row to another, or a 2x2 block built from an extended
gcd (determinant +1), and likewise for columns. It is one dense scheme:
its pivot search stops at the first unit, only rows and columns with a
nonzero entry in the pivot column or row are combined, and the
divisibility patch is skipped behind a unit pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Sequence

__all__ = ["SmithForm", "mat_mul", "smith_normal_form"]

Matrix = tuple[tuple[int, ...], ...]


def _int_rows(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """The rows of ``a`` as lists of ints; a non-integer entry is a ValueError."""
    try:
        return [list(map(index, row)) for row in a]
    except TypeError:
        for i, row in enumerate(a):
            for j, x in enumerate(row):
                try:
                    index(x)
                except TypeError:
                    raise ValueError(
                        f"entry ({i}, {j}) is {x!r}, not an integer"
                    ) from None
        raise


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


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(a, b) >= 0`` and ``x*a + y*b = g``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


@dataclass(frozen=True)
class SmithForm:
    """The invariant factors of an integer matrix.

    ``diag`` holds only the nonzero diagonal entries of the Smith normal
    form; they are positive and each divides the next. ``rank`` is their
    count. The unimodular transforms are not kept.
    """

    diag: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.diag)


def _row_combine(d: list[list[int]], t: int, i: int) -> None:
    # Reduce d[i][t] against the pivot d[t][t] with one unimodular 2x2 block.
    a, b = d[t][t], d[i][t]
    if b == 0:
        return
    if a != 0 and b % a == 0:
        q = b // a
        d[i] = [x - q * y for x, y in zip(d[i], d[t])]
        return
    g, x, y = _egcd(a, b)
    p, q = -(b // g), a // g
    d[t], d[i] = (
        [x * rt + y * ri for rt, ri in zip(d[t], d[i])],
        [p * rt + q * ri for rt, ri in zip(d[t], d[i])],
    )


def _col_combine(d: list[list[int]], t: int, j: int) -> None:
    a, b = d[t][t], d[t][j]
    if b == 0:
        return
    if a != 0 and b % a == 0:
        q = b // a
        for row in d:
            row[j] -= q * row[t]
        return
    g, x, y = _egcd(a, b)
    p, q = -(b // g), a // g
    for row in d:
        ct, cj = row[t], row[j]
        row[t] = x * ct + y * cj
        row[j] = p * ct + q * cj


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
    # The nonzero invariant factors of d by the dense scheme, in place.
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

        while True:
            for i in [i for i in range(t + 1, m) if d[i][t]]:
                _row_combine(d, t, i)
            for j in [j for j in range(t + 1, n) if d[t][j]]:
                _col_combine(d, t, j)
            if any(d[i][t] for i in range(t + 1, m)):
                continue
            if any(d[t][j] for j in range(t + 1, n)):
                continue
            g = d[t][t]
            if g in (1, -1):
                break
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % g != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            d[t] = [x + y for x, y in zip(d[t], d[offender])]
        t += 1

    # The loop stops at the first all-zero submatrix, so the nonzero
    # pivots are d[0][0], ..., d[t-1][t-1]; only their signs are left.
    return tuple(abs(d[i][i]) for i in range(t))


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form, diagonal only.

    Pivoting picks the entry of smallest absolute value in the remaining
    submatrix (the first one in row-major order, stopping at a unit),
    clears its row and column with gcd steps, combining only rows and
    columns with a nonzero entry in the pivot column or row, then patches
    any divisibility failure (adding the offending row to the pivot row;
    skipped behind a unit pivot) and repeats. Handles empty and all-zero
    matrices; a ragged matrix or a non-integer entry is a ValueError.

    ``homology`` passes it the distinct columns of the faces-by-edges
    boundary of a real toric surface: 4 x 4 or 4 x 6, entries 0 and +-1,
    whatever the number of rays d, so each call takes constant time.
    """
    d = _int_rows(a)
    n = len(d[0]) if d else 0
    if any(len(row) != n for row in d):
        raise ValueError("ragged matrix")
    return SmithForm(diag=_dense_diag(d))
