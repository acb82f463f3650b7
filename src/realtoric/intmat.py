"""Exact integer matrix utilities: products and Smith form.

Matrices are tuples of tuples of Python integers, so every operation here
is exact at any magnitude. The Smith normal form routine returns only the
invariant factors, which is all that homology reads. Every step it takes
is unimodular, so the factors are those of the input: a row operation is
either a swap, adding a multiple of one row to another, or a 2x2 block
built from an extended gcd (determinant +1), and likewise for columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Exact product; inner dimensions must agree."""
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


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form, diagonal only.

    Pivoting picks the entry of smallest absolute value in the remaining
    submatrix, clears its row and column with gcd steps, then patches any
    divisibility failure (adding the offending row to the pivot row) and
    repeats. Handles empty and all-zero matrices.
    """
    d = [list(map(int, row)) for row in a]
    m = len(d)
    n = len(d[0]) if m else 0
    if any(len(row) != n for row in d):
        raise ValueError("ragged matrix")

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            d[t], d[pi] = d[pi], d[t]
        if pj != t:
            for row in d:
                row[t], row[pj] = row[pj], row[t]

        while True:
            for i in range(t + 1, m):
                _row_combine(d, t, i)
            for j in range(t + 1, n):
                _col_combine(d, t, j)
            if any(d[i][t] for i in range(t + 1, m)):
                continue
            if any(d[t][j] for j in range(t + 1, n)):
                continue
            g = d[t][t]
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
    return SmithForm(diag=tuple(abs(d[i][i]) for i in range(t)))


def invariant_factors(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The nonzero diagonal of the Smith normal form."""
    return smith_normal_form(a).diag
