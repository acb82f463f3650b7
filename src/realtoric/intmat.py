"""Exact integer matrix utilities: products, determinants, Smith form.

Matrices are tuples of tuples of Python integers, so every operation here
is exact at any magnitude. The Smith normal form routine tracks both
transform matrices and keeps them unimodular by construction: every row
operation is either a swap, adding a multiple of one row to another, or a
2x2 block built from an extended gcd (determinant +1), and likewise for
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]


def freeze(rows: Sequence[Sequence[int]]) -> Matrix:
    """Copy nested sequences into the canonical tuple-of-tuples form."""
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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


def mat_det(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss update: the division by the previous pivot is exact.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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
    """Diagonalization ``left @ a @ right == diag`` with unimodular factors.

    ``diag`` holds only the nonzero diagonal entries; they are positive and
    each divides the next. ``rank`` is their count.
    """

    diag: tuple[int, ...]
    left: Matrix
    right: Matrix
    shape: tuple[int, int]

    @property
    def rank(self) -> int:
        return len(self.diag)

    def diagonal_matrix(self) -> Matrix:
        m, n = self.shape
        return tuple(
            tuple(
                self.diag[i] if i == j and i < len(self.diag) else 0
                for j in range(n)
            )
            for i in range(m)
        )


def _row_combine(d: list[list[int]], u: list[list[int]], t: int, i: int) -> None:
    # Reduce d[i][t] against the pivot d[t][t] with one unimodular 2x2 block.
    a, b = d[t][t], d[i][t]
    if b == 0:
        return
    if a != 0 and b % a == 0:
        q = b // a
        d[i] = [x - q * y for x, y in zip(d[i], d[t])]
        u[i] = [x - q * y for x, y in zip(u[i], u[t])]
        return
    g, x, y = _egcd(a, b)
    p, q = -(b // g), a // g
    d[t], d[i] = (
        [x * rt + y * ri for rt, ri in zip(d[t], d[i])],
        [p * rt + q * ri for rt, ri in zip(d[t], d[i])],
    )
    u[t], u[i] = (
        [x * rt + y * ri for rt, ri in zip(u[t], u[i])],
        [p * rt + q * ri for rt, ri in zip(u[t], u[i])],
    )


def _col_combine(d: list[list[int]], v: list[list[int]], t: int, j: int) -> None:
    a, b = d[t][t], d[t][j]
    if b == 0:
        return
    if a != 0 and b % a == 0:
        q = b // a
        for row in d:
            row[j] -= q * row[t]
        for row in v:
            row[j] -= q * row[t]
        return
    g, x, y = _egcd(a, b)
    p, q = -(b // g), a // g
    for row in d:
        ct, cj = row[t], row[j]
        row[t] = x * ct + y * cj
        row[j] = p * ct + q * cj
    for row in v:
        ct, cj = row[t], row[j]
        row[t] = x * ct + y * cj
        row[j] = p * ct + q * cj


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form with transforms.

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
    u = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]

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
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in d:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]

        while True:
            for i in range(t + 1, m):
                _row_combine(d, u, t, i)
            for j in range(t + 1, n):
                _col_combine(d, v, t, j)
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
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
        t += 1

    for i in range(min(m, n)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]

    diag = []
    for i in range(min(m, n)):
        if d[i][i] == 0:
            break
        diag.append(d[i][i])
    return SmithForm(
        diag=tuple(diag),
        left=freeze(u),
        right=freeze(v),
        shape=(m, n),
    )


def invariant_factors(a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The nonzero diagonal of the Smith normal form."""
    return smith_normal_form(a).diag
