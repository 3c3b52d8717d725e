"""Exact linear algebra on small matrices.

Matrices are immutable tuples of row tuples holding Python ints (or Fractions
where a caller needs them).  Everything here is exact; floats never appear.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Tuple

Vector = Tuple[int, ...]
Matrix = Tuple[Tuple[int, ...], ...]


def freeze(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Matrix, v: Sequence) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def dot(u: Sequence, v: Sequence):
    return sum(x * y for x, y in zip(u, v))


def scale(a: Matrix, c) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def column(a: Matrix, j: int) -> tuple:
    return tuple(row[j] for row in a)


def from_columns(cols: Sequence[Sequence]) -> Matrix:
    return transpose(freeze(cols))


def _integral(a: Matrix) -> tuple[list[list[int]], int]:
    """Rows of D*a as int lists, with D the least common denominator."""
    if all(type(x) is int for row in a for x in row):
        return [list(row) for row in a], 1
    rows = [[Fraction(x) for x in row] for row in a]
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * d) for x in row] for row in rows], d


def _eliminate(rows: list[list[int]], n: int, jordan: bool) -> int:
    """Fraction-free (Bareiss) elimination on the first n columns, in place.

    Pivots are the least nonzero candidates in absolute value.  jordan=True
    also clears above each pivot, leaving the last pivot p on the diagonal
    and p*a^{-1} to its right.  Returns the determinant of the n columns.
    """
    prev, sign = 1, 1
    for col in range(n):
        candidates = [r for r in range(col, n) if rows[r][col]]
        if not candidates:
            return 0
        pivot = min(candidates, key=lambda r: abs(rows[r][col]))
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        prow = rows[col][col:]
        p = prow[0]
        for r in range(0 if jordan else col + 1, n):
            row = rows[r]
            m = row[col]
            if r == col or (m == 0 and p == prev):
                continue
            if m == 0:
                row[col:] = [p * x // prev for x in row[col:]]
            elif prev == 1:
                row[col:] = [p * x - m * y for x, y in zip(row[col:], prow)]
            else:
                row[col:] = [(p * x - m * y) // prev for x, y in zip(row[col:], prow)]
        prev = p
    return sign * prev


def determinant(a: Matrix) -> Fraction:
    """Determinant by fraction-free elimination over the integers."""
    rows, d = _integral(a)
    return Fraction(_eliminate(rows, len(a), jordan=False), d ** len(a))


def inverse(a: Matrix) -> Matrix:
    """Exact inverse by fraction-free Gauss-Jordan elimination over the integers.

    A Fraction input is scaled to ints first: a^{-1} = D (D a)^{-1}.
    Entries come back as ints when integral and as Fractions otherwise.
    """
    n = len(a)
    rows, d = _integral(a)
    for i, row in enumerate(rows):
        row.extend(int(i == j) for j in range(n))
    if _eliminate(rows, n, jordan=True) == 0:
        raise ValueError("matrix is singular")
    p = rows[-1][n - 1] if n else 1
    return tuple(
        tuple(Fraction(d * x, p) if d * x % p else d * x // p for x in row[n:])
        for row in rows
    )


def is_skew_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == -a[j][i] for i in range(n) for j in range(n))


def column_sign_coherent(a: Matrix) -> bool:
    """True when every column's nonzero entries share one sign."""
    for col in transpose(a):
        signs = {x > 0 for x in col if x != 0}
        if len(signs) > 1:
            return False
    return True
