"""Periodic functions Z -> Q and their height-vector image.

A function is stored by its values on 1..n together with the per-period
increment m, so pi(k + n) = pi(k) + m everywhere.  Values and m are exact:
ints or Fractions, checked at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "PeriodicFunction",
    "f_map",
    "pairing",
    "is_injective",
    "collision",
    "function_combination",
]


@dataclass(frozen=True)
class PeriodicFunction:
    values: tuple
    m: object = 0

    def __post_init__(self) -> None:
        values = tuple(self.values)
        if not values:
            raise ValueError("need at least one value")
        for x in (*values, self.m):
            # bool is an int subclass; reject it along with floats
            if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                raise TypeError(f"values and m must be int or Fraction, got {x!r}")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    def at(self, k: int):
        idx = (k - 1) % self.n
        shift = (k - 1 - idx) // self.n
        value = self.values[idx]
        return value + shift * self.m if shift else value

    def shifted_by(self, c) -> "PeriodicFunction":
        return PeriodicFunction(tuple(v + c for v in self.values), self.m)

    def tilted(self, delta) -> "PeriodicFunction":
        """Add k*delta to pi(k); the slope increment becomes m + n*delta."""
        values = tuple(v + (k + 1) * delta for k, v in enumerate(self.values))
        return PeriodicFunction(values, self.m + self.n * delta)


def f_map(pi: PeriodicFunction) -> tuple:
    """Consecutive differences y_k = pi(k) - pi(k-1); coordinates sum to m."""
    return tuple(pi.at(k) - pi.at(k - 1) for k in range(1, pi.n + 1))


def pairing(pi: PeriodicFunction, i: int, j: int):
    """F(pi)^t beta_{ij} collapses to a difference of two values."""
    return pi.at(j) - pi.at(i)


def _integerized(vector) -> tuple[int, ...]:
    """Integer entries scaled by the least common denominator D."""
    scale = math.lcm(*(v.denominator for v in vector))
    return tuple(v.numerator * (scale // v.denominator) for v in vector)


def is_injective(pi: PeriodicFunction) -> bool:
    """Injectivity on all of Z, decided exactly in O(n).

    With values and m scaled to integers by their common denominator D,
    indices u and v collide exactly when D*pi(u) = D*pi(v) mod D*m.
    """
    if pi.m == 0:
        return False
    *values, m = _integerized((*pi.values, pi.m))
    return len({v % m for v in values}) == len(values)


def collision(pi: PeriodicFunction) -> tuple[int, int] | None:
    """Least index pair (i, j), i < j, with pi(i) = pi(j); None if injective.

    With m = 0 every value repeats one period on, and the pair reported is
    (1, 1 + n).  Otherwise only indices in one residue class of D*pi mod
    D*m (see is_injective) are paired.
    """
    n = pi.n
    if pi.m == 0:
        return (1, 1 + n)
    *values, m = _integerized((*pi.values, pi.m))
    classes: dict[int, list[int]] = {}
    for u, v in enumerate(values, start=1):
        classes.setdefault(v % m, []).append(u)
    pairs = []
    for members in classes.values():
        for u in members:
            for v in members:
                if u != v:
                    # pi(v + t*n) = pi(v) + t*m = pi(u)
                    j = v + (values[u - 1] - values[v - 1]) // m * n
                    pairs.append((min(u, j), max(u, j)))
    return min(pairs, default=None)


def function_combination(p0: PeriodicFunction, p1: PeriodicFunction, t) -> PeriodicFunction:
    """(1 - t) * p0 + t * p1, componentwise including the slope."""
    values = tuple(a + t * (b - a) for a, b in zip(p0.values, p1.values))
    return PeriodicFunction(values, p0.m + t * (p1.m - p0.m))
