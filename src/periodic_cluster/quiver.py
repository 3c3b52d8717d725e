"""Sign functions and the Euler form of the associated affine type A quiver.

A sign function assigns '+' or '-' to every integer, n-periodically, with both
signs present.  It determines a quiver on the residues 1..n: for each i there
is one arrow between bar(i) and bar(i+1), pointing toward the smaller index
when eps_i = '+' (arrow bar(i+1) -> bar(i)) and toward the larger one when
eps_i = '-' (arrow bar(i) -> bar(i+1)).  Arrows accumulate, so n = 2 produces
a double arrow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .linalg import Matrix

__all__ = [
    "PLUS",
    "MINUS",
    "SignFunction",
    "euler_matrix",
    "euler_form",
    "projective_roots",
    "null_root",
]

PLUS = 1
MINUS = -1

_CHARS = {"+": PLUS, "-": MINUS}
_SIGNS = {PLUS: "+", MINUS: "-"}


@dataclass(frozen=True)
class SignFunction:
    """n-periodic surjective map Z -> {+, -}, stored on residues 1..n."""

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        signs = tuple(self.signs)
        object.__setattr__(self, "signs", signs)
        if len(signs) < 2:
            raise ValueError("period must be at least 2")
        for s in signs:
            # bool is an int subclass; reject it along with floats
            if isinstance(s, bool) or not isinstance(s, int):
                raise TypeError(f"signs must be the ints +1 and -1, got {s!r}")
            if s not in (PLUS, MINUS):
                raise ValueError("signs must be +1 or -1")
        if len(set(signs)) != 2:
            raise ValueError("sign function must take both values")

    @classmethod
    def from_string(cls, text: str) -> "SignFunction":
        try:
            return cls(tuple(_CHARS[c] for c in text))
        except KeyError:
            raise ValueError(f"bad sign character in {text!r}") from None

    def to_string(self) -> str:
        return "".join(_SIGNS[s] for s in self.signs)

    @property
    def n(self) -> int:
        return len(self.signs)

    def at(self, k: int) -> int:
        return self.signs[(k - 1) % len(self.signs)]

    def bar(self, k: int) -> int:
        return (k - 1) % len(self.signs) + 1

    def flipped(self) -> "SignFunction":
        return SignFunction(tuple(-s for s in self.signs))

    def reflected(self) -> "SignFunction":
        """Sign function of the left-right mirror image i -> -i."""
        return SignFunction(tuple(self.at(-k) for k in range(1, self.n + 1)))


def euler_matrix(eps: SignFunction) -> Matrix:
    """Euler form matrix: unit diagonal, entry -1 for each arrow i -> j."""
    n = eps.n
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n + 1):
        lo, hi = eps.bar(i), eps.bar(i + 1)
        if eps.at(i) == PLUS:
            rows[hi - 1][lo - 1] -= 1
        else:
            rows[lo - 1][hi - 1] -= 1
    return linalg.freeze(rows)


def euler_form(e: Matrix, x, y):
    """<x, y> = x^t E y."""
    return linalg.dot(x, linalg.mat_vec(e, y))


@lru_cache(maxsize=256)
def projective_roots(eps: SignFunction) -> tuple[tuple[int, ...], ...]:
    """Columns of (E^t)^{-1}, which are the rows of E^{-1}; the j-th one
    satisfies <p_j, x> = x_j.  Cached, so E is inverted once per eps.
    """
    return linalg.inverse(euler_matrix(eps))


def null_root(n: int) -> tuple[int, ...]:
    return (1,) * n
