"""Positive roots beta_{ij}, their Schur classification, and stability domains.

beta_{ij} (for integers i < j) counts the residues of i+1, ..., j, so it is a
nonnegative vector whose coordinates sum to j - i.  Translating both indices
by n leaves the vector unchanged.
"""

from __future__ import annotations

from .functions import PeriodicFunction
from .linalg import mat_vec, transpose
from .quiver import MINUS, PLUS, SignFunction, euler_matrix

__all__ = [
    "PREPROJECTIVE",
    "PREINJECTIVE",
    "REGULAR",
    "NULL_MULTIPLE",
    "NOT_A_ROOT",
    "REAL_SCHUR_TYPES",
    "INTERIOR",
    "BOUNDARY",
    "OUTSIDE",
    "root_vector",
    "classify_root",
    "subroots",
    "in_stability_domain",
    "interior_witness",
    "pi_from_vector",
]

PREPROJECTIVE = "preprojective"
PREINJECTIVE = "preinjective"
REGULAR = "regular"
NULL_MULTIPLE = "null_multiple"
NOT_A_ROOT = "not_a_root"

REAL_SCHUR_TYPES = frozenset({PREPROJECTIVE, PREINJECTIVE, REGULAR})

INTERIOR = "interior"
BOUNDARY = "boundary"
OUTSIDE = "outside"


def root_vector(n: int, i: int, j: int) -> tuple[int, ...]:
    if j <= i:
        raise ValueError("need i < j")
    vec = [0] * n
    full, rest = divmod(j - i, n)
    if full:
        vec = [full] * n
    for t in range(i + 1, i + rest + 1):
        vec[(t - 1) % n] += 1
    return tuple(vec)


def classify_root(eps: SignFunction, i: int, j: int) -> str:
    if j <= i:
        raise ValueError("need i < j")
    n = eps.n
    if (j - i) % n == 0:
        return NULL_MULTIPLE
    si, sj = eps.at(i), eps.at(j)
    if si == MINUS and sj == PLUS:
        return PREPROJECTIVE
    if si == PLUS and sj == MINUS:
        return PREINJECTIVE
    if j - i < n:
        return REGULAR
    return NOT_A_ROOT


def _require_real_schur(eps: SignFunction, i: int, j: int) -> None:
    kind = classify_root(eps, i, j)
    if kind not in REAL_SCHUR_TYPES:
        raise ValueError(f"beta_({i},{j}) is {kind}, not a real Schur root")


def subroots(eps: SignFunction, i: int, j: int) -> tuple[tuple[int, int], ...]:
    """All (a, b) with i <= a < b <= j and beta_{ab} a subroot of beta_{ij}.

    The pair qualifies when, for one common integer s, a = i + s*n or
    eps_a = '-', and b = j + s*n or eps_b = '+'.
    """
    _require_real_schur(eps, i, j)
    n = eps.n
    found = []
    for a in range(i, j):
        a_free = eps.at(a) == MINUS
        a_trans = (a - i) % n == 0
        if not (a_free or a_trans):
            continue
        for b in range(a + 1, j + 1):
            b_free = eps.at(b) == PLUS
            b_trans = (b - j) % n == 0
            if not (b_free or b_trans):
                continue
            if a_free or b_free or a - i == b - j:
                found.append((a, b))
    return tuple(found)


def in_stability_domain(eps: SignFunction, i: int, j: int, pi: PeriodicFunction) -> str:
    """Verdict for the point with F-image F(pi) against D(beta_{ij}).

    On the hyperplane pi(i) = pi(j), membership asks pi(a) >= pi(j) at every
    interior '-' vertex and pi(b) <= pi(i) at every interior '+' vertex;
    interior means all of those hold strictly.
    """
    _require_real_schur(eps, i, j)
    if pi.n != eps.n:
        raise ValueError("period mismatch")
    if pi.at(i) != pi.at(j):
        return OUTSIDE
    level = pi.at(i)
    tight = False
    for k in range(i + 1, j):
        gap = pi.at(k) - level if eps.at(k) == MINUS else level - pi.at(k)
        if gap < 0:
            return OUTSIDE
        if gap == 0:
            tight = True
    return BOUNDARY if tight else INTERIOR


def interior_witness(eps: SignFunction, i: int, j: int) -> PeriodicFunction:
    """An explicit integer function strictly inside D(beta_{ij})."""
    _require_real_schur(eps, i, j)
    if eps.at(i) == PLUS:
        inner = _witness_minus(eps.flipped(), i, j)
        return PeriodicFunction(tuple(-v for v in inner.values), -inner.m)
    return _witness_minus(eps, i, j)


def _witness_minus(eps: SignFunction, i: int, j: int) -> PeriodicFunction:
    n = eps.n
    values = []
    for k in range(1, n + 1):
        if eps.at(k) == PLUS or (k - j) % n == 0:
            values.append((k - j) // n)
        else:
            values.append((k - i + n - 1) // n)
    return PeriodicFunction(tuple(values), 1)


def pi_from_vector(eps: SignFunction, v) -> PeriodicFunction:
    """The periodic function (up to shift) whose F-image is E^t v."""
    y = mat_vec(transpose(euler_matrix(eps)), v)
    values = []
    total = 0
    for coord in y:
        total = total + coord
        values.append(total)
    return PeriodicFunction(tuple(values), total)
