"""Scaling sweep: how each linalg, cluster and tree function grows with n.

Each function is timed on one seeded tree per period n = 8, 16, ..., 128
with the edge_matrix cache cleared before every call, so every point is a
cold call.  A function stops at the first n whose predicted time, the last
time scaled by the last observed growth, passes CALL_CAP_S; the slow
layers (summands grows like n^4) stop early.  The fitted exponent is the
least-squares slope of log(time) against log(n) over the points reached.
"""

from __future__ import annotations

import math
import random
import statistics
import time

from periodic_cluster import (
    classify_slope,
    dimension_matrix,
    edge_matrix,
    exchange_matrix,
    extended_exchange_matrix,
    fz_mutate,
    in_region,
    psi_infinity,
    quiver_of_cluster,
    summands,
    synthesize_morphism,
    tree_from_function,
    validate,
)
from periodic_cluster.linalg import determinant, inverse

from workloads import random_injective, random_signs

PERIODS = (8, 16, 32, 64, 128)
CALL_CAP_S = 1.0
# A fast call is repeated until this much time is spent and the median kept.
MIN_SAMPLE_S = 0.02


def _subjects(tree, pi, names):
    gamma = edge_matrix(tree)
    ext = extended_exchange_matrix(tree) if "cluster.fz_mutate" in names else None
    k = tree.n // 2
    return {
        "linalg.inverse": lambda: inverse(gamma),
        "linalg.determinant": lambda: determinant(gamma),
        "cluster.edge_matrix": lambda: edge_matrix(tree),
        "cluster.exchange_matrix": lambda: exchange_matrix(tree),
        "cluster.extended_exchange_matrix": lambda: extended_exchange_matrix(tree),
        "cluster.dimension_matrix": lambda: dimension_matrix(tree),
        "cluster.psi_infinity": lambda: psi_infinity(tree, k),
        "cluster.summands": lambda: summands(tree),
        "cluster.fz_mutate": lambda: fz_mutate(ext, k),
        "cluster.quiver_of_cluster": lambda: quiver_of_cluster(tree),
        "tree.validate": lambda: validate(tree),
        "tree.tree_from_function": lambda: tree_from_function(tree.eps, pi),
        "tree.synthesize_morphism": lambda: synthesize_morphism(tree),
        "tree.in_region": lambda: in_region(tree, pi),
        "tree.classify_slope": lambda: classify_slope(tree),
    }


SWEPT = (
    "linalg.inverse",
    "linalg.determinant",
    "cluster.edge_matrix",
    "cluster.exchange_matrix",
    "cluster.extended_exchange_matrix",
    "cluster.dimension_matrix",
    "cluster.psi_infinity",
    "cluster.summands",
    "cluster.fz_mutate",
    "cluster.quiver_of_cluster",
    "tree.validate",
    "tree.tree_from_function",
    "tree.synthesize_morphism",
    "tree.in_region",
    "tree.classify_slope",
)


def _time_call(fn) -> float:
    samples = []
    spent = 0.0
    while spent < MIN_SAMPLE_S or not samples:
        edge_matrix.cache_clear()
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        samples.append(elapsed)
        spent += elapsed
    return statistics.median(samples)


def _slope(points: list[tuple[int, float]]) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def sweep(seed: int) -> dict[str, dict]:
    """Per function: the fitted exponent, the largest n reached, the points."""
    rng = random.Random(f"sweep:{seed}")
    points: dict[str, list[tuple[int, float]]] = {name: [] for name in SWEPT}
    stopped: set[str] = set()
    for n in PERIODS:
        eps = random_signs(rng, n)
        pi = random_injective(rng, n)
        subjects = _subjects(tree_from_function(eps, pi), pi, set(SWEPT) - stopped)
        for name in SWEPT:
            done = points[name]
            if name in stopped:
                continue
            if len(done) >= 2:
                predicted = done[-1][1] * done[-1][1] / done[-2][1]
            elif done:
                predicted = done[-1][1] * 16
            else:
                predicted = 0.0
            if predicted > CALL_CAP_S:
                stopped.add(name)
                continue
            done.append((n, _time_call(subjects[name])))
    edge_matrix.cache_clear()
    return {
        name: {
            "n_exp": _slope(pts) if len(pts) >= 2 else 0.0,
            "n_max": pts[-1][0] if pts else 0,
            "points": pts,
        }
        for name, pts in points.items()
    }
