"""Tree construction, admissibility, regions, reconstruction."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from periodic_cluster import (
    DOWN,
    MINUS,
    NEGATIVE,
    PLUS,
    POSITIVE,
    UP,
    ZERO,
    Edge,
    PeriodicFunction,
    PeriodicTree,
    SignFunction,
    canonical_key,
    classify_slope,
    in_region,
    infinite_path_edges,
    infinite_path_gains,
    initial_tree,
    internal_extrema,
    is_injective,
    leaves,
    require_valid,
    synthesize_morphism,
    tree_from_function,
    validate,
)

from periodic_cluster import tree as tree_module

from conftest import make_fig1, make_ztree, random_injective, surjective_signs


def test_edge_normalization_collapses_translates():
    # (5,1,up) flips to (1,5,down); (4,8,down) shifts to the same class
    with pytest.raises(ValueError, match="duplicate"):
        PeriodicTree("-++", [(5, 1, UP), (4, 8, DOWN), (0, 1, DOWN)])


def test_edge_normalization_rules():
    t = PeriodicTree("-++", [(5, 1, UP), (2, 3, DOWN), (0, 1, DOWN)])
    assert Edge(1, 5, DOWN) in t.edges
    assert Edge(3, 4, DOWN) in t.edges  # (0,1) shifted one period right
    with pytest.raises(ValueError):
        PeriodicTree("-++", [(1, 2, "sideways"), (2, 3, DOWN), (3, 4, DOWN)])
    with pytest.raises(ValueError):
        PeriodicTree("-++", [(2, 2, UP), (2, 3, DOWN), (3, 4, DOWN)])


def test_edge_endpoints_must_be_ints():
    for bad in (1.0, True, Fraction(1)):
        with pytest.raises(TypeError):
            PeriodicTree("-++", [(bad, 5, DOWN), (1, 8, UP), (2, 3, DOWN)])


def test_duplicate_and_count_errors():
    with pytest.raises(ValueError, match="duplicate"):
        PeriodicTree("-++", [(1, 2, DOWN), (4, 5, DOWN), (2, 3, DOWN)])
    with pytest.raises(ValueError, match="expected 3"):
        PeriodicTree("-++", [(1, 2, DOWN), (2, 3, DOWN)])


def test_canonical_column_order(fig1):
    assert fig1.edges == (Edge(1, 5, DOWN), Edge(1, 8, UP), Edge(2, 3, DOWN))
    assert fig1.edge(1) == Edge(1, 5, DOWN)
    assert fig1.edge(3) == Edge(2, 3, DOWN)
    with pytest.raises(ValueError):
        fig1.edge(0)
    t0 = initial_tree("-++")
    assert t0.edges == (Edge(3, 4, DOWN), Edge(1, 2, DOWN), Edge(2, 3, DOWN))


def test_validate_clean(fig1, ztree):
    assert validate(fig1) == ()
    assert validate(ztree) == ()
    for s in ["-+", "+-", "-++", "+-+", "++-", "+++-"]:
        assert validate(initial_tree(s)) == ()
    require_valid(fig1)


def test_validate_edge_length_and_t3():
    t = PeriodicTree("-++", [(1, 4, UP), (1, 2, DOWN), (2, 3, DOWN)])
    v = validate(t)
    assert ("EDGE_LENGTH", "(1,4)") in [tuple(x) for x in v]
    assert ("T3", "p_1") in [tuple(x) for x in v]


def test_validate_t1_t2_t3_witnesses():
    t = PeriodicTree("-++", [(1, 5, DOWN), (1, 8, DOWN), (2, 3, DOWN)])
    got = {tuple(x) for x in validate(t)}
    assert got == {
        ("T1", "p_1 right child"),
        ("T1", "p_2 left parent"),
        ("T2", "p_2"),
        ("T3", "p_1"),
    }


def test_validate_cycle_witnesses():
    t = PeriodicTree("-+-+", [(1, 2, UP), (1, 2, DOWN), (3, 4, UP), (3, 4, DOWN)])
    assert ("CYCLE", "quotient graph disconnected") in [tuple(x) for x in validate(t)]
    t2 = PeriodicTree("-++", [(1, 2, UP), (1, 2, DOWN), (1, 3, UP)])
    assert ("CYCLE", "winding 0") in [tuple(x) for x in validate(t2)]


def test_validate_t4_round_trip():
    t = PeriodicTree("-++", [(2, 4, DOWN), (1, 2, UP), (1, 3, DOWN)])
    assert validate(t) == (("T4", "round trip"),)
    with pytest.raises(ValueError, match="not admissible: T4 round trip"):
        require_valid(t)


def test_classify_slope(fig1, ztree):
    assert classify_slope(fig1) == POSITIVE
    assert classify_slope(ztree) == ZERO
    assert classify_slope(initial_tree("-++")) == NEGATIVE
    ascending = PeriodicTree("+-", [(0, 1, UP), (1, 2, UP)])
    assert classify_slope(ascending) == POSITIVE


def test_leaves_and_extrema(fig1, ztree):
    assert leaves(fig1) == (3,)
    assert leaves(initial_tree("-++")) == ()
    assert leaves(ztree) == (1,)
    assert internal_extrema(fig1) == ((), ())
    assert internal_extrema(ztree) == ((2,), ())


def test_infinite_path_edges(fig1, ztree):
    assert infinite_path_edges(fig1) == (1, 2)
    assert infinite_path_edges(initial_tree("-++")) == (1, 2, 3)
    assert infinite_path_edges(ztree) == (2, 3)


def test_infinite_path_gains(fig1, ztree):
    assert infinite_path_gains(fig1) == {1: 1, 2: 1}
    assert infinite_path_gains(initial_tree("-++")) == {1: -1, 2: -1, 3: -1}
    assert infinite_path_gains(ztree) == {2: 1, 3: -1}
    # Gains over a full cycle sum to the per-period height drift, whose
    # sign matches the slope class.
    for t, slope in ((fig1, "Positive"), (ztree, "Zero"), (initial_tree("+-"), "Negative")):
        total = sum(infinite_path_gains(t).values())
        assert classify_slope(t) == slope
        assert (total > 0, total < 0) == (slope == "Positive", slope == "Negative")


def test_synthesize_lands_in_region(fig1, ztree):
    for t in (fig1, ztree, initial_tree("-++"), initial_tree("+-")):
        pi = synthesize_morphism(t)
        assert in_region(t, pi)
        assert pi.m != 0


def test_synthesize_raw_heights():
    pi = synthesize_morphism(initial_tree("-++"), injective=False)
    assert pi.values == (0, -1, -2) and pi.m == -3


def test_in_region_discriminates(fig1):
    assert in_region(fig1, PeriodicFunction((5, 1, 0), 3))
    assert not in_region(fig1, PeriodicFunction((0, -1, -2), -3))
    assert not in_region(initial_tree("-++"), PeriodicFunction((5, 1, 0), 3))
    with pytest.raises(ValueError, match="period mismatch"):
        in_region(fig1, PeriodicFunction((1, 2), 3))


def test_tree_from_function_frozen(fig1):
    got = tree_from_function("-++", PeriodicFunction((5, 1, 0), 3))
    assert got.edges == fig1.edges
    down = tree_from_function("-++", PeriodicFunction((0, -1, -2), -3))
    assert down.edges == initial_tree("-++").edges
    up = tree_from_function("+-", PeriodicFunction((0, 1), 3))
    assert up.edges == PeriodicTree("+-", [(1, 2, UP), (2, 3, UP)]).edges


def test_tree_from_function_errors():
    with pytest.raises(ValueError, match="nonzero"):
        tree_from_function("-++", PeriodicFunction((0, 1, 2), 0))
    with pytest.raises(ValueError, match="injective"):
        tree_from_function("-++", PeriodicFunction((0, 1, 2), 1))
    with pytest.raises(ValueError, match="period mismatch"):
        tree_from_function("-++", PeriodicFunction((0, 1), 3))


def test_reconstruction_round_trips():
    rng = random.Random(416)
    for _ in range(60):
        n = rng.randint(2, 4)
        eps = SignFunction.from_string(rng.choice(surjective_signs(n)))
        pi = random_injective(rng, n)
        t = tree_from_function(eps, pi)
        assert validate(t) == ()
        assert in_region(t, pi)
        again = tree_from_function(eps, synthesize_morphism(t))
        assert again.edges == t.edges


def test_region_membership_is_exclusive():
    # one function, several trees: only its own region contains it
    eps = SignFunction.from_string("-++")
    pi = PeriodicFunction((5, 1, 0), 3)
    home = tree_from_function(eps, pi)
    rng = random.Random(99)
    for _ in range(25):
        other = tree_from_function(eps, random_injective(rng, 3))
        if other.edges != home.edges:
            assert not in_region(other, pi)


def _seeded_functions(count: int):
    """Sign functions with runs of every length and injective Fraction
    functions with both signs of m, n = 2..64."""
    rng = random.Random(2014)
    for _ in range(count):
        n = rng.randint(2, 64)
        flip = rng.random()
        signs = [rng.choice((PLUS, MINUS))]
        for _ in range(n - 1):
            signs.append(-signs[-1] if rng.random() < flip else signs[-1])
        if len(set(signs)) == 1:
            signs[rng.randrange(n)] *= -1
        m = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
        spread = n * rng.randint(1, 4)
        # distinct fractions of m below m keep the values distinct mod m
        values = tuple(
            m * (rng.randint(-3, 3) + Fraction(r, spread)) for r in rng.sample(range(spread), n)
        )
        yield SignFunction(tuple(signs)), PeriodicFunction(values, m)


KEYS_DIGEST = "cd4ebe26be963bb8a3ba1752e6d14d679a22a720d1f9af32b7a874e1880de485"
SYNTHESIZED_DIGEST = "d682f48b51c8d48c97bb63afd4a74790d16b9ee2d44231079523fc883be264f2"


def test_reconstruction_matches_recorded_digests():
    # Digests recorded from the recursive Fraction reconstruction and the
    # Fraction tilt-and-bump synthesis that preceded the integer versions.
    keys, synthesized = hashlib.sha256(), hashlib.sha256()
    for eps, pi in _seeded_functions(150):
        t = tree_from_function(eps, pi)
        keys.update(canonical_key(t).encode() + b"\n")
        synthesized.update(repr(synthesize_morphism(t)).encode() + b"\n")
    assert keys.hexdigest() == KEYS_DIGEST
    assert synthesized.hexdigest() == SYNTHESIZED_DIGEST


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@given(
    st.lists(st.sampled_from((PLUS, MINUS)), min_size=2, max_size=12).filter(
        lambda s: len(set(s)) == 2
    ),
    st.data(),
    st.fractions(min_value=Fraction(1, 7), max_value=50, max_denominator=7),
    rationals,
)
def test_reconstruction_lands_in_region_and_ignores_affine_maps(signs, data, c, d):
    values = data.draw(st.lists(rationals, min_size=len(signs), max_size=len(signs)))
    m = data.draw(rationals.filter(bool))
    pi = PeriodicFunction(tuple(values), m)
    assume(is_injective(pi))
    eps = SignFunction(tuple(signs))
    t = tree_from_function(eps, pi)
    assert in_region(t, pi)
    moved = PeriodicFunction(tuple(c * v + d for v in values), c * m)
    assert tree_from_function(eps, moved) == t


def test_reconstruction_has_no_recursion_limit():
    # Every plus residue but one is a leaf, and they come off one at a
    # time; a recursive reconstruction needs one frame per removal.
    n = 2000
    eps = SignFunction((MINUS,) + (PLUS,) * (n - 1))
    pi = PeriodicFunction(tuple(range(n, 0, -1)), n + 1)
    t = tree_from_function(eps, pi)
    assert in_region(t, pi)
    assert validate(t) == ()


def test_reconstruction_builds_no_fraction(monkeypatch):
    inside = [False]
    built = []
    new = Fraction.__new__
    reconstruct = tree_module._reconstruct

    def counting_new(cls, *args, **kwargs):
        if inside[0]:
            built.append(args)
        return new(cls, *args, **kwargs)

    def watched(*args):
        inside[0] = True
        try:
            return reconstruct(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(tree_module, "_reconstruct", watched)
    for eps, pi in _seeded_functions(20):
        tree_from_function(eps, pi)
    # a straight line exercises the successor rule
    tree_from_function("-++", PeriodicFunction((0, Fraction(-1, 2), Fraction(-3, 2)), -3))
    assert built == []


def test_zero_slope_heights_take_the_least_ready_vertex():
    # Several vertices are ready at once; heights follow the least first.
    t = PeriodicTree(
        "-+-+-+",
        [(1, 2, UP), (2, 3, DOWN), (3, 4, UP), (4, 5, DOWN), (5, 6, UP), (6, 7, DOWN)],
    )
    assert classify_slope(t) == ZERO
    base = synthesize_morphism(t, injective=False)
    assert base == PeriodicFunction((0, 2, 1, 4, 3, 5), 0)
    assert in_region(t, base)


def test_canonical_constructor_keeps_count_and_duplicate_checks(fig1):
    assert PeriodicTree._canonical(fig1.eps, reversed(fig1.edges)) == fig1
    with pytest.raises(ValueError, match="duplicate"):
        PeriodicTree._canonical(fig1.eps, [fig1.edges[0]] * 2 + [fig1.edges[1]])
    with pytest.raises(ValueError, match="expected 3"):
        PeriodicTree._canonical(fig1.eps, fig1.edges[:2])
