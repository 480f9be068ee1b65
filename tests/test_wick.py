"""Contraction combinatorics of normal-ordered products in the Gaussian model."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egdeform.combinatorics import SubsetMask
from egdeform.distributions import LinearCombination, PropagatorProduct
from egdeform.wick import (
    PointConfiguration,
    check_causal_factorization,
    check_symmetry,
    check_translation_invariance,
    contraction_graphs,
    contraction_kernel,
    dyson_term,
    evaluate_kernel_exact,
    gaussian_moment,
    pairable,
    pairing_moment,
    rational_propagator,
    vacuum_moment,
    vacuum_moment_oracle,
    wick_expand,
)


def random_config(rng: random.Random, n: int, d: int = 2) -> PointConfiguration:
    points = set()
    while len(points) < n:
        points.add(
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(d))
        )
    return PointConfiguration(d=d, points=tuple(sorted(points)))


def random_g(rng: random.Random, n: int) -> dict:
    return {
        (i, j): Fraction(rng.randint(1, 12), rng.randint(1, 12))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }


# ---------------------------------------------------------------------------
# Contraction graphs and kernels
# ---------------------------------------------------------------------------


def test_no_legs_gives_the_empty_graph():
    graphs = contraction_graphs((0, 0))
    assert len(graphs) == 1
    assert graphs[0].edges == ()
    assert graphs[0].matchings == 1


def test_odd_total_legs_has_no_graphs():
    assert contraction_graphs((1,)) == ()
    assert contraction_graphs((2, 1)) == ()


def test_single_point_legs_cannot_contract():
    # same-point pairings are excluded, so a lone :phi^2: has no vacuum graphs
    assert contraction_graphs((2,)) == ()


def test_pairable_matches_multigraph_existence():
    # the closed form against the uncached backtracking, on every vector of
    # 1..5 points with entries 0..4
    for n in range(1, 6):
        for r in itertools.product(range(5), repeat=n):
            assert pairable(r) == bool(contraction_graphs.__wrapped__(r)), r


def test_contraction_graph_memo_is_bounded():
    maxsize = contraction_graphs.cache_info().maxsize
    assert maxsize is not None and maxsize >= 1024


def test_two_point_multigraph_counts():
    graphs = contraction_graphs((2, 2))
    assert len(graphs) == 1
    assert graphs[0].edges == (((1, 2), 2),)
    assert graphs[0].matchings == 2  # 2! ways to match the leg pairs


def test_triangle_counts_eight_matchings():
    graphs = contraction_graphs((2, 2, 2))
    by_edges = {g.edges: g.matchings for g in graphs}
    triangle = (((1, 2), 1), ((1, 3), 1), ((2, 3), 1))
    assert by_edges[triangle] == 8


def test_kernel_dimension_convention():
    kern = contraction_kernel((2, 2), d=4)
    assert isinstance(kern, LinearCombination)
    ((coeff, prod),) = kern.terms
    assert coeff == 2
    assert isinstance(prod, PropagatorProduct)
    assert prod.d == 4
    assert prod.total_multiplicity == 2


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_kernel_matches_oracle_random(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    r = tuple(rng.randint(0, 4) for _ in range(n))
    g = random_g(rng, n)
    kern = contraction_kernel(r, d=3)
    assert evaluate_kernel_exact(kern, g) == vacuum_moment_oracle(r, g)


def test_vacuum_moment_fast_path_equals_oracle():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(1, 4)
        r = tuple(rng.randint(0, 4) for _ in range(n))
        g = random_g(rng, n)
        assert vacuum_moment(r, g) == vacuum_moment_oracle(r, g)


def test_pairing_moment_equals_oracle_on_small_vectors():
    # every vector of 1..4 points with entries 0..4 and at most 10 legs (the
    # oracle takes seconds per vector at 12 legs); a fresh g per vector, and
    # one memo shared by all vectors of a length over a fixed g
    rng = random.Random(2718)
    for n in range(1, 5):
        g_shared = random_g(rng, n)
        memo: dict = {}
        for r in itertools.product(range(5), repeat=n):
            if sum(r) > 10:
                continue
            g = random_g(rng, n)
            assert pairing_moment(r, g) == vacuum_moment_oracle(r, g), r
            assert pairing_moment(r, g_shared, memo) == vacuum_moment_oracle(
                r, g_shared
            ), r


def test_pairing_moment_trivial_odd_and_unpairable_vectors():
    g = random_g(random.Random(5), 3)
    assert pairing_moment((0, 0, 0), g) == 1
    assert pairing_moment((), {}) == 1
    assert pairing_moment((2, 1, 0), g) == 0  # odd total
    assert pairing_moment((4, 1, 1), g) == 0  # 4 legs, only 2 elsewhere
    assert pairing_moment((2,), {}) == 0  # same-point pairs only
    with pytest.raises(ValueError):
        pairing_moment((1, -1), g)


# ---------------------------------------------------------------------------
# Wick expansion table
# ---------------------------------------------------------------------------


def test_wick_expand_two_by_two():
    terms = {t.label: t for t in wick_expand((2, 2), d=4)}
    assert set(terms) == {(0, 0), (1, 1), (2, 2)}
    assert terms[(0, 0)].coefficient == 1
    assert terms[(1, 1)].coefficient == 1
    assert terms[(2, 2)].coefficient == Fraction(1, 4)
    ((coeff, prod),) = terms[(0, 0)].kernel.terms
    assert coeff == 2 and prod.total_multiplicity == 2


def test_wick_expand_coefficient_convention():
    # the label (1, 2) keeps one leg at the first point and both at the second:
    # coefficient 1/(1! 2!) = 1/2
    terms = {t.label: t for t in wick_expand((1, 2), d=4)}
    assert set(terms) == {(1, 2), (0, 1)}
    assert terms[(1, 2)].coefficient == Fraction(1, 2)
    assert terms[(0, 1)].coefficient == 1


def test_wick_expand_drops_unpairable_labels():
    labels = {t.label for t in wick_expand((2,), d=4)}
    assert labels == {(2,)}  # the fully contracted row has no vacuum graph


def test_wick_expand_residual_monomials():
    terms = {t.label: t for t in wick_expand((2, 2), d=4)}
    monomial = terms[(1, 1)].residual_monomial
    assert tuple((m.point, m.power) for m in monomial) == ((1, 1), (2, 1))


# ---------------------------------------------------------------------------
# Axioms at rational configurations
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_symmetry_axiom(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    powers = tuple(rng.randint(0, 4) for _ in range(n))
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    assert check_symmetry(powers, tuple(sigma), random_config(rng, n))


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_causal_factorization_axiom(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    powers = tuple(rng.randint(0, 3) for _ in range(n))
    mask = rng.randint(1, (1 << n) - 2)
    assert check_causal_factorization(
        powers, SubsetMask(n, mask), random_config(rng, n)
    )


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_translation_axiom(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    powers = tuple(rng.randint(0, 4) for _ in range(n))
    offset = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2))
    assert check_translation_invariance(powers, offset, random_config(rng, n))


def test_propagator_is_translation_invariant_sample():
    config = PointConfiguration.from_ints(d=1, rows=[(0,), (2,)])
    g = rational_propagator(config)
    assert g[(1, 2)] == Fraction(1, 5)  # 1 / (1 + 4)


# ---------------------------------------------------------------------------
# Gaussian moments and formal perturbation terms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", range(0, 7))
def test_gaussian_moments_double_factorial(m):
    expected = math.prod(range(1, 2 * m, 2))
    assert gaussian_moment(2 * m) == expected


def test_gaussian_moment_odd_is_zero():
    assert gaussian_moment(3) == 0
    assert gaussian_moment(7) == 0


def test_dyson_terms_frozen():
    assert dyson_term(1, 2).to_complex() == 1j
    assert dyson_term(2, 1).to_complex() == -0.5
    assert dyson_term(2, 2).to_complex() == -1.5


def test_dyson_term_coupling_scaling():
    t = dyson_term(2, 2, coupling=Fraction(1, 3))
    assert t.magnitude == Fraction(3, 2) * Fraction(1, 9)
    assert t.i_power == 2
