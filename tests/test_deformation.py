"""Coordinate keys, bounds, shifts, embeddings, and dimension reports."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egdeform.combinatorics import MultiIndex, SubsetMask, count_multi_indices
from egdeform.deformation import (
    BoundViolationError,
    CoordinateKey,
    DeformationPoint,
    FiltrationLevel,
    TheoryConfig,
    compose_injections,
    counterterm_dimension,
    embed,
    filtration_level,
    parse_point,
    realized_labels,
    serialize_point,
    shift,
    total_dimension_report,
)
from egdeform.distributions import DiagonalDistribution, DiagonalTerm


def permissive_theory(d=1, p=3, n_max=6) -> TheoryConfig:
    return TheoryConfig.build(d=d, p=p, n_max=n_max, uniform_sd_bound=Fraction(50))


def random_point(rng: random.Random, theory: TheoryConfig, n: int) -> DeformationPoint:
    entries = {}
    masks = [m for m in range(1 << n) if bin(m).count("1") >= 2]
    for _ in range(rng.randint(1, 5)):
        label = tuple(rng.randint(0, theory.p) for _ in range(n))
        alpha = MultiIndex(
            tuple(rng.randint(0, 2) for _ in range((n - 1) * theory.d))
        )
        key = CoordinateKey(label, SubsetMask(n, rng.choice(masks)), alpha)
        entries[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return DeformationPoint(theory, entries)


# ---------------------------------------------------------------------------
# Keys, bounds, and validation
# ---------------------------------------------------------------------------


def test_key_structure_validation():
    with pytest.raises(ValueError):
        CoordinateKey((2,), SubsetMask.full(1), MultiIndex(()))
    with pytest.raises(ValueError):
        CoordinateKey((2, 2), SubsetMask.from_members(2, [1]), MultiIndex((0,)))
    with pytest.raises(ValueError):
        CoordinateKey((2, 2), SubsetMask.full(3), MultiIndex((0, 0)))


def test_filtration_levels():
    assert filtration_level((2, 2)) == 1
    assert filtration_level((1, 0, 2)) == 2
    assert filtration_level((1,) * 5) == 4
    level = FiltrationLevel.of_theory(permissive_theory(p=2, n_max=3), 1)
    assert level.n == 1
    assert (0, 0) in level.labels and (1, 1) in level.labels


def test_alpha_length_enforced():
    theory = permissive_theory(d=2)
    key = CoordinateKey((2, 2), SubsetMask.full(2), MultiIndex((0,)))
    with pytest.raises(BoundViolationError):
        DeformationPoint(theory, {key: Fraction(1)})


def test_alpha_bound_literal_vs_codim():
    sd_bounds = {(2, 2): Fraction(2)}
    literal = TheoryConfig.build(d=2, p=2, n_max=3, sd_bounds=sd_bounds)
    corrected = TheoryConfig.build(
        d=2, p=2, n_max=3, sd_bounds=sd_bounds, bound_policy="codim-corrected"
    )
    full = SubsetMask.full(2)
    key2 = CoordinateKey((2, 2), full, MultiIndex((1, 1)))
    DeformationPoint(literal, {key2: Fraction(1)})  # |alpha| = 2 <= 2
    with pytest.raises(BoundViolationError) as err:
        DeformationPoint(corrected, {key2: Fraction(1)})  # 2 > 2 - 2*1 = 0
    assert err.value.key == key2


def test_strict_minimum_points_flag():
    theory = TheoryConfig.build(
        d=1, p=2, n_max=4, uniform_sd_bound=Fraction(9), strict_min_points=True
    )
    key = CoordinateKey((2, 2), SubsetMask.full(2), MultiIndex((0,)))
    with pytest.raises(BoundViolationError):
        DeformationPoint(theory, {key: Fraction(1)})
    key3 = CoordinateKey((2, 2, 2), SubsetMask.full(3), MultiIndex((0, 0)))
    DeformationPoint(theory, {key3: Fraction(1)})  # three points pass


def test_computed_bounds_from_contraction_kernels():
    # residuals (p - J_j) pair into E edges; sd = E (d - 2) for d >= 3
    theory = TheoryConfig.build(d=4, p=4, n_max=3)
    assert theory.sd_bound((0, 0)) == 8  # E = 4 edges, each of degree d - 2 = 2
    assert theory.sd_bound((4, 4)) == 0
    assert theory.sd_bound((3, 4)) is None  # odd legs: no kernel
    assert TheoryConfig.build(d=2, p=2, n_max=3).sd_bound((0, 0)) == 0
    assert TheoryConfig.build(d=1, p=2, n_max=3).sd_bound((0, 0)) == -2


def test_explicit_bounds_override_computed():
    theory = TheoryConfig.build(
        d=4, p=4, n_max=3, sd_bounds={(0, 0): Fraction(1, 2)}
    )
    assert theory.sd_bound((0, 0)) == Fraction(1, 2)
    assert theory.sd_bound([0, 0]) == Fraction(1, 2)
    uniform = TheoryConfig.build(
        d=4, p=4, n_max=3, sd_bounds={(4, 4): Fraction(3)}, uniform_sd_bound=Fraction(1)
    )
    assert uniform.sd_bound((4, 4)) == 3  # the table wins over the uniform bound
    assert uniform.sd_bound((0, 0)) == 1


# ---------------------------------------------------------------------------
# Point arithmetic and the shift action
# ---------------------------------------------------------------------------


def test_zero_coefficients_dropped():
    theory = permissive_theory()
    key = CoordinateKey((1, 1), SubsetMask.full(2), MultiIndex((0,)))
    pt = DeformationPoint(theory, {key: Fraction(0)})
    assert pt.is_zero()
    assert pt == DeformationPoint.zero(theory)


def _distribution(label, rows):
    return DiagonalDistribution(
        tuple(
            DiagonalTerm(
                label=label,
                subset=SubsetMask.from_members(len(label), members),
                alpha=MultiIndex(alpha),
                coefficient=coeff,
            )
            for members, alpha, coeff in rows
        )
    )


def test_shift_accumulates_coordinates():
    theory = permissive_theory()
    dist = _distribution((2, 1), [([1, 2], (1,), Fraction(3, 4))])
    pt = shift(DeformationPoint.zero(theory), dist)
    key = CoordinateKey((2, 1), SubsetMask.full(2), MultiIndex((1,)))
    assert pt.coefficient(key) == Fraction(3, 4)
    again = shift(pt, dist)
    assert again.coefficient(key) == Fraction(3, 2)


def test_shift_by_zero_is_identity():
    theory = permissive_theory()
    rng = random.Random(4)
    pt = random_point(rng, theory, 3)
    assert shift(pt, DiagonalDistribution(())) == pt


def test_shift_label_assertion():
    theory = permissive_theory()
    dist = _distribution((2, 1), [([1, 2], (0,), Fraction(1))])
    with pytest.raises(ValueError):
        shift(DeformationPoint.zero(theory), dist, label=(1, 1))
    shift(DeformationPoint.zero(theory), dist, label=(2, 1))


def test_shift_converts_float_coefficients_exactly():
    theory = permissive_theory()
    dist = _distribution((2, 1), [([1, 2], (0,), 0.5)])
    pt = shift(DeformationPoint.zero(theory), dist)
    key = CoordinateKey((2, 1), SubsetMask.full(2), MultiIndex((0,)))
    assert pt.coefficient(key) == Fraction(1, 2)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_shift_additivity(seed):
    rng = random.Random(seed)
    theory = permissive_theory()
    pt = random_point(rng, theory, 2)
    rows1 = [([1, 2], (rng.randint(0, 2),), Fraction(rng.randint(-5, 5))) for _ in range(2)]
    rows2 = [([1, 2], (rng.randint(0, 2),), Fraction(rng.randint(-5, 5))) for _ in range(2)]
    d1 = _distribution((2, 1), rows1)
    d2 = _distribution((2, 1), rows2)
    merged = _distribution((2, 1), rows1 + rows2)
    assert shift(shift(pt, d1), d2) == shift(pt, merged)


def test_shift_then_negation_restores_the_point():
    theory = permissive_theory()
    rng = random.Random(11)
    pt = random_point(rng, theory, 2)
    rows = [([1, 2], (1,), Fraction(7, 3))]
    neg = [([1, 2], (1,), Fraction(-7, 3))]
    assert shift(shift(pt, _distribution((1, 1), rows)), _distribution((1, 1), neg)) == pt


def test_bound_violation_reports_offending_key():
    theory = TheoryConfig.build(d=1, p=2, n_max=3, sd_bounds={(2, 2): Fraction(0)})
    dist = _distribution((2, 2), [([1, 2], (1,), Fraction(1))])
    with pytest.raises(BoundViolationError) as err:
        shift(DeformationPoint.zero(theory), dist)
    assert err.value.key.label == (2, 2)
    assert err.value.key.alpha.components == (1,)


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------


def test_embed_identity_injection():
    theory = permissive_theory()
    rng = random.Random(21)
    pt = random_point(rng, theory, 3)
    assert embed(pt, (1, 2, 3), 3) == pt


def test_embed_zero_point():
    theory = permissive_theory()
    assert embed(DeformationPoint.zero(theory), (1, 3), 4).is_zero()


def test_embed_moves_labels_subsets_and_alpha_blocks():
    theory = permissive_theory(d=2)
    key = CoordinateKey(
        (3, 1), SubsetMask.full(2), MultiIndex((1, 2))
    )
    pt = DeformationPoint(theory, {key: Fraction(5)})
    out = embed(pt, (2, 4), 4)
    (new_key,) = out.sorted_keys()
    assert new_key.label == (0, 3, 0, 1)
    assert new_key.subset.members == (2, 4)
    # the alpha block of original point 2 lands at target point 4, block index 2
    assert new_key.alpha.components == (0, 0, 0, 0, 1, 2)
    assert out.coefficient(new_key) == 5


def test_embed_requires_strictly_increasing_image():
    theory = permissive_theory()
    pt = random_point(random.Random(2), theory, 2)
    with pytest.raises(ValueError):
        embed(pt, (2, 2), 4)
    with pytest.raises(ValueError):
        embed(pt, (3, 1), 4)


def test_embed_rejects_mixed_levels():
    theory = permissive_theory()
    k2 = CoordinateKey((1, 1), SubsetMask.full(2), MultiIndex((0,)))
    k3 = CoordinateKey((1, 1, 1), SubsetMask.full(3), MultiIndex((0, 0)))
    pt = DeformationPoint(theory, {k2: Fraction(1), k3: Fraction(1)})
    with pytest.raises(ValueError):
        embed(pt, (1, 2), 4)


def test_embed_is_linear():
    theory = permissive_theory()
    rng = random.Random(31)
    a = random_point(rng, theory, 2)
    b = random_point(rng, theory, 2)
    image, n = (1, 3), 4
    assert embed(a + b, image, n) == embed(a, image, n) + embed(b, image, n)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_embed_functoriality(seed):
    rng = random.Random(seed)
    theory = permissive_theory(d=rng.choice((1, 2)))
    m = rng.randint(2, 3)
    k = rng.randint(m, 4)
    n = rng.randint(k, 6)
    kappa = tuple(sorted(rng.sample(range(1, k + 1), m)))
    iota = tuple(sorted(rng.sample(range(1, n + 1), k)))
    pt = random_point(rng, theory, m)
    assert embed(embed(pt, kappa, k), iota, n) == embed(
        pt, compose_injections(iota, kappa), n
    )


# ---------------------------------------------------------------------------
# Dimension counting
# ---------------------------------------------------------------------------


def test_counterterm_dimension_frozen_examples():
    full2 = SubsetMask.full(2)
    lit = TheoryConfig.build(d=1, p=2, n_max=3, sd_bounds={(2, 2): Fraction(2)})
    assert counterterm_dimension((2, 2), full2, lit) == count_multi_indices(1, 2) == 3
    cor = TheoryConfig.build(
        d=2, p=2, n_max=3, sd_bounds={(2, 2): Fraction(2)},
        bound_policy="codim-corrected",
    )
    assert counterterm_dimension((2, 2), full2, cor) == count_multi_indices(2, 0) == 1


def test_negative_bound_gives_zero_dimensions():
    theory = TheoryConfig.build(d=1, p=2, n_max=3)
    # sd((1, 1)) computes to -1 in d = 1
    assert counterterm_dimension((1, 1), SubsetMask.full(2), theory) == 0


def test_realized_labels_level_one():
    theory = TheoryConfig.build(d=1, p=2, n_max=3)
    assert realized_labels(theory, 1) == ((0, 0), (1, 1), (2, 2))


def test_dimension_report_frozen_example():
    theory = TheoryConfig.build(
        d=1, p=2, n_max=2, uniform_sd_bound=Fraction(1)
    )
    assert total_dimension_report(theory, 1) == {1: 6}


def _per_subset_report(theory: TheoryConfig, up_to_level: int) -> dict[int, int]:
    """The dimension report summed over every subset, one count per subset."""
    report = {}
    for level in range(1, up_to_level + 1):
        n = level + 1
        report[level] = sum(
            counterterm_dimension(label, SubsetMask(n, mask), theory)
            for label in realized_labels(theory, level)
            for mask in range(1 << n)
            if bin(mask).count("1") >= 2
        )
    return report


def test_dimension_report_weights_one_subset_per_size():
    theories = [
        TheoryConfig.build(d=d, p=p, n_max=n_max, bound_policy=policy)
        for d in range(1, 5)
        for p in range(0, 5)
        for n_max in range(2, 5)
        for policy in ("paper-literal", "codim-corrected")
    ]
    theories.append(
        TheoryConfig.build(
            d=3, p=3, n_max=4, sd_bounds={(2, 2): Fraction(2), (1, 1, 3): Fraction(9, 2)}
        )
    )
    theories.append(
        TheoryConfig.build(d=2, p=3, n_max=4, uniform_sd_bound=Fraction(5, 2))
    )
    for theory in theories:
        up_to = theory.n_max - 1
        assert total_dimension_report(theory, up_to) == _per_subset_report(
            theory, up_to
        ), theory


def test_dimension_report_skips_levels_below_the_strict_minimum():
    # d = 2, p = 2: labels (0,0), (1,1), (2,2) carry sd 0, one index each
    loose = TheoryConfig.build(d=2, p=2, n_max=3)
    strict = TheoryConfig.build(d=2, p=2, n_max=3, strict_min_points=True)
    assert total_dimension_report(loose, 2)[1] == 3
    assert total_dimension_report(strict, 2)[1] == 0
    assert total_dimension_report(strict, 2)[2] == total_dimension_report(loose, 2)[2]
    assert realized_labels(strict, 1) == realized_labels(loose, 1)


def test_dimension_report_monotone_in_bounds():
    lo = TheoryConfig.build(d=2, p=2, n_max=3, uniform_sd_bound=Fraction(1))
    hi = TheoryConfig.build(d=2, p=2, n_max=3, uniform_sd_bound=Fraction(4))
    rlo = total_dimension_report(lo, 2)
    rhi = total_dimension_report(hi, 2)
    assert all(rlo[level] <= rhi[level] for level in rlo)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_serialization_round_trip_bit_exact(seed):
    rng = random.Random(seed)
    theory = permissive_theory(d=rng.choice((1, 2)))
    pt = random_point(rng, theory, rng.randint(2, 4))
    text = serialize_point(pt)
    back = parse_point(text, theory)
    assert back == pt
    assert serialize_point(back) == text


def test_parse_point_rejects_malformed_entries():
    theory = permissive_theory()
    with pytest.raises(ValueError):
        parse_point('{"not": "a list"}', theory)
    with pytest.raises(ValueError):
        parse_point('[{"J": [2, 1]}]', theory)
    zero_den = (
        '[{"J": [2, 1], "I": [1, 2], "alpha": [0], "coeff_num": 1, "coeff_den": 0}]'
    )
    with pytest.raises(ValueError, match="malformed point entry.*coeff_den"):
        parse_point(zero_den, theory)


def test_parse_point_merges_duplicate_keys():
    theory = permissive_theory()
    text = (
        '[{"J": [2, 1], "I": [1, 2], "alpha": [0], "coeff_num": 1, "coeff_den": 2},'
        ' {"J": [2, 1], "I": [1, 2], "alpha": [0], "coeff_num": 1, "coeff_den": 2}]'
    )
    pt = parse_point(text, theory)
    key = CoordinateKey((2, 1), SubsetMask.full(2), MultiIndex((0,)))
    assert pt.coefficient(key) == 1
