"""Scaling operators, grading flows, and the truncated group."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_lattice import (
    ScalingOperator,
    apply_scaling_operator,
    dense_composition_witness,
    dense_lattice_claims,
    identity_matrix,
    matrix_product,
    subset_moebius_matrix,
    subset_zeta_matrix,
)
from egdeform.combinatorics import MultiIndex, SubsetMask
from egdeform.deformation import CoordinateKey, DeformationPoint, TheoryConfig
from egdeform.distributions import DiagonalDistribution, DiagonalTerm
from egdeform.freelie import LieElement, bch, lyndon_words
from egdeform.group import (
    CLASS_EQ,
    CLASS_GT,
    CLASS_LT,
    FAILS,
    HOLDS,
    MAX_CLAIM_POINTS,
    GroupElement,
    _composition_witness,
    _lattice_claims,
    apply_scaling,
    exp_truncated,
    generator_vector_field,
    grading_automorphism,
    grading_operator,
    grading_scale,
    label_class,
    log_truncated,
    scaling_coefficient,
    semidirect_inverse,
    semidirect_mul,
    verify_claims,
)

TH = TheoryConfig.build(d=1, p=4, n_max=5, uniform_sd_bound=Fraction(50))


def point(entries) -> DeformationPoint:
    converted = {}
    for (label, members, alpha), coeff in entries.items():
        key = CoordinateKey(
            label, SubsetMask.from_members(len(label), members), MultiIndex(alpha)
        )
        converted[key] = Fraction(coeff)
    return DeformationPoint(TH, converted)


def random_lie(rng: random.Random, truncation: int) -> LieElement:
    terms = {
        w: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        for w in lyndon_words(truncation)
    }
    return LieElement(truncation, terms)


def random_scale(rng: random.Random) -> Fraction:
    value = Fraction(0)
    while not value:
        value = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    return value


# ---------------------------------------------------------------------------
# Label classes and scaling coefficients
# ---------------------------------------------------------------------------


def test_label_class_compares_first_two_entries():
    assert label_class((2, 1)) == CLASS_GT
    assert label_class((1, 1)) == CLASS_EQ
    assert label_class((1, 2)) == CLASS_LT
    assert label_class((3, 0, 9, 9)) == CLASS_GT
    with pytest.raises(ValueError):
        label_class((2,))


def test_scaling_coefficient_values():
    k = SubsetMask.from_members(3, [1, 3])
    assert scaling_coefficient(k, CLASS_GT, Fraction(1, 2)) == Fraction(1, 4)
    assert scaling_coefficient(k, CLASS_EQ, Fraction(7)) == 1
    assert scaling_coefficient(k, CLASS_LT, Fraction(7)) == 0
    with pytest.raises(ValueError):
        scaling_coefficient(k, "sideways", Fraction(1))


# ---------------------------------------------------------------------------
# The operator on the subset lattice
# ---------------------------------------------------------------------------


def test_operator_is_upper_triangular_for_inclusion():
    for cls in (CLASS_GT, CLASS_EQ, CLASS_LT):
        op = ScalingOperator.build(3, cls, Fraction(3, 2))
        for i in range(8):
            for k in range(8):
                if (k & i) != k:
                    assert op.rows[i][k] == 0


def test_eq_class_operator_is_the_zeta_matrix():
    for lam in (Fraction(1, 2), Fraction(5)):
        op = ScalingOperator.build(3, CLASS_EQ, lam)
        assert op.rows == subset_zeta_matrix(3)


def test_gt_class_entries_are_lambda_powers():
    lam = Fraction(2, 3)
    op = ScalingOperator.build(3, CLASS_GT, lam)
    i = SubsetMask.from_members(3, [1, 2, 3])
    k = SubsetMask.from_members(3, [2, 3])
    assert op.entry(i, k) == lam ** 2
    assert op.entry(k, i) == 0


def test_moebius_inverts_zeta():
    for n in range(1, 7):
        size = 1 << n
        assert (
            matrix_product(subset_zeta_matrix(n), subset_moebius_matrix(n))
            == identity_matrix(size)
        )
        assert (
            matrix_product(subset_moebius_matrix(n), subset_zeta_matrix(n))
            == identity_matrix(size)
        )


# ---------------------------------------------------------------------------
# The action on points
# ---------------------------------------------------------------------------


def test_lt_class_points_scale_to_zero():
    pt = point({((1, 2), (1, 2), (0,)): Fraction(5)})
    assert apply_scaling(pt, Fraction(3)).is_zero()


def test_eq_class_action_is_the_subset_zeta_transform():
    pt = point(
        {
            ((1, 1, 1), (1, 2), (0, 0)): Fraction(2),
            ((1, 1, 1), (1, 2, 3), (0, 0)): Fraction(7),
        }
    )
    out = apply_scaling(pt, Fraction(9, 4))
    full = CoordinateKey(
        (1, 1, 1), SubsetMask.full(3), MultiIndex((0, 0))
    )
    small = CoordinateKey(
        (1, 1, 1), SubsetMask.from_members(3, [1, 2]), MultiIndex((0, 0))
    )
    assert out.coefficient(full) == 9  # 2 + 7, independent of lambda
    assert out.coefficient(small) == 2


def test_gt_class_action_weights_by_lambda_power():
    lam = Fraction(1, 2)
    pt = point(
        {
            ((2, 0), (1, 2), (0,)): Fraction(4),
        }
    )
    out = apply_scaling(pt, lam)
    key = CoordinateKey((2, 0), SubsetMask.full(2), MultiIndex((0,)))
    assert out.coefficient(key) == 4 * lam ** 2
    assert len(out.entries) == 1


def test_operator_route_matches_functional_route():
    rng = random.Random(12)
    for _ in range(10):
        cls = rng.choice((CLASS_GT, CLASS_EQ))
        label = {CLASS_GT: (3, 1, 0), CLASS_EQ: (2, 2, 1)}[cls]
        entries = {}
        for _ in range(4):
            members = rng.sample([1, 2, 3], rng.randint(2, 3))
            alpha = (rng.randint(0, 1), rng.randint(0, 1))
            entries[(label, tuple(sorted(members)), alpha)] = Fraction(
                rng.randint(-6, 6), rng.randint(1, 4)
            )
        pt = point(entries)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        op = ScalingOperator.build(3, cls, lam)
        assert apply_scaling_operator(op, pt) == apply_scaling(pt, lam)


def test_operator_rejects_mismatched_points():
    op = ScalingOperator.build(3, CLASS_GT, Fraction(2))
    wrong_size = point({((2, 1), (1, 2), (0,)): Fraction(1)})
    with pytest.raises(ValueError):
        apply_scaling_operator(op, wrong_size)
    wrong_class = point({((1, 1, 1), (1, 2), (0, 0)): Fraction(1)})
    with pytest.raises(ValueError):
        apply_scaling_operator(op, wrong_class)


def test_generator_drops_eq_and_lt_families():
    pt = point(
        {
            ((1, 1), (1, 2), (0,)): Fraction(3),
            ((0, 1), (1, 2), (0,)): Fraction(4),
        }
    )
    assert generator_vector_field(pt).is_zero()


def test_generator_matches_symmetric_difference_quotient():
    pt = point(
        {
            ((3, 1, 2), (1, 2), (0, 0)): Fraction(2, 3),
            ((3, 1, 2), (2, 3), (1, 0)): Fraction(-5),
            ((3, 1, 2), (1, 2, 3), (0, 1)): Fraction(7, 2),
        }
    )
    gen = generator_vector_field(pt)
    h = Fraction(1, 10 ** 6)
    plus = apply_scaling(pt, 1 + h)
    minus = apply_scaling(pt, 1 - h)
    quotient = (plus + minus.scale(-1)).scale(Fraction(1, 2) / h)
    for key in set(gen.sorted_keys()) | set(quotient.sorted_keys()):
        a = gen.coefficient(key)
        b = quotient.coefficient(key)
        assert abs(a - b) <= Fraction(1, 10 ** 10)


def test_generator_explicit_sum():
    pt = point({((2, 0), (1, 2), (1,)): Fraction(5)})
    gen = generator_vector_field(pt)
    key = CoordinateKey((2, 0), SubsetMask.full(2), MultiIndex((1,)))
    assert gen.coefficient(key) == 10  # |K| = 2 times b_K


# ---------------------------------------------------------------------------
# Grading flows
# ---------------------------------------------------------------------------


def test_theta_multiplies_by_q_to_the_level():
    pt = point(
        {
            ((1, 1), (1, 2), (0,)): Fraction(1),
            ((1, 1, 1), (1, 2, 3), (0, 0)): Fraction(1),
        }
    )
    out = grading_automorphism(pt, q=Fraction(3))
    k1 = CoordinateKey((1, 1), SubsetMask.full(2), MultiIndex((0,)))
    k2 = CoordinateKey((1, 1, 1), SubsetMask.full(3), MultiIndex((0, 0)))
    assert out.coefficient(k1) == 3
    assert out.coefficient(k2) == 9


def test_theta_accepts_exactly_one_parameter():
    pt = point({((1, 1), (1, 2), (0,)): Fraction(1)})
    with pytest.raises(ValueError):
        grading_automorphism(pt)
    with pytest.raises(ValueError):
        grading_automorphism(pt, q=Fraction(2), z=0.5)


def test_theta_with_log_parameter():
    import math

    pt = point({((1, 1, 1), (1, 2, 3), (0, 0)): Fraction(1)})
    out = grading_automorphism(pt, z=math.log(2.0))
    key = CoordinateKey((1, 1, 1), SubsetMask.full(3), MultiIndex((0, 0)))
    assert out.coefficient(key) == pytest.approx(4.0, rel=1e-12)


def test_theta_on_diagonal_distribution():
    dist = DiagonalDistribution(
        (
            DiagonalTerm(
                label=(2, 2, 2),
                subset=SubsetMask.full(3),
                alpha=MultiIndex((0, 0)),
                coefficient=Fraction(3, 2),
            ),
        )
    )
    out = grading_automorphism(dist, q=Fraction(1, 2))
    assert out.terms[0].coefficient == Fraction(3, 8)
    with pytest.raises(TypeError):
        grading_automorphism("not a point", q=Fraction(2))


@given(
    seed=st.integers(0, 10 ** 6),
    qa_num=st.integers(-6, 6).filter(bool),
    qa_den=st.integers(1, 6),
    qb_num=st.integers(-6, 6).filter(bool),
    qb_den=st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_theta_composition_law(seed, qa_num, qa_den, qb_num, qb_den):
    rng = random.Random(seed)
    entries = {}
    for _ in range(3):
        n = rng.randint(2, 4)
        label = tuple(rng.randint(0, 4) for _ in range(n))
        members = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(2, n))))
        alpha = tuple(rng.randint(0, 1) for _ in range(n - 1))
        entries[(label, members, alpha)] = Fraction(rng.randint(-5, 5))
    pt = point(entries)
    qa, qb = Fraction(qa_num, qa_den), Fraction(qb_num, qb_den)
    assert grading_automorphism(
        grading_automorphism(pt, q=qb), q=qa
    ) == grading_automorphism(pt, q=qa * qb)


def test_grading_operator_multiplies_by_level():
    pt = point(
        {
            ((1, 1), (1, 2), (0,)): Fraction(7),
            ((1, 1, 1, 1), (1, 4), (0, 0, 0)): Fraction(2),
        }
    )
    out = grading_operator(pt)
    k1 = CoordinateKey((1, 1), SubsetMask.full(2), MultiIndex((0,)))
    k3 = CoordinateKey(
        (1, 1, 1, 1), SubsetMask.from_members(4, [1, 4]), MultiIndex((0, 0, 0))
    )
    assert out.coefficient(k1) == 7
    assert out.coefficient(k3) == 6
    with pytest.raises(TypeError):
        grading_operator(3.14)


def test_grading_operator_is_theta_derivative_at_one():
    pt = point({((2, 2, 2), (1, 3), (1, 0)): Fraction(4)})
    h = Fraction(1, 10 ** 8)
    fd = (
        grading_automorphism(pt, q=1 + h)
        + grading_automorphism(pt, q=1 - h).scale(-1)
    ).scale(Fraction(1, 2) / h)
    op = grading_operator(pt)
    for key in op.sorted_keys():
        assert abs(fd.coefficient(key) - op.coefficient(key)) < Fraction(1, 10 ** 12)


def test_grading_scale_on_lie_elements():
    x = LieElement(3, {(1,): Fraction(1), (1, 2): Fraction(1)})
    out = grading_scale(Fraction(3), x)
    assert out.coefficient((1,)) == 3
    assert out.coefficient((1, 2)) == 27  # weight 1 + 2
    with pytest.raises(ValueError):
        grading_scale(0, x)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_grading_scale_multiplicative(seed):
    rng = random.Random(seed)
    x = random_lie(rng, 4)
    u, v = random_scale(rng), random_scale(rng)
    assert grading_scale(u * v, x) == grading_scale(u, grading_scale(v, x))


# ---------------------------------------------------------------------------
# The truncated group
# ---------------------------------------------------------------------------


def test_group_element_validation():
    from egdeform.freelie import WordSeries

    with pytest.raises(ValueError):
        GroupElement(series=WordSeries(3, {(): Fraction(2)}), scale=Fraction(1))
    with pytest.raises(ValueError):
        GroupElement(series=WordSeries.one(3), scale=Fraction(0))


def test_exp_log_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        x = random_lie(rng, 4)
        u = random_scale(rng)
        g = exp_truncated(x, u)
        assert log_truncated(g) == x
        assert g.scale == u


def test_untwisted_product_is_bch():
    rng = random.Random(6)
    x, y = random_lie(rng, 4), random_lie(rng, 4)
    g = exp_truncated(x) * exp_truncated(y)
    assert g.log() == bch(x, y)
    assert g.scale == 1


def test_scale_twists_the_second_factor():
    rng = random.Random(7)
    x = random_lie(rng, 4)
    u = Fraction(3, 2)
    e_scaled = GroupElement.identity(4)
    e_scaled = GroupElement(series=e_scaled.series, scale=u)
    g = e_scaled * exp_truncated(x)
    assert g.log() == grading_scale(u, x)
    assert g.scale == u


def test_group_laws_spot_checks():
    rng = random.Random(8)
    for _ in range(8):
        a = exp_truncated(random_lie(rng, 4), random_scale(rng))
        b = exp_truncated(random_lie(rng, 4), random_scale(rng))
        c = exp_truncated(random_lie(rng, 4), random_scale(rng))
        assert (a * b) * c == a * (b * c)
        e = GroupElement.identity(4)
        assert a * e == a and e * a == a
        assert a * a.inverse() == e
        assert a.inverse() * a == e
        assert semidirect_inverse(semidirect_mul(a, b)) == semidirect_mul(
            b.inverse(), a.inverse()
        )


def test_inverse_formula():
    rng = random.Random(9)
    x = random_lie(rng, 4)
    u = Fraction(-5, 3)
    inv = exp_truncated(x, u).inverse()
    assert inv.scale == Fraction(-3, 5)
    assert inv.log() == grading_scale(1 / u, -x)


# ---------------------------------------------------------------------------
# Claim verification
# ---------------------------------------------------------------------------


# 0, 1, -1 and -2 make lambda or 1 + lambda equal to 0 or +-1, where entries
# of different sizes can coincide.
LATTICE_LAMBDAS = tuple(
    Fraction(x)
    for x in "0 1 -1 -2 2 1/2 -1/2 3 1/3 5/7 -3/4 7/5 -5".split()
)


@pytest.mark.parametrize("n", range(1, 6))
def test_lattice_claims_match_the_dense_reference(n):
    note = f"n={n}"
    assert _lattice_claims(n, LATTICE_LAMBDAS, note) == dense_lattice_claims(
        n, LATTICE_LAMBDAS, note
    )
    for lam in LATTICE_LAMBDAS:
        assert _lattice_claims(n, (lam,), note) == dense_lattice_claims(
            n, (lam,), note
        )


@pytest.mark.parametrize("cls", (CLASS_GT, CLASS_EQ))
@pytest.mark.parametrize("n", range(1, 6))
def test_composition_witness_matches_the_dense_product(n, cls):
    for lam, mu in permutations(LATTICE_LAMBDAS, 2):
        assert _composition_witness(n, cls, lam, mu) == dense_composition_witness(
            n, cls, lam, mu
        ), (lam, mu)


def test_verify_claims_refuses_point_counts_outside_the_cap():
    for n_points in (-1, 0, 1, MAX_CLAIM_POINTS + 1):
        with pytest.raises(ValueError, match="n_points"):
            verify_claims(n_points=n_points)


def test_verify_claims_frozen_verdicts():
    results = verify_claims()
    verdicts = {r.claim_id: r.verdict for r in results}
    assert verdicts == {
        "scaling-triangularity": HOLDS,
        "scaling-unit-diagonal": FAILS,
        "scaling-identity-at-one": FAILS,
        "scaling-one-parameter-law": FAILS,
        "grading-flow-composition": HOLDS,
        "grading-scale-multiplicative": HOLDS,
        "semidirect-associativity": HOLDS,
        "semidirect-identity-inverse": HOLDS,
    }


def test_verify_claims_witness_discipline():
    for result in verify_claims():
        if result.verdict == FAILS:
            assert result.witness
        else:
            assert result.witness is None


def test_verify_claims_verdicts_seed_independent():
    base = [(r.claim_id, r.statement, r.verdict) for r in verify_claims(seed=7)]
    for seed in (11, 202, 999):
        assert [
            (r.claim_id, r.statement, r.verdict) for r in verify_claims(seed=seed)
        ] == base
