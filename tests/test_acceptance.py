"""Acceptance gate: one test per shipped guarantee, oracles computed in-test.

Every numeric tolerance is pinned here, next to the assertion it guards.
Exact claims use Fraction arithmetic end to end and assert equality with no
tolerance at all.
"""

import json
import math
import random
import time
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
import scipy.integrate

from dense_lattice import (
    ScalingOperator,
    identity_matrix,
    matrix_product,
    subset_moebius_matrix,
)
from egdeform.combinatorics import (
    MultiIndex,
    SubsetMask,
    count_multi_indices,
    enumerate_pairings,
    moebius_transform,
    point_legs,
    zeta_transform,
)
from egdeform.deformation import (
    CoordinateKey,
    DeformationPoint,
    TheoryConfig,
    compose_injections,
    embed,
)
from egdeform.distributions import (
    HomogeneousPower,
    QuadratureSpec,
    TestFunction,
    extend,
    extension_ambiguity,
    geometric_grid,
    origin_delta,
    scaling_degree_numeric,
    scaling_degree_symbolic,
)
from egdeform.freelie import (
    LieElement,
    bch,
    exp_series,
    graded_dimensions,
    log_series,
    lyndon_words,
    word_weight,
)
from egdeform.group import (
    CLASS_EQ,
    CLASS_GT,
    CLASS_LT,
    GroupElement,
    apply_scaling,
    exp_truncated,
    generator_vector_field,
    grading_automorphism,
    grading_scale,
)
from egdeform.shell import SessionConfig, golden_view, run_all_claims
from egdeform.wick import (
    PointConfiguration,
    check_causal_factorization,
    check_symmetry,
    check_translation_invariance,
    contraction_kernel,
    dyson_term,
    evaluate_kernel_exact,
    gaussian_moment,
    vacuum_moment,
    vacuum_moment_oracle,
)

GOLDEN_PATH = resources.files("egdeform").joinpath("data").joinpath(
    "verify_claims_golden.json"
)


def random_fraction(rng, lo=-9, hi=9, max_den=9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_edge_values(rng, n: int) -> dict:
    return {
        (i, j): random_fraction(rng)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }


def random_lie(rng, truncation: int) -> LieElement:
    return LieElement(
        truncation,
        {
            w: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            for w in lyndon_words(truncation)
        },
    )


def random_nonzero_fraction(rng) -> Fraction:
    value = Fraction(0)
    while not value:
        value = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    return value


# ---------------------------------------------------------------------------
# 1. Kernel evaluation equals the raw pairing sum on every small power vector
# ---------------------------------------------------------------------------


def _power_vectors_up_to(total: int):
    """All power vectors with positive entries and at most ``total`` legs.

    A zero-power point carries no legs and drops out of both evaluation
    routes, so the positive vectors exhaust the problem; the companion
    zero-inertness check below makes that reduction explicit.
    """
    out = []

    def rec(prefix, remaining):
        if prefix:
            out.append(tuple(prefix))
        for v in range(1, remaining + 1):
            prefix.append(v)
            rec(prefix, remaining - v)
            prefix.pop()

    rec([], total)
    return sorted(out, key=lambda v: (len(v), v))


def test_01_kernel_evaluation_matches_pairing_oracle_everywhere():
    rng = random.Random(20260814)
    vectors = _power_vectors_up_to(10)
    started = time.perf_counter()
    checked = 0
    for powers in vectors:
        g = random_edge_values(rng, len(powers))
        oracle = vacuum_moment_oracle(powers, g)
        kernel = contraction_kernel(powers, d=4)
        assert evaluate_kernel_exact(kernel, g) == oracle
        assert vacuum_moment(powers, g) == oracle
        checked += 1
    # zero powers are inert: prepending a legless point changes nothing
    for powers in rng.sample(vectors, 30):
        g = random_edge_values(rng, len(powers))
        shifted = {(i + 1, j + 1): value for (i, j), value in g.items()}
        assert vacuum_moment_oracle((0,) + powers, shifted) == vacuum_moment_oracle(
            powers, g
        )
        assert evaluate_kernel_exact(
            contraction_kernel((0,) + powers, d=4), shifted
        ) == evaluate_kernel_exact(contraction_kernel(powers, d=4), g)
    elapsed = time.perf_counter() - started
    print(f"criterion 1: {checked} positive power vectors, exact, {elapsed:.1f}s")
    assert checked == 1023
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. Gaussian moments against the double factorial and the pairing count
# ---------------------------------------------------------------------------


def test_02_gaussian_moments_are_double_factorials():
    for m in range(0, 7):
        double_factorial = math.prod(range(1, 2 * m, 2))
        assert gaussian_moment(2 * m) == double_factorial
        assert len(enumerate_pairings(point_legs((2 * m,)))) == double_factorial
        if m:
            assert gaussian_moment(2 * m - 1) == 0
    print("criterion 2: moments 0..12 equal (2m-1)!! and the pairing count")


# ---------------------------------------------------------------------------
# 3. Moment identities on two hundred randomized instances
# ---------------------------------------------------------------------------


def _random_config(rng, n: int, d: int = 2) -> PointConfiguration:
    points = set()
    while len(points) < n:
        points.add(
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))
        )
    return PointConfiguration(d=d, points=tuple(sorted(points)))


def test_03_moment_identities_on_two_hundred_instances():
    rng = random.Random(31415)
    for _ in range(200):
        n = rng.randint(2, 4)
        powers = tuple(rng.randint(0, 4) for _ in range(n))
        config = _random_config(rng, n)
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        assert check_symmetry(powers, tuple(sigma), config)
        group = SubsetMask(n, rng.randint(1, (1 << n) - 2))
        assert check_causal_factorization(powers, group, config)
        offset = tuple(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)
        )
        assert check_translation_invariance(powers, offset, config)
    print("criterion 3: symmetry, factorization, translation on 200 instances")


# ---------------------------------------------------------------------------
# 4. The numeric scaling-degree estimator against the symbolic values
# ---------------------------------------------------------------------------


def test_04_numeric_scaling_degrees():
    started = time.perf_counter()
    grid = geometric_grid(0.5, 10)
    for k in (1, 2):
        for m in (1, 2, 3):
            kernel = HomogeneousPower(exponent=Fraction(k), ambient=m)
            omega = TestFunction.gaussian(m, width=0.35)
            quad = QuadratureSpec(resolution=32, half_width=1.2)
            numeric = scaling_degree_numeric(kernel, omega, grid, quad)
            assert abs(numeric - k) <= 0.1, (k, m, numeric)
    for m, alpha in ((1, (0,)), (1, (1,)), (2, (0, 0)), (2, (1, 0)), (2, (0, 1))):
        kernel = origin_delta(m, alpha=alpha, width=1e-3)
        omega = TestFunction(center=(0.0,) * m, width=1.0, polynomial_factor=alpha)
        quad = QuadratureSpec(resolution=256, half_width=0.032)
        numeric = scaling_degree_numeric(kernel, omega, grid, quad)
        expected = m + sum(alpha)
        assert abs(numeric - expected) <= 0.15, (m, alpha, numeric)
    elapsed = time.perf_counter() - started
    print(f"criterion 4: 6 power + 5 delta estimates in tolerance, {elapsed:.1f}s")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 5. Two extensions of 1/|x| differ by a multiple of delta
# ---------------------------------------------------------------------------


def test_05_extension_ambiguity_of_one_over_x():
    base = HomogeneousPower(exponent=Fraction(1), ambient=1)
    w1 = TestFunction.gaussian(1, width=1.0)
    w2 = TestFunction.gaussian(1, width=2.0)
    e1 = extend(base, w1)
    e2 = extend(base, w2)
    quad = QuadratureSpec(resolution=1 << 20, half_width=40.0)
    fit = extension_ambiguity(e1, e2, probe_orders=1, quadrature=quad)
    assert fit.residual <= 1e-8
    c0 = fit.coefficients[MultiIndex((0,))]

    def integrand(x):
        g1 = math.exp(-(x / 1.0) ** 2)
        g2 = math.exp(-(x / 2.0) ** 2)
        return (g1 - g2) / abs(x)

    oracle, err = scipy.integrate.quad(integrand, -40.0, 40.0, points=[0.0])
    assert err < 1e-9
    assert abs(c0 - oracle) <= 1e-6 * abs(oracle)
    print(f"criterion 5: residual {fit.residual:.2e}, c0 {c0:.10f} vs {oracle:.10f}")


# ---------------------------------------------------------------------------
# 6. Lattice inversion, functional and as matrices against the eq operator
# ---------------------------------------------------------------------------


def test_06_zeta_moebius_inversion():
    rng = random.Random(99)
    for n in range(1, 11):
        values = {
            SubsetMask(n, mask): random_fraction(rng) for mask in range(1 << n)
        }
        assert moebius_transform(zeta_transform(values)) == values
        assert zeta_transform(moebius_transform(values)) == values
    for n in range(1, 7):
        op = ScalingOperator.build(n, CLASS_EQ, Fraction(7, 3))
        assert (
            matrix_product(op.rows, subset_moebius_matrix(n))
            == identity_matrix(1 << n)
        )
    print("criterion 6: inversion exact to n=10; eq operator times moebius = id")


# ---------------------------------------------------------------------------
# 7. Scaling operators never reach outside the inclusion order
# ---------------------------------------------------------------------------


def test_07_scaling_operator_triangularity():
    rng = random.Random(7)
    lams = [random_nonzero_fraction(rng) for _ in range(20)]
    for n in range(1, 7):
        for cls in (CLASS_GT, CLASS_EQ, CLASS_LT):
            for lam in lams:
                op = ScalingOperator.build(n, cls, lam)
                for i in range(1 << n):
                    for k in range(1 << n):
                        if (k & i) != k:
                            assert op.rows[i][k] == 0
    print("criterion 7: zero pattern respects subset inclusion, n <= 6, 20 lambdas")


# ---------------------------------------------------------------------------
# 8. Group laws, all exact
# ---------------------------------------------------------------------------


def test_08_group_laws():
    rng = random.Random(808)
    theory = TheoryConfig.build(d=2, p=3, n_max=4, uniform_sd_bound=Fraction(100))

    def rand_point():
        entries = {}
        for _ in range(4):
            n = rng.randint(2, 3)
            label = tuple(rng.randint(0, 3) for _ in range(n))
            members = sorted(rng.sample(range(1, n + 1), rng.randint(2, n)))
            alpha = MultiIndex(tuple(rng.randint(0, 1) for _ in range((n - 1) * 2)))
            key = CoordinateKey(label, SubsetMask.from_members(n, members), alpha)
            entries[key] = random_fraction(rng)
        return DeformationPoint(theory, entries)

    for _ in range(50):
        pt = rand_point()
        qa, qb = random_nonzero_fraction(rng), random_nonzero_fraction(rng)
        assert grading_automorphism(
            grading_automorphism(pt, q=qb), q=qa
        ) == grading_automorphism(pt, q=qa * qb)

    for _ in range(50):
        x = random_lie(rng, 4)
        u, v = random_nonzero_fraction(rng), random_nonzero_fraction(rng)
        assert grading_scale(u * v, x) == grading_scale(u, grading_scale(v, x))

    e = GroupElement.identity(4)
    for _ in range(100):
        a, b, c = (
            exp_truncated(random_lie(rng, 4), random_nonzero_fraction(rng))
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)
        assert a * e == a and e * a == a
        assert a * a.inverse() == e and a.inverse() * a == e
    print("criterion 8: theta, grading-scale, semidirect laws exact on 100 triples")


# ---------------------------------------------------------------------------
# 9. Free graded Lie dimensions against a bracket-span rank computation
# ---------------------------------------------------------------------------


def _assoc_bracket(u: dict, v: dict) -> dict:
    out: dict = {}
    for wu, cu in u.items():
        for wv, cv in v.items():
            out[wu + wv] = out.get(wu + wv, Fraction(0)) + cu * cv
            out[wv + wu] = out.get(wv + wu, Fraction(0)) - cu * cv
    return {w: c for w, c in out.items() if c}


def _independent_span(vectors: list) -> list:
    basis: list = []
    kept: list = []
    for vec in vectors:
        work = dict(vec)
        for pivot, row in basis:
            if work.get(pivot):
                factor = work[pivot] / row[pivot]
                for w, c in row.items():
                    work[w] = work.get(w, Fraction(0)) - factor * c
        work = {w: c for w, c in work.items() if c}
        if work:
            basis.append((min(work), work))
            kept.append(vec)
    return kept


def test_09_free_lie_dimensions_vs_bracket_span_rank():
    started = time.perf_counter()
    dims = graded_dimensions(6)
    assert dims == (1, 1, 2, 3, 6, 9)
    # independent route: iterated commutators in the free associative algebra
    span = {1: [{(1,): Fraction(1)}]}
    for m in range(2, 7):
        candidates = [{(m,): Fraction(1)}]
        for a in range(1, m):
            for u in span[a]:
                for v in span[m - a]:
                    w = _assoc_bracket(u, v)
                    if w:
                        candidates.append(w)
        span[m] = _independent_span(candidates)
    brute = tuple(len(span[m]) for m in range(1, 7))
    assert brute == dims
    lyndon_counts = tuple(
        sum(1 for w in lyndon_words(6) if word_weight(w) == m) for m in range(1, 7)
    )
    assert lyndon_counts == dims
    elapsed = time.perf_counter() - started
    print(f"criterion 9: dims {dims} = bracket-span ranks = Lyndon counts, {elapsed:.1f}s")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 10. exp, log and the composition series
# ---------------------------------------------------------------------------


def test_10_exp_log_and_composition():
    rng = random.Random(1010)
    for _ in range(50):
        x = random_lie(rng, 4)
        y = random_lie(rng, 4)
        assert log_series(exp_series(x)) == x
        assert exp_series(x) * exp_series(y) == exp_series(bch(x, y))
    print("criterion 10: log(exp(X)) = X and exp(X)exp(Y) = exp(bch) on 50 pairs")


# ---------------------------------------------------------------------------
# 11. The scaling generator against a finite difference
# ---------------------------------------------------------------------------


def test_11_generator_matches_finite_difference():
    rng = random.Random(1111)
    theory = TheoryConfig.build(d=1, p=4, n_max=6, uniform_sd_bound=Fraction(100))
    h = Fraction(1, 10 ** 6)
    for _ in range(25):
        n = rng.randint(2, 5)
        entries = {}
        for _ in range(rng.randint(1, 4)):
            label = tuple(rng.randint(0, 4) for _ in range(n))
            members = sorted(rng.sample(range(1, n + 1), rng.randint(2, n)))
            alpha = MultiIndex(tuple(rng.randint(0, 1) for _ in range(n - 1)))
            key = CoordinateKey(label, SubsetMask.from_members(n, members), alpha)
            entries[key] = random_fraction(rng)
        pt = DeformationPoint(theory, entries)
        gen = generator_vector_field(pt)
        quotient = (
            apply_scaling(pt, 1 + h) + apply_scaling(pt, 1 - h).scale(-1)
        ).scale(Fraction(1, 2) / h)
        keys = set(gen.sorted_keys()) | set(quotient.sorted_keys())
        for key in keys:
            a, b = gen.coefficient(key), quotient.coefficient(key)
            assert abs(a - b) <= Fraction(1, 10 ** 4) * max(abs(a), 1)
    print("criterion 11: generator = d/d lambda at 1 within 1e-4 relative, n <= 5")


# ---------------------------------------------------------------------------
# 12. The golden verdicts are reproduced bit-exactly, whatever the seed
# ---------------------------------------------------------------------------


def test_12_golden_verdicts_bit_exact_across_seeds():
    stored = GOLDEN_PATH.read_text(encoding="utf-8")
    cfg = SessionConfig()
    for seed in (7, 99, 20260814):
        view = golden_view(run_all_claims(cfg, seed))
        text = json.dumps(view, indent=2, sort_keys=True) + "\n"
        assert text == stored, f"seed {seed} diverges from the golden file"
    verdicts = {c["claim_id"]: c["verdict"] for c in json.loads(stored)}
    assert verdicts["scaling-triangularity"] == "holds"
    assert verdicts["scaling-unit-diagonal"] == "fails"
    assert verdicts["scaling-identity-at-one"] == "fails"
    assert verdicts["scaling-one-parameter-law"] == "fails"
    assert verdicts["grading-flow-composition"] == "holds"
    assert verdicts["grading-scale-multiplicative"] == "holds"
    assert verdicts["semidirect-associativity"] == "holds"
    assert verdicts["semidirect-identity-inverse"] == "holds"
    print("criterion 12: golden file reproduced bit-exactly for 3 seeds")


# ---------------------------------------------------------------------------
# 13. Embedding a point twice equals embedding along the composite
# ---------------------------------------------------------------------------


def test_13_embedding_functoriality():
    rng = random.Random(1313)
    for _ in range(100):
        d = rng.choice((1, 2))
        theory = TheoryConfig.build(
            d=d, p=4, n_max=10, uniform_sd_bound=Fraction(100)
        )
        m = rng.randint(2, 6)  # levels 1..5
        k = rng.randint(m, 8)
        n = rng.randint(k, 10)
        kappa = tuple(sorted(rng.sample(range(1, k + 1), m)))
        iota = tuple(sorted(rng.sample(range(1, n + 1), k)))
        entries = {}
        for _ in range(rng.randint(1, 4)):
            label = tuple(rng.randint(0, 4) for _ in range(m))
            members = sorted(rng.sample(range(1, m + 1), rng.randint(2, m)))
            alpha = MultiIndex(
                tuple(rng.randint(0, 2) for _ in range((m - 1) * d))
            )
            key = CoordinateKey(label, SubsetMask.from_members(m, members), alpha)
            entries[key] = random_fraction(rng)
        pt = DeformationPoint(theory, entries)
        assert embed(embed(pt, kappa, k), iota, n) == embed(
            pt, compose_injections(iota, kappa), n
        )
    print("criterion 13: two-step embedding = composite embedding on 100 points")


# ---------------------------------------------------------------------------
# 14. Interaction-series terms against brute force and quadrature
# ---------------------------------------------------------------------------


def test_14_dyson_terms_exact_and_numeric():
    for n, p in ((1, 2), (2, 1), (2, 2)):
        for coupling in (Fraction(1), Fraction(2, 3)):
            term = dyson_term(n, p, coupling)
            all_pairings = len(enumerate_pairings(point_legs((p,) * n)))
            expected = coupling ** n / math.factorial(n) * all_pairings
            assert term.magnitude == expected
            assert term.i_power == n % 4
    nodes, weights = np.polynomial.hermite_e.hermegauss(64)
    norm = math.sqrt(2.0 * math.pi)
    for n, p in ((1, 2), (2, 1), (2, 2)):
        moment = float(np.sum(weights * nodes ** (n * p))) / norm
        term = dyson_term(n, p, Fraction(1))
        numeric = moment / math.factorial(n)
        assert abs(numeric - float(term.magnitude)) <= 1e-10 * abs(numeric)
    print("criterion 14: series terms match pairing counts and Gauss-Hermite")
