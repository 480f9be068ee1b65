"""Free graded Lie algebra on one generator per degree: words, brackets, BCH."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egdeform.freelie import (
    LieElement,
    NotLieElementError,
    TruncationMismatchError,
    WordSeries,
    bch,
    exp_series,
    expand_bracketing,
    graded_dimensions,
    is_lyndon,
    lie_bracket,
    log_series,
    lyndon_words,
    standard_factorization,
    word_weight,
)


def random_lie(rng: random.Random, truncation: int) -> LieElement:
    terms = {}
    for w in lyndon_words(truncation):
        if rng.random() < 0.7:
            terms[w] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return LieElement(truncation, terms)


# ---------------------------------------------------------------------------
# Lyndon words over the graded alphabet {1, 2, 3, ...}
# ---------------------------------------------------------------------------


def test_lyndon_words_small_weights_frozen():
    words = lyndon_words(4)
    by_weight = {}
    for w in words:
        by_weight.setdefault(word_weight(w), []).append(w)
    assert by_weight[1] == [(1,)]
    assert by_weight[2] == [(2,)]
    assert sorted(by_weight[3]) == [(1, 2), (3,)]
    assert sorted(by_weight[4]) == [(1, 1, 2), (1, 3), (4,)]


def test_lyndon_counts_match_graded_dimensions():
    words = lyndon_words(6)
    counts = {}
    for w in words:
        counts[word_weight(w)] = counts.get(word_weight(w), 0) + 1
    assert tuple(counts[m] for m in range(1, 7)) == (1, 1, 2, 3, 6, 9)


@pytest.mark.parametrize("m", range(1, 7))
def test_composition_count_identity(m):
    # summing k * (number of Lyndon words of weight k) over divisors k of m
    # counts the compositions of m: necklace counting on the graded alphabet.
    words = lyndon_words(m)
    total = sum(
        k * sum(1 for w in words if word_weight(w) == k)
        for k in range(1, m + 1)
        if m % k == 0
    )
    assert total == 2 ** m - 1


def test_is_lyndon_examples():
    assert is_lyndon((1,))
    assert is_lyndon((1, 2))
    assert is_lyndon((1, 1, 2))
    assert is_lyndon((1, 3, 2))
    assert not is_lyndon((2, 1))
    assert not is_lyndon((1, 1))  # periodic
    assert not is_lyndon((1, 2, 1, 2))


def test_standard_factorization_splits_at_least_suffix():
    assert standard_factorization((1, 2)) == ((1,), (2,))
    assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
    assert standard_factorization((1, 3, 2)) == ((1, 3), (2,))


def test_bracketing_is_triangular():
    # the expansion of a Lyndon word's bracketing starts at the word itself
    for w in lyndon_words(6):
        if len(w) == 1:
            continue
        expansion = expand_bracketing(w)
        assert expansion[w] == 1
        assert min(expansion) == w


# ---------------------------------------------------------------------------
# Lie elements and brackets
# ---------------------------------------------------------------------------


def test_generator_and_coefficients():
    x = LieElement.generator(3, truncation=5)
    assert x.coefficient((3,)) == 1
    assert x.degrees() == (3,)
    with pytest.raises(ValueError):
        LieElement.generator(0, truncation=4)
    with pytest.raises(ValueError):
        LieElement.generator(5, truncation=4)


def test_bracket_of_generators_is_lyndon_basis_vector():
    e1 = LieElement.generator(1, 4)
    e2 = LieElement.generator(2, 4)
    b = lie_bracket(e1, e2)
    assert b.terms == {(1, 2): Fraction(1)}
    assert lie_bracket(e2, e1).terms == {(1, 2): Fraction(-1)}


def test_bracket_grading_and_truncation():
    e2 = LieElement.generator(2, 4)
    e3 = LieElement.generator(3, 4)
    assert lie_bracket(e2, e3).is_zero()  # weight 5 > truncation
    with pytest.raises(TruncationMismatchError):
        lie_bracket(LieElement.generator(1, 4), LieElement.generator(1, 5))


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_bracket_antisymmetry(seed):
    rng = random.Random(seed)
    x, y = random_lie(rng, 4), random_lie(rng, 4)
    assert lie_bracket(x, y) == -lie_bracket(y, x)
    assert lie_bracket(x, x).is_zero()


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_jacobi_identity(seed):
    rng = random.Random(seed)
    x, y, z = (random_lie(rng, 5) for _ in range(3))
    total = (
        lie_bracket(x, lie_bracket(y, z))
        + lie_bracket(y, lie_bracket(z, x))
        + lie_bracket(z, lie_bracket(x, y))
    )
    assert total.is_zero()


def test_lie_element_arithmetic_exact():
    x = LieElement.generator(1, 3)
    y = LieElement.generator(2, 3)
    z = x.scale(Fraction(2, 3)) + y - x
    assert z.coefficient((1,)) == Fraction(-1, 3)
    assert z.coefficient((2,)) == 1
    assert (z - z).is_zero()


# ---------------------------------------------------------------------------
# Enveloping series, exp/log, BCH
# ---------------------------------------------------------------------------


def test_word_series_product_truncates_by_weight():
    s = WordSeries(3, {(2,): Fraction(1)})
    t = WordSeries(3, {(2,): Fraction(1)})
    assert (s * t).is_zero()  # weight 4 > truncation 3
    u = WordSeries(3, {(1,): Fraction(1)})
    assert (s * u).terms == {(2, 1): Fraction(1)}


def test_exp_log_roundtrip_on_generators():
    for n in (1, 2, 3, 4):
        x = LieElement.generator(n, 4)
        assert log_series(exp_series(x)) == x


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_log_exp_roundtrip_random(seed):
    rng = random.Random(seed)
    x = random_lie(rng, 4)
    assert log_series(exp_series(x)) == x


def test_log_requires_unit_constant_term():
    with pytest.raises(ValueError):
        log_series(WordSeries.zero(3))


def test_log_rejects_non_group_like():
    series = WordSeries.one(4) + WordSeries(4, {(1, 2): Fraction(1)})
    with pytest.raises(NotLieElementError):
        log_series(series)


def test_bch_low_order_coefficients_frozen():
    # log(exp(e1) exp(e2)) = e1 + e2 + 1/2 [e1,e2] + 1/12 [e1,[e1,e2]]
    # through weight 4; the weight-5 term -1/12 [e2,[e1,e2]] is truncated.
    x = LieElement.generator(1, 4)
    y = LieElement.generator(2, 4)
    z = bch(x, y)
    assert z.terms == {
        (1,): Fraction(1),
        (2,): Fraction(1),
        (1, 2): Fraction(1, 2),
        (1, 1, 2): Fraction(1, 12),
    }


def test_bch_with_zero_is_identity():
    rng = random.Random(5)
    x = random_lie(rng, 4)
    zero = LieElement.zero(4)
    assert bch(x, zero) == x
    assert bch(zero, x) == x


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_bch_realizes_the_product(seed):
    rng = random.Random(seed)
    x, y = random_lie(rng, 4), random_lie(rng, 4)
    assert exp_series(x) * exp_series(y) == exp_series(bch(x, y))


def _moebius(n: int) -> int:
    out, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    return -out if n > 1 else out


def test_graded_dimensions_frozen():
    # one generator per weight: words of weight n number 2^(n-1), so
    # L(n) = (1/n) sum_{k | n} mu(k) (2^(n/k) - 1)
    moebius_counts = tuple(
        sum(_moebius(k) * (2 ** (n // k) - 1) for k in range(1, n + 1) if n % k == 0) // n
        for n in range(1, 11)
    )
    assert moebius_counts == (1, 1, 2, 3, 6, 9, 18, 30, 56, 99)
    assert graded_dimensions(10) == moebius_counts
    assert graded_dimensions(6) == (1, 1, 2, 3, 6, 9)
    assert graded_dimensions(4) == (1, 1, 2, 3)
