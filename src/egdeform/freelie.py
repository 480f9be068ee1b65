"""The free graded Lie algebra on one generator per positive weight.

Generators g_1, g_2, g_3, ... carry weights 1, 2, 3, ...; a word over the
positive integers has weight equal to the sum of its letters, so the words of
weight n are exactly the compositions of n (2^(n-1) of them). The degree-n
component of the algebra is spanned by the standard bracketings of the Lyndon
words of weight n, and its enveloping algebra is the free associative algebra
on the generators, realized here as truncated word series.

Everything is exact over ``fractions.Fraction`` and truncated at a fixed
maximal weight; elements of different truncations never mix (that is a domain
error, not a coercion). The classical facts used, standard bracketing
triangularity and the greedy rewriting it licenses, are as in Reutenauer,
"Free Lie Algebras", chapter 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping

Word = tuple[int, ...]
Scalar = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TruncationMismatchError(ValueError):
    """Two elements with different truncation degrees met in one operation."""


class NotLieElementError(ValueError):
    """A word polynomial failed to rewrite into the Lyndon bracket basis."""


def word_weight(word: Word) -> int:
    return sum(word)


def is_lyndon(word: Word) -> bool:
    """True iff ``word`` is nonempty and strictly smaller than all proper suffixes."""
    if not word:
        return False
    return all(word < word[i:] for i in range(1, len(word)))


def lyndon_words(max_weight: int) -> list[Word]:
    """All Lyndon words of weight <= max_weight, sorted by (weight, word).

    Words of weight w are the compositions of w, so the candidate pool is tiny
    at desk scale and a direct filter is the clearest correct enumeration.
    """
    out: list[Word] = []
    for w in range(1, max_weight + 1):
        out.extend(word for word in _compositions(w) if is_lyndon(word))
    return out


def _compositions(total: int) -> Iterator[Word]:
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def standard_factorization(word: Word) -> tuple[Word, Word]:
    """Chen-Fox-Lyndon factorization w = uv, v the lexicographically least proper suffix."""
    if len(word) < 2:
        raise ValueError("only words of length >= 2 factor")
    v = min(word[i:] for i in range(1, len(word)))
    return word[: len(word) - len(v)], v


@lru_cache(maxsize=None)
def expand_bracketing(word: Word) -> Mapping[Word, Scalar]:
    """Word-coordinate expansion of the standard bracketing of a Lyndon word.

    The result is word + (lexicographically larger rearrangements of word);
    that triangularity is what makes ``_lyndon_rewrite`` terminate.
    """
    if not is_lyndon(word):
        raise ValueError(f"{word!r} is not a Lyndon word")
    if len(word) == 1:
        return {word: _ONE}
    u, v = standard_factorization(word)
    pu, pv = expand_bracketing(u), expand_bracketing(v)
    out: dict[Word, Scalar] = {}
    for wu, cu in pu.items():
        for wv, cv in pv.items():
            c = cu * cv
            for joined, sign in ((wu + wv, c), (wv + wu, -c)):
                new = out.get(joined, _ZERO) + sign
                if new:
                    out[joined] = new
                elif joined in out:
                    del out[joined]
    return out


def _lyndon_rewrite(poly: dict[Word, Scalar]) -> dict[Word, Scalar]:
    """Rewrite a Lie polynomial in word coordinates into Lyndon coordinates."""
    work = {w: c for w, c in poly.items() if c}
    out: dict[Word, Scalar] = {}
    while work:
        w = min(work)
        if not is_lyndon(w):
            raise NotLieElementError(
                f"leading word {w!r} is not Lyndon; polynomial is not a Lie element"
            )
        c = work[w]
        out[w] = out.get(w, _ZERO) + c
        for wu, cu in expand_bracketing(w).items():
            new = work.get(wu, _ZERO) - c * cu
            if new:
                work[wu] = new
            elif wu in work:
                del work[wu]
    return {w: c for w, c in out.items() if c}


def _as_scalar(x) -> Scalar:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact scalar required, got {type(x).__name__}")


class LieElement:
    """An element of the free graded Lie algebra, truncated at a fixed weight.

    Coordinates live on Lyndon words: ``terms[word]`` multiplies the standard
    bracketing of ``word``. Immutable by convention; all operations return new
    elements.
    """

    __slots__ = ("truncation", "_terms")

    def __init__(self, truncation: int, terms: Mapping[Word, Scalar] | None = None):
        if truncation < 1:
            raise ValueError("truncation degree must be >= 1")
        self.truncation = truncation
        clean: dict[Word, Scalar] = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            coeff = _as_scalar(coeff)
            if not is_lyndon(word):
                raise ValueError(f"{word!r} is not a Lyndon word")
            if word_weight(word) > truncation:
                raise ValueError(f"{word!r} exceeds truncation {truncation}")
            if coeff:
                clean[word] = coeff
        self._terms = clean

    @classmethod
    def zero(cls, truncation: int) -> "LieElement":
        return cls(truncation)

    @classmethod
    def generator(cls, n: int, truncation: int) -> "LieElement":
        """The weight-n generator g_n."""
        if not 1 <= n <= truncation:
            raise ValueError("generator weight must lie in 1..truncation")
        return cls(truncation, {(n,): _ONE})

    @property
    def terms(self) -> dict[Word, Scalar]:
        return dict(self._terms)

    def coefficient(self, word: Word) -> Scalar:
        return self._terms.get(tuple(word), _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({word_weight(w) for w in self._terms}))

    def degree_component(self, degree: int) -> "LieElement":
        return LieElement(
            self.truncation,
            {w: c for w, c in self._terms.items() if word_weight(w) == degree},
        )

    def _check(self, other: "LieElement") -> None:
        if not isinstance(other, LieElement):
            raise TypeError("LieElement expected")
        if self.truncation != other.truncation:
            raise TruncationMismatchError(
                f"truncations differ: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other: "LieElement") -> "LieElement":
        self._check(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, _ZERO) + c
        return LieElement(self.truncation, out)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + (-other)

    def __neg__(self) -> "LieElement":
        return LieElement(self.truncation, {w: -c for w, c in self._terms.items()})

    def scale(self, factor) -> "LieElement":
        factor = _as_scalar(factor)
        return LieElement(
            self.truncation, {w: factor * c for w, c in self._terms.items()}
        )

    __rmul__ = scale
    __mul__ = scale

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LieElement)
            and self.truncation == other.truncation
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.truncation, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return f"LieElement(D={self.truncation}, 0)"
        body = " + ".join(
            f"{c}*{w}" for w, c in sorted(self._terms.items(), key=lambda t: (word_weight(t[0]), t[0]))
        )
        return f"LieElement(D={self.truncation}, {body})"

    def to_words(self) -> dict[Word, Scalar]:
        """Expansion in word coordinates of the enveloping algebra."""
        out: dict[Word, Scalar] = {}
        for word, coeff in self._terms.items():
            for w, c in expand_bracketing(word).items():
                new = out.get(w, _ZERO) + coeff * c
                if new:
                    out[w] = new
                elif w in out:
                    del out[w]
        return out


def from_words(truncation: int, poly: Mapping[Word, Scalar]) -> LieElement:
    """Inverse of ``LieElement.to_words`` (raises NotLieElementError if impossible)."""
    clipped = {
        tuple(w): _as_scalar(c)
        for w, c in poly.items()
        if c and word_weight(tuple(w)) <= truncation
    }
    return LieElement(truncation, _lyndon_rewrite(clipped))


def lie_bracket(x: LieElement, y: LieElement) -> LieElement:
    """[x, y], computed through the enveloping algebra and rewritten to Lyndon basis."""
    x._check(y)
    d = x.truncation
    px, py = x.to_words(), y.to_words()
    comm: dict[Word, Scalar] = {}
    for wx, cx in px.items():
        for wy, cy in py.items():
            if word_weight(wx) + word_weight(wy) > d:
                continue
            c = cx * cy
            for joined, sign in ((wx + wy, c), (wy + wx, -c)):
                new = comm.get(joined, _ZERO) + sign
                if new:
                    comm[joined] = new
                elif joined in comm:
                    del comm[joined]
    return from_words(d, comm)


class WordSeries:
    """A truncated element of the enveloping algebra in its word basis.

    Words are sequences of generator weights; the empty word is the unit. Used
    for exponentials and group-side arithmetic; same truncation discipline as
    ``LieElement``.
    """

    __slots__ = ("truncation", "_terms")

    def __init__(self, truncation: int, terms: Mapping[Word, Scalar] | None = None):
        if truncation < 1:
            raise ValueError("truncation degree must be >= 1")
        self.truncation = truncation
        clean: dict[Word, Scalar] = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            coeff = _as_scalar(coeff)
            if any(letter < 1 for letter in word):
                raise ValueError("letters are positive generator weights")
            if word_weight(word) > truncation:
                raise ValueError(f"{word!r} exceeds truncation {truncation}")
            if coeff:
                clean[word] = coeff
        self._terms = clean

    @classmethod
    def one(cls, truncation: int) -> "WordSeries":
        return cls(truncation, {(): _ONE})

    @classmethod
    def zero(cls, truncation: int) -> "WordSeries":
        return cls(truncation)

    @property
    def terms(self) -> dict[Word, Scalar]:
        return dict(self._terms)

    def coefficient(self, word: Word) -> Scalar:
        return self._terms.get(tuple(word), _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def _check(self, other: "WordSeries") -> None:
        if not isinstance(other, WordSeries):
            raise TypeError("WordSeries expected")
        if self.truncation != other.truncation:
            raise TruncationMismatchError(
                f"truncations differ: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other: "WordSeries") -> "WordSeries":
        self._check(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, _ZERO) + c
        return WordSeries(self.truncation, out)

    def __sub__(self, other: "WordSeries") -> "WordSeries":
        return self + other.scale(Fraction(-1))

    def scale(self, factor) -> "WordSeries":
        factor = _as_scalar(factor)
        return WordSeries(
            self.truncation, {w: factor * c for w, c in self._terms.items()}
        )

    def __mul__(self, other: "WordSeries") -> "WordSeries":
        self._check(other)
        d = self.truncation
        out: dict[Word, Scalar] = {}
        for w1, c1 in self._terms.items():
            s1 = word_weight(w1)
            for w2, c2 in other._terms.items():
                if s1 + word_weight(w2) > d:
                    continue
                w = w1 + w2
                new = out.get(w, _ZERO) + c1 * c2
                if new:
                    out[w] = new
                elif w in out:
                    del out[w]
        return WordSeries(d, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WordSeries)
            and self.truncation == other.truncation
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.truncation, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return f"WordSeries(D={self.truncation}, 0)"
        body = " + ".join(
            f"{c}*{w}"
            for w, c in sorted(self._terms.items(), key=lambda t: (word_weight(t[0]), t[0]))
        )
        return f"WordSeries(D={self.truncation}, {body})"


def exp_series(x: LieElement) -> WordSeries:
    """exp(x) in the enveloping algebra, truncated; exact because x has weight >= 1."""
    d = x.truncation
    xw = WordSeries(d, x.to_words())
    out = WordSeries.one(d)
    power = WordSeries.one(d)
    factorial = 1
    for j in range(1, d + 1):
        power = power * xw
        if power.is_zero():
            break
        factorial *= j
        out = out + power.scale(Fraction(1, factorial))
    return out


def log_series(series: WordSeries) -> LieElement:
    """Truncated log of a series with unit constant term, rewritten to the Lie algebra.

    Raises NotLieElementError when the log is not a Lie element (the input was
    not group-like), and ValueError when the constant term is not exactly 1.
    """
    d = series.truncation
    if series.coefficient(()) != _ONE:
        raise ValueError("log needs constant term exactly 1")
    z = series - WordSeries.one(d)
    acc = WordSeries.zero(d)
    power = WordSeries.one(d)
    for j in range(1, d + 1):
        power = power * z
        if power.is_zero():
            break
        acc = acc + power.scale(Fraction((-1) ** (j + 1), j))
    return from_words(d, acc.terms)


def bch(x: LieElement, y: LieElement) -> LieElement:
    """Baker-Campbell-Hausdorff product log(exp(x) exp(y)) through the truncation."""
    x._check(y)
    return log_series(exp_series(x) * exp_series(y))


def graded_dimensions(max_degree: int) -> tuple[int, ...]:
    """Dimensions of the degree-1..max_degree components of the algebra.

    The degree-n component has the standard bracketings of the Lyndon words of
    weight n as a basis, so its dimension is their count. The tests check it
    against the rank of the span of iterated generator brackets and against
    the Moebius-inversion formula.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    return tuple(
        sum(1 for w in _compositions(degree) if is_lyndon(w))
        for degree in range(1, max_degree + 1)
    )
