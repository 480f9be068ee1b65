"""Sparse coordinates on the deformation space of counterterms.

A coordinate key is a triple (label J, subset I, multi-index alpha): the
counterterm b delta^(alpha)_I deforming the numerical distribution attached
to the power word J. Keys satisfy

* len(J) >= 2 (>= 3 under the strict flag), entries non-negative,
* I a subset of {1..len(J)} with at least two elements,
* len(alpha) = (len(J) - 1) d,
* alpha order bounded by the scaling degree of the label's contraction
  kernel, literally (|alpha| <= sd) or corrected by the diagonal codimension
  (|alpha| <= sd - d (|I| - 1)), depending on the configured policy.

Scaling-degree bounds come from an explicit per-label table, a uniform
default, or the Gaussian model itself (the label's contraction kernel): in
that order. Labels that none of the three reaches, such as labels produced
by embedding a point into more points, carry no bound; their keys are
checked structurally only. That keeps the coordinate embeddings total, which
is what the filtration machinery needs.

A point of the deformation space is a finite rational combination of keys.
Points serialize to a canonical JSON list (entries sorted by key, exact
numerator/denominator pairs), and parsing is the exact inverse: round trips
are bit-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from egdeform.combinatorics import MultiIndex, SubsetMask, count_multi_indices
from egdeform.distributions import DiagonalDistribution, NotComputableError
from egdeform.wick import pairable
# bound here only because perfbench/tracing.py wraps it in this module
from egdeform.wick import contraction_graphs  # noqa: F401


class BoundViolationError(ValueError):
    """A coordinate key exceeds its derivative-order bound; carries the key."""

    def __init__(self, key: "CoordinateKey", message: str):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class CoordinateKey:
    """One counterterm coordinate: (label J, diagonal subset I, derivative alpha)."""

    label: tuple[int, ...]
    subset: SubsetMask
    alpha: MultiIndex

    def __post_init__(self) -> None:
        if len(self.label) < 2:
            raise ValueError("labels carry at least two entries")
        if any(i < 0 for i in self.label):
            raise ValueError("label entries are non-negative powers")
        if self.subset.n != len(self.label):
            raise ValueError("subset parent must match the label length")
        if self.subset.size < 2:
            raise ValueError("diagonals collapse at least two points")

    @property
    def level(self) -> int:
        return len(self.label) - 1

    def sort_key(self):
        return (self.label, self.subset.members, self.alpha.components)


def filtration_level(label: Sequence[int]) -> int:
    """The filtration stage of a label: len(J) - 1."""
    if len(label) < 2:
        raise ValueError("labels carry at least two entries")
    return len(label) - 1


PAPER_LITERAL = "paper-literal"
CODIM_CORRECTED = "codim-corrected"


@dataclass(frozen=True)
class TheoryConfig:
    """The ambient theory: dimension d, uniform interaction power p, level cap.

    ``sd_bounds`` overrides scaling-degree bounds per label;
    ``uniform_sd_bound`` applies to any label without an explicit entry;
    otherwise bounds are computed from the label's contraction kernel in the
    Gaussian model. ``bound_policy`` selects the literal or the
    codimension-corrected derivative bound; ``strict_min_points`` restricts
    coordinates to labels with at least three entries.
    """

    d: int
    p: int
    n_max: int
    sd_bounds: tuple[tuple[tuple[int, ...], Fraction], ...] = ()
    uniform_sd_bound: Fraction | None = None
    bound_policy: str = PAPER_LITERAL
    strict_min_points: bool = False

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.p < 0:
            raise ValueError("interaction power must be >= 0")
        if self.n_max < 2:
            raise ValueError("need room for at least two points")
        if self.bound_policy not in (PAPER_LITERAL, CODIM_CORRECTED):
            raise ValueError(f"unknown bound policy {self.bound_policy!r}")
        canon = tuple(
            sorted((tuple(label), Fraction(v)) for label, v in dict(self.sd_bounds).items())
        )
        object.__setattr__(self, "sd_bounds", canon)
        if self.uniform_sd_bound is not None:
            object.__setattr__(
                self, "uniform_sd_bound", Fraction(self.uniform_sd_bound)
            )

    @classmethod
    def build(
        cls,
        d: int,
        p: int,
        n_max: int,
        sd_bounds: Mapping[Sequence[int], Fraction] | None = None,
        **kwargs,
    ) -> "TheoryConfig":
        return cls(
            d=d,
            p=p,
            n_max=n_max,
            sd_bounds=tuple(
                (tuple(k), Fraction(v)) for k, v in (sd_bounds or {}).items()
            ),
            **kwargs,
        )

    @cached_property
    def _sd_table(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.sd_bounds)

    def sd_bound(self, label: Sequence[int]) -> Fraction | None:
        """Scaling-degree bound for a label, or None when nothing determines one."""
        label = tuple(label)
        if label in self._sd_table:
            return self._sd_table[label]
        if self.uniform_sd_bound is not None:
            return self.uniform_sd_bound
        residual = tuple(self.p - i for i in label)
        if any(r < 0 for r in residual) or not pairable(residual):
            return None
        edges = sum(residual) // 2
        if self.d >= 3:
            return Fraction(edges * (self.d - 2))
        if self.d == 2:
            return Fraction(0)
        return Fraction(-edges)

    def alpha_limit(self, label: Sequence[int], subset: SubsetMask) -> int | None:
        """Max admissible |alpha| at (label, subset), or None when unbounded."""
        bound = self.sd_bound(label)
        if bound is None:
            return None
        if self.bound_policy == CODIM_CORRECTED:
            bound = bound - self.d * (subset.size - 1)
        return max(math.floor(bound), -1)

    @property
    def min_points(self) -> int:
        """Shortest admissible label length: 3 under the strict flag, else 2."""
        return 3 if self.strict_min_points else 2

    def validate_key(self, key: CoordinateKey) -> None:
        n = len(key.label)
        if n < self.min_points:
            raise BoundViolationError(
                key,
                f"label {key.label} shorter than the configured minimum {self.min_points}",
            )
        if n > self.n_max:
            raise BoundViolationError(
                key, f"label {key.label} exceeds the level cap n_max={self.n_max}"
            )
        expected = (n - 1) * self.d
        if len(key.alpha) != expected:
            raise BoundViolationError(
                key,
                f"alpha length {len(key.alpha)} != (n-1) d = {expected} for {key.label}",
            )
        limit = self.alpha_limit(key.label, key.subset)
        if limit is not None and key.alpha.order > limit:
            raise BoundViolationError(
                key,
                f"|alpha| = {key.alpha.order} exceeds the bound {limit} at key "
                f"(J={key.label}, I={key.subset.members}, alpha={key.alpha.components})",
            )


def realized_labels(theory: TheoryConfig, level: int) -> tuple[tuple[int, ...], ...]:
    """Labels at a filtration level whose contraction kernels are non-zero.

    Level n holds labels of length n + 1; entry i_j ranges over 0..p and the
    contracted powers p - J must admit a self-loop-free pairing: their total
    is even and no entry exceeds half of it.
    """
    if level < 1:
        raise ValueError("filtration levels start at 1")
    n = level + 1
    if n > theory.n_max:
        raise ValueError(f"level {level} exceeds the configured cap")
    labels: list[tuple[int, ...]] = [()]
    for _ in range(n):
        labels = [lab + (i,) for lab in labels for i in range(theory.p + 1)]
    return tuple(lab for lab in labels if pairable([theory.p - i for i in lab]))


@dataclass(frozen=True)
class FiltrationLevel:
    """Filtration stage n with its realized label set (labels of length n + 1)."""

    n: int
    labels: tuple[tuple[int, ...], ...]

    @classmethod
    def of_theory(cls, theory: TheoryConfig, n: int) -> "FiltrationLevel":
        return cls(n=n, labels=realized_labels(theory, n))


class DeformationPoint:
    """A finite rational combination of coordinate keys, tied to a theory.

    Immutable by convention; arithmetic returns new points. Zero coefficients
    are dropped on construction, so equality is support equality.
    """

    __slots__ = ("theory", "_entries")

    def __init__(
        self,
        theory: TheoryConfig,
        entries: Mapping[CoordinateKey, Fraction] | None = None,
    ):
        self.theory = theory
        clean: dict[CoordinateKey, Fraction] = {}
        for key, coeff in (entries or {}).items():
            coeff = Fraction(coeff)
            if not coeff:
                continue
            theory.validate_key(key)
            clean[key] = coeff
        self._entries = clean

    @classmethod
    def zero(cls, theory: TheoryConfig) -> "DeformationPoint":
        return cls(theory)

    @property
    def entries(self) -> dict[CoordinateKey, Fraction]:
        return dict(self._entries)

    def coefficient(self, key: CoordinateKey) -> Fraction:
        return self._entries.get(key, Fraction(0))

    def is_zero(self) -> bool:
        return not self._entries

    def levels(self) -> tuple[int, ...]:
        return tuple(sorted({key.level for key in self._entries}))

    def sorted_keys(self) -> list[CoordinateKey]:
        return sorted(self._entries, key=CoordinateKey.sort_key)

    def _check(self, other: "DeformationPoint") -> None:
        if not isinstance(other, DeformationPoint):
            raise TypeError("DeformationPoint expected")
        if other.theory != self.theory:
            raise ValueError("points belong to different theories")

    def __add__(self, other: "DeformationPoint") -> "DeformationPoint":
        self._check(other)
        out = dict(self._entries)
        for key, coeff in other._entries.items():
            out[key] = out.get(key, Fraction(0)) + coeff
        return DeformationPoint(self.theory, out)

    def __sub__(self, other: "DeformationPoint") -> "DeformationPoint":
        return self + other.scale(Fraction(-1))

    def scale(self, factor) -> "DeformationPoint":
        factor = Fraction(factor)
        return DeformationPoint(
            self.theory, {k: factor * c for k, c in self._entries.items()}
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DeformationPoint)
            and self.theory == other.theory
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"DeformationPoint({len(self._entries)} entries)"


def shift(
    point: DeformationPoint,
    dist: DiagonalDistribution,
    label: Sequence[int] | None = None,
) -> DeformationPoint:
    """Add a diagonal distribution to a point, coordinate by coordinate.

    The distribution's terms are read as coordinates (its shared label, each
    term's subset and derivative index); passing ``label`` asserts which
    kernel is being deformed. Float coefficients (say, from an ambiguity fit)
    are converted exactly to their binary rational value. Violating keys
    abort the shift with the offending key attached.
    """
    if label is not None and not dist.is_zero() and dist.label != tuple(label):
        raise ValueError(
            f"distribution carries label {dist.label}, shift targets {tuple(label)}"
        )
    if dist.is_zero():
        return point
    out = point.entries
    for term in dist.terms:
        key = CoordinateKey(label=term.label, subset=term.subset, alpha=term.alpha)
        point.theory.validate_key(key)
        out[key] = out.get(key, Fraction(0)) + Fraction(term.coefficient)
    return DeformationPoint(point.theory, out)


def compose_injections(
    outer: Sequence[int], inner: Sequence[int]
) -> tuple[int, ...]:
    """The composite of two order-preserving injections given by their images."""
    return tuple(outer[j - 1] for j in inner)


def embed(
    point: DeformationPoint, image: Sequence[int], n_target: int
) -> DeformationPoint:
    """Push a single-level point along an order-preserving injection of labels.

    ``image`` lists, in increasing order, where the points 1..m land inside
    1..n_target. Labels gain zero powers at the new points, subsets map
    forward, and derivative blocks move to the image points (new points carry
    derivative order zero). The map is linear and injective on coordinates,
    and functorial: embedding along a composite equals composing embeddings.
    """
    image = tuple(image)
    m = len(image)
    if list(image) != sorted(set(image)):
        raise ValueError("the image must be strictly increasing")
    if image and not (1 <= image[0] and image[-1] <= n_target):
        raise ValueError("image points must lie in 1..n_target")
    if n_target > point.theory.n_max:
        raise ValueError("target exceeds the configured level cap")
    d = point.theory.d
    out: dict[CoordinateKey, Fraction] = {}
    for key, coeff in point.entries.items():
        if len(key.label) != m:
            raise ValueError(
                f"point has a level-{key.level} key; the injection maps {m} points"
            )
        new_label = [0] * n_target
        for j, lab in enumerate(key.label, start=1):
            new_label[image[j - 1] - 1] = lab
        new_subset = SubsetMask.from_members(
            n_target, (image[i - 1] for i in key.subset.members)
        )
        new_alpha = [0] * ((n_target - 1) * d)
        for j in range(2, m + 1):
            tgt = image[j - 1]
            for c in range(d):
                new_alpha[(tgt - 2) * d + c] = key.alpha[(j - 2) * d + c]
        new_key = CoordinateKey(
            label=tuple(new_label),
            subset=new_subset,
            alpha=MultiIndex(tuple(new_alpha)),
        )
        out[new_key] = out.get(new_key, Fraction(0)) + coeff
    return DeformationPoint(point.theory, out)


def counterterm_dimension(
    label: Sequence[int], subset: SubsetMask, theory: TheoryConfig
) -> int:
    """Number of admissible derivative indices at one (label, subset) pair."""
    limit = theory.alpha_limit(label, subset)
    if limit is None:
        raise NotComputableError(
            f"no scaling-degree bound known for label {tuple(label)}"
        )
    if limit < 0:
        return 0
    return count_multi_indices((len(tuple(label)) - 1) * theory.d, limit)


def total_dimension_report(
    theory: TheoryConfig, up_to_level: int
) -> dict[int, int]:
    """Counterterm counts per filtration level, realized labels only.

    The derivative bound depends on the subset I through |I| alone, so each
    label is counted on one subset per size and weighted by C(n, |I|). Levels
    whose labels are shorter than the theory's minimum count zero.
    """
    report: dict[int, int] = {}
    for level in range(1, up_to_level + 1):
        n = level + 1
        total = 0
        if n >= theory.min_points:
            for label in realized_labels(theory, level):
                for size in range(2, n + 1):
                    subset = SubsetMask(n, (1 << size) - 1)
                    total += math.comb(n, size) * counterterm_dimension(
                        label, subset, theory
                    )
        report[level] = total
    return report


def serialize_point(point: DeformationPoint) -> str:
    """Canonical JSON for a point: sorted entries, exact num/den coefficients."""
    entries = []
    for key in point.sorted_keys():
        coeff = point.coefficient(key)
        entries.append(
            {
                "J": list(key.label),
                "I": list(key.subset.members),
                "alpha": list(key.alpha.components),
                "coeff_num": coeff.numerator,
                "coeff_den": coeff.denominator,
            }
        )
    return json.dumps(entries, indent=2, sort_keys=True) + "\n"


def parse_point(text: str, theory: TheoryConfig) -> DeformationPoint:
    """Exact inverse of ``serialize_point`` (modulo entry order)."""
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise ValueError("a serialized point is a JSON list of entries")
    entries: dict[CoordinateKey, Fraction] = {}
    for item in raw:
        try:
            label = tuple(int(v) for v in item["J"])
            members = [int(v) for v in item["I"]]
            alpha = MultiIndex(tuple(int(v) for v in item["alpha"]))
            coeff = Fraction(int(item["coeff_num"]), int(item["coeff_den"]))
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed point entry: {item!r}") from exc
        key = CoordinateKey(
            label=label,
            subset=SubsetMask.from_members(len(label), members),
            alpha=alpha,
        )
        entries[key] = entries.get(key, Fraction(0)) + coeff
    return DeformationPoint(theory, entries)
