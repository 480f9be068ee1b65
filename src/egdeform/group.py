"""Scaling actions, grading flows, and the truncated deformation group.

Three layers live here.

1. The scaling action on coordinates. For a label J the first two entries
   decide a class: ``gt`` (J_1 > J_2), ``eq`` (J_1 = J_2) or ``lt``
   (J_1 < J_2). Scaling by lambda sends the coefficient family b_K to

       (S_lambda b)_I = sum over K subset of I of eps(K) b_K,

   with eps(K) = lambda^{|K|} in class ``gt``, 1 in class ``eq`` and 0 in
   class ``lt``. On the subset lattice S_lambda has the closed-form entries
   S_lambda(I, K) = [K subset of I] eps(K), and a product of two scalings
   sums eps over a lattice interval:

       (S_lambda S_mu)(I, K) = [K subset of I] eps_mu(K)
                               * sum over K subset J subset I of eps_lambda(J),

   which is (lambda mu)^{|K|} (1 + lambda)^{|I - K|} in class ``gt`` and
   2^{|I - K|} in class ``eq``. Both depend on (I, K) only through |K| and
   |I - K|. ``verify_claims`` reads single entries from these forms and
   builds no matrix. Consequences that look surprising but follow from the
   formula as it stands — a non-unit diagonal, S_1 being the lattice zeta
   matrix rather than the identity, S_lambda S_mu differing from
   S_{lambda mu} — are checked and reported honestly rather than silently
   patched.

2. The grading flow. A coordinate at filtration level n (label length n + 1)
   is multiplied by q^n under the automorphism theta (q = e^z, passed
   directly so rational q stays exact) and by n under the grading operator Y.
   On a Lie element with one generator per positive degree, u^Y scales the
   degree-n component by u^n.

3. The truncated group. Group elements are pairs (exp X, u) with X a Lie
   element modulo degree > truncation and u a non-zero rational scale. The
   product twists the first factor by the scale of the preceding one:

       (exp X1, u1) (exp X2, u2) = (exp bch(X1, u1^Y X2), u1 u2).

   All arithmetic is exact over Fraction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from egdeform.combinatorics import MultiIndex, SubsetMask, submasks
from egdeform.deformation import CoordinateKey, DeformationPoint, TheoryConfig
from egdeform.distributions import DiagonalDistribution, DiagonalTerm
from egdeform.freelie import (
    LieElement,
    WordSeries,
    bch,
    exp_series,
    log_series,
    word_weight,
)

CLASS_GT = "gt"
CLASS_EQ = "eq"
CLASS_LT = "lt"


def label_class(label: Sequence[int]) -> str:
    """Compare the first two label entries: 'gt', 'eq' or 'lt'."""
    if len(label) < 2:
        raise ValueError("labels carry at least two entries")
    first, second = label[0], label[1]
    if first > second:
        return CLASS_GT
    if first == second:
        return CLASS_EQ
    return CLASS_LT


def scaling_coefficient(subset: SubsetMask, cls: str, lam) -> Fraction | float:
    """eps(K): lambda^{|K|}, 1 or 0 according to the label class."""
    if cls == CLASS_GT:
        return lam ** subset.size
    if cls == CLASS_EQ:
        return Fraction(1)
    if cls == CLASS_LT:
        return Fraction(0)
    raise ValueError(f"unknown label class {cls!r}")


def _supersets(mask: int, full: int) -> Iterable[int]:
    free = full & ~mask
    extra = free
    while True:
        yield mask | extra
        if extra == 0:
            return
        extra = (extra - 1) & free


def _family_map(point: DeformationPoint):
    families: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, Fraction]] = {}
    for key, coeff in point.entries.items():
        fam = families.setdefault((key.label, key.alpha.components), {})
        fam[key.subset.mask] = coeff
    return families


def apply_scaling(point: DeformationPoint, lam) -> DeformationPoint:
    """Scale a point: each label acts through its own class on its own lattice."""
    out: dict[CoordinateKey, Fraction] = {}
    for (label, alpha), fam in _family_map(point).items():
        cls = label_class(label)
        if cls == CLASS_LT:
            continue
        n = len(label)
        full = (1 << n) - 1
        acc: dict[int, Fraction] = {}
        for kmask, coeff in fam.items():
            eps = scaling_coefficient(SubsetMask(n, kmask), cls, lam)
            if not eps:
                continue
            term = eps * coeff
            for imask in _supersets(kmask, full):
                acc[imask] = acc.get(imask, Fraction(0)) + term
        for imask, value in acc.items():
            key = CoordinateKey(label, SubsetMask(n, imask), MultiIndex(alpha))
            out[key] = out.get(key, Fraction(0)) + value
    return DeformationPoint(point.theory, out)


def generator_vector_field(point: DeformationPoint) -> DeformationPoint:
    """d/d lambda at lambda = 1 of the scaling action.

    Class ``gt`` families contribute sum over K subset of I of |K| b_K;
    classes ``eq`` and ``lt`` are constant in lambda and contribute zero.
    """
    out: dict[CoordinateKey, Fraction] = {}
    for (label, alpha), fam in _family_map(point).items():
        if label_class(label) != CLASS_GT:
            continue
        n = len(label)
        full = (1 << n) - 1
        for kmask, coeff in fam.items():
            term = kmask.bit_count() * coeff
            for imask in _supersets(kmask, full):
                key = CoordinateKey(label, SubsetMask(n, imask), MultiIndex(alpha))
                out[key] = out.get(key, Fraction(0)) + term
    return DeformationPoint(point.theory, out)


def grading_automorphism(x, q=None, z=None):
    """theta: multiply a level-n object by q^n (q = e^z when z is given).

    Pass q directly (any rational, kept exact) or z (float, q = exp(z)).
    Acts on a DeformationPoint per key or on a DiagonalDistribution through
    its shared label.
    """
    if (q is None) == (z is None):
        raise ValueError("pass exactly one of q and z")
    if q is None:
        q = math.exp(z)
    if isinstance(x, DeformationPoint):
        entries = {
            key: coeff * q ** key.level for key, coeff in x.entries.items()
        }
        return DeformationPoint(x.theory, entries)
    if isinstance(x, DiagonalDistribution):
        level = x.level
        return DiagonalDistribution(
            tuple(
                DiagonalTerm(
                    label=t.label,
                    subset=t.subset,
                    alpha=t.alpha,
                    coefficient=t.coefficient * q ** level,
                )
                for t in x.terms
            )
        )
    raise TypeError("grading_automorphism acts on points and diagonal distributions")


def grading_operator(x):
    """Y: multiply a level-n object by n (the derivative of theta at q = 1)."""
    if isinstance(x, DeformationPoint):
        return DeformationPoint(
            x.theory, {key: coeff * key.level for key, coeff in x.entries.items()}
        )
    if isinstance(x, DiagonalDistribution):
        level = x.level
        return DiagonalDistribution(
            tuple(
                DiagonalTerm(
                    label=t.label,
                    subset=t.subset,
                    alpha=t.alpha,
                    coefficient=t.coefficient * level,
                )
                for t in x.terms
            )
        )
    raise TypeError("grading_operator acts on points and diagonal distributions")


def grading_scale(u, x: LieElement) -> LieElement:
    """u^Y on a graded Lie element: scale the degree-n part by u^n (u != 0)."""
    u = Fraction(u)
    if not u:
        raise ValueError("the grading scale must be invertible")
    return LieElement(
        x.truncation,
        {word: coeff * u ** word_weight(word) for word, coeff in x.terms.items()},
    )


@dataclass(frozen=True)
class GroupElement:
    """(exp X, u): a unit-constant word series and a non-zero rational scale."""

    series: WordSeries
    scale: Fraction

    def __post_init__(self) -> None:
        if self.series.coefficient(()) != 1:
            raise ValueError("group elements have constant term 1")
        object.__setattr__(self, "scale", Fraction(self.scale))
        if not self.scale:
            raise ValueError("group elements have non-zero scale")

    @classmethod
    def identity(cls, truncation: int) -> "GroupElement":
        return cls(series=WordSeries.one(truncation), scale=Fraction(1))

    @classmethod
    def from_log(cls, x: LieElement, scale=Fraction(1)) -> "GroupElement":
        return cls(series=exp_series(x), scale=Fraction(scale))

    @property
    def truncation(self) -> int:
        return self.series.truncation

    def log(self) -> LieElement:
        return log_series(self.series)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return semidirect_mul(self, other)

    def inverse(self) -> "GroupElement":
        return semidirect_inverse(self)


def exp_truncated(x: LieElement, scale=Fraction(1)) -> GroupElement:
    """Wrap exp of a Lie element (with an optional scale) as a group element."""
    return GroupElement.from_log(x, scale)


def log_truncated(g: GroupElement) -> LieElement:
    """The Lie logarithm of the series part of a group element."""
    return g.log()


def semidirect_mul(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """(exp X1, u1)(exp X2, u2) = (exp bch(X1, u1^Y X2), u1 u2)."""
    x = bch(g1.log(), grading_scale(g1.scale, g2.log()))
    return GroupElement.from_log(x, g1.scale * g2.scale)


def semidirect_inverse(g: GroupElement) -> GroupElement:
    """The inverse: ((1/u)^Y of -X, 1/u)."""
    u = g.scale
    return GroupElement.from_log(grading_scale(1 / u, -g.log()), 1 / u)


# ---------------------------------------------------------------------------
# Claim verification
# ---------------------------------------------------------------------------

HOLDS = "holds"
FAILS = "fails"

# The composition claim reads up to 3^n entries of S_lambda S_mu per lambda
# pair on the lattice of {1..n}; the cap keeps that at 3^8 = 6561.
MAX_CLAIM_POINTS = 8


@dataclass(frozen=True)
class ClaimResult:
    """One checked claim: stable id, statement, sample note, verdict, witness."""

    claim_id: str
    statement: str
    samples: str
    verdict: str
    witness: str | None = None


def _frac_str(x: Fraction) -> str:
    return str(Fraction(x))


def _random_lie(rng: random.Random, truncation: int) -> LieElement:
    from egdeform.freelie import lyndon_words

    terms = {
        w: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        for w in lyndon_words(truncation)
        if rng.random() < 0.8
    }
    return LieElement(truncation, terms)


def _random_scale(rng: random.Random) -> Fraction:
    value = Fraction(0)
    while not value:
        value = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    return value


def _random_point(
    rng: random.Random, theory: TheoryConfig, n_points: int
) -> DeformationPoint:
    entries: dict[CoordinateKey, Fraction] = {}
    labels = [
        tuple(rng.randint(0, theory.p) for _ in range(n_points)) for _ in range(3)
    ]
    masks = [m for m in range(1 << n_points) if m.bit_count() >= 2]
    for label in labels:
        for _ in range(rng.randint(1, 3)):
            mask = rng.choice(masks)
            alpha = MultiIndex(
                tuple(
                    rng.choice([0, 0, 1]) for _ in range((n_points - 1) * theory.d)
                )
            )
            key = CoordinateKey(label, SubsetMask(n_points, mask), alpha)
            entries[key] = entries.get(key, Fraction(0)) + Fraction(
                rng.randint(-5, 5), rng.randint(1, 4)
            )
    return DeformationPoint(theory, entries)


def _eps_by_size(n_points: int, cls: str, lam) -> list[Fraction]:
    """eps(K) for |K| = 0..n_points; it depends on K only through its size."""
    return [
        scaling_coefficient(SubsetMask(n_points, (1 << size) - 1), cls, lam)
        for size in range(n_points + 1)
    ]


def _composition_witness(n_points: int, cls: str, lam, mu) -> str | None:
    """The first entry, row-major, where S_lam S_mu and S_{lam mu} differ.

    Off the inclusion order both entries are 0. On it, the direct entry is
    eps_{lam mu}(K) and the composed one is eps_mu(K) times the sum of
    eps_lam(J) over K subset J subset I, in which C(|I - K|, t) sets J have
    size |K| + t. So the scan reads one table entry per (I, K) with K a
    subset of I: 3^n_points entries when the law holds.
    """
    eps_lam = _eps_by_size(n_points, cls, lam)
    eps_mu = _eps_by_size(n_points, cls, mu)
    direct = _eps_by_size(n_points, cls, lam * mu)
    composed = [
        [
            eps_mu[size]
            * sum(math.comb(gap, t) * eps_lam[size + t] for t in range(gap + 1))
            for gap in range(n_points + 1 - size)
        ]
        for size in range(n_points + 1)
    ]
    for i in range(1 << n_points):
        for k in submasks(i):
            size, gap = k.bit_count(), (i ^ k).bit_count()
            if composed[size][gap] != direct[size]:
                return (
                    f"class {cls}, lam={_frac_str(lam)}, mu={_frac_str(mu)}: entry at "
                    f"(I={SubsetMask(n_points, i).members}, K={SubsetMask(n_points, k).members}) "
                    f"is {_frac_str(composed[size][gap])} composed vs {_frac_str(direct[size])} direct"
                )
    return None


def _lattice_claims(
    n_points: int, lam_samples: Sequence[Fraction], note: str
) -> list[ClaimResult]:
    """Claims 1-4, about S_lambda on the subset lattice of {1..n_points}."""
    results: list[ClaimResult] = []

    # 1. Triangularity. Every entry is [K subset I] eps(K), so it holds by
    # construction; the claim stays in the report as a statement of the form.
    results.append(
        ClaimResult(
            claim_id="scaling-triangularity",
            statement="the scaling matrix vanishes off the subset-lattice order: entry (I, K) = 0 unless K is a subset of I",
            samples=note,
            verdict=HOLDS,
        )
    )

    # 2. Unit diagonal: the entry (I, I) is eps(I).
    witness = None
    for cls in (CLASS_GT, CLASS_EQ, CLASS_LT):
        for lam in lam_samples:
            eps = _eps_by_size(n_points, cls, lam)
            for i in range(1 << n_points):
                if witness is None and eps[i.bit_count()] != 1:
                    witness = (
                        f"class {cls}, lam={_frac_str(lam)}, diagonal entry at "
                        f"I={SubsetMask(n_points, i).members} is {_frac_str(eps[i.bit_count()])}"
                    )
    results.append(
        ClaimResult(
            claim_id="scaling-unit-diagonal",
            statement="the scaling matrix has all diagonal entries equal to 1",
            samples=note,
            verdict=FAILS if witness else HOLDS,
            witness=witness,
        )
    )

    # 3. Identity at lambda = 1: S_1(I, K) = [K subset I] eps_1(K) must be
    # 1 on the diagonal and 0 below it; it is the zeta matrix iff eps_1 = 1.
    witness = None
    for cls in (CLASS_GT, CLASS_EQ, CLASS_LT):
        eps = _eps_by_size(n_points, cls, Fraction(1))
        is_identity = all(
            eps[k.bit_count()] == (k == i)
            for i in range(1 << n_points)
            for k in submasks(i)
        )
        if witness is None and not is_identity:
            shape = (
                "the subset-lattice zeta matrix"
                if all(e == 1 for e in eps)
                else "a non-identity matrix"
            )
            witness = f"class {cls}: the matrix at lam=1 is {shape}"
    results.append(
        ClaimResult(
            claim_id="scaling-identity-at-one",
            statement="scaling by lambda = 1 is the identity map",
            samples=note,
            verdict=FAILS if witness else HOLDS,
            witness=witness,
        )
    )

    # 4. One-parameter composition law.
    witness = None
    for cls in (CLASS_GT, CLASS_EQ):
        for lam, mu in combinations(lam_samples, 2):
            if witness is None:
                witness = _composition_witness(n_points, cls, lam, mu)
    results.append(
        ClaimResult(
            claim_id="scaling-one-parameter-law",
            statement="composing scalings multiplies parameters: S_lambda S_mu = S_{lambda mu}",
            samples=note,
            verdict=FAILS if witness else HOLDS,
            witness=witness,
        )
    )
    return results


def verify_claims(
    n_points: int = 3,
    lam_samples: Sequence[Fraction] | None = None,
    truncation: int = 4,
    seed: int = 7,
    trials: int = 20,
) -> list[ClaimResult]:
    """Check the structural claims about the scaling and grading actions.

    Verdicts state what the formulas, taken exactly as defined here, do:
    claims that hold are confirmed on seeded random samples, and claims that
    fail come with an explicit witness. The (id, statement, verdict) triples
    are deterministic; only the sample notes mention the seed. ``n_points``
    must lie in 2..MAX_CLAIM_POINTS.
    """
    if not 2 <= n_points <= MAX_CLAIM_POINTS:
        raise ValueError(f"n_points must lie in 2..{MAX_CLAIM_POINTS}, got {n_points}")
    if lam_samples is None:
        lam_samples = (Fraction(1, 2), Fraction(3), Fraction(5, 7))
    lam_samples = tuple(Fraction(l) for l in lam_samples)
    rng = random.Random(seed)
    note = f"n_points={n_points}, lambda in {{{', '.join(map(_frac_str, lam_samples))}}}, seed={seed}, trials={trials}"
    results = _lattice_claims(n_points, lam_samples, note)

    # 5. Grading flow composition: theta_q theta_w = theta_{q w}.
    theory = TheoryConfig.build(
        d=2, p=3, n_max=max(n_points, 4), uniform_sd_bound=Fraction(100)
    )
    witness = None
    for _ in range(trials):
        pt = _random_point(rng, theory, n_points)
        qa, qb = _random_scale(rng), _random_scale(rng)
        lhs = grading_automorphism(grading_automorphism(pt, q=qb), q=qa)
        rhs = grading_automorphism(pt, q=qa * qb)
        if witness is None and lhs != rhs:
            witness = f"q={_frac_str(qa)}, w={_frac_str(qb)}"
    results.append(
        ClaimResult(
            claim_id="grading-flow-composition",
            statement="the grading automorphisms compose multiplicatively: theta_q theta_w = theta_{q w}",
            samples=note,
            verdict=FAILS if witness else HOLDS,
            witness=witness,
        )
    )

    # 6. Multiplicativity of u^Y on Lie elements.
    witness = None
    for _ in range(trials):
        x = _random_lie(rng, truncation)
        ua, ub = _random_scale(rng), _random_scale(rng)
        lhs = grading_scale(ua * ub, x)
        rhs = grading_scale(ua, grading_scale(ub, x))
        if witness is None and lhs != rhs:
            witness = f"u={_frac_str(ua)}, v={_frac_str(ub)}"
    results.append(
        ClaimResult(
            claim_id="grading-scale-multiplicative",
            statement="the grading action is multiplicative in the scale: (u v)^Y = u^Y v^Y",
            samples=note,
            verdict=FAILS if witness else HOLDS,
            witness=witness,
        )
    )

    # 7/8. Semidirect product axioms.
    assoc_witness = None
    unit_witness = None
    for _ in range(trials):
        g = [
            exp_truncated(_random_lie(rng, truncation), _random_scale(rng))
            for _ in range(3)
        ]
        if assoc_witness is None and (g[0] * g[1]) * g[2] != g[0] * (g[1] * g[2]):
            assoc_witness = "associativity broke on a sampled triple"
        e = GroupElement.identity(truncation)
        if unit_witness is None and (
            g[0] * e != g[0]
            or e * g[0] != g[0]
            or g[0] * g[0].inverse() != e
            or g[0].inverse() * g[0] != e
        ):
            unit_witness = "identity or inverse law broke on a sampled element"
    results.append(
        ClaimResult(
            claim_id="semidirect-associativity",
            statement="the twisted product on (exp X, u) pairs is associative",
            samples=note,
            verdict=FAILS if assoc_witness else HOLDS,
            witness=assoc_witness,
        )
    )
    results.append(
        ClaimResult(
            claim_id="semidirect-identity-inverse",
            statement="(exp 0, 1) is a two-sided unit and ((1/u)^Y(-X), 1/u) a two-sided inverse",
            samples=note,
            verdict=FAILS if unit_witness else HOLDS,
            witness=unit_witness,
        )
    )
    return results
