"""Dense subset-lattice matrices: the reference for the closed-form scaling forms.

The library reads single entries of S_lambda and of S_lambda S_mu from closed
forms (``egdeform.group``). Here the same operators are built as explicit
2^n x 2^n Fraction matrices and multiplied, so the tests can hold the two
routes equal. Rows and columns are indexed by subset masks (bit i-1 holds
element i).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from egdeform.combinatorics import MultiIndex, SubsetMask
from egdeform.deformation import CoordinateKey, DeformationPoint
from egdeform.group import (
    CLASS_EQ,
    CLASS_GT,
    CLASS_LT,
    FAILS,
    HOLDS,
    ClaimResult,
    _family_map,
    label_class,
    scaling_coefficient,
)


@dataclass(frozen=True)
class ScalingOperator:
    """Dense matrix of S_lambda on the subset lattice of {1..n_points}.

    Rows and columns are indexed by subset masks; entry (I, K) is eps(K)
    when K is a subset of I and 0 otherwise.
    """

    n_points: int
    cls: str
    lam: Fraction
    rows: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def build(cls, n_points: int, label_cls: str, lam) -> "ScalingOperator":
        if n_points < 1:
            raise ValueError("need at least one point")
        lam = Fraction(lam)
        size = 1 << n_points
        rows = tuple(
            tuple(
                scaling_coefficient(SubsetMask(n_points, k), label_cls, lam)
                if (k & i) == k
                else Fraction(0)
                for k in range(size)
            )
            for i in range(size)
        )
        return cls(n_points=n_points, cls=label_cls, lam=lam, rows=rows)

    def entry(self, row: SubsetMask, col: SubsetMask) -> Fraction:
        return self.rows[row.mask][col.mask]


def subset_zeta_matrix(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of the lattice zeta function: 1 on K subset of I, else 0."""
    size = 1 << n
    return tuple(
        tuple(Fraction(1 if (k & i) == k else 0) for k in range(size))
        for i in range(size)
    )


def subset_moebius_matrix(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Inverse of the zeta matrix: (-1)^{|I| - |K|} on K subset of I."""
    size = 1 << n
    return tuple(
        tuple(
            Fraction((-1) ** (i.bit_count() - k.bit_count()))
            if (k & i) == k
            else Fraction(0)
            for k in range(size)
        )
        for i in range(size)
    )


def product_rows(a, b):
    """The rows of a b, one at a time; zero entries of a contribute nothing."""
    size = len(b)
    for row in a:
        nonzero = [(j, x) for j, x in enumerate(row) if x]
        yield tuple(
            sum((x * b[j][k] for j, x in nonzero), Fraction(0)) for k in range(size)
        )


def matrix_product(a, b):
    return tuple(product_rows(a, b))


def identity_matrix(size: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(
        tuple(Fraction(1 if i == k else 0) for k in range(size)) for i in range(size)
    )


def apply_scaling_operator(
    op: ScalingOperator, point: DeformationPoint
) -> DeformationPoint:
    """Apply a prebuilt matrix; every label must match its class and size."""
    out: dict[CoordinateKey, Fraction] = {}
    for (label, alpha), fam in _family_map(point).items():
        if len(label) != op.n_points:
            raise ValueError(
                f"operator on {op.n_points} points applied to label {label}"
            )
        if label_class(label) != op.cls:
            raise ValueError(
                f"operator class {op.cls!r} does not match label {label}"
            )
        n = op.n_points
        for imask in range(1 << n):
            total = Fraction(0)
            for kmask, coeff in fam.items():
                total += op.rows[imask][kmask] * coeff
            if total:
                key = CoordinateKey(label, SubsetMask(n, imask), MultiIndex(alpha))
                out[key] = out.get(key, Fraction(0)) + total
    return DeformationPoint(point.theory, out)


# ---------------------------------------------------------------------------
# Claims 1-4 of ``verify_claims``, decided from the dense matrices
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rows(n_points: int, cls: str, lam: Fraction):
    return ScalingOperator.build(n_points, cls, lam).rows


def dense_composition_witness(n_points: int, cls: str, lam, mu) -> str | None:
    """The first entry, row-major, where S_lam S_mu and S_{lam mu} differ.

    The product is formed one row at a time and stops at the first row that
    differs.
    """
    lam, mu = Fraction(lam), Fraction(mu)
    left = product_rows(_rows(n_points, cls, lam), _rows(n_points, cls, mu))
    right = _rows(n_points, cls, lam * mu)
    for i, row in enumerate(left):
        for k, value in enumerate(row):
            if value != right[i][k]:
                return (
                    f"class {cls}, lam={lam}, mu={mu}: entry at "
                    f"(I={SubsetMask(n_points, i).members}, K={SubsetMask(n_points, k).members}) "
                    f"is {value} composed vs {right[i][k]} direct"
                )
    return None


def dense_lattice_claims(n_points: int, lam_samples, note: str) -> list[ClaimResult]:
    """Claims 1-4 with the same statements, verdicts and witnesses as the library."""
    lam_samples = tuple(Fraction(l) for l in lam_samples)
    size = 1 << n_points
    ops = {
        (cls, lam): ScalingOperator.build(n_points, cls, lam)
        for cls in (CLASS_GT, CLASS_EQ, CLASS_LT)
        for lam in lam_samples + (Fraction(1),)
    }
    results = []

    witness = None
    for cls in (CLASS_GT, CLASS_EQ, CLASS_LT):
        for lam in lam_samples:
            rows = ops[cls, lam].rows
            for i in range(size):
                for k in range(size):
                    if witness is None and (k & i) != k and rows[i][k] != 0:
                        witness = f"class {cls}, lam={lam}, entry ({i}, {k})"
    results.append(
        ClaimResult(
            claim_id="scaling-triangularity",
            statement="the scaling matrix vanishes off the subset-lattice order: entry (I, K) = 0 unless K is a subset of I",
            samples=note,
            verdict=FAILS if witness else HOLDS,
            witness=witness,
        )
    )

    witness = None
    for cls in (CLASS_GT, CLASS_EQ, CLASS_LT):
        for lam in lam_samples:
            rows = ops[cls, lam].rows
            for i in range(size):
                if witness is None and rows[i][i] != 1:
                    witness = (
                        f"class {cls}, lam={lam}, diagonal entry at "
                        f"I={SubsetMask(n_points, i).members} is {rows[i][i]}"
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

    witness = None
    for cls in (CLASS_GT, CLASS_EQ, CLASS_LT):
        rows = ops[cls, Fraction(1)].rows
        if witness is None and rows != identity_matrix(size):
            shape = (
                "the subset-lattice zeta matrix"
                if rows == subset_zeta_matrix(n_points)
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

    witness = None
    for cls in (CLASS_GT, CLASS_EQ):
        for lam, mu in combinations(lam_samples, 2):
            if witness is None:
                witness = dense_composition_witness(n_points, cls, lam, mu)
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
