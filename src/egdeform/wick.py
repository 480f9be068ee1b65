"""Wick combinatorics for products of normal-ordered powers of one scalar field.

The model is Euclidean and Gaussian: the two-point function of the free field
is a symmetric translation-invariant kernel G(x - y), all higher truncated
functions vanish, and time ordering is symmetric (no step functions). The
vacuum expectation of a product of normal-ordered powers is then a sum over
complete leg pairings in which no pair joins two legs at the same point.

Three evaluations of the same pairing sum exist on purpose:

* ``vacuum_moment_oracle`` enumerates raw leg pairings, one term per diagram.
  It does nothing clever and is the reference the tests compare against;
* ``contraction_kernel`` / ``vacuum_moment`` group pairings by the contraction
  multigraph they induce and weight each multigraph by its leg-matching count
  prod(r_i!) / prod(m_ij!) in closed form. This grouped path produces every
  value the CLI prints;
* ``pairing_moment`` recurses on the residual degree vector, pairing the
  first open leg with every leg at another point. It shares nothing with the
  grouped path and is polynomial in the powers, so ``wick --points`` uses it
  as its independent cross-check.

The tests hold all three equal; keeping them apart is the point.

Exact evaluation of kernels at a point configuration samples the propagator
as the rational function g(x, y) = 1 / (1 + |x - y|^2). Any symmetric
function of the coordinate difference supports the algebraic identity checks
below (symmetry, causal factorization, translation invariance); a rational
one keeps them exact over ``fractions.Fraction``. Quadrature against the true
Green function lives in :mod:`egdeform.distributions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Callable, Mapping, Sequence

from egdeform.combinatorics import (
    SubsetMask,
    enumerate_pairings,
    point_legs,
)
from egdeform.distributions import (
    Kernel,
    LinearCombination,
    PropagatorProduct,
)

Edge = tuple[int, int]
EdgeMap = tuple[tuple[Edge, int], ...]
_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class WickMonomial:
    """A normal-ordered power of the field at one labelled point."""

    point: int
    power: int

    def __post_init__(self) -> None:
        if self.point < 1:
            raise ValueError("points are labelled 1, 2, ...")
        if self.power < 0:
            raise ValueError("power must be non-negative")


@dataclass(frozen=True)
class ContractionGraph:
    """A multigraph of contractions together with its leg-matching multiplicity.

    ``edges`` maps point pairs (i, j), i < j, to multiplicities >= 1;
    ``matchings`` counts the leg-level pairings inducing this multigraph,
    prod(r_i!) / prod(m_ij!) for degree vector r.
    """

    n_points: int
    edges: EdgeMap
    matchings: int

    def degree(self, point: int) -> int:
        return sum(m for (i, j), m in self.edges if point in (i, j))


@dataclass(frozen=True)
class PointConfiguration:
    """Distinct labelled points in R^d with exact rational coordinates."""

    d: int
    points: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        for x in self.points:
            if len(x) != self.d:
                raise ValueError("point dimension mismatch")
        if len(set(self.points)) != len(self.points):
            raise ValueError("configuration points must be pairwise distinct")

    @classmethod
    def from_ints(cls, d: int, rows: Sequence[Sequence[int]]) -> "PointConfiguration":
        return cls(d, tuple(tuple(Fraction(c) for c in row) for row in rows))

    @property
    def n_points(self) -> int:
        return len(self.points)

    def shifted(self, a: Sequence[Fraction]) -> "PointConfiguration":
        if len(a) != self.d:
            raise ValueError("shift dimension mismatch")
        return PointConfiguration(
            self.d, tuple(tuple(c + s for c, s in zip(x, a)) for x in self.points)
        )

    def permuted(self, sigma: Sequence[int]) -> "PointConfiguration":
        """Configuration y with y[sigma(j)] = x[j]; sigma is 1-based on labels."""
        _check_permutation(sigma, self.n_points)
        out: list[tuple[Fraction, ...] | None] = [None] * self.n_points
        for j, target in enumerate(sigma):
            out[target - 1] = self.points[j]
        return PointConfiguration(self.d, tuple(out))  # type: ignore[arg-type]


def _check_permutation(sigma: Sequence[int], n: int) -> None:
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma!r} is not a permutation of 1..{n}")


def rational_propagator(config: PointConfiguration) -> dict[Edge, Fraction]:
    """Exact propagator samples g_ij = 1 / (1 + |x_i - x_j|^2) for all i < j."""
    out: dict[Edge, Fraction] = {}
    for i in range(1, config.n_points + 1):
        for j in range(i + 1, config.n_points + 1):
            diff = [a - b for a, b in zip(config.points[i - 1], config.points[j - 1])]
            out[(i, j)] = _ONE / (1 + sum(c * c for c in diff))
    return out


def _edge_value(g: Mapping[Edge, Fraction], i: int, j: int) -> Fraction:
    return g[(i, j) if i < j else (j, i)]


def _matching_count(degrees: Mapping[int, int], edges: EdgeMap) -> int:
    """Leg pairings inducing a multigraph whose vertex i owns degrees[i] legs."""
    count = 1
    for deg in degrees.values():
        count *= factorial(deg)
    for _, m in edges:
        count //= factorial(m)
    return count


def pairable(residual_powers: Sequence[int]) -> bool:
    """True iff some no-self-loop multigraph has this degree vector.

    That holds exactly when the total is even and no entry exceeds half of it
    (the empty and the all-zero vectors pair trivially), so this equals
    ``bool(contraction_graphs(r))`` without building a multigraph.
    """
    total = sum(residual_powers)
    return total % 2 == 0 and 2 * max(residual_powers, default=0) <= total


@lru_cache(maxsize=1024)
def contraction_graphs(residual_powers: tuple[int, ...]) -> tuple[ContractionGraph, ...]:
    """All no-self-loop multigraphs with the given degree vector, with multiplicities.

    Backtracks over point pairs in lexicographic order, so the output order is
    fixed. Odd totals yield the empty tuple; the all-zero vector yields the
    single empty multigraph (matchings = 1, the empty product). The memo is
    bounded at 1024 vectors, more than the 780 degree vectors on one to four
    points with entries 0..4 that wick tables up to those sizes draw from.
    """
    r = tuple(int(p) for p in residual_powers)
    if any(p < 0 for p in r):
        raise ValueError("residual powers must be non-negative")
    n = len(r)
    if not pairable(r):
        return ()
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    # after pair index idx, vertex v can still gain degree only if it appears
    # in a later pair; closed[idx] lists the vertices whose last pair is
    # idx - 1, the only ones whose leftover degree is final from idx on (the
    # ones closed earlier were checked at an earlier index and are unchanged)
    last_touch = {v: -1 for v in range(1, n + 1)}
    for idx, (i, j) in enumerate(pairs):
        last_touch[i] = idx
        last_touch[j] = idx
    closed: list[list[int]] = [[] for _ in range(len(pairs) + 1)]
    for v, last in last_touch.items():
        closed[last + 1].append(v - 1)

    out: list[ContractionGraph] = []

    def rec(idx: int, rem: tuple[int, ...], acc: EdgeMap) -> None:
        for v in closed[idx]:
            if rem[v]:
                return
        if idx == len(pairs):
            degrees = {v: r[v - 1] for v in range(1, n + 1)}
            out.append(ContractionGraph(n, acc, _matching_count(degrees, acc)))
            return
        i, j = pairs[idx]
        cap = min(rem[i - 1], rem[j - 1])
        for m in range(cap + 1):
            nxt = list(rem)
            nxt[i - 1] -= m
            nxt[j - 1] -= m
            rec(idx + 1, tuple(nxt), acc + (((i, j), m),) if m else acc)

    rec(0, r, ())
    return tuple(out)


def contraction_kernel(residual_powers: Sequence[int], d: int) -> Kernel:
    """The numerical distribution attached to fully contracting the given legs.

    A combination sum_m (leg matchings of m) prod G(x_i - x_j)^(m_ij) over
    contraction multigraphs m. The all-zero vector gives the constant kernel 1
    (empty product); odd or unpairable totals give the empty combination (the
    zero kernel).
    """
    r = tuple(residual_powers)
    if len(r) < 1:
        raise ValueError("need at least one point")
    return LinearCombination(
        tuple(
            (Fraction(graph.matchings), PropagatorProduct(len(r), d, graph.edges))
            for graph in contraction_graphs(r)
        )
    )


@dataclass(frozen=True)
class WickExpansionTerm:
    """One term of the expansion of a product of normal-ordered powers.

    ``label`` is the vector (i_1, ..., i_n) of powers left uncontracted;
    ``coefficient`` is exactly 1/(i_1! ... i_n!); ``kernel`` is the
    contraction kernel of the contracted powers (k_j - i_j);
    ``residual_monomial`` spells the surviving normal-ordered factor.
    """

    label: tuple[int, ...]
    coefficient: Fraction
    kernel: Kernel
    residual_monomial: tuple[WickMonomial, ...]


def _sub_labels(powers: tuple[int, ...]) -> list[tuple[int, ...]]:
    labels: list[tuple[int, ...]] = [()]
    for kj in powers:
        labels = [lab + (i,) for lab in labels for i in range(kj + 1)]
    return labels


def wick_expand(powers: Sequence[int], d: int) -> tuple[WickExpansionTerm, ...]:
    """Expand a product of normal-ordered powers into kernels and monomials.

    Terms with an odd number of contracted legs, or whose contracted powers
    admit no self-loop-free pairing, are dropped (their kernels vanish).
    Labels are enumerated in lexicographic order.
    """
    k = tuple(powers)
    if any(p < 0 for p in k):
        raise ValueError("powers must be non-negative")
    n = len(k)
    if n < 1:
        raise ValueError("need at least one point")

    out: list[WickExpansionTerm] = []
    for lab in _sub_labels(k):
        contracted = tuple(kj - ij for kj, ij in zip(k, lab))
        if not pairable(contracted):
            continue
        coeff = _ONE
        for ij in lab:
            coeff /= factorial(ij)
        out.append(
            WickExpansionTerm(
                label=lab,
                coefficient=coeff,
                kernel=contraction_kernel(contracted, d),
                residual_monomial=tuple(
                    WickMonomial(j + 1, ij) for j, ij in enumerate(lab)
                ),
            )
        )
    return tuple(out)


def vacuum_moment_oracle(
    residual_powers: Sequence[int], g: Mapping[Edge, Fraction]
) -> Fraction:
    """Brute-force pairing sum: one term per leg pairing, same-point pairs give 0.

    This is the reference implementation everything else is tested against;
    it does nothing clever on purpose. Every nonzero term is a product of
    exactly L/2 samples (L legs), so the samples are written over one common
    denominator D and each term is an integer product; the sum is divided by
    D^(L/2) once at the end. The value is the same exact Fraction.
    """
    legs = point_legs(residual_powers)
    point = [p for p, _ in legs]
    samples = {edge: Fraction(value) for edge, value in g.items()}
    den = lcm(*(value.denominator for value in samples.values()))
    num = {
        edge: value.numerator * (den // value.denominator)
        for edge, value in samples.items()
    }
    total = 0
    for diagram in enumerate_pairings(legs):
        term = 1
        for a, b in diagram.matches:
            pa, pb = point[a], point[b]
            if pa == pb:
                term = 0
                break
            term *= num[(pa, pb) if pa < pb else (pb, pa)]
        total += term
    return Fraction(total, den ** (len(legs) // 2))


def pairing_moment(
    residual_powers: Sequence[int],
    g: Mapping[Edge, Fraction],
    memo: dict[tuple[int, ...], Fraction] | None = None,
) -> Fraction:
    """The same pairing sum by recursion on the residual degree vector.

    The first open leg, at point i, pairs with each of the r_j legs at every
    other point j:

        moment(r) = sum_{j != i} r_j g_ij moment(r - e_i - e_j),  moment(0) = 1,

    so the cost is at most prod(r_i + 1) states. It never builds a pairing or
    a multigraph, which makes it an independent check of the grouped path.
    Calls with the same ``g`` may share ``memo`` (the value per state); one
    table then costs prod(k_i + 1) states in all.
    """
    r = tuple(int(p) for p in residual_powers)
    if any(p < 0 for p in r):
        raise ValueError("residual powers must be non-negative")
    states = {} if memo is None else memo

    def rec(rem: tuple[int, ...]) -> Fraction:
        value = states.get(rem)
        if value is not None:
            return value
        i = next((k for k, v in enumerate(rem) if v), None)
        value = _ONE if i is None else _ZERO
        for j, rj in enumerate(rem):
            if j != i and rj:
                nxt = list(rem)
                nxt[i] -= 1
                nxt[j] -= 1
                value += rj * _edge_value(g, i + 1, j + 1) * rec(tuple(nxt))
        states[rem] = value
        return value

    return rec(r)


def vacuum_moment(
    residual_powers: Sequence[int], g: Mapping[Edge, Fraction]
) -> Fraction:
    """Multigraph-grouped evaluation of the same pairing sum (the fast path)."""
    total = _ZERO
    for graph in contraction_graphs(tuple(residual_powers)):
        term = Fraction(graph.matchings)
        for (i, j), m in graph.edges:
            term *= _edge_value(g, i, j) ** m
        total += term
    return total


def evaluate_kernel_exact(kernel: Kernel, g: Mapping[Edge, Fraction]) -> Fraction:
    """Evaluate a propagator-product combination on exact propagator samples."""
    if isinstance(kernel, PropagatorProduct):
        term = _ONE
        for (i, j), m in kernel.edges:
            term *= _edge_value(g, i, j) ** m
        return term
    if isinstance(kernel, LinearCombination):
        total = _ZERO
        for coeff, member in kernel.terms:
            total += Fraction(coeff) * evaluate_kernel_exact(member, g)
        return total
    raise TypeError(f"exact evaluation undefined for {type(kernel).__name__}")


def gaussian_moment(p: int) -> int:
    """The p-th moment of a standard Gaussian: (p-1)!! for even p, 0 for odd."""
    if p < 0:
        raise ValueError("moment order must be non-negative")
    if p % 2:
        return 0
    out = 1
    for k in range(p - 1, 0, -2):
        out *= k
    return out


@dataclass(frozen=True)
class DysonTerm:
    """Order-n term of the stylized 0-dimensional Dyson series.

    The imaginary unit stays formal: the term equals i**i_power * magnitude
    with ``magnitude`` an exact rational. ``real``/``imag`` resolve the formal
    factor; ``to_complex`` is for float comparisons.
    """

    i_power: int
    magnitude: Fraction

    @property
    def real(self) -> Fraction:
        return {0: self.magnitude, 2: -self.magnitude}.get(self.i_power % 4, _ZERO)

    @property
    def imag(self) -> Fraction:
        return {1: self.magnitude, 3: -self.magnitude}.get(self.i_power % 4, _ZERO)

    def to_complex(self) -> complex:
        return complex(float(self.real), float(self.imag))


def dyson_term(n: int, p: int, coupling: Fraction | int = 1) -> DysonTerm:
    """The order-n term of exp(i g phi^p) in the 0-dimensional Gaussian model.

    Value i^n g^n / n! <phi^(n p)>, the moment being the all-pairings sum
    (n p - 1)!! (self-pairings between distinct factor slots allowed; odd
    totals kill the term).
    """
    if n < 0 or p < 0:
        raise ValueError("order and power must be non-negative")
    g = Fraction(coupling)
    moment = gaussian_moment(n * p)
    return DysonTerm(i_power=n % 4, magnitude=g**n / factorial(n) * moment)


CheckPropagator = Callable[[PointConfiguration], Mapping[Edge, Fraction]]


def check_symmetry(
    powers: Sequence[int],
    sigma: Sequence[int],
    config: PointConfiguration,
    propagator: CheckPropagator = rational_propagator,
) -> bool:
    """Permutation covariance of every contraction kernel of the expansion.

    For each vector c of contracted powers below ``powers``, the kernel value
    at the original configuration must equal the value of the sigma-permuted
    kernel at the permuted configuration, exactly.
    """
    k = tuple(powers)
    _check_permutation(sigma, len(k))
    g = propagator(config)
    g_perm = propagator(config.permuted(sigma))
    for c in _sub_labels(k):
        c_perm = [0] * len(k)
        for j, cj in enumerate(c):
            c_perm[sigma[j] - 1] = cj
        if vacuum_moment(c, g) != vacuum_moment(tuple(c_perm), g_perm):
            return False
    return True


def check_causal_factorization(
    powers: Sequence[int],
    group: SubsetMask,
    config: PointConfiguration,
    propagator: CheckPropagator = rational_propagator,
) -> bool:
    """Factorized versus direct vacuum expectation of the full product.

    The factored side expands each group into its partial contractions
    (multigraphs within the group, counted with the choose-and-match factor
    prod k_i! / ((k_i - deg_i)! ) / prod m_e!) and pairs the leftover legs
    across the two groups with complete bipartite matchings. The direct side
    is the all-multigraph vacuum sum. In this Gaussian Euclidean model the two
    agree identically, so the check validates the implementation rather than
    the model.
    """
    k = tuple(powers)
    n = len(k)
    if group.n != n:
        raise ValueError("group subset does not match the number of points")
    if group.size == 0 or group.size == n:
        raise ValueError("both groups must be non-empty")
    g = propagator(config)
    left = group.members
    right = group.complement().members

    right_partials = [
        (graph, _partial_value(k, graph, g), _residual_after(k, right, graph))
        for graph in _partial_graphs(k, right)
    ]
    lhs = _ZERO
    for graph_l in _partial_graphs(k, left):
        rem_l = _residual_after(k, left, graph_l)
        open_l = sum(rem_l.values())
        val_l = _partial_value(k, graph_l, g)
        for _, val_r, rem_r in right_partials:
            if open_l != sum(rem_r.values()):
                continue
            cross = _bipartite_moment(rem_l, rem_r, g)
            if cross:
                lhs += val_l * val_r * cross
    return lhs == vacuum_moment(k, g)


def _partial_graphs(k: tuple[int, ...], points: tuple[int, ...]) -> list[EdgeMap]:
    """All multigraphs among ``points`` whose degrees stay below the powers."""
    out: list[EdgeMap] = []
    pairs = [
        (points[a], points[b])
        for a in range(len(points))
        for b in range(a + 1, len(points))
    ]

    def rec(idx: int, rem: dict[int, int], acc: EdgeMap) -> None:
        if idx == len(pairs):
            out.append(acc)
            return
        i, j = pairs[idx]
        cap = min(rem[i], rem[j])
        for m in range(cap + 1):
            rem[i] -= m
            rem[j] -= m
            rec(idx + 1, rem, acc + (((i, j), m),) if m else acc)
            rem[i] += m
            rem[j] += m

    rec(0, {p: k[p - 1] for p in points}, ())
    return out


def _residual_after(
    k: tuple[int, ...], points: tuple[int, ...], graph: EdgeMap
) -> dict[int, int]:
    rem = {p: k[p - 1] for p in points}
    for (i, j), m in graph:
        rem[i] -= m
        rem[j] -= m
    return rem


def _partial_value(
    k: tuple[int, ...], graph: EdgeMap, g: Mapping[Edge, Fraction]
) -> Fraction:
    """Weighted value of a partial contraction: count of leg-level partial
    pairings inducing the multigraph, prod_i k_i!/(k_i - deg_i)! / prod_e m_e!,
    times the propagator product."""
    degrees: dict[int, int] = {}
    for (i, j), m in graph:
        degrees[i] = degrees.get(i, 0) + m
        degrees[j] = degrees.get(j, 0) + m
    count = Fraction(1)
    for i, deg in degrees.items():
        count *= Fraction(factorial(k[i - 1]), factorial(k[i - 1] - deg))
    value = _ONE
    for (i, j), m in graph:
        count /= factorial(m)
        value *= _edge_value(g, i, j) ** m
    return count * value


def _bipartite_moment(
    rem_l: Mapping[int, int], rem_r: Mapping[int, int], g: Mapping[Edge, Fraction]
) -> Fraction:
    """Sum over complete cross-matchings of the leftover legs, grouped by
    bipartite multigraph with count prod(r!) / prod(b!)."""
    left = [(p, r) for p, r in sorted(rem_l.items()) if r]
    right = [(p, r) for p, r in sorted(rem_r.items()) if r]
    total_l = sum(r for _, r in left)
    if total_l != sum(r for _, r in right):
        return _ZERO
    if total_l == 0:
        return _ONE

    count0 = Fraction(1)
    for _, r in left + right:
        count0 *= factorial(r)

    pairs = [(i, j) for i, _ in left for j, _ in right]
    rem = {p: r for p, r in left + right}
    total = _ZERO
    acc_edges: list[tuple[Edge, int]] = []

    def rec(idx: int) -> None:
        nonlocal total
        if idx == len(pairs):
            if all(v == 0 for v in rem.values()):
                term = count0
                for (i, j), m in acc_edges:
                    term /= factorial(m)
                    term *= _edge_value(g, i, j) ** m
                total += term
            return
        i, j = pairs[idx]
        cap = min(rem[i], rem[j])
        for m in range(cap + 1):
            rem[i] -= m
            rem[j] -= m
            if m:
                acc_edges.append(((i, j) if i < j else (j, i), m))
            rec(idx + 1)
            if m:
                acc_edges.pop()
            rem[i] += m
            rem[j] += m

    rec(0)
    return total


def check_translation_invariance(
    powers: Sequence[int],
    shift: Sequence[Fraction],
    config: PointConfiguration,
    propagator: CheckPropagator = rational_propagator,
) -> bool:
    """Every contraction kernel takes the same value at shifted configurations.

    Holds exactly because the propagator samples depend on coordinate
    differences only.
    """
    k = tuple(powers)
    g = propagator(config)
    g_shift = propagator(config.shifted(tuple(Fraction(s) for s in shift)))
    return all(
        vacuum_moment(c, g) == vacuum_moment(c, g_shift) for c in _sub_labels(k)
    )
