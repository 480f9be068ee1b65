"""Index sets, subset lattices, multi-indices, and leg pairings.

Subsets of {1, ..., n} are bitmasks (bit i-1 holds element i), which keeps
lattice arithmetic exact and cheap; n is capped at 63 so masks fit in a
machine word. Every enumeration here has a fixed order so golden files and
serialized output stay reproducible:

* subsets ascend by mask value,
* multi-indices are graded by total order, leading component falling within
  each grade,
* pairings follow the match-the-first-free-leg recursion.

The transforms ``zeta_transform`` / ``moebius_transform`` are mutually
inverse on any commutative ring; exactness over ``fractions.Fraction`` is
relied on elsewhere, so no floats are introduced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

V = TypeVar("V")

MAX_LATTICE_BITS = 63


class LatticeDomainError(ValueError):
    """Lattice input does not live on a single, fully populated subset lattice."""


@dataclass(frozen=True)
class IndexSet:
    """The index set {1, ..., n}."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("index set needs n >= 1")
        if self.n > MAX_LATTICE_BITS:
            raise LatticeDomainError(f"index set capped at n <= {MAX_LATTICE_BITS}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def elements(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True, order=True)
class SubsetMask:
    """A subset of {1, ..., n}, stored as a bitmask over its parent index set."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.n > MAX_LATTICE_BITS:
            raise ValueError("parent index set out of range")
        if not 0 <= self.mask < (1 << self.n):
            raise ValueError("mask does not fit the parent index set")

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "SubsetMask":
        mask = 0
        for i in members:
            if not 1 <= i <= n:
                raise ValueError(f"element {i} outside {{1..{n}}}")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    @classmethod
    def full(cls, n: int) -> "SubsetMask":
        return cls(n, (1 << n) - 1)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n) if self.mask >> i & 1)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, element: int) -> bool:
        return 1 <= element <= self.n and bool(self.mask >> (element - 1) & 1)

    def issubset(self, other: "SubsetMask") -> bool:
        if self.n != other.n:
            raise LatticeDomainError("subsets of different parent index sets")
        return self.mask & other.mask == self.mask

    def union(self, other: "SubsetMask") -> "SubsetMask":
        if self.n != other.n:
            raise LatticeDomainError("subsets of different parent index sets")
        return SubsetMask(self.n, self.mask | other.mask)

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.n, self.mask ^ ((1 << self.n) - 1))


def enumerate_subsets(parent: IndexSet, min_size: int = 0) -> list[SubsetMask]:
    """All subsets of the parent set with at least ``min_size`` elements.

    Ordered by ascending mask value, e.g. for n=3, min_size=2:
    {1,2}, {1,3}, {2,3}, {1,2,3}.
    """
    return [
        SubsetMask(parent.n, mask)
        for mask in range(1 << parent.n)
        if mask.bit_count() >= min_size
    ]


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, ascending. Includes 0 and ``mask`` itself."""
    inverse = []
    sub = mask
    while True:
        inverse.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return iter(reversed(inverse))


def _lattice_table(values: Mapping[SubsetMask, V]) -> tuple[int, list[V]]:
    parents = {key.n for key in values}
    if len(parents) != 1:
        raise LatticeDomainError("values must share one parent index set")
    n = parents.pop()
    if len(values) != 1 << n:
        raise LatticeDomainError("values must cover every subset of the parent")
    table: list[V] = [None] * (1 << n)  # type: ignore[list-item]
    for key, v in values.items():
        table[key.mask] = v
    return n, table


def zeta_transform(values: Mapping[SubsetMask, V]) -> dict[SubsetMask, V]:
    """Subset sums: output[I] = sum over K subset of I of values[K].

    Yates' in-place sweep over bit positions, O(n 2^n) ring additions.
    """
    n, table = _lattice_table(values)
    for b in range(n):
        bit = 1 << b
        for mask in range(1 << n):
            if mask & bit:
                table[mask] = table[mask] + table[mask ^ bit]
    return {SubsetMask(n, mask): v for mask, v in enumerate(table)}


def moebius_transform(values: Mapping[SubsetMask, V]) -> dict[SubsetMask, V]:
    """Inverse of ``zeta_transform``: output[I] = sum_{K <= I} (-1)^|I \\ K| values[K]."""
    n, table = _lattice_table(values)
    for b in range(n):
        bit = 1 << b
        for mask in range(1 << n):
            if mask & bit:
                table[mask] = table[mask] - table[mask ^ bit]
    return {SubsetMask(n, mask): v for mask, v in enumerate(table)}


@dataclass(frozen=True)
class MultiIndex:
    """A derivative multi-index (non-negative integer components)."""

    components: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.components):
            raise ValueError("multi-index components must be non-negative")

    @classmethod
    def zero(cls, m: int) -> "MultiIndex":
        return cls((0,) * m)

    @property
    def order(self) -> int:
        return sum(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[int]:
        return iter(self.components)

    def __getitem__(self, i: int) -> int:
        return self.components[i]

    def factorial(self) -> int:
        out = 1
        for c in self.components:
            for j in range(2, c + 1):
                out *= j
        return out


def _compositions(total: int, m: int) -> Iterator[tuple[int, ...]]:
    # leading component falls from ``total`` to 0; matches the documented order
    if m == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, m - 1):
            yield (first,) + rest


def enumerate_multi_indices(m: int, max_order: int) -> list[MultiIndex]:
    """All multi-indices with m components and total order <= max_order.

    Graded order; within each grade the leading component decreases, so
    (m=2, max_order=1) gives (0,0), (1,0), (0,1).
    """
    if m < 1:
        raise ValueError("need at least one component")
    if max_order < 0:
        return []
    out: list[MultiIndex] = []
    for s in range(max_order + 1):
        out.extend(MultiIndex(c) for c in _compositions(s, m))
    return out


def count_multi_indices(m: int, max_order: int) -> int:
    """len(enumerate_multi_indices(m, max_order)) in closed form: C(max_order + m, m)."""
    if m < 1:
        raise ValueError("need at least one component")
    if max_order < 0:
        return 0
    return comb(max_order + m, m)


@dataclass(frozen=True)
class PairingDiagram:
    """A perfect matching of an even list of legs.

    ``legs[k]`` is the k-th leg, a (point_label, slot) pair; ``matches`` holds
    index pairs (i, j) with i < j into ``legs``, sorted by first index.
    """

    legs: tuple[tuple[int, int], ...]
    matches: tuple[tuple[int, int], ...]


def enumerate_pairings(legs: Sequence[tuple[int, int]]) -> list[PairingDiagram]:
    """All perfect matchings of the given legs; (L-1)!! of them for even L.

    Recursion always matches the first free leg against each later free leg in
    index order, so the output order is deterministic. Odd leg counts pair to
    an empty list.
    """
    legs = tuple(legs)
    if len(legs) % 2:
        return []
    out: list[PairingDiagram] = []
    acc: list[tuple[int, int]] = []

    def rec(avail: tuple[int, ...]) -> None:
        if len(avail) == 2:
            out.append(PairingDiagram(legs, (*acc, avail)))
            return
        if not avail:
            out.append(PairingDiagram(legs, ()))
            return
        first = avail[0]
        rest = avail[1:]
        for k in range(len(rest)):
            acc.append((first, rest[k]))
            rec(rest[:k] + rest[k + 1 :])
            acc.pop()

    rec(tuple(range(len(legs))))
    return out


def point_legs(powers: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Legs for a power vector: point j (1-based) contributes powers[j-1] legs."""
    if any(p < 0 for p in powers):
        raise ValueError("powers must be non-negative")
    return tuple(
        (j + 1, slot) for j, p in enumerate(powers) for slot in range(p)
    )
