"""Reference checkers for every benchmark job.

Each checker takes a job's inputs and the program's output and returns
``None`` when the output is right, or a one-line reason when it is not. None
of them imports or calls ``egdeform``: every expected value is recomputed
here from closed forms or from an independent recursion.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Mapping, Sequence

Point = tuple[Fraction, ...]
Entries = dict[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], Fraction]


# ---------------------------------------------------------------------------
# Shared combinatorics
# ---------------------------------------------------------------------------


def pairable(residual: Sequence[int]) -> bool:
    """A loopless multigraph with this degree vector exists.

    True iff the total is even and no entry exceeds half of it (the empty
    vector and the all-zero vector pair trivially).
    """
    total = sum(residual)
    return total % 2 == 0 and 2 * max(residual, default=0) <= total


def propagator(points: Sequence[Point]) -> dict[tuple[int, int], Fraction]:
    """g_ij = 1 / (1 + |x_i - x_j|^2) for 0-based i < j."""
    out = {}
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dist2 = sum((a - b) ** 2 for a, b in zip(points[i], points[j]))
            out[(i, j)] = 1 / (1 + dist2)
    return out


def pairing_sum(residual: Sequence[int], g: Mapping[tuple[int, int], Fraction]) -> Fraction:
    """Sum over leg pairings with no same-point pair of the product of g.

    Recursion on the degree vector: the first open leg pairs with each of the
    r_j legs at every other point j.
    """

    @lru_cache(maxsize=None)
    def rec(r: tuple[int, ...]) -> Fraction:
        i = next((k for k, v in enumerate(r) if v), None)
        if i is None:
            return Fraction(1)
        total = Fraction(0)
        for j, rj in enumerate(r):
            if j == i or not rj:
                continue
            nxt = list(r)
            nxt[i] -= 1
            nxt[j] -= 1
            total += rj * g[(min(i, j), max(i, j))] * rec(tuple(nxt))
        return total

    return rec(tuple(residual))


def _frac(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _load(text: str):
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


# ---------------------------------------------------------------------------
# wick-tables
# ---------------------------------------------------------------------------


def check_wick(powers: Sequence[int], points: Sequence[Point], text: str) -> str | None:
    """``egdeform wick P.. --points .. --json``: labels, 1/prod i_j!, exact values."""
    out, err = _load(text)
    if err:
        return err
    if out.get("cross_check") != "passed":
        return "cross-check not reported as passed"
    g = propagator(points)
    expected = []
    for label in product(*(range(k + 1) for k in powers)):
        residual = [k - i for k, i in zip(powers, label)]
        if pairable(residual):
            expected.append((label, residual))
    terms = out.get("terms", [])
    if len(terms) != len(expected):
        return f"{len(terms)} terms, expected {len(expected)}"
    for term, (label, residual) in zip(terms, expected):
        if tuple(term["J"]) != label:
            return f"term label {term['J']} where {list(label)} was expected"
        coeff = Fraction(1, math.prod(math.factorial(i) for i in label))
        if _frac(term["coefficient"]) != coeff:
            return f"coefficient at J={list(label)} is not {coeff}"
        value = pairing_sum(residual, g)
        if _frac(term["value"]) != value:
            return f"value at J={list(label)} is not {value}"
    return None


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

#: |numeric - closed form| allowed for a homogeneous power: on a fixed grid
#: the log-log regression of an exactly homogeneous kernel is exact up to
#: rounding.
SDEG_TOL_POWER = 1e-6
#: for a mollified delta the width-1e-3 Gaussian biases the slope by about
#: 1e-5 at |alpha| <= 2
SDEG_TOL_DELTA = 1e-3


def check_sdeg(expected: Fraction, tol: float, text: str) -> str | None:
    """``egdeform sdeg KERNEL --json``: symbolic exact, numeric within ``tol``."""
    out, err = _load(text)
    if err:
        return err
    if out.get("symbolic") == "infinite" or _frac(out["symbolic"]) != expected:
        return f"symbolic degree {out.get('symbolic')} is not {expected}"
    numeric = out.get("numeric")
    if not isinstance(numeric, (int, float)) or not abs(numeric - float(expected)) <= tol:
        return f"numeric degree {numeric} is not within {tol} of {expected}"
    return None


def ambiguity_c0(m: int, k: Fraction, w1: float, w2: float) -> float:
    """c_0 = integral over R^m of (w_1 - w_2)(x) |x|^-k dx, w_i = exp(-|x|^2 / 2 s_i^2).

    In polar coordinates with s = (m - k)/2 and a_i = 1 / (2 s_i^2) this is
    |S^(m-1)| Gamma(s) (a_1^-s - a_2^-s) / 2 for -1 < s < 0, and the Frullani
    limit |S^(m-1)| log(s_1 / s_2) at s = 0.
    """
    sphere = 2.0 * math.pi ** (m / 2) / math.gamma(m / 2)
    s = (m - float(k)) / 2.0
    if s == 0.0:
        return sphere * math.log(w1 / w2)
    a1, a2 = 1.0 / (2.0 * w1 * w1), 1.0 / (2.0 * w2 * w2)
    return sphere * 0.5 * math.gamma(s) * (a1 ** -s - a2 ** -s)


def check_ambiguity(expected: float, rtol: float, c0) -> str | None:
    """``extension_ambiguity`` c_0 against the closed form, relative ``rtol``."""
    if not isinstance(c0, float) or not abs(c0 - expected) <= rtol * abs(expected):
        return f"c_0 = {c0} is not within {rtol:.0e} of {expected:.9g}"
    return None


# ---------------------------------------------------------------------------
# counterterms: dims
# ---------------------------------------------------------------------------


def lie_dimension(n: int) -> int:
    """Degree-n dimension of the free Lie algebra with one generator per weight.

    Words of weight N number 2^(N-1), so PBW gives sum_{e | N} e dim_e = 2^N - 1
    and Moebius inversion dim_N = (1/N) sum_{e | N} mu(N/e) (2^e - 1).
    """
    total = sum(_moebius(n // e) * (2**e - 1) for e in range(1, n + 1) if n % e == 0)
    return total // n


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


def _sd_bound(d: int, edges: int) -> int:
    if d >= 3:
        return edges * (d - 2)
    return 0 if d == 2 else -edges


def dims_reference(d: int, p: int, n_max: int) -> dict[str, dict[str, int]]:
    """Per level: realized labels and counterterm totals under both policies.

    A label J of length n is realized iff p - J is pairable; each realized
    label and each subset I with |I| = s >= 2 contributes C(limit + m, m)
    derivative indices, m = (n - 1) d, limit = floor(sd) (paper-literal) or
    floor(sd - d (s - 1)) (codim-corrected), none when the limit is negative.
    """
    levels = {}
    for level in range(1, n_max):
        n = level + 1
        m = (n - 1) * d
        by_edges: dict[int, int] = {}
        for label in product(range(p + 1), repeat=n):
            residual = [p - i for i in label]
            if pairable(residual):
                edges = sum(residual) // 2
                by_edges[edges] = by_edges.get(edges, 0) + 1
        literal = corrected = 0
        for edges, count in by_edges.items():
            sd = _sd_bound(d, edges)
            for s in range(2, n + 1):
                subsets = math.comb(n, s)
                if sd >= 0:
                    literal += count * subsets * math.comb(sd + m, m)
                limit = sd - d * (s - 1)
                if limit >= 0:
                    corrected += count * subsets * math.comb(limit + m, m)
        levels[str(level)] = {
            "realized_labels": sum(by_edges.values()),
            "paper_literal": literal,
            "codim_corrected": corrected,
        }
    return levels


def check_dims(d: int, p: int, n_max: int, truncation: int, text: str) -> str | None:
    """``egdeform dims --json``: label counts, both totals, Lie dimensions."""
    out, err = _load(text)
    if err:
        return err
    if out.get("levels") != dims_reference(d, p, n_max):
        return f"dimension table differs from the reference at d={d} p={p} n_max={n_max}"
    lie = [lie_dimension(n) for n in range(1, truncation + 1)]
    if out.get("lie_dimensions") != lie:
        return f"Lie dimensions {out.get('lie_dimensions')} are not {lie}"
    return None


# ---------------------------------------------------------------------------
# counterterms: deform
# ---------------------------------------------------------------------------


def serialize_entries(entries: Entries) -> str:
    """The canonical point format: sorted (J, I, alpha), exact num/den."""
    rows = [
        {
            "J": list(label),
            "I": list(members),
            "alpha": list(alpha),
            "coeff_num": coeff.numerator,
            "coeff_den": coeff.denominator,
        }
        for (label, members, alpha), coeff in sorted(entries.items())
        if coeff
    ]
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def parse_entries(text: str) -> Entries:
    out: Entries = {}
    for row in json.loads(text):
        key = (tuple(row["J"]), tuple(row["I"]), tuple(row["alpha"]))
        out[key] = out.get(key, Fraction(0)) + Fraction(row["coeff_num"], row["coeff_den"])
    return out


def _supersets(members: tuple[int, ...], n: int):
    """All supersets of ``members`` inside {1..n}."""
    free = [i for i in range(1, n + 1) if i not in members]
    for mask in range(1 << len(free)):
        extra = [free[b] for b in range(len(free)) if mask >> b & 1]
        yield tuple(sorted(members + tuple(extra)))


def _scale(entries: Entries, lam: Fraction) -> Entries:
    """(S_lam b)_I = sum over K subset of I of eps(K) b_K per (J, alpha) family,
    eps(K) = lam^|K| if J_1 > J_2, 1 if J_1 = J_2, and 0 if J_1 < J_2."""
    out: Entries = {}
    for (label, members, alpha), coeff in entries.items():
        if label[0] < label[1]:
            continue
        eps = lam ** len(members) if label[0] > label[1] else Fraction(1)
        for sup in _supersets(members, len(label)):
            key = (label, sup, alpha)
            out[key] = out.get(key, Fraction(0)) + eps * coeff
    return out


def _embed(entries: Entries, image: tuple[int, ...], n: int, d: int) -> Entries:
    out: Entries = {}
    for (label, members, alpha), coeff in entries.items():
        new_label = [0] * n
        for j, lab in enumerate(label):
            new_label[image[j] - 1] = lab
        new_alpha = [0] * ((n - 1) * d)
        for j in range(1, len(label)):
            tgt = image[j]
            new_alpha[(tgt - 2) * d : (tgt - 1) * d] = alpha[(j - 1) * d : j * d]
        key = (tuple(new_label), tuple(image[i - 1] for i in members), tuple(new_alpha))
        out[key] = out.get(key, Fraction(0)) + coeff
    return out


def apply_actions(entries: Entries, actions: Sequence[str], d: int) -> Entries:
    """The benchmark's own model of the ``deform`` actions it generates."""
    for action in actions:
        verb, *words = action.split()
        args = dict(w.split("=", 1) for w in words if "=" in w)
        if verb == "shift":
            continue  # only 'shift 0' is generated
        if verb == "scale":
            entries = _scale(entries, Fraction(args["lambda"]))
        elif verb == "theta":
            q = Fraction(args["q"]) if "q" in args else Fraction(args["z"][3:])
            entries = {k: c * q ** (len(k[0]) - 1) for k, c in entries.items()}
        elif verb == "grade":
            entries = {k: c * (len(k[0]) - 1) for k, c in entries.items()}
        elif verb == "embed":
            image = tuple(int(v) for v in args["into"].split(","))
            entries = _embed(entries, image, int(args["n"]), d)
        else:
            raise ValueError(f"no model for action {verb!r}")
    return {k: c for k, c in entries.items() if c}


def check_deform(entries: Entries, actions: Sequence[str], d: int, text: str) -> str | None:
    """``egdeform deform FILE ACTIONS..``: coordinates equal the model's."""
    try:
        got = parse_entries(text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"output is not a point: {exc}"
    want = apply_actions(entries, actions, d)
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))
        return f"{len(diff)} coordinates differ from the model, first {diff[0][0]}"
    return None


def check_round_trip(original: str, text: str) -> str | None:
    """``deform FILE 'shift 0'`` reproduces a canonical file byte for byte."""
    if text != original:
        return "shift 0 did not reproduce the canonical file byte for byte"
    return None
