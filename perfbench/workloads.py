"""Seeded job generators for the benchmark workloads.

A workload is a deck of jobs built from ``--seed`` alone. Each deck is a
sequence of rounds; every round holds the same job classes in the same
numbers (only their parameters and order are drawn from the seed), so two
seeds load the program with the same mix and the percentiles land inside the
same job class. The program only ever sees generated argv and files.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checkers

WORKLOADS = ("wick-tables", "quadrature", "counterterms")
#: workloads whose timings are scaled to the reference host speed by the
#: probe in run.py; quadrature's time is in numpy kernels, which the host's
#: slow spells and the pure-Python probe do not move alike
HOST_SCALED = ("wick-tables", "counterterms")

#: theory dimension of every CLI job that does not pass --config (the default)
DEFAULT_D = 4
DEFAULT_P = 4


@dataclass
class Job:
    """One request: CLI argv, or a library call, plus its reference check.

    ``check`` gets the captured stdout (CLI) or the call's return value and
    returns None or a one-line failure reason.
    """

    kind: str
    check: Callable[[object], str | None]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None


@dataclass
class Workload:
    rounds: list[list[Job]]
    warmup: list[Job]
    #: latency percentile reported as job_tail_ms; chosen so that a run of
    #: --seconds 10 or more leaves at least ten samples beyond it
    tail_pct: float

    def jobs(self):
        """Rounds in order, repeated if a run outlasts the deck."""
        for job_round in itertools.cycle(self.rounds):
            yield from job_round


def build(name: str, seed: int, workdir: Path, lib) -> Workload:
    """Generate the deck; ``lib`` gives library jobs their entry points."""
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, workdir, lib)


def _rat(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


# ---------------------------------------------------------------------------
# wick-tables
# ---------------------------------------------------------------------------

#: rounds per deck; a round takes about 1.5 s, so this outlasts any run
WICK_ROUNDS = 60
#: the 12-leg shapes in every round: the two slowest of the six, well above
#: the other four, so that the tail percentile sits inside one job class
WICK_HEAVY = ((4, 3, 3, 2), (3, 3, 3, 3))


def _shapes(legs: int) -> list[tuple[int, ...]]:
    """Non-increasing power vectors of 2..4 points, powers 0..4, summing to legs."""
    return [
        v
        for n in (2, 3, 4)
        for v in itertools.product(range(4, -1, -1), repeat=n)
        if sum(v) == legs and list(v) == sorted(v, reverse=True)
    ]


def _wick_job(rng: random.Random, powers: tuple[int, ...]) -> Job:
    points: set[tuple[Fraction, ...]] = set()
    while len(points) < len(powers):
        points.add(tuple(_rat(rng, -3, 3, 3) for _ in range(DEFAULT_D)))
    ordered = sorted(points)
    rng.shuffle(ordered)
    text = ";".join(",".join(str(c) for c in p) for p in ordered)
    return Job(
        kind=f"wick/{sum(powers)}legs",
        argv=["wick", *map(str, powers), f"--points={text}", "--json"],
        check=lambda out, p=powers, x=ordered: checkers.check_wick(p, x, out),
    )


def _build_wick(rng: random.Random, workdir: Path, lib) -> Workload:
    # every round holds every shape of 7..11 legs and WICK_HEAVY once, in
    # non-increasing order (the seed draws the points and their order): the
    # pool of power vectors is fixed, so contraction_graphs sees repeats, and
    # every round costs the same. The 25 shapes of 7 and 8 legs put the median
    # inside the dense 5-11 ms band of 8- and 9-leg tables rather than in the
    # gap above it.
    vectors = [s for legs in range(7, 12) for s in _shapes(legs)] + list(WICK_HEAVY)
    rounds = []
    for _ in range(WICK_ROUNDS):
        job_round = [_wick_job(rng, v) for v in vectors]
        rng.shuffle(job_round)
        rounds.append(job_round)
    warmup = [_wick_job(rng, (2, 2)), _wick_job(rng, (3, 2, 1))]
    # the WICK_HEAVY tables are 2 of 52 jobs; p98 sits in their middle
    return Workload(rounds, warmup, tail_pct=98.0)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

QUAD_ROUNDS = 120
POWER_EXPONENTS = ("-5/2", "-2", "-3/2", "-1", "-1/2", "1/2", "1", "2")
#: (resolution, half_width, c_0 relative tolerance) per dimension; the
#: tolerance covers the midpoint rule's error at the |x|^(2-k) singularity
EXTENSION_GRIDS = {1: (4096, 6.0, 1e-3), 2: (512, 6.0, 2e-3), 3: (64, 4.0, 1e-2)}
WEIGHT_WIDTHS = (0.4, 0.5, 0.6, 0.7, 0.8, 1.0)


def _power_job(rng: random.Random, m: int) -> Job:
    exponent = rng.choice(POWER_EXPONENTS)
    expected = -Fraction(exponent)
    return Job(
        kind=f"sdeg/power-R{m}",
        argv=["sdeg", f"|x|^{exponent} in R^{m}", "--json"],
        check=lambda out: checkers.check_sdeg(expected, checkers.SDEG_TOL_POWER, out),
    )


def _delta_job(rng: random.Random, m: int) -> Job:
    alpha = [0] * m
    for _ in range(rng.randint(0, 2)):
        alpha[rng.randrange(m)] += 1
    expected = Fraction(m + sum(alpha))
    return Job(
        kind=f"sdeg/delta-R{m}",
        argv=["sdeg", f"delta in R^{m} alpha=({','.join(map(str, alpha))})", "--json"],
        check=lambda out: checkers.check_sdeg(expected, checkers.SDEG_TOL_DELTA, out),
    )


def _extension_job(rng: random.Random, m: int, lib) -> Job:
    # subtraction order 0 needs m <= k < m + 1; in R^3 only k = m stays within
    # a percent on a 64^3 grid
    k = Fraction(m) if m == 3 else rng.choice((Fraction(m), Fraction(2 * m + 1, 2)))
    w1, w2 = rng.sample(WEIGHT_WIDTHS, 2)
    resolution, half_width, rtol = EXTENSION_GRIDS[m]
    expected = checkers.ambiguity_c0(m, k, w1, w2)

    def call():
        dist = lib.distributions
        kernel = dist.HomogeneousPower(exponent=k, ambient=m)
        e1 = dist.extend(kernel, dist.TestFunction.gaussian(m, w1))
        e2 = dist.extend(kernel, dist.TestFunction.gaussian(m, w2))
        fit = dist.extension_ambiguity(
            e1, e2, 0, dist.QuadratureSpec(resolution=resolution, half_width=half_width)
        )
        return fit.coefficients.get(lib.combinatorics.MultiIndex((0,) * m))

    return Job(
        kind=f"extend/R{m}",
        call=call,
        check=lambda c0: checkers.check_ambiguity(expected, rtol, c0),
    )


def _build_quadrature(rng: random.Random, workdir: Path, lib) -> Workload:
    rounds = []
    for _ in range(QUAD_ROUNDS):
        # three R^4 power jobs put the median inside one job class
        job_round = [_power_job(rng, m) for m in (1, 2, 3, 4, 4, 4)]
        job_round += [_delta_job(rng, m) for m in (1, 2, 3)]
        job_round += [_extension_job(rng, m, lib) for m in (1, 2, 3)]
        rng.shuffle(job_round)
        rounds.append(job_round)
    warmup = [_power_job(rng, 1), _delta_job(rng, 1), _extension_job(rng, 1, lib)]
    return Workload(rounds, warmup, tail_pct=96.0)


# ---------------------------------------------------------------------------
# counterterms
# ---------------------------------------------------------------------------

#: rounds per deck; a round takes about 0.9 s, so this outlasts any run
COUNTER_ROUNDS = 100
POINT_FILES = 8
POINT_ENTRIES = 300
CHAIN_LENGTH = 3
#: (p, n_max, truncation) of the round's dims jobs: every truncation 4..8
#: once, each tied to one class so that every round costs the same
DIMS_CLASSES = ((2, 5, 8), (3, 4, 7), (3, 5, 6), (4, 4, 5), (4, 5, 4))
SCALES = ("1/2", "2", "3/2", "-1", "2/3", "3", "-1/3")
THETAS = ("q=2", "q=1/2", "q=-3", "z=log2", "z=log3/2", "q=5/4")


def _label_bound(label: tuple[int, ...]) -> int | None:
    residual = [DEFAULT_P - i for i in label]
    if not checkers.pairable(residual):
        return None
    return sum(residual) // 2 * (DEFAULT_D - 2)


def _random_entries(rng: random.Random, lengths: tuple[int, ...], count: int):
    entries: checkers.Entries = {}
    while len(entries) < count:
        n = rng.choice(lengths)
        label = tuple(rng.randint(0, DEFAULT_P) for _ in range(n))
        bound = _label_bound(label)
        members = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(2, n))))
        alpha = [0] * ((n - 1) * DEFAULT_D)
        for _ in range(rng.randint(0, min(3, 2 if bound is None else bound))):
            alpha[rng.randrange(len(alpha))] += 1
        entries[(label, members, tuple(alpha))] = _rat(rng, -9, 9, 7) or Fraction(1)
    return entries


def _chain(rng: random.Random, length: int | None) -> list[str]:
    """CHAIN_LENGTH actions; ``length`` is the label length of a single-level point."""
    actions = []
    for _ in range(CHAIN_LENGTH):
        choices = ["scale", "theta", "grade", "shift"]
        if length is not None and length < 4:
            choices.append("embed")
        verb = rng.choice(choices)
        if verb == "scale":
            actions.append(f"scale lambda={rng.choice(SCALES)}")
        elif verb == "theta":
            level = f" level={length - 1}" if length is not None and rng.random() < 0.5 else ""
            actions.append(f"theta {rng.choice(THETAS)}{level}")
        elif verb == "grade":
            actions.append("grade")
        elif verb == "shift":
            actions.append("shift 0")
        else:
            target = rng.randint(length + 1, 4)
            image = sorted(rng.sample(range(1, target + 1), length))
            actions.append(f"embed into={','.join(map(str, image))} n={target}")
            length = target
    return actions


def _deform_job(rng, file, out_path: Path) -> Job:
    path, entries, length, _ = file
    actions = _chain(rng, length)

    def check(_stdout):
        return checkers.check_deform(
            entries, actions, DEFAULT_D, out_path.read_text(encoding="utf-8")
        )

    return Job(
        kind="deform/chain",
        argv=["deform", str(path), *actions, "--out", str(out_path)],
        check=check,
    )


def _round_trip_job(rng, files, out_path: Path) -> Job:
    path, _, _, text = rng.choice(files)
    return Job(
        kind="deform/round-trip",
        argv=["deform", str(path), "shift 0", "--out", str(out_path)],
        check=lambda _stdout: checkers.check_round_trip(
            text, out_path.read_text(encoding="utf-8")
        ),
    )


def _dims_job(rng, workdir: Path, p: int, n_max: int, truncation: int) -> Job:
    d = rng.randint(1, 4)
    config = workdir / f"dims-d{d}-p{p}-n{n_max}-t{truncation}.ini"
    if not config.exists():
        config.write_text(
            f"[theory]\nd = {d}\np = {p}\nn_max = {n_max}\n\n"
            f"[group]\ntruncation = {truncation}\n",
            encoding="utf-8",
        )
    return Job(
        kind=f"dims/p{p}-n{n_max}",
        argv=["dims", "--config", str(config), "--json"],
        check=lambda out: checkers.check_dims(d, p, n_max, truncation, out),
    )


def _build_counterterms(rng: random.Random, workdir: Path, lib) -> Workload:
    files = []
    for i in range(POINT_FILES):
        # half the files hold one level so that 'embed' and 'theta level=' apply
        length = (2, 3)[i % 2] if i < POINT_FILES // 2 else None
        lengths = (length,) if length else (2, 3, 4)
        entries = _random_entries(rng, lengths, POINT_ENTRIES)
        text = checkers.serialize_entries(entries)
        path = workdir / f"point-{i}.json"
        path.write_text(text, encoding="utf-8")
        files.append((path, entries, length, text))
    out_path = workdir / "deform-out.json"
    rounds = []
    for _ in range(COUNTER_ROUNDS):
        # one chain on every file and one round trip; d is drawn per dims job
        job_round = [_dims_job(rng, workdir, *cls) for cls in DIMS_CLASSES]
        job_round += [_deform_job(rng, f, out_path) for f in files]
        job_round.append(_round_trip_job(rng, files, out_path))
        rng.shuffle(job_round)
        rounds.append(job_round)
    warmup = [_dims_job(rng, workdir, 2, 3, 3), _deform_job(rng, files[0], out_path)]
    # the (p, n_max) = (4, 5) dims job is 1 in 14 and the slowest; p95 sits inside it
    return Workload(rounds, warmup, tail_pct=95.0)


_BUILDERS = {
    "wick-tables": _build_wick,
    "quadrature": _build_quadrature,
    "counterterms": _build_counterterms,
}
