"""Command-line interface: config parsing, orchestration, report emission.

Verbs: ``sdeg`` (scaling degrees, symbolic vs numeric), ``wick`` (expansion
tables with an exact cross-check), ``deform`` (load a point, apply actions,
write canonical JSON), ``verify`` (claim suite against the pinned golden
verdicts) and ``dims`` (counterterm dimension table and free-Lie dimensions).

Exit codes: 0 success, 1 usage or parse error, 2 invariant violation or
estimator failure, 3 oracle or golden mismatch. Every command is
deterministic under a fixed config (seeds included): reruns are
byte-identical.

The config file is flat INI text (sections in square brackets, key = value
lines); every recognized key has a default, so the file and all of its keys
are optional. Unknown sections or keys are usage errors rather than silent
typos.
"""

from __future__ import annotations

import argparse
import configparser
import json
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from typing import Mapping, Sequence

from egdeform.combinatorics import MultiIndex, SubsetMask
from egdeform.deformation import (
    BoundViolationError,
    DeformationPoint,
    TheoryConfig,
    embed,
    parse_point,
    realized_labels,
    serialize_point,
    shift,
    total_dimension_report,
)
# bound here only because perfbench/tracing.py wraps it in this module
from egdeform.deformation import counterterm_dimension  # noqa: F401
from egdeform.distributions import (
    DiagonalDistribution,
    DiagonalTerm,
    HomogeneousPower,
    Kernel,
    DiagonalSupportError,
    LinearCombination,
    MollifiedDelta,
    PropagatorProduct,
    QuadratureSpec,
    TestFunction,
    UnreliableEstimateError,
    geometric_grid,
    origin_delta,
    scaling_degree_numeric,
    scaling_degree_symbolic,
)
from egdeform.freelie import graded_dimensions
from egdeform.group import (
    ClaimResult,
    apply_scaling,
    grading_automorphism,
    grading_operator,
    verify_claims,
)
from egdeform.wick import (
    PointConfiguration,
    check_causal_factorization,
    check_symmetry,
    check_translation_invariance,
    evaluate_kernel_exact,
    pairing_moment,
    rational_propagator,
    wick_expand,
)
# bound here only because perfbench/tracing.py wraps it in this module
from egdeform.wick import vacuum_moment_oracle  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_MISMATCH = 3

GOLDEN_RESOURCE = "verify_claims_golden.json"


class UsageError(Exception):
    """Bad arguments, bad config, or a malformed kernel/action spec."""


class MismatchError(Exception):
    """An internal oracle cross-check or the golden verdict comparison failed."""


# ---------------------------------------------------------------------------
# Session configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionConfig:
    """Everything a command needs, resolved from defaults and the config file."""

    d: int = 4
    p: int = 4
    n_max: int = 4
    bound_policy: str = "paper-literal"
    strict_min_points: bool = False
    uniform_sd_bound: Fraction | None = None
    sd_bounds: tuple[tuple[tuple[int, ...], Fraction], ...] = ()
    resolution: int | None = None
    half_width: float | None = None
    mollifier_width: float = 1e-3
    lam_min: float = 0.5
    lam_count: int = 10
    truncation: int = 4
    n_points: int = 3
    lam_samples: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(3), Fraction(5, 7))
    seed: int = 7
    trials: int = 20
    wick_trials: int = 25
    wick_max_points: int = 4
    wick_max_power: int = 4

    def theory(self) -> TheoryConfig:
        return TheoryConfig(
            d=self.d,
            p=self.p,
            n_max=self.n_max,
            sd_bounds=self.sd_bounds,
            uniform_sd_bound=self.uniform_sd_bound,
            bound_policy=self.bound_policy,
            strict_min_points=self.strict_min_points,
        )


def _parse_fraction(text: str, where: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{where}: {text!r} is not a rational number") from exc


_CONFIG_SCHEMA = {
    "theory": {
        "d": None,
        "p": None,
        "n_max": None,
        "bound_policy": None,
        "strict_min_points": None,
        "uniform_sd_bound": None,
    },
    "quadrature": {
        "resolution": None,
        "half_width": None,
        "mollifier_width": None,
        "lam_min": None,
        "lam_count": None,
    },
    "group": {
        "truncation": None,
        "n_points": None,
        "lambda_samples": None,
        "seed": None,
        "trials": None,
    },
    "wick": {"trials": None, "max_points": None, "max_power": None},
    "sd_bounds": None,  # free-form label = bound entries
}


def load_config(path: str | None) -> SessionConfig:
    """Resolve a SessionConfig from an optional INI file over the defaults."""
    cfg = SessionConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise UsageError(f"config {path}: {exc}") from exc

    updates: dict = {}
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise UsageError(f"config {path}: unknown section [{section}]")
        if section == "sd_bounds":
            bounds = []
            for key, value in parser.items(section):
                try:
                    label = tuple(int(part) for part in key.split(","))
                except ValueError as exc:
                    raise UsageError(
                        f"config {path}: bad sd_bounds label {key!r}"
                    ) from exc
                bounds.append((label, _parse_fraction(value, f"sd_bounds {key}")))
            updates["sd_bounds"] = tuple(sorted(bounds))
            continue
        for key, value in parser.items(section):
            if key not in _CONFIG_SCHEMA[section]:
                raise UsageError(
                    f"config {path}: unknown key {key!r} in section [{section}]"
                )
            where = f"config {path}, [{section}] {key}"
            try:
                if section == "theory":
                    if key == "bound_policy":
                        updates[key] = value.strip()
                    elif key == "strict_min_points":
                        updates[key] = parser.getboolean(section, key)
                    elif key == "uniform_sd_bound":
                        updates[key] = _parse_fraction(value, where)
                    else:
                        updates[key] = int(value)
                elif section == "quadrature":
                    if key in ("resolution", "lam_count"):
                        updates[key] = int(value)
                    else:
                        updates[key] = float(value)
                elif section == "group":
                    if key == "lambda_samples":
                        updates["lam_samples"] = tuple(
                            _parse_fraction(part, where)
                            for part in value.split(",")
                            if part.strip()
                        )
                    else:
                        updates[key] = int(value)
                elif section == "wick":
                    updates[f"wick_{key}"] = int(value)
            except ValueError as exc:
                raise UsageError(f"{where}: {exc}") from exc
    try:
        return replace(cfg, **updates)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Kernel mini-language: "|x|^-1 in R^3", "delta in R^2 alpha=(1,0) eps=1e-3"
# ---------------------------------------------------------------------------


def _kernel_error(text: str, column: int, message: str) -> UsageError:
    return UsageError(f"kernel spec, line 1, column {column}: {message} in {text!r}")


def _tokens_with_columns(text: str) -> list[tuple[str, int]]:
    out = []
    col = 0
    for chunk in text.split(" "):
        if chunk:
            out.append((chunk, col + 1))
        col += len(chunk) + 1
    return out


def parse_kernel(text: str, default_width: float = 1e-3) -> Kernel:
    """Parse the kernel mini-language used by the ``sdeg`` verb.

    Grammar (space separated):
        "|x|^K in R^M"                       homogeneous power |x|^K, K rational
        "delta in R^M [alpha=(a,..)] [eps=E]"  mollified del^alpha delta
    """
    tokens = _tokens_with_columns(text.strip())
    if not tokens:
        raise _kernel_error(text, 1, "empty kernel spec")
    head, col = tokens[0]

    def expect(index: int, what: str) -> tuple[str, int]:
        if index >= len(tokens):
            last_col = tokens[-1][1] + len(tokens[-1][0])
            raise _kernel_error(text, last_col, f"expected {what}")
        return tokens[index]

    def parse_dim(index: int) -> tuple[int, int]:
        word, wcol = expect(index, "'in'")
        if word != "in":
            raise _kernel_error(text, wcol, f"expected 'in', found {word!r}")
        space, scol = expect(index + 1, "a space like R^2")
        if not space.startswith("R^"):
            raise _kernel_error(text, scol, f"expected R^<dim>, found {space!r}")
        try:
            m = int(space[2:])
        except ValueError:
            raise _kernel_error(text, scol + 2, f"bad dimension {space[2:]!r}")
        if m < 1:
            raise _kernel_error(text, scol + 2, "dimension must be >= 1")
        return m, index + 2

    if head.startswith("|x|^"):
        try:
            exponent = -Fraction(head[4:])
        except (ValueError, ZeroDivisionError):
            raise _kernel_error(text, col + 4, f"bad exponent {head[4:]!r}")
        m, nxt = parse_dim(1)
        if nxt != len(tokens):
            extra, ecol = tokens[nxt]
            raise _kernel_error(text, ecol, f"unexpected token {extra!r}")
        return HomogeneousPower(exponent=exponent, ambient=m)

    if head == "delta":
        m, nxt = parse_dim(1)
        alpha: tuple[int, ...] | None = None
        width = default_width
        for word, wcol in tokens[nxt:]:
            if word.startswith("alpha=(") and word.endswith(")"):
                try:
                    alpha = tuple(
                        int(part) for part in word[7:-1].split(",") if part.strip()
                    )
                except ValueError:
                    raise _kernel_error(text, wcol, f"bad alpha in {word!r}")
            elif word.startswith("eps="):
                try:
                    width = float(word[4:])
                except ValueError:
                    raise _kernel_error(text, wcol, f"bad eps in {word!r}")
                if width <= 0:
                    raise _kernel_error(text, wcol, "eps must be positive")
            else:
                raise _kernel_error(text, wcol, f"unexpected token {word!r}")
        if alpha is not None and len(alpha) != m:
            raise _kernel_error(
                text, tokens[nxt][1] if nxt < len(tokens) else col,
                f"alpha has {len(alpha)} components, the space has {m}",
            )
        return origin_delta(m, alpha=alpha, width=width)

    raise _kernel_error(text, col, f"unknown kernel head {head!r}")


def format_kernel(kernel: Kernel) -> str:
    """Deterministic display form of a kernel."""
    if isinstance(kernel, HomogeneousPower):
        return f"|x|^{-kernel.exponent} in R^{kernel.ambient}"
    if isinstance(kernel, MollifiedDelta):
        alpha = ",".join(str(a) for a in kernel.alpha.components)
        return f"delta in R^{kernel.d} alpha=({alpha}) eps={kernel.width}"
    if isinstance(kernel, PropagatorProduct):
        if not kernel.edges:
            return "1"
        return " ".join(
            f"G({i},{j})" + (f"^{m}" if m > 1 else "")
            for (i, j), m in kernel.edges
        )
    if isinstance(kernel, LinearCombination):
        if not kernel.terms:
            return "0"
        parts = []
        for coeff, member in kernel.terms:
            inner = format_kernel(member)
            parts.append(inner if coeff == 1 else f"{coeff} {inner}")
        return " + ".join(parts)
    raise TypeError(f"no display form for {type(kernel).__name__}")


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _write_report(args, text: str) -> None:
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write report {args.out}: {exc}") from exc


def _emit(args, table_lines: Sequence[str], payload) -> None:
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(table_lines) + "\n"
    _write_report(args, text)


def _sd_to_json(value) -> object:
    if value.is_finite:
        return {"num": value.value.numerator, "den": value.value.denominator}
    return "infinite"


# ---------------------------------------------------------------------------
# sdeg
# ---------------------------------------------------------------------------


def _auto_quadrature(kernel: Kernel, cfg: SessionConfig) -> QuadratureSpec:
    m = 1
    if isinstance(kernel, HomogeneousPower):
        m = kernel.ambient
        resolution = {1: 64, 2: 48, 3: 24}.get(m, 12)
        half_width = 1.2
    elif isinstance(kernel, MollifiedDelta):
        m = kernel.d * (kernel.n_points - 1)
        resolution = 256 if m <= 2 else 64
        half_width = 32.0 * kernel.width
    else:
        resolution, half_width = 32, 1.2
    if cfg.resolution is not None:
        resolution = cfg.resolution
    if cfg.half_width is not None:
        half_width = cfg.half_width
    return QuadratureSpec(resolution=resolution, half_width=half_width)


def _sdeg_test_function(kernel: Kernel) -> TestFunction:
    if isinstance(kernel, MollifiedDelta):
        m = kernel.d * (kernel.n_points - 1)
        return TestFunction(
            center=(0.0,) * m, width=1.0, polynomial_factor=kernel.alpha.components
        )
    if isinstance(kernel, HomogeneousPower):
        return TestFunction.gaussian(kernel.ambient, width=0.35)
    raise UsageError(f"no numeric probe for {type(kernel).__name__}")


def cmd_sdeg(cfg: SessionConfig, args) -> int:
    kernel = parse_kernel(args.kernel, default_width=cfg.mollifier_width)
    symbolic = scaling_degree_symbolic(kernel)
    omega = _sdeg_test_function(kernel)
    quad = _auto_quadrature(kernel, cfg)
    grid = geometric_grid(cfg.lam_min, cfg.lam_count)
    numeric = scaling_degree_numeric(kernel, omega, grid, quad)
    difference = (
        numeric - float(symbolic.value) if symbolic.is_finite else float("nan")
    )
    payload = {
        "kernel": format_kernel(kernel),
        "symbolic": _sd_to_json(symbolic),
        "numeric": numeric,
        "difference": difference,
        "quadrature": {"resolution": quad.resolution, "half_width": quad.half_width},
        "lambda_grid": list(grid),
    }
    table = [
        f"kernel       {format_kernel(kernel)}",
        f"symbolic sd  {symbolic.value if symbolic.is_finite else 'infinite'}",
        f"numeric sd   {numeric:.6f}",
        f"difference   {difference:.6f}",
    ]
    _emit(args, table, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wick
# ---------------------------------------------------------------------------


def _parse_points(text: str, d: int) -> PointConfiguration:
    points = []
    for pcol, chunk in enumerate(text.split(";")):
        coords = tuple(
            _parse_fraction(part, f"--points entry {pcol + 1}")
            for part in chunk.split(",")
        )
        if len(coords) != d:
            raise UsageError(
                f"--points entry {pcol + 1} has {len(coords)} coordinates, theory d={d}"
            )
        points.append(coords)
    try:
        return PointConfiguration(d=d, points=tuple(points))
    except ValueError as exc:
        raise UsageError(f"--points: {exc}") from exc


def cmd_wick(cfg: SessionConfig, args) -> int:
    powers = tuple(args.powers)
    if any(p < 0 for p in powers) or not powers:
        raise UsageError("powers must be non-negative integers")
    terms = wick_expand(powers, d=cfg.d)
    config = _parse_points(args.points, cfg.d) if args.points else None
    g = rational_propagator(config) if config is not None else None
    # the residuals of one table are sub-vectors of the powers, so one memo
    # over the same samples serves every term
    memo: dict[tuple[int, ...], Fraction] = {}

    rows = []
    payload_terms = []
    for term in terms:
        residual = tuple(k - i for k, i in zip(powers, term.label))
        kernel_text = format_kernel(term.kernel)
        entry = {
            "J": list(term.label),
            "coefficient": {
                "num": term.coefficient.numerator,
                "den": term.coefficient.denominator,
            },
            "kernel": kernel_text,
        }
        row = (
            f"J=({', '.join(map(str, term.label))})",
            str(term.coefficient),
            kernel_text,
        )
        if g is not None:
            value = evaluate_kernel_exact(term.kernel, g)
            check = pairing_moment(residual, g, memo)
            if value != check:
                raise MismatchError(
                    f"wick kernel at J={term.label} evaluates to {value}, "
                    f"pairing oracle gives {check}"
                )
            entry["value"] = {"num": value.numerator, "den": value.denominator}
            row = row + (str(value),)
        rows.append(row)
        payload_terms.append(entry)

    headers = ("label", "coefficient", "kernel") + (
        ("value",) if g is not None else ()
    )
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
        for c in range(len(headers))
    ]
    table = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    table += ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    table.append(
        f"{len(rows)} terms; cross-check "
        + ("passed" if g is not None else "skipped")
    )
    payload = {
        "powers": list(powers),
        "d": cfg.d,
        "terms": payload_terms,
        "cross_check": "passed" if g is not None else "skipped",
    }
    _emit(args, table, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# deform
# ---------------------------------------------------------------------------


def _load_point(spec: str, theory: TheoryConfig) -> DeformationPoint:
    if spec == "0":
        return DeformationPoint.zero(theory)
    try:
        with open(spec, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read point file {spec}: {exc}") from exc
    return parse_point(text, theory)


def _load_distribution(spec: str) -> DiagonalDistribution:
    if spec == "0":
        return DiagonalDistribution(())
    try:
        with open(spec, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read distribution {spec}: {exc}") from exc
    try:
        label = tuple(int(v) for v in raw["label"])
        terms = tuple(
            DiagonalTerm(
                label=label,
                subset=SubsetMask.from_members(len(label), item["I"]),
                alpha=MultiIndex(tuple(int(v) for v in item["alpha"])),
                coefficient=Fraction(
                    int(item["coeff_num"]), int(item["coeff_den"])
                ),
            )
            for item in raw["terms"]
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed distribution file {spec}: {exc}") from exc
    return DiagonalDistribution(terms)


def _parse_theta_parameter(argmap: Mapping[str, str]):
    """Return (q, z): 'q=RAT' exact; 'z=logRAT' exact q; 'z=FLOAT' float q."""
    if ("q" in argmap) == ("z" in argmap):
        raise UsageError("theta takes exactly one of q= and z=")
    if "q" in argmap:
        return _parse_fraction(argmap["q"], "theta q"), None
    zval = argmap["z"]
    if zval.startswith("log"):
        return _parse_fraction(zval[3:], "theta z=log"), None
    try:
        return None, float(zval)
    except ValueError as exc:
        raise UsageError(f"theta z: {zval!r} is not a number") from exc


def _apply_action(point: DeformationPoint, action: str) -> DeformationPoint:
    words = action.split()
    if not words:
        raise UsageError("empty action")
    verb, rest = words[0], words[1:]
    argmap: dict[str, str] = {}
    positional: list[str] = []
    for word in rest:
        if "=" in word:
            key, _, value = word.partition("=")
            argmap[key] = value
        else:
            positional.append(word)

    def require_keys(allowed: set[str]) -> None:
        unknown = set(argmap) - allowed
        if unknown:
            raise UsageError(
                f"action {verb!r}: unknown arguments {sorted(unknown)}"
            )

    if verb == "shift":
        require_keys(set())
        if len(positional) != 1:
            raise UsageError("shift takes one argument: a distribution file or 0")
        return shift(point, _load_distribution(positional[0]))
    if verb == "scale":
        require_keys({"lambda"})
        if positional or "lambda" not in argmap:
            raise UsageError("scale takes lambda=<rational>")
        return apply_scaling(point, _parse_fraction(argmap["lambda"], "scale lambda"))
    if verb == "theta":
        require_keys({"q", "z", "level"})
        if positional:
            raise UsageError("theta takes q=<rational> or z=<number>")
        if "level" in argmap:
            try:
                level = int(argmap["level"])
            except ValueError as exc:
                raise UsageError("theta level= must be an integer") from exc
            actual = point.levels()
            if actual and actual != (level,):
                raise BoundViolationError(
                    next(iter(point.entries)),
                    f"theta level={level} asserted, point has levels {actual}",
                )
        q, z = _parse_theta_parameter(argmap)
        return grading_automorphism(point, q=q, z=z)
    if verb == "grade":
        require_keys(set())
        if positional:
            raise UsageError("grade takes no arguments")
        return grading_operator(point)
    if verb == "embed":
        require_keys({"into", "n"})
        if positional or "into" not in argmap or "n" not in argmap:
            raise UsageError("embed takes into=<i1,i2,..> n=<target points>")
        try:
            image = tuple(int(part) for part in argmap["into"].split(","))
            target = int(argmap["n"])
        except ValueError as exc:
            raise UsageError(f"embed: {exc}") from exc
        return embed(point, image, target)
    raise UsageError(f"unknown action {verb!r}")


def cmd_deform(cfg: SessionConfig, args) -> int:
    theory = cfg.theory()
    point = _load_point(args.point, theory)
    for action in args.action or []:
        point = _apply_action(point, action)
    _write_report(args, serialize_point(point))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _wick_axiom_claims(cfg: SessionConfig, seed: int) -> list[ClaimResult]:
    rng = random.Random(seed)
    note = (
        f"n <= {cfg.wick_max_points}, powers <= {cfg.wick_max_power}, "
        f"trials={cfg.wick_trials}, seed={seed}"
    )
    sym_witness = cause_witness = shift_witness = None
    for _ in range(cfg.wick_trials):
        n = rng.randint(2, cfg.wick_max_points)
        powers = tuple(rng.randint(0, cfg.wick_max_power) for _ in range(n))
        config = _random_configuration(rng, n, d=2)
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        if sym_witness is None and not check_symmetry(powers, tuple(sigma), config):
            sym_witness = f"powers={powers}, sigma={tuple(sigma)}"
        mask = rng.randint(1, (1 << n) - 2) if n >= 2 else 1
        group = SubsetMask(n, mask)
        if cause_witness is None and not check_causal_factorization(
            powers, group, config
        ):
            cause_witness = f"powers={powers}, group={group.members}"
        offset = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))
        if shift_witness is None and not check_translation_invariance(
            powers, offset, config
        ):
            shift_witness = f"powers={powers}, offset={offset}"
    return [
        ClaimResult(
            claim_id="wick-symmetry",
            statement="vacuum moments are symmetric under simultaneous permutation of points and powers",
            samples=note,
            verdict="fails" if sym_witness else "holds",
            witness=sym_witness,
        ),
        ClaimResult(
            claim_id="wick-causal-factorization",
            statement="vacuum moments factor over a bipartition into within-group contractions times cross pairings",
            samples=note,
            verdict="fails" if cause_witness else "holds",
            witness=cause_witness,
        ),
        ClaimResult(
            claim_id="wick-translation-invariance",
            statement="vacuum moments are unchanged by a common translation of all points",
            samples=note,
            verdict="fails" if shift_witness else "holds",
            witness=shift_witness,
        ),
    ]


def _random_configuration(rng: random.Random, n: int, d: int) -> PointConfiguration:
    points: set[tuple[Fraction, ...]] = set()
    while len(points) < n:
        points.add(
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))
        )
    return PointConfiguration(d=d, points=tuple(sorted(points)))


def load_golden() -> list[dict]:
    text = (
        resources.files("egdeform").joinpath("data").joinpath(GOLDEN_RESOURCE)
    ).read_text(encoding="utf-8")
    return json.loads(text)


def claims_payload(claims: Sequence[ClaimResult]) -> list[dict]:
    return [
        {
            "claim_id": c.claim_id,
            "statement": c.statement,
            "samples": c.samples,
            "verdict": c.verdict,
            "witness": c.witness,
        }
        for c in claims
    ]


def golden_view(claims: Sequence[ClaimResult]) -> list[dict]:
    """The seed-independent part of a claim report, as stored in the golden file."""
    return [
        {"claim_id": c.claim_id, "statement": c.statement, "verdict": c.verdict}
        for c in claims
    ]


def run_all_claims(cfg: SessionConfig, seed: int) -> list[ClaimResult]:
    claims = verify_claims(
        n_points=cfg.n_points,
        lam_samples=cfg.lam_samples,
        truncation=cfg.truncation,
        seed=seed,
        trials=cfg.trials,
    )
    claims += _wick_axiom_claims(cfg, seed)
    return claims


def cmd_verify(cfg: SessionConfig, args) -> int:
    seed = cfg.seed if args.seed is None else args.seed
    claims = run_all_claims(cfg, seed)
    golden = load_golden()
    matches = golden_view(claims) == golden
    table = []
    for c in claims:
        table.append(f"{c.claim_id:32s} {c.verdict}")
        if c.witness:
            table.append(f"{'':32s}   witness: {c.witness}")
    table.append(
        "golden verdicts " + ("reproduced" if matches else "DIFFER — see report")
    )
    payload = {
        "claims": claims_payload(claims),
        "matches_golden": matches,
        "seed": seed,
    }
    _emit(args, table, payload)
    if not matches:
        raise MismatchError("claim verdicts differ from the pinned golden file")
    return EXIT_OK


# ---------------------------------------------------------------------------
# dims
# ---------------------------------------------------------------------------


def cmd_dims(cfg: SessionConfig, args) -> int:
    literal = replace(cfg.theory(), bound_policy="paper-literal")
    corrected = replace(literal, bound_policy="codim-corrected")
    lit_totals = total_dimension_report(literal, cfg.n_max - 1)
    cor_totals = total_dimension_report(corrected, cfg.n_max - 1)
    rows = []
    payload_levels = {}
    for level in range(1, cfg.n_max):
        labels = realized_labels(literal, level)
        lit_total, cor_total = lit_totals[level], cor_totals[level]
        rows.append((level, len(labels), lit_total, cor_total))
        payload_levels[str(level)] = {
            "realized_labels": len(labels),
            "paper_literal": lit_total,
            "codim_corrected": cor_total,
        }
    lie_dims = graded_dimensions(cfg.truncation)
    table = [
        "level  labels  paper-literal  codim-corrected",
        "-----  ------  -------------  ---------------",
    ]
    for level, nlab, lit, cor in rows:
        table.append(f"{level:>5d}  {nlab:>6d}  {lit:>13d}  {cor:>15d}")
    table.append("")
    table.append(
        "free graded Lie dimensions 1..%d: %s"
        % (cfg.truncation, ", ".join(map(str, lie_dims)))
    )
    payload = {
        "levels": payload_levels,
        "lie_dimensions": list(lie_dims),
        "d": cfg.d,
        "p": cfg.p,
    }
    _emit(args, table, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit-code contract: usage errors are 1
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="egdeform",
        description="Scaling degrees, Wick tables, deformation coordinates "
        "and their symmetry checks.",
    )
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file")
    common.add_argument(
        "--json", action="store_true", help="emit a JSON report instead of a table"
    )
    common.add_argument(
        "--seed", type=int, default=None, help="override the configured seed"
    )
    common.add_argument(
        "--out", metavar="PATH", help="write the report to a file instead of stdout"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser(
        "sdeg", parents=[common], help="symbolic and numeric scaling degree"
    )
    p.add_argument("kernel", help="kernel spec, e.g. '|x|^-1 in R^3' or 'delta in R^2'")
    p.set_defaults(func=cmd_sdeg)

    p = sub.add_parser("wick", parents=[common], help="normal-ordered expansion table")
    p.add_argument("powers", type=int, nargs="+", help="field powers at each point")
    p.add_argument(
        "--points",
        help="rational evaluation points 'x11,x12;x21,x22;..' (d coords each)",
    )
    p.set_defaults(func=cmd_wick)

    p = sub.add_parser(
        "deform", parents=[common], help="apply actions to a deformation point"
    )
    p.add_argument("point", help="point file in canonical JSON, or 0 for the origin")
    p.add_argument(
        "action",
        nargs="*",
        help="actions: 'shift FILE|0', 'scale lambda=1/2', 'theta q=4', "
        "'theta z=log2', 'grade', 'embed into=1,3 n=4'",
    )
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser(
        "verify", parents=[common], help="run the claim suite against the golden file"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "dims", parents=[common], help="counterterm dimensions and Lie dimensions"
    )
    p.set_defaults(func=cmd_dims)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        return args.func(cfg, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MismatchError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ValueError, UnreliableEstimateError, DiagonalSupportError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
