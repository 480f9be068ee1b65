#!/usr/bin/env python3
"""The egdeform benchmark: one workload, one closed-loop client, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src`` directory and driven in-process through
``egdeform.shell.main(argv)`` (plus library calls for the extension jobs).
One client sends the next job only when the previous one has returned. Every
output is checked against the benchmark's own reference (``checkers.py``).

``--trace 0`` reports the end-to-end metrics; on the interpreted workloads
their times are scaled to a reference host speed by a probe timed between
jobs (``host_slowdown``). ``--trace 1`` is a separate run that wraps the
program's public functions (``tracing.py``) and reports per-layer numbers per
job. The last line of standard output is one JSON
object; the lines before it are a readable summary. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("shell", "wick", "combinatorics", "distributions", "deformation", "freelie", "group")

#: set-ups timed in child interpreters per untraced run; setup_s is their median
SETUP_SAMPLES = 5
#: share of --seconds the traced run spends on its untraced reference pass
TRACE_REFERENCE_SHARE = 1 / 4
#: points whose pairings the host probe enumerates (see host_slowdown)
PROBE_POINTS = 8
PROBE_WEIGHTS = {
    (i, j): Fraction(1, 1 + (i - j) ** 2) for i in range(PROBE_POINTS) for j in range(PROBE_POINTS)
}
#: the probe's best time on the quiet host (2-vCPU x86 VM); timings are
#: scaled to the host speed at which the probe takes this long
PROBE_REF_S = 0.8e-3

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("freelie.graded_dimensions.self_ms", "ms/job"),
    ("combinatorics.enumerate_pairings.calls", "calls/job"),
    ("combinatorics.enumerate_pairings.self_ms", "ms/job"),
    ("combinatorics.enumerate_pairings.diagrams", "diagrams/job"),
    ("wick.vacuum_moment_oracle.calls", "calls/job"),
    ("wick.vacuum_moment_oracle.self_ms", "ms/job"),
    ("wick.contraction_graphs.calls", "calls/job"),
    ("wick.contraction_graphs.self_ms", "ms/job"),
    ("wick.contraction_graphs.cache_hit_ratio", "ratio"),
    ("wick.wick_expand.self_ms", "ms/job"),
    ("wick.evaluate_kernel_exact.self_ms", "ms/job"),
    ("distributions.quadrature_nodes.calls", "calls/job"),
    ("distributions.quadrature_nodes.nodes", "nodes/job"),
    ("distributions.quadrature_nodes.self_ms", "ms/job"),
    ("distributions.kernel_values.calls", "calls/job"),
    ("distributions.kernel_values.points", "points/job"),
    ("distributions.kernel_values.self_ms", "ms/job"),
    ("distributions.scaling_degree_numeric.self_ms", "ms/job"),
    ("distributions.extended_pair.self_ms", "ms/job"),
    ("distributions.extension_ambiguity.self_ms", "ms/job"),
    ("combinatorics.enumerate_multi_indices.self_ms", "ms/job"),
    ("deformation.validate_key.calls", "calls/job"),
    ("deformation.validate_key.self_ms", "ms/job"),
    ("deformation.counterterm_dimension.calls", "calls/job"),
    ("deformation.counterterm_dimension.self_ms", "ms/job"),
    ("deformation.realized_labels.self_ms", "ms/job"),
    ("deformation.parse_point.self_ms", "ms/job"),
    ("deformation.serialize_point.self_ms", "ms/job"),
    ("deformation.embed.self_ms", "ms/job"),
    ("deformation.shift.self_ms", "ms/job"),
    ("group.apply_scaling.self_ms", "ms/job"),
    ("group.grading_automorphism.self_ms", "ms/job"),
    ("group.grading_operator.self_ms", "ms/job"),
    ("shell.main.self_ms", "ms/job"),
    ("process.cpu_per_wall", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def _pairings(points: tuple[int, ...]):
    if not points:
        yield ()
        return
    for i in range(1, len(points)):
        for rest in _pairings(points[1:i] + points[i + 1:]):
            yield ((points[0], points[i]),) + rest


def host_slowdown() -> float:
    """Time of a fixed pure-Python task, best of two, over PROBE_REF_S.

    The task is the program's kind of work in miniature: enumerate the 105
    pairings of PROBE_POINTS points as tuples, multiply Fraction weights along
    each and store the products in a dict. A shared host can run such code
    1.65 times slower for seconds at a time. The probe, timed between jobs,
    follows that speed; dividing a job's timing by the slowdown around it
    scales the timing to the reference speed. The probe is the benchmark's own
    code, so a change to the program moves the scaled figures as it moves
    wall time, while a busy neighbour moves the probe and the jobs alike.
    """
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        products = {}
        for pairing in _pairings(tuple(range(PROBE_POINTS))):
            value = Fraction(1)
            for pair in pairing:
                value *= PROBE_WEIGHTS[pair]
            products[pairing] = value
        best = min(best, time.perf_counter() - t0)
    return best / PROBE_REF_S


class JobError(Exception):
    """A CLI job returned a non-zero exit code."""


def load_program() -> SimpleNamespace:
    """Import egdeform from this checkout's src directory, never from elsewhere."""
    if not (SRC / "egdeform" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import egdeform

    if Path(egdeform.__file__).resolve().parent != SRC / "egdeform":
        raise SystemExit(f"perfbench: egdeform was imported from {egdeform.__file__}")
    import importlib

    return SimpleNamespace(
        **{m: importlib.import_module(f"egdeform.{m}") for m in MODULES}
    )


def execute(job: workloads.Job, lib) -> object:
    if job.call is not None:
        return job.call()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.shell.main(job.argv)
    if code != 0:
        raise JobError(f"exit code {code}: {err.getvalue().strip()[:300]}")
    return out.getvalue()


@dataclass
class Stats:
    latencies: list[float] = field(default_factory=list)
    #: host_slowdown() before every job and once after the last (1.0 unprobed)
    slowdowns: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    jobs: list[workloads.Job] = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0


def run_jobs(jobs, lib, seconds: float | None = None, before_job=None, probe=False) -> Stats:
    """Closed loop over ``jobs``, for ``seconds`` of job time or until exhausted.

    With ``probe``, host_slowdown() runs before every job and after the last.
    The probe and checking run between jobs and are excluded from wall and
    CPU time.
    """
    stats = Stats()
    aside_wall = aside_cpu = 0.0
    start, cpu0 = time.perf_counter(), time.process_time()
    for job in jobs:
        p0, c0 = time.perf_counter(), time.process_time()
        stats.slowdowns.append(host_slowdown() if probe else 1.0)
        aside_wall += time.perf_counter() - p0
        aside_cpu += time.process_time() - c0
        if before_job is not None:
            before_job(len(stats.jobs))
        t0 = time.perf_counter()
        try:
            output, error = execute(job, lib), None
        except Exception as exc:  # a job that raises is a failed job, not a crash
            output, error = None, f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
        if error is None:
            try:
                error = job.check(output)
            except Exception as exc:  # malformed output the checker cannot read
                error = f"checker raised {type(exc).__name__}: {exc}"
        t2 = time.perf_counter()
        aside_wall += t2 - t1
        aside_cpu += time.process_time() - c1
        stats.jobs.append(job)
        stats.latencies.append(t1 - t0)
        stats.ok.append(not error)
        if error:
            stats.failures.append((job.kind, error))
        if seconds is not None and t2 - start - aside_wall >= seconds:
            break
    p0, c0 = time.perf_counter(), time.process_time()
    stats.slowdowns.append(host_slowdown() if probe else 1.0)
    stats.wall = p0 - start - aside_wall
    stats.cpu = c0 - cpu0 - aside_cpu
    return stats


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def job_slowdowns(stats: Stats) -> list[float]:
    """Per job: the mean of the host slowdowns measured before and after it."""
    return [(a + b) / 2 for a, b in zip(stats.slowdowns, stats.slowdowns[1:])]


def set_up(args, workdir: Path):
    """Import, generate inputs and warm up: everything before the first timed job."""
    lib = load_program()
    workload = workloads.build(args.workload, args.seed, workdir, lib)
    warm = run_jobs(workload.warmup, lib)
    return lib, workload, warm


def measure_setup(args) -> list[float]:
    """Set-up times of fresh interpreters, from spawn to ready for the first job.

    Set-up is interpreted work on every workload, so each sample is divided
    by the mean of three host slowdowns: in this process before the spawn and
    after the child's exit, and in the child after its set-up.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = host_slowdown()
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up run failed:\n{proc.stderr}")
        ready, child = map(float, proc.stdout.split()[-2:])
        after = host_slowdown()
        samples.append((ready - t0) * 3 / (before + child + after))
    return samples


def untraced(args, lib, workload, warm, setup_samples) -> tuple[dict, Stats, list[str]]:
    """End-to-end metrics, times scaled to the reference host speed.

    On a HOST_SCALED workload latencies are scaled job by job
    (job_slowdowns), and the rate by the run's mean slowdown, which, like the
    rate, is linear in the share of the run the host spent slow.
    """
    probe = args.workload in workloads.HOST_SCALED
    stats = run_jobs(workload.jobs(), lib, seconds=args.seconds, probe=probe)
    n = len(stats.latencies)
    ok = n - len(stats.failures)
    slowdown = statistics.fmean(stats.slowdowns)
    scaled = [t / h for t, h in zip(stats.latencies, job_slowdowns(stats))]
    tail = percentile(scaled, workload.tail_pct)
    beyond = sum(x > tail for x in scaled)
    values = {
        "jobs_per_s": ok / stats.wall * slowdown,
        "job_p50_ms": statistics.median(scaled) * 1e3,
        "job_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }
    notes = {
        "jobs_per_s": f"n={n} jobs in {stats.wall:.4g} s; unscaled {ok / stats.wall:.4g}",
        "job_p50_ms": f"n={n}; unscaled {statistics.median(stats.latencies) * 1e3:.4g}",
        "job_tail_ms": f"p{workload.tail_pct:g}, n={n}, {beyond} beyond; "
        f"unscaled {percentile(stats.latencies, workload.tail_pct) * 1e3:.4g}",
        "peak_rss_mb": "ru_maxrss of this process",
        "setup_s": f"median of {len(setup_samples)} fresh set-ups",
    }
    failed = len(stats.failures) + len(warm.failures)
    values["failed_frac"] = failed / (n + len(warm.latencies))
    notes["failed_frac"] = f"{failed} of {n} timed + {len(warm.latencies)} warm-up jobs"
    values["host_slowdown"] = slowdown
    notes["host_slowdown"] = "mean over the run; diagnostic" if probe else "not probed"
    values["cpu_per_wall"] = stats.cpu / stats.wall
    notes["cpu_per_wall"] = "diagnostic"
    units = dict(END_TO_END)
    lines = [
        f"{name:<16} {value:<14.6g} {units.get(name, ''):<5} {notes[name]}"
        for name, value in values.items()
    ]
    if beyond < 10:
        print(f"perfbench: only {beyond} samples beyond p{workload.tail_pct:g}; run longer", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, stats, lines


def traced(args, lib, workload) -> tuple[dict, Stats, list[str]]:
    """Untraced reference pass, then the same jobs again under tracing.

    Both passes start from cleared program caches, so they do identical work
    and their wall-time ratio is the tracing overhead.
    """
    import tracing

    tracing.clear_caches(lib)
    reference = run_jobs(workload.jobs(), lib, seconds=args.seconds * TRACE_REFERENCE_SHARE)
    tracing.clear_caches(lib)
    before = tracing.cache_stats(lib)
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        traced_stats = run_jobs(
            list(reference.jobs), lib, before_job=lambda i: setattr(tracer, "job_id", i)
        )
    finally:
        tracer.uninstall()
    n = len(traced_stats.latencies)
    values = tracer.per_job(n)
    values.update(tracing.hit_ratios(before, tracing.cache_stats(lib)))
    values["process.cpu_per_wall"] = reference.cpu / reference.wall
    values["trace.overhead_ratio"] = traced_stats.wall / reference.wall
    out = ROOT / ".perfbench_out" / f"trace-{args.workload}.npz"
    tracer.write(out)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}
    lines = [f"{name:<48} {m['value']:<14.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"{n} jobs traced, {len(tracer.start)} spans written to {out.relative_to(ROOT)}")
    stats = Stats(
        latencies=reference.latencies + traced_stats.latencies,
        failures=reference.failures + traced_stats.failures,
    )
    return metrics, stats, lines


def run_all(args) -> int:
    code = 0
    for name in workloads.WORKLOADS:
        for trace_flag in (0, 1) if args.trace else (0,):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace_flag)],
                timeout=600, check=False,
            )
            code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "egdeform").is_dir():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.setup_only:
            set_up(args, workdir)
            print(time.monotonic(), host_slowdown())
            return 0
        setup_samples = [] if args.trace else measure_setup(args)
        lib, workload, warm = set_up(args, workdir)
        if args.trace:
            metrics, stats, lines = traced(args, lib, workload)
        else:
            metrics, stats, lines = untraced(args, lib, workload, warm, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = warm.failures + stats.failures
    for kind, reason in failures[:10]:
        print(f"perfbench: FAILED {kind}: {reason}", file=sys.stderr)
    attempted = len(warm.latencies) + len(stats.latencies)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          "load=closed loop, 1 client")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
