"""Self-test of the benchmark: smoke runs, non-vacuous checkers, references.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checkers
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent


def _bench(tmp_root: Path | None, *args: str) -> subprocess.CompletedProcess:
    script = (tmp_root / "perfbench" if tmp_root else BENCH) / "run.py"
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run(name, trace):
    proc = _bench(None, "--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(wanted)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "wick-tables", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_host_scaling_divides_by_the_surrounding_slowdown():
    stats = run.Stats(latencies=[0.2, 0.3], slowdowns=[1.0, 2.0, 1.0])
    assert run.job_slowdowns(stats) == [1.5, 1.5]
    assert 0.5 < run.host_slowdown() < 20
    assert set(workloads.HOST_SCALED) <= set(workloads.WORKLOADS)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    sources = {span for span, *_ in tracing.SPANS} | {p for p, *_ in tracing.CACHES}
    for name, _ in run.PER_LAYER:
        assert name.rsplit(".", 1)[0] in sources | {"process", "trace"}, name


# ---------------------------------------------------------------------------
# Every checker accepts the program's real output and rejects a corruption
# ---------------------------------------------------------------------------


def _one_job_per_kind(name: str, tmp_path: Path, lib) -> list[workloads.Job]:
    deck = workloads.build(name, 5, tmp_path, lib)
    kinds: dict[str, workloads.Job] = {}
    for job in deck.rounds[0]:
        kinds.setdefault(job.kind, job)
    return list(kinds.values())


def _bump_json(text: str, path: list, delta) -> str:
    data = json.loads(text)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    return json.dumps(data)


def _corruptions(job: workloads.Job, output):
    kind = job.kind.split("/")[0]
    if kind == "wick":
        yield _bump_json(output, ["terms", -1, "value", "num"], 1)
        yield _bump_json(output, ["terms", 0, "coefficient", "den"], 1)
        data = json.loads(output)
        data["terms"].pop()
        yield json.dumps(data)
    elif kind == "sdeg":
        yield _bump_json(output, ["numeric"], 0.01)
        yield _bump_json(output, ["symbolic", "num"], 1)
    elif kind == "extend":
        yield output * 1.05
        yield -output
    elif kind == "dims":
        yield _bump_json(output, ["levels", "1", "paper_literal"], 1)
        yield _bump_json(output, ["levels", "2", "realized_labels"], -1)
        yield _bump_json(output, ["levels", "2", "codim_corrected"], 1)
        yield _bump_json(output, ["lie_dimensions", -1], 1)
    else:
        raise AssertionError(f"no corruption for {job.kind}")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checkers_reject_corrupted_output(name, tmp_path):
    lib = run.load_program()
    jobs = _one_job_per_kind(name, tmp_path, lib)
    assert jobs
    for job in jobs:
        output = run.execute(job, lib)
        assert job.check(output) is None, job.kind
        if job.kind.startswith("deform/"):
            out_path = Path(job.argv[job.argv.index("--out") + 1])
            good = out_path.read_text("utf-8")
            rows = json.loads(good)
            assert rows, "deform chain produced an empty point"
            rows[0]["coeff_num"] += 1
            bad = [json.dumps(rows, indent=2, sort_keys=True) + "\n"]
            if job.kind == "deform/chain":
                bad.append(json.dumps(rows[1:], indent=2, sort_keys=True) + "\n")
            else:
                bad.append(good + " ")
            for text in bad:
                out_path.write_text(text, encoding="utf-8")
                assert job.check(None) is not None, job.kind
            continue
        for bad in _corruptions(job, output):
            assert job.check(bad) is not None, job.kind


# ---------------------------------------------------------------------------
# The references themselves, against brute force
# ---------------------------------------------------------------------------


def _all_pairings(legs):
    if not legs:
        yield []
        return
    first, rest = legs[0], legs[1:]
    for k, other in enumerate(rest):
        for tail in _all_pairings(rest[:k] + rest[k + 1 :]):
            yield [(first, other)] + tail


@pytest.mark.parametrize("residual", [(2, 2), (1, 1, 2), (3, 1, 2, 2), (2, 0, 2), (3, 1), (4, 2, 2)])
def test_pairing_sum_matches_brute_force(residual):
    rng = random.Random(sum(residual))
    points = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)) for _ in residual]
    points = [p + (Fraction(i),) for i, p in enumerate(points)]
    g = checkers.propagator(points)
    legs = [j for j, r in enumerate(residual) for _ in range(r)]
    brute = Fraction(0)
    for pairing in _all_pairings(legs):
        if all(a != b for a, b in pairing):
            brute += math.prod(g[(min(a, b), max(a, b))] for a, b in pairing)
    assert checkers.pairing_sum(residual, g) == brute
    assert checkers.pairable(residual) == (brute != 0 or sum(residual) == 0)


def test_lie_dimension_counts_lyndon_words():
    def compositions(n):
        if n == 0:
            yield ()
        for first in range(1, n + 1):
            for rest in compositions(n - first):
                yield (first,) + rest

    for n in range(1, 11):
        lyndon = sum(
            all(w < w[i:] for i in range(1, len(w))) for w in compositions(n)
        )
        assert checkers.lie_dimension(n) == lyndon


@pytest.mark.parametrize("m,k", [(1, Fraction(1)), (1, Fraction(3, 2)), (2, Fraction(5, 2)), (3, Fraction(3))])
def test_ambiguity_closed_form_matches_radial_integral(m, k):
    integrate = pytest.importorskip("scipy.integrate")
    w1, w2 = 0.5, 0.8
    sphere = 2 * math.pi ** (m / 2) / math.gamma(m / 2)
    value, _ = integrate.quad(
        lambda r: (math.exp(-r * r / (2 * w1 * w1)) - math.exp(-r * r / (2 * w2 * w2)))
        * r ** (m - 1 - float(k)),
        0, math.inf, limit=200,
    )
    assert checkers.ambiguity_c0(m, k, w1, w2) == pytest.approx(sphere * value, rel=1e-7)


def test_deform_model_round_trips_and_scales():
    entries = {((2, 1), (1, 2), (1, 0, 0, 0)): Fraction(3, 2), ((1, 1, 0), (1, 3), (0,) * 8): Fraction(-1)}
    text = checkers.serialize_entries(entries)
    assert checkers.parse_entries(text) == entries
    scaled = checkers.apply_actions(entries, ["scale lambda=2"], 4)
    # gt family: lambda^|K| = 4; eq family spreads to the supersets of {1,3}
    assert scaled[((2, 1), (1, 2), (1, 0, 0, 0))] == 6
    assert scaled[((1, 1, 0), (1, 2, 3), (0,) * 8)] == -1
    graded = checkers.apply_actions(entries, ["grade", "theta z=log2"], 4)
    assert graded[((1, 1, 0), (1, 3), (0,) * 8)] == -8
