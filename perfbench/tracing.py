"""Spans around the program's public functions, installed from outside it.

Each wrapped call records one span (name, start, end, parent span, job id)
into flat in-memory arrays; nothing is aggregated or written while jobs run.
A span's self time is its duration minus the time its direct child spans
cover (calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

# (span name, function name, owners whose attribute is wrapped, counter).
# Owners name modules of the program, or "Class@module" for methods; every
# module that re-imports a name is listed so that its calls are caught too.
SPANS = (
    ("shell.main", "main", ("shell",), None),
    ("freelie.graded_dimensions", "graded_dimensions", ("freelie", "shell"), None),
    ("group.apply_scaling", "apply_scaling", ("group", "shell"), None),
    ("group.grading_automorphism", "grading_automorphism", ("group", "shell"), None),
    ("group.grading_operator", "grading_operator", ("group", "shell"), None),
    (
        "combinatorics.enumerate_pairings",
        "enumerate_pairings",
        ("combinatorics", "wick"),
        ("diagrams", lambda args, result: len(result)),
    ),
    (
        "combinatorics.enumerate_multi_indices",
        "enumerate_multi_indices",
        ("combinatorics", "distributions"),
        None,
    ),
    ("wick.vacuum_moment_oracle", "vacuum_moment_oracle", ("wick", "shell"), None),
    ("wick.contraction_graphs", "contraction_graphs", ("wick", "deformation"), None),
    ("wick.wick_expand", "wick_expand", ("wick", "shell"), None),
    ("wick.evaluate_kernel_exact", "evaluate_kernel_exact", ("wick", "shell"), None),
    (
        "distributions.quadrature_nodes",
        "nodes",
        ("QuadratureSpec@distributions",),
        ("nodes", lambda args, result: len(result)),
    ),
    (
        "distributions.kernel_values",
        "kernel_values",
        ("distributions",),
        ("points", lambda args, result: len(result)),
    ),
    (
        "distributions.scaling_degree_numeric",
        "scaling_degree_numeric",
        ("distributions", "shell"),
        None,
    ),
    ("distributions.extended_pair", "extended_pair", ("distributions",), None),
    ("distributions.extension_ambiguity", "extension_ambiguity", ("distributions",), None),
    ("deformation.validate_key", "validate_key", ("TheoryConfig@deformation",), None),
    (
        "deformation.counterterm_dimension",
        "counterterm_dimension",
        ("deformation", "shell"),
        None,
    ),
    ("deformation.realized_labels", "realized_labels", ("deformation", "shell"), None),
    ("deformation.parse_point", "parse_point", ("deformation", "shell"), None),
    ("deformation.serialize_point", "serialize_point", ("deformation", "shell"), None),
    ("deformation.embed", "embed", ("deformation", "shell"), None),
    ("deformation.shift", "shift", ("deformation", "shell"), None),
)

#: functools caches whose hit ratio is reported, as (metric prefix, module, name)
CACHES = (
    ("wick.contraction_graphs", "wick", "contraction_graphs"),
)


class Tracer:
    """Records spans while installed; ``job_id`` tags every span it opens."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self.job_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn, counter):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        if counter is not None:
            count_key = f"{span}.{counter[0]}"
            count = counter[1]
            self.counts.setdefault(count_key, 0.0)

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                self.counts[count_key] += count(args, result)
            return result

        return wrapper

    def install(self, lib) -> None:
        for span, attr, owners, counter in SPANS:
            for owner_name in owners:
                cls_name, _, module = owner_name.rpartition("@")
                owner = getattr(lib, module)
                if cls_name:
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original, counter))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def per_job(self, n_jobs: int) -> dict[str, float]:
        """calls, self_ms and counters per job for every span name."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        covered = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(covered, parents[nested], dur[nested])
        self_time = dur - covered
        out: dict[str, float] = {}
        for nid, span in enumerate(self.names):
            mask = names == nid
            out[f"{span}.calls"] = float(mask.sum()) / n_jobs
            out[f"{span}.self_ms"] = float(self_time[mask].sum()) * 1e3 / n_jobs
        for key, value in self.counts.items():
            out[key] = value / n_jobs
        return out

    def write(self, path: Path) -> None:
        """All spans, one row each, with the name table alongside."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def cache_stats(lib) -> dict[str, tuple[int, int]]:
    """(hits, misses) of every reported cache, for before/after deltas."""
    out = {}
    for prefix, module, name in CACHES:
        info = getattr(getattr(lib, module), name).cache_info()
        out[prefix] = (info.hits, info.misses)
    return out


def clear_caches(lib) -> None:
    for _, module, name in CACHES:
        getattr(getattr(lib, module), name).cache_clear()


def hit_ratios(before, after) -> dict[str, float]:
    out = {}
    for prefix, (h0, m0) in before.items():
        h1, m1 = after[prefix]
        lookups = (h1 - h0) + (m1 - m0)
        out[f"{prefix}.cache_hit_ratio"] = (h1 - h0) / lookups if lookups else 0.0
    return out
