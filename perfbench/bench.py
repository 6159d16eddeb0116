"""Seeded workloads, reference checks and span tracing for the bnloci benchmark.

`run.py` is the command line, `make_refs.py` regenerates `refs.json`, and
README.md explains the workloads and metrics.  Everything here uses the
standard library only, and bnloci is imported from `src/` of the checkout
that holds this directory.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS_PATH = HERE / "refs.json"
OUT_DIR = ROOT / ".bench_out"

VERIFY_RANGE = "7..12"
VERIFY_GENERA = tuple(range(7, 13))

# Each run takes its whole pool in a seeded order, so the work done, and
# therefore every end-to-end figure, is the same for every seed; the seed
# only changes the order.  assemble_warm keeps only g = 18: with g = 17
# beside it the cold fill in set-up took half the run, and a seeded pick of
# one genus would move setup_s by about 30% from seed to seed.  g = 19 is
# kept out of every pool: cold assemble(19) takes minutes (see README.md).
POOLS: dict[str, tuple] = {
    "verify": (VERIFY_RANGE,),
    "assemble_cold": (13, 14, 15, 16, 17),
    "assemble_warm": (18,),
    # (g, r, d, s, filters): the hottest (lattice, s) jobs of cold assemble
    # for g = 13..18.  r = 1 and r >= 2 cover both box branches; the filter
    # setting is fixed per job so that a seed cannot change the peak memory.
    "k3_list": (
        (13, 2, 7, 6, "off"),
        (16, 1, 2, 7, "on"),
        (16, 3, 11, 7, "off"),
        (15, 4, 13, 7, "off"),
        (17, 4, 14, 8, "on"),
    ),
}
WORKLOADS = tuple(POOLS)

# Per-operation cost at the commit that defined the benchmark (2-CPU box,
# CPython 3.11).  They turn --seconds into a fixed operation count, so a
# faster engine does the same work in less time rather than more work.
NOMINAL_OP_S = {"verify": 1.1, "assemble_warm": 1.6}
IMPORT_PROBES = 9
CHILD_TIMEOUT_S = 150

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


# ------------------------------------------------------------------ inputs


def draw(workload: str, seed: int) -> list:
    """The seed's inputs for a workload: its pool in a seeded order.  No
    input repeats, so no operation turns another's cold K3 query warm."""
    pool = list(POOLS[workload])
    if workload != "verify":
        random.Random(f"{workload}/{seed}").shuffle(pool)
    return pool


def job_key(job) -> str:
    g, r, d, s, filters = job
    return f"{g},{r},{d},{s},{filters}"


def op_count(workload: str, inputs: list, seconds: float) -> int:
    if workload == "verify":
        return max(1, round(seconds / NOMINAL_OP_S["verify"]))
    if workload == "assemble_warm":
        # whole rounds over the drawn genera, so every genus runs equally often
        per_round = NOMINAL_OP_S["assemble_warm"] * len(inputs)
        return len(inputs) * max(1, round(seconds / per_round))
    return len(inputs)


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text(encoding="utf-8"))


def check_inputs(workload: str, inputs: list, refs: dict) -> list:
    """Inputs given on the command line must have a stored reference."""
    if workload == "verify":
        ok = inputs == [VERIFY_RANGE]
    elif workload == "k3_list":
        inputs = [tuple(job) for job in inputs]
        ok = all(len(job) == 5 and job_key(job) in refs["k3"] for job in inputs)
    else:
        ok = all(isinstance(g, int) and str(g) in refs["matrix"] for g in inputs)
    if not inputs or not ok or len(set(inputs)) != len(inputs):
        raise BenchError(f"inputs {inputs!r} have no reference for {workload}")
    return inputs


# -------------------------------------------------------------- environment


def require_sources() -> None:
    """Put the checkout's `src/` first on sys.path; refuse to run without it,
    so that no installed copy of bnloci is measured by mistake."""
    if not (SRC / "bnloci" / "__init__.py").is_file():
        raise BenchError(f"no bnloci sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def import_bnloci():
    import bnloci.cli

    if Path(bnloci.cli.__file__).resolve().parent != SRC / "bnloci":
        raise BenchError(f"imported bnloci from {bnloci.cli.__file__}, not {SRC}")
    return bnloci


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, so that the speed
    probes run where child operations run.  Returns the CPU, or None where
    the affinity cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError, ValueError):
        return None
    return cpu


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """One child interpreter at a time, waited for before returning."""
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def cpu_now() -> float:
    """CPU seconds of this process and its waited children (microseconds)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children counts the largest waited child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def commit_hash() -> str | None:
    """HEAD of the checkout's git repository, read without running git;
    None when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bnloci").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# --------------------------------------------------------------- references


def matrix_digest(matrix) -> str:
    """sha256 over the kind of every cell, the equality classes and the
    covers of a RelationMatrix; provenance is left out."""
    from bnloci.poset import covers

    loci = matrix.loci
    payload = {
        "genus": matrix.genus,
        "loci": [[x.r, x.d] for x in loci],
        "cells": [[matrix.relation(x, y)[0] for y in loci] for x in loci],
        "classes": [[[x.r, x.d] for x in cls] for cls in matrix.classes],
        "covers": [[[c.lhs.r, c.lhs.d], [c.rhs.r, c.rhs.d]] for c in covers(matrix)],
    }
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()


def k3_summary(text: str) -> dict:
    """Reference summary of `bn k3 ... --json` output."""
    payload = json.loads(text)
    return {
        "assignments": len(payload["assignments"]),
        "min_c2_bound": payload["min_c2_bound"],
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def check_verify(rc: int, stdout: str) -> bool:
    lines = stdout.splitlines()
    return (
        rc == 0
        and len(lines) == len(VERIFY_GENERA)
        and all(line.startswith(f"genus {g}: PASS") for g, line in zip(VERIFY_GENERA, lines))
    )


def check_output(workload: str, label, output, refs: dict) -> bool:
    if workload == "verify":
        return check_verify(*output)
    if workload == "k3_list":
        rc, text = output
        if rc != 0:
            return False
        try:
            return k3_summary(text) == refs["k3"][job_key(label)]
        except (ValueError, KeyError, TypeError):
            return False
    return matrix_digest(output) == refs["matrix"][str(label)]["digest"]


# ------------------------------------------------------------------ tracing

# (span name, module, attribute) of every wrapped public function.  lattice,
# loci and classical are called hundreds of thousands of times from inside
# these; wrapping them would distort the timing, so their cost shows up as
# self time of the spans that call them.
TRACED = (
    ("cli.main", "bnloci.cli", "main"),
    ("cli.parse_fact_records", "bnloci.cli", "parse_fact_records"),
    ("cli.packaged_fixture_matrix", "bnloci.cli", "packaged_fixture_matrix"),
    ("poset.assemble", "bnloci.poset", "assemble"),
    ("poset.closure_relations", "bnloci.poset", "closure_relations"),
    ("poset.compare", "bnloci.poset", "compare"),
    ("k3.k3_noncontainment", "bnloci.k3", "k3_noncontainment"),
    ("k3.min_series_degree", "bnloci.k3", "min_series_degree"),
    ("k3.enumerate_assignments", "bnloci.k3", "enumerate_assignments"),
    ("k3.candidate_subsheaf_classes", "bnloci.k3", "candidate_subsheaf_classes"),
)


class Tracer:
    """In-memory spans around the public functions of bnloci.cli, .poset and
    .k3.  A span is [name, start, end, parent index, op id, info]; info
    holds the counts taken where the work happens."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._queried: set = set()
        self._matrices: dict[int, object] = {}

    def install(self) -> None:
        """Wrap each traced function at every module attribute of bnloci
        that refers to it (e.g. both bnloci.poset.k3_noncontainment and
        bnloci.k3.k3_noncontainment)."""
        import importlib

        modules = [importlib.import_module(m) for m in ("bnloci", "bnloci.cli", "bnloci.poset", "bnloci.k3")]
        for name, module, attr in TRACED:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            span[5] = self._info(idx, name, args, kwargs, result)
            return result

        return wrapper

    def _info(self, idx, name, args, kwargs, result):
        # only O(1) work here: it is charged to the parent span's self time
        if name == "k3.min_series_degree":
            basis, s = args[0], args[1]
            config = args[2] if len(args) > 2 else kwargs.get("config")
            flags = (bool(config and config.dm_filter), bool(config and config.elliptic_filter))
            key = (basis.g, basis.r, basis.d, s) + flags
            hit = key in self._queried
            self._queried.add(key)
            return {"key": list(key), "hit": hit}
        if name == "k3.k3_noncontainment":
            return {"certified": result is not None}
        if name in ("k3.enumerate_assignments", "k3.candidate_subsheaf_classes", "cli.parse_fact_records"):
            return {"n": len(result)}
        if name == "poset.closure_relations":
            relations = args[2] if len(args) > 2 else kwargs.get("relations")
            self._matrices[idx] = result
            return {"relations_in": len(relations) if hasattr(relations, "__len__") else 0}
        if name == "poset.assemble":
            self._matrices[idx] = result
        return None

    def finish_op(self) -> None:
        """Count the cells of the matrices the op built; called after the
        op's clock has stopped, so the O(n^2) walk is not in any span."""
        for idx, matrix in self._matrices.items():
            span = self.spans[idx]
            unknown = len(matrix.unknown_pairs())
            if span[0] == "poset.assemble":
                span[5] = {"genus": matrix.genus, "unknown": unknown}
            else:
                reps = len(matrix.classes)
                span[5]["cells_decided"] = reps * (reps - 1) - unknown
        self._matrices.clear()


def span_self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            covered[span[3]] += span[2] - span[1]
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


PER_LAYER_UNITS = {
    "k3.min_series_degree.calls": "count",
    "k3.min_series_degree.distinct": "count",
    "k3.min_series_degree.hit_ratio": "ratio",
    "k3.min_series_degree.busy_s": "s",
    "k3.min_series_degree.job_max_s": "s",
    "k3.enumerate_assignments.calls": "count",
    "k3.enumerate_assignments.busy_s": "s",
    "k3.enumerate_assignments.emitted": "count",
    "k3.candidate_subsheaf_classes.busy_s": "s",
    "k3.candidate_subsheaf_classes.classes": "count",
    "k3.k3_noncontainment.calls": "count",
    "k3.k3_noncontainment.certified": "count",
    "k3.k3_noncontainment.busy_s": "s",
    "k3.certify_ratio": "ratio",
    "poset.closure_relations.calls": "count",
    "poset.closure_relations.busy_s": "s",
    "poset.closure_relations.relations_in": "count",
    "poset.closure_relations.cells_decided": "count",
    "poset.assemble.calls": "count",
    "poset.assemble.busy_s": "s",
    "poset.assemble.self_s": "s",
    "poset.unknown_pairs": "count",
    "poset.compare.busy_s": "s",
    "cli.parse_fact_records.busy_s": "s",
    "cli.parse_fact_records.records": "count",
    "cli.packaged_fixture_matrix.busy_s": "s",
    "cli.main.self_s": "s",
    "k3.self_s": "s",
    "poset.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[list], traced_wall: float, overhead: float) -> dict:
    """Per-layer figures from the spans of the timed operations.  traced_wall
    is the raw wall time of those operations, on the clock of the spans."""
    self_times = span_self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        if span[4] is not None:
            by_name.setdefault(span[0], []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(spans[i][2] - spans[i][1] for i in ids(name))

    def info_sum(name, field):
        return sum(spans[i][5][field] for i in ids(name))

    def ratio(num, den):
        return num / den if den else 0.0

    msd = ids("k3.min_series_degree")
    certified = sum(spans[i][5]["certified"] for i in ids("k3.k3_noncontainment"))
    unknown_by_genus = {spans[i][5]["genus"]: spans[i][5]["unknown"] for i in ids("poset.assemble")}
    layer_self = {"k3": 0.0, "poset": 0.0, "cli": 0.0}
    for i, span in enumerate(spans):
        if span[4] is not None:
            layer_self[span[0].split(".", 1)[0]] += self_times[i]
    values = {
        "k3.min_series_degree.calls": len(msd),
        "k3.min_series_degree.distinct": len({tuple(spans[i][5]["key"]) for i in msd}),
        "k3.min_series_degree.hit_ratio": ratio(sum(spans[i][5]["hit"] for i in msd), len(msd)),
        "k3.min_series_degree.busy_s": busy("k3.min_series_degree"),
        "k3.min_series_degree.job_max_s": max((spans[i][2] - spans[i][1] for i in msd), default=0.0),
        "k3.enumerate_assignments.calls": len(ids("k3.enumerate_assignments")),
        "k3.enumerate_assignments.busy_s": busy("k3.enumerate_assignments"),
        "k3.enumerate_assignments.emitted": info_sum("k3.enumerate_assignments", "n"),
        "k3.candidate_subsheaf_classes.busy_s": busy("k3.candidate_subsheaf_classes"),
        "k3.candidate_subsheaf_classes.classes": info_sum("k3.candidate_subsheaf_classes", "n"),
        "k3.k3_noncontainment.calls": len(ids("k3.k3_noncontainment")),
        "k3.k3_noncontainment.certified": certified,
        "k3.k3_noncontainment.busy_s": busy("k3.k3_noncontainment"),
        "k3.certify_ratio": ratio(certified, len(ids("k3.k3_noncontainment"))),
        "poset.closure_relations.calls": len(ids("poset.closure_relations")),
        "poset.closure_relations.busy_s": busy("poset.closure_relations"),
        "poset.closure_relations.relations_in": info_sum("poset.closure_relations", "relations_in"),
        "poset.closure_relations.cells_decided": info_sum("poset.closure_relations", "cells_decided"),
        "poset.assemble.calls": len(ids("poset.assemble")),
        "poset.assemble.busy_s": busy("poset.assemble"),
        "poset.assemble.self_s": sum(self_times[i] for i in ids("poset.assemble")),
        "poset.unknown_pairs": sum(unknown_by_genus.values()),
        "poset.compare.busy_s": busy("poset.compare"),
        "cli.parse_fact_records.busy_s": busy("cli.parse_fact_records"),
        "cli.parse_fact_records.records": info_sum("cli.parse_fact_records", "n"),
        "cli.packaged_fixture_matrix.busy_s": busy("cli.packaged_fixture_matrix"),
        "cli.main.self_s": sum(self_times[i] for i in ids("cli.main")),
        "k3.self_s": layer_self["k3"],
        "poset.self_s": layer_self["poset"],
        "cli.self_s": layer_self["cli"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


# --------------------------------------------------------------- host speed

# The measuring host's speed shifts by up to 1.7x, for seconds to minutes at
# a time (README.md, "Limits of the measuring machine").  Every timed
# interval is therefore bracketed by speed probes: fixed pieces of
# pure-Python work that do not touch bnloci, timed before the set-up and
# after every set-up step and operation.  The gated times are reported at
# the reference speed: each interval's raw time is scaled by REFERENCE_S over
# the mean of the two probes around it.  REFERENCE_S is a fixed constant near
# the probe's time on the machine that defined the benchmark; it only sets
# the scale.
REFERENCE_S = 0.015


def _arithmetic() -> int:
    total = 0
    for i in range(75000):
        total += i * i % 7
    return total


def _objects() -> int:
    counts: dict[tuple[int, int], int] = {}
    seen = set()
    acc = Fraction(0)
    for i in range(6000):
        key = (i % 101, i % 37)
        counts[key] = counts.get(key, 0) + 1
        if i % 5 == 0:
            acc += Fraction(i % 13 + 1, i % 11 + 1)
        seen.add(frozenset((i % 17, i % 19)))
    return len(sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))) + len(seen) + acc.denominator


_PAIRS = [(i * 7919 % 1000, i * 104729 % 997) for i in range(30000)]


def _working_set() -> int:
    counts: dict[tuple[int, int], int] = {}
    for key in _PAIRS:
        counts[key] = counts.get(key, 0) + 1
    mirrored = set()
    for a, b in _PAIRS:
        if (b, a) in counts:
            mirrored.add(frozenset((a, b)))
    return len(mirrored)


_EDGES = {i: {(i * 37 + k * 53) % 100 for k in range(1, 4)} - {i} for i in range(100)}


def _closure() -> int:
    succ = {i: set(js) for i, js in _EDGES.items()}
    changed = True
    while changed:
        changed = False
        for i, js in succ.items():
            grown = set(js)
            for j in js:
                grown |= succ[j]
            if len(grown) > len(js):
                succ[i] = grown
                changed = True
    return sum(map(len, succ.values()))


# integer arithmetic; tuple, dict, set and Fraction traffic; a working set
# of a few MB; a set-based transitive closure: the kinds of work bnloci does
PROBE_KERNELS = (_arithmetic, _objects, _working_set, _closure)
PROBE_REPEATS = 3


def speed_probe() -> float:
    """Geometric mean over the kernels of each kernel's median time of
    PROBE_REPEATS runs (about 0.015 s on a 2.0 GHz Xeon)."""
    logs = []
    for kernel in PROBE_KERNELS:
        samples = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - t0)
        logs.append(math.log(statistics.median(samples)))
    return math.exp(statistics.fmean(logs))


class SpeedGauge:
    """Probes the host's speed between timed intervals."""

    def __init__(self):
        speed_probe()  # warm-up, not recorded
        self.probes = [speed_probe()]

    def scale(self) -> float:
        """Probe again, and return the factor that takes the interval since
        the previous probe to the reference speed."""
        self.probes.append(speed_probe())
        return REFERENCE_S / statistics.fmean(self.probes[-2:])


# ---------------------------------------------------------------- workloads


def _import_probe() -> float:
    t0 = time.perf_counter()
    proc = run_child(["-c", "import bnloci.cli"])
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"importing bnloci failed: {proc.stderr.strip()}")
    return elapsed


def _verify_child(traced: bool):
    """One `bn verify 7..12` in a fresh interpreter.  Traced, the child runs
    cli.main in-process under a Tracer and sends its spans back."""
    if not traced:
        proc = run_child(["-m", "bnloci.cli", "verify", VERIFY_RANGE])
        return (proc.returncode, proc.stdout), []
    proc = run_child([str(HERE / "verify_child.py")])
    if proc.returncode != 0:
        return (proc.returncode, proc.stderr), []
    reply = json.loads(proc.stdout.splitlines()[-1])
    return (reply["rc"], reply["stdout"]), reply["spans"]


def run_k3_job(job) -> tuple[int, str]:
    import bnloci.cli

    g, r, d, s, filters = job
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = bnloci.cli.main(
            ["k3", str(g), str(r), str(d), "--series", str(s), "--filters", filters, "--json"]
        )
    return rc, buf.getvalue()


def _assemble(g: int):
    import bnloci.poset

    return bnloci.poset.assemble(g)


def run_workload(workload: str, inputs: list, seconds: float, tracer: Tracer | None, refs: dict) -> dict:
    """Set up, then run the operations as a closed loop (one client, each
    operation starting after the previous one finished).  Outputs are checked
    between operations, off the clock."""
    attempted = failed = 0
    gauge = SpeedGauge()
    setup_samples: list[float] = []
    setup_scales: list[float] = []
    if workload == "assemble_warm":
        # the set-up fills the K3 cache: one cold assemble per drawn genus
        for g in inputs:
            gc.collect()
            t0 = time.perf_counter()
            matrix = _assemble(g)
            setup_samples.append(time.perf_counter() - t0)
            setup_scales.append(gauge.scale())
            if tracer:
                tracer.finish_op()
            attempted += 1
            failed += not check_output(workload, g, matrix, refs)
            del matrix
    else:
        for _ in range(IMPORT_PROBES):
            setup_samples.append(_import_probe())
            setup_scales.append(gauge.scale())

    n_ops = op_count(workload, inputs, seconds)
    labels = [inputs[i % len(inputs)] for i in range(n_ops)]
    op_wall: list[float] = []
    op_cpu: list[float] = []
    op_scales: list[float] = []
    child_spans: list[list] = []
    for i, label in enumerate(labels):
        gc.collect()
        if tracer:
            tracer.op = i
        t0, c0 = time.perf_counter(), cpu_now()
        try:
            if workload == "verify":
                output, spans = _verify_child(tracer is not None)
            elif workload == "k3_list":
                output = run_k3_job(label)
            else:
                output = _assemble(label)
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            output, error = None, exc
        op_wall.append(time.perf_counter() - t0)
        op_cpu.append(cpu_now() - c0)
        op_scales.append(gauge.scale())
        if tracer:
            tracer.op = None
            tracer.finish_op()
            if workload == "verify" and error is None:
                base = len(child_spans)
                child_spans += [
                    [n, t0_, t1_, None if p is None else p + base, i, info]
                    for n, t0_, t1_, p, _, info in spans
                ]
        attempted += 1
        ok = error is None and check_output(workload, label, output, refs)
        if not ok:
            failed += 1
            print(f"FAILED op {i} {workload} {label!r}: {error or 'output differs from reference'}",
                  file=sys.stderr)
        del output
    return {
        "workload": workload,
        "inputs": inputs,
        "labels": labels,
        "setup_samples": setup_samples,
        "setup_scales": setup_scales,
        "op_wall": op_wall,
        "op_cpu": op_cpu,
        "op_scales": op_scales,
        "probes": gauge.probes,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "spans": (tracer.spans if tracer else []) + child_spans,
    }


def at_reference_speed(result: dict) -> dict:
    """setup_s, wall_s, cpu_s and op_p50_s with every interval scaled to the
    reference speed by the probes around it."""
    setup = [t * k for t, k in zip(result["setup_samples"], result["setup_scales"])]
    wall = [t * k for t, k in zip(result["op_wall"], result["op_scales"])]
    cpu = [t * k for t, k in zip(result["op_cpu"], result["op_scales"])]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(wall),
        "cpu_s": sum(cpu),
        "op_p50_s": statistics.median(wall),
    }


def e2e_metrics(result: dict) -> dict:
    """The gated figures; the times are at the reference speed."""
    values = {**at_reference_speed(result), "peak_rss_mb": result["peak_rss_mb"]}
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def write_spans(path: Path, spans: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write('{"fields":["name","start","end","parent","op","info"],"spans":[\n')
        fh.write(",\n".join(json.dumps(s, separators=(",", ":")) for s in spans))
        fh.write("\n]}\n")
