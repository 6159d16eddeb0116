#!/usr/bin/env python3
"""Time the `bn k3` listings, cold `assemble` and warm `assemble` of two
source trees against each other.

Usage: python tools/listing_ab.py A_ROOT B_ROOT [--pairs N]

A_ROOT and B_ROOT are checkouts, each with a `src/bnloci` package.  Both
packages are loaded into this one process under distinct names, so the
two sides share the interpreter, its start-up and the host's state of the
moment.  The pools are read from `perfbench/bench.py` of the checkout that
holds this script.  One set runs three passes, each after clearing the
side's K3 caches and its per-genus rule seeds and collecting garbage, as a
benchmark run starts cold:
the `k3_list` jobs, each through `cli.main([... "--json"])` with stdout
captured, then `assemble(g)` for every g of the `assemble_cold` pool, then
the `assemble_warm` pool: one cold `assemble(g)` per genus off the clock,
and on the clock as many warm calls as a 10-second benchmark run makes.
So a K3 change is timed on both workloads that it can move, and a closure
change on the warm calls that it moves.  A pair times one set of each
side, A first in even pairs and B first in odd ones.
Prints, per pass, the quartiles of each side's times, the median change
and how many pairs B won.

It measures and prints; it decides nothing and claims nothing.  On a busy
host single benchmark runs of unchanged code can differ by more than a
listing change, and interleaved pairs in one process see the same drift.
The two sides also share one heap, and each listing pass follows a warm
`assemble` pass whose allocations differ between the trees.  The `k3_list`
pass read a tree whose only changes were closure kernels, which `bn k3`
does not run, 1.1-1.6% slower whichever side it was loaded as, for a cause
not found.  So a `k3_list` figure below 2% from this tool shows no change.
Timing every `k3_list` pair first, as one interleaved sequence before any
`assemble` pass of the process, did not remove the spread: on the same two
trees (40 pairs each) B read +1.5% and +3.1% with each tree as A, and
-0.7% for one tree against itself, where this order read -2.4%, +3.2% and
-5.8% on the same host within the hour.  Neither order kept every median
within 0.5%, so the sets stay as they are.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench" / "bench.py"


def load_module(name: str, path: Path):
    """Import the file or package ``path`` under the module name ``name``."""
    package = path.name == "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[str(path.parent)] if package else None
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_side(name: str, root: Path):
    """The ``cli``, ``k3`` and ``poset`` modules of ``root/src/bnloci``, as
    ``name``."""
    init = root / "src" / "bnloci" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no package at {init}")
    load_module(name, init)
    return tuple(importlib.import_module(f"{name}.{mod}") for mod in ("cli", "k3", "poset"))


def cold(*modules) -> None:
    """Clear every cache of the ``modules`` and collect garbage."""
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    gc.collect()


def run_set(side, jobs, genera, warm) -> tuple[float, float, float]:
    """The seconds that one cold pass over the listing jobs takes, one over
    the cold assemble genera, and the ``warm`` calls once their genera are
    filled."""
    cli, k3, poset = side
    cold(k3, poset)
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for g, r, d, s, filters in jobs:
            argv = ["k3", str(g), str(r), str(d), "--series", str(s), "--filters", filters, "--json"]
            if cli.main(argv) != 0:
                raise SystemExit(f"job {g, r, d, s, filters} failed")
    listing = time.perf_counter() - start
    cold(k3, poset)
    start = time.perf_counter()
    for g in genera:
        poset.assemble(g)
    cold_assemble = time.perf_counter() - start
    cold(k3, poset)
    for g in set(warm):
        poset.assemble(g)
    gc.collect()
    start = time.perf_counter()
    for g in warm:
        poset.assemble(g)
    return listing, cold_assemble, time.perf_counter() - start


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="the first checkout (the baseline)")
    parser.add_argument("b", type=Path, help="the second checkout")
    parser.add_argument("--pairs", type=int, default=40, help="interleaved pairs, at least 40")
    args = parser.parse_args(argv)
    if args.pairs < 40:
        parser.error("--pairs must be at least 40")
    bench = load_module("_listing_ab_bench", BENCH)
    pools = bench.POOLS
    jobs, genera, pool = pools["k3_list"], pools["assemble_cold"], pools["assemble_warm"]
    warm = [pool[i % len(pool)] for i in range(bench.op_count("assemble_warm", pool, 10))]
    sides = (load_side("bnloci_a", args.a.resolve()), load_side("bnloci_b", args.b.resolve()))
    for side in sides:  # one untimed set each: compile and warm the interpreter
        run_set(side, jobs, genera, warm)
    times = ([], [])
    for pair in range(args.pairs):
        for which in (0, 1) if pair % 2 == 0 else (1, 0):
            times[which].append(run_set(sides[which], jobs, genera, warm))
    for index, name in enumerate(("k3_list", "assemble_cold", "assemble_warm")):
        a, b = ([set_times[index] for set_times in side] for side in times)
        print(f"{name}:")
        for label, values in zip("AB", (a, b)):
            q1, q2, q3 = quartiles(values)
            print(f"  {label}: quartiles {q1 * 1e3:.2f} {q2 * 1e3:.2f} {q3 * 1e3:.2f} ms")
        med_a, med_b = statistics.median(a), statistics.median(b)
        wins = sum(y < x for x, y in zip(a, b))
        print(
            f"  median {med_a * 1e3:.2f} -> {med_b * 1e3:.2f} ms "
            f"({(med_b / med_a - 1) * 100:+.1f}%), B won {wins} of {args.pairs} pairs"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
