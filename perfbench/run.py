"""bnloci benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (verify, assemble_cold, assemble_warm, k3_list) as a
closed loop from the root of a checkout and checks every output against
perfbench/refs.json.  It prints a report (each metric by name, unit and
sample count), a `record` line for comparing runs, and as the last line a
JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics; --trace 1 runs the workload
under span tracing and reports the per-layer metrics.  The exit status is
0 when every operation matched its reference, 1 when one did not, and 2
when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import bench


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--inputs",
        metavar="JSON",
        help="run these inputs instead of the seeded draw (each must have a reference)",
    )
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be between 1 and 600")
    return args


def report(args, result: dict, metrics: dict, extra: dict) -> None:
    n_ops = len(result["op_wall"])
    scaled = bench.at_reference_speed(result)
    samples = {"setup_s": len(result["setup_samples"]), "peak_rss_mb": 1}
    print(
        f"bnloci benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
        f"closed loop with 1 client, {n_ops} timed ops; times at the reference speed"
    )

    def line(name, value, unit, n):
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={n}")

    for name, m in metrics.items():
        line(name, m["value"], m["unit"], samples.get(name, n_ops))
    # printed, but not in BENCHMARK.json: see "End-to-end metrics" in README.md
    if not args.trace:
        line("op_p50_s", scaled["op_p50_s"], "s", n_ops)
        line("raw_setup_s", statistics.median(result["setup_samples"]), "s", samples["setup_s"])
        line("raw_wall_s", sum(result["op_wall"]), "s", n_ops)
        line("raw_cpu_s", sum(result["op_cpu"]), "s", n_ops)
        line("speed_probe_s", statistics.median(result["probes"]), "s", len(result["probes"]))
    ratio = result["failed"] / result["attempted"]
    print(f"  {'ops_failed_ratio':<40} {ratio:>14.6g} {'ratio':<6} "
          f"n={result['attempted']} ({result['failed']} failed)")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": result["inputs"],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": bench.commit_hash(),
        "src_sha256": bench.source_digest(),
        "reference_s": bench.REFERENCE_S,
        **scaled,
        "raw_setup_s": statistics.median(result["setup_samples"]),
        "raw_wall_s": sum(result["op_wall"]),
        "raw_cpu_s": sum(result["op_cpu"]),
        "setup_samples_s": result["setup_samples"],
        "setup_scales": result["setup_scales"],
        "op_labels": result["labels"],
        "op_wall_s": result["op_wall"],
        "op_scales": result["op_scales"],
        "speed_probes_s": result["probes"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **extra,
    }
    print("record " + json.dumps(record, separators=(",", ":")))


def untraced_wall(args, inputs) -> tuple[float, int, int]:
    """wall_s of an untraced run of the same inputs in a fresh process."""
    proc = bench.run_child([
        str(bench.HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--inputs", json.dumps(inputs),
    ])
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise bench.BenchError(f"untraced run failed: {proc.stderr.strip()}")
    last = json.loads(lines[-1])
    return last["metrics"]["wall_s"]["value"], last["attempted"], last["failed"]


def main(argv=None) -> int:
    args = parse_args(argv)
    # verify's operations are child interpreters: pin them to the CPU of the
    # speed probes.  The in-process workloads stay free to use every CPU.
    cpu = bench.pin_to_one_cpu() if args.workload == "verify" else None
    bench.require_sources()
    refs = bench.load_refs()
    if args.inputs is None:
        inputs = bench.draw(args.workload, args.seed)
    else:
        inputs = bench.check_inputs(args.workload, json.loads(args.inputs), refs)
    extra: dict = {"cpu": cpu}
    tracer = None
    if args.trace:
        base_wall, base_attempted, base_failed = untraced_wall(args, inputs)
        tracer = bench.Tracer()
    # verify's operations run in child interpreters, which trace themselves
    if args.workload != "verify":
        bench.import_bnloci()
        if tracer:
            tracer.install()
    result = bench.run_workload(args.workload, inputs, args.seconds, tracer, refs)
    if tracer:
        # both wall_s figures at the reference speed, as they come from two processes
        overhead = bench.at_reference_speed(result)["wall_s"] - base_wall
        metrics = bench.layer_metrics(result["spans"], sum(result["op_wall"]), overhead)
        spans_path = bench.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        bench.write_spans(spans_path, result["spans"])
        result["attempted"] += base_attempted
        result["failed"] += base_failed
        extra.update(untraced_wall_s=base_wall, spans_file=str(spans_path.relative_to(bench.ROOT)))
    else:
        metrics = bench.e2e_metrics(result)
    report(args, result, metrics, extra)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (bench.BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
