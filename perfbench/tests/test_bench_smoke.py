"""Smoke test of the benchmark command on the cheapest input of each
workload: every metric appears with its unit and no operation fails."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, inputs=None, trace=0):
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    if inputs is not None:
        argv += ["--inputs", json.dumps(inputs)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_metrics(report, result, spec):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line and "n=" in line
                   for line in report), m["name"]
    ratio = [line.split() for line in report if line.split()[:1] == ["ops_failed_ratio"]]
    assert ratio and float(ratio[0][1]) == 0.0


def assert_p50_line(report):
    p50 = [line.split() for line in report if line.split()[:1] == ["op_p50_s"]]
    assert p50 and float(p50[0][1]) > 0 and p50[0][2] == "s" and p50[0][3].startswith("n=")


# assemble_warm runs on genus 13, outside its pool, to keep the test cheap
@pytest.mark.parametrize("workload, inputs", [
    ("verify", None),
    ("assemble_cold", [13]),
    ("assemble_warm", [13]),
    ("k3_list", [[13, 2, 7, 6, "off"]]),
])
def test_cheapest_input_reports_every_metric(workload, inputs):
    report, result = run_bench(workload, inputs)
    assert_metrics(report, result, SPEC["end_to_end"])
    assert_p50_line(report)
    assert result["metrics"]["wall_s"]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    report, result = run_bench("verify", trace=1)
    assert_metrics(report, result, SPEC["per_layer"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["k3.k3_noncontainment.calls"] > 0
    assert values["cli.parse_fact_records.records"] > 0
    assert values["poset.unknown_pairs"] == 0
