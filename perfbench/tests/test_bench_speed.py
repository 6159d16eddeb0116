"""Scaling of timed intervals to the reference speed."""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import bench  # noqa: E402


def test_probe_kernels_do_fixed_work():
    first = [kernel() for kernel in bench.PROBE_KERNELS]
    assert first == [kernel() for kernel in bench.PROBE_KERNELS]
    assert bench.speed_probe() > 0


def test_scale_uses_the_probes_around_the_interval(monkeypatch):
    times = iter([0.010, 0.020, 0.030, 0.060])
    monkeypatch.setattr(bench, "speed_probe", lambda: next(times))
    gauge = bench.SpeedGauge()  # the first probe is a warm-up
    assert gauge.probes == [0.020]
    assert gauge.scale() == pytest.approx(bench.REFERENCE_S / 0.025)
    assert gauge.scale() == pytest.approx(bench.REFERENCE_S / 0.045)
    assert gauge.probes == [0.020, 0.030, 0.060]


def test_figures_at_reference_speed():
    result = {
        "setup_samples": [1.0, 2.0, 3.0],
        "setup_scales": [1.0, 0.5, 2.0],
        "op_wall": [1.0, 2.0, 4.0],
        "op_cpu": [0.5, 1.0, 2.0],
        "op_scales": [2.0, 1.0, 0.5],
    }
    scaled = bench.at_reference_speed(result)
    assert scaled["setup_s"] == pytest.approx(statistics.median([1.0, 1.0, 6.0]))
    assert scaled["wall_s"] == pytest.approx(6.0)
    assert scaled["cpu_s"] == pytest.approx(3.0)
    assert scaled["op_p50_s"] == pytest.approx(2.0)
