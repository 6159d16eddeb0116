"""Seeded draws of the benchmark: reproducible, seed-dependent, and never
repeating an input within a run (a repeat would turn a cold operation warm)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import bench  # noqa: E402

# workloads whose pool has more than one input, so the seed changes the order
DRAWN = [w for w in bench.WORKLOADS if len(bench.POOLS[w]) > 1]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_same_seed_gives_same_draw(workload):
    assert bench.draw(workload, 7) == bench.draw(workload, 7)


@pytest.mark.parametrize("workload", DRAWN)
def test_different_seeds_give_different_draws(workload):
    assert bench.draw(workload, 1) != bench.draw(workload, 4)
    assert len({tuple(map(str, bench.draw(workload, seed))) for seed in range(20)}) > 1


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_draw_never_repeats_an_input(workload, seed):
    inputs = bench.draw(workload, seed)
    assert len(set(inputs)) == len(inputs)
    assert sorted(map(str, inputs)) == sorted(map(str, bench.POOLS[workload]))
    labels_per_input = bench.op_count(workload, inputs, 10) / len(inputs)
    if workload in ("assemble_cold", "k3_list"):
        assert labels_per_input == 1
    else:
        assert labels_per_input == int(labels_per_input)


def test_every_pool_input_has_a_reference():
    refs = bench.load_refs()
    for workload in bench.WORKLOADS:
        pool = list(bench.POOLS[workload])
        assert bench.check_inputs(workload, pool, refs) == [
            tuple(x) if isinstance(x, tuple) else x for x in pool
        ]
