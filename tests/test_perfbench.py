"""The benchmark's in-process workloads run against the library as it is,
so a change that drops or renames a function that ``perfbench/workloads.py``
calls fails here, before any benchmark run."""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["train_trend", "data_20k"])
def test_setup_and_warmup_fail_no_operation(tmp_path, name):
    workloads = load_workloads()
    ops = workloads.Ops()
    workload = workloads.WORKLOADS[name]
    state = workload.setup(1, tmp_path, 0, workloads.Pass(ops))
    workload.warmup(state, 1, workloads.Pass(ops))
    assert ops.attempted > 0
    assert ops.failed == 0, ops.failures
