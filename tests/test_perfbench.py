"""The benchmark's in-process workloads and its tracer run against the
library as it is, so a change that drops or renames a function that
``perfbench/workloads.py`` calls or ``perfbench/layers.py`` wraps fails
here, before any benchmark run."""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["train_trend", "data_20k"])
def test_setup_and_warmup_fail_no_operation(tmp_path, name):
    workloads = load_perfbench("workloads")
    ops = workloads.Ops()
    workload = workloads.WORKLOADS[name]
    state = workload.setup(1, tmp_path, 0, workloads.Pass(ops))
    workload.warmup(state, 1, workloads.Pass(ops))
    assert ops.attempted > 0
    assert ops.failed == 0, ops.failures


def test_tracer_finds_every_traced_layer():
    # the traced run reports the metrics of a layer it cannot wrap as absent
    # rather than failing, so a rename would drop them from every later run
    tracer = load_perfbench("layers").Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
