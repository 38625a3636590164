"""The benchmark's set-up cut names must name real ``expertq`` functions.

The benchmark launcher looks up every ``--cut`` name before a command
runs, so a renamed or removed function fails every untraced launch of its
workload. This test catches that without running the benchmark.
"""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_cut_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workloads = importlib.import_module("run").WORKLOADS
    assert workloads
    for name, workload in workloads.items():
        assert workload.cut, name
        for cut in workload.cut:
            layer, attr = cut.split(".")
            module = importlib.import_module(f"expertq.{layer}")
            assert callable(getattr(module, attr, None)), f"{name}: {cut}"
