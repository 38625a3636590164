"""The benchmark's generated inputs must pass the CLI's config checks.

Each workload's config is written by ``benchmarks/gen_inputs.py`` and
launched with its CLI command. A key the program stops accepting, such as
sweep-single's ``"workers"`` or verify-quad's ``"resolution"``, would fail
every launch of that workload. The simulation, the LP and the geometric
check are stubbed to raise, so each command stops once its config has been
read and checked, without running.
"""

import importlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from expertq import analysis, sched, sim
from expertq.cli import main

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


class Reached(Exception):
    """Raised by the stubs: the config was accepted."""


def reached(*args, **kwargs):
    raise Reached


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["sweep-single", "route-wide", "verify-quad"])
def test_generated_config_is_accepted(tmp_path, monkeypatch, workload, seed):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    gen_inputs = importlib.import_module("gen_inputs")
    command = importlib.import_module("run").WORKLOADS[workload].command
    for module in (analysis, sched, sim):
        for name in ("run", "multi_capacity_dual", "geometric_service_check"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, reached)
    cfg = gen_inputs.write(workload, seed, tmp_path / "inputs")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command, str(cfg), "--out", str(out)])
    assert isinstance(result.exception, Reached), result.output
    assert not out.exists()
