"""Golden output of every shipped ``configs/`` command.

The fixture in ``golden/cli.json`` pins, for each shipped command config
(its instance inlined, horizons cut by ``test_cli``'s ``shortened``) and for a few mode and scheduler variants of them, the
exit code, the stdout lines with the output directory written as
``<out>``, and the sha256 of every file the command writes (null when
it never made the output directory). Refactors of the CLI must reproduce
it exactly, whatever CPU kernel OpenBLAS picks: the fixture is checked
again with the kernel forced to two older ones. To regenerate the
fixture after a deliberate change of behaviour, run
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import expertq
from test_cli import invoke, shortened

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COMMANDS = ("capacity", "simulate", "sweep", "verify")


def shipped_config(name: str) -> dict:
    """A shipped command config with its instance inlined, shortened."""
    cfg = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    instance = json.loads((CONFIGS / cfg.pop("instance_path")).read_text(encoding="utf-8"))
    return shortened({**cfg, "instance": instance})


def cases() -> dict[str, tuple[str, dict]]:
    """(command, config) per case: every shipped command config, then the
    capacity modes and schedulers the shipped configs do not name, a
    missing certificate, and a single-expert verify on short horizons."""
    out = {}
    for path in sorted(CONFIGS.glob("*.json")):
        command = path.stem.split("_")[0]
        if command in COMMANDS:
            out[path.stem] = (command, shipped_config(path.name))
    single = shipped_config("sweep_single.json")["instance"]
    specialists = shipped_config("capacity_multi_dual.json")["instance"]
    for mode, extra in (("single", {}), ("loss", {"epsilon": 0.1})):
        out[f"capacity:{mode}"] = ("capacity", {"instance": single, "mode": mode, **extra})
    out["capacity:multi-primal"] = (
        "capacity",
        {"instance": specialists, "mode": "multi-primal"},
    )
    routing = shipped_config("simulate_routing.json")
    for name, scheduler in (
        ("loss-epsilon", {"kind": "loss", "epsilon": 0.2, "tie_break": "uniform_random"}),
        ("loss-mu", {"kind": "loss", "mu": [1.0, 0.5]}),
        ("work-conserving", {"kind": "work_conserving"}),
    ):
        out[f"simulate:{name}"] = (
            "simulate",
            {**routing, "instance": single, "scheduler": scheduler},
        )
    out["simulate:baseline"] = (
        "simulate",
        {**routing, "scheduler": {"kind": "baseline", "selection": "topic_uniform"}},
    )
    out["simulate:loss-no-certificate"] = (
        "simulate",
        {**routing, "instance": single, "scheduler": {"kind": "loss"}},
    )
    out["verify:single"] = (
        "verify",
        {
            "instance": single,
            "routing_check": {"horizon": 2000},
            "misestimation": {"horizon": 2000},
            "seed": 3,
        },
    )
    return out


def run_case(name: str, workdir: Path) -> dict:
    command, config = cases()[name]
    cfg = workdir / f"{name.replace(':', '-')}.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = workdir / f"out-{name.replace(':', '-')}"
    result = invoke([command, str(cfg), "--out", str(out)])
    return {
        "exit_code": result.exit_code,
        "stdout": result.stdout.replace(str(out), "<out>").splitlines(),
        "sha256": {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
        }
        if out.exists()
        else None,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())
    shipped = {p.stem for p in CONFIGS.glob("*.json") if p.stem.split("_")[0] in COMMANDS}
    assert len(shipped) == 5 and shipped <= set(golden)


@pytest.mark.parametrize("name", sorted(cases()))
def test_command_matches_golden(golden, tmp_path, name):
    assert run_case(name, tmp_path) == golden[name]


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_fixture_holds_under_a_forced_openblas_kernel(golden, tmp_path, core):
    # OpenBLAS picks its CPU kernel once, when it loads, so only a fresh
    # process can be given another one; where numpy has no OpenBLAS the
    # setting is ignored and the run is an ordinary one.
    here = Path(__file__).parent
    path = [str(here), str(Path(expertq.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": core,
        "PYTHONPATH": os.pathsep.join(filter(None, path)),
    }
    script = (
        "import json, sys, pathlib, test_golden_cli as g; "
        "print(json.dumps({n: g.run_case(n, pathlib.Path(sys.argv[1])) for n in g.cases()}))"
    )
    child = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    docs = json.loads(child.stdout)
    assert {n: d for n, d in docs.items() if d != golden[n]} == {}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        docs = {name: run_case(name, Path(tmp)) for name in cases()}
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
