"""Golden ``capacity.json`` bytes of ``expertq capacity`` in the LP modes.

The fixture in ``golden/capacity.json`` pins, for ``multi-dual`` and
``multi-primal`` on the 16 x 30 wide instance of ``test_golden.py``, on a
seeded 12 x 10 instance and on the shipped
``configs/capacity_multi_dual.json`` instance, the exact text the command
writes. The text is compared, not the parsed numbers, so the sign of a
zero routing weight (``-0.0`` from the LP solver) is pinned too, and so
are the last bits of routing columns split across many experts.
Refactors of the routing LP or of its solution's write-back must reproduce
it byte for byte. To regenerate the fixture after a deliberate change of
behaviour, run ``PYTHONPATH=src python tests/test_golden_capacity.py``.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from expertq.cli import main
from expertq.model import instance_to_dict
from test_golden import wide_instance

GOLDEN = Path(__file__).parent / "golden" / "capacity.json"
CONFIGS = Path(__file__).parent.parent / "configs"
MODES = ("multi-dual", "multi-primal")


def mixed_instance_doc() -> dict:
    """12 experts x 10 topics: times in [1, 3], each pair skill-less with
    probability 0.5 except that expert 0 answers every topic. Its optimal
    routing splits topics across up to 12 experts, where normalising the
    columns one at a time and all at once round differently."""
    rng = np.random.default_rng(9)
    times = rng.uniform(1.0, 3.0, (12, 10))
    times[1:][rng.random((11, 10)) < 0.5] = np.inf
    weights = rng.random((12, 10))
    return {
        "topics": 10,
        "lambda": 0.5,
        "pmf": (weights / weights.sum(axis=1, keepdims=True)).tolist(),
        "experts": [
            {"id": i, "T": [None if np.isinf(t) else float(t) for t in row]}
            for i, row in enumerate(times)
        ],
    }


def config(instance: str, mode: str) -> dict:
    if instance == "wide":
        return {"instance": instance_to_dict(wide_instance()), "mode": mode}
    if instance == "mixed":
        return {"instance": mixed_instance_doc(), "mode": mode}
    return {"instance_path": str(CONFIGS / "instance_specialists.json"), "mode": mode}


CASES = [f"{inst}:{mode}" for inst in ("wide", "mixed", "specialists") for mode in MODES]


def capacity_text(case: str, workdir: Path) -> str:
    """The ``capacity.json`` text written for ``case``. The specialists'
    multi-dual case runs the shipped config file itself."""
    instance, mode = case.split(":")
    if case == "specialists:multi-dual":
        cfg = CONFIGS / "capacity_multi_dual.json"
    else:
        cfg = workdir / f"{instance}-{mode}.json"
        cfg.write_text(json.dumps(config(instance, mode)), encoding="utf-8")
    out = workdir / f"out-{instance}-{mode}"
    result = CliRunner().invoke(main, ["capacity", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return (out / "capacity.json").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_fixture_pins_a_negative_zero(golden):
    """HiGHS returns some zero routing weights as -0.0; clipping them with
    ``np.maximum`` would write 0.0 instead."""
    s = json.loads(golden["wide:multi-dual"])["certificate"]["s"]
    assert any(str(v) == "-0.0" for row in s for v in row)


@pytest.mark.parametrize("case", CASES)
def test_capacity_json_matches_golden(golden, tmp_path, case):
    assert capacity_text(case, tmp_path) == golden[case]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        docs = {case: capacity_text(case, Path(tmp)) for case in CASES}
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
