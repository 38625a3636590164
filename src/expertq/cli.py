"""Command-line entry point, on the standard library's ``argparse``.

Four subcommands (the ``_COMMANDS`` table), each driven by one JSON config file:

* ``capacity``  -- analytic capacity of an instance, written as JSON.
* ``simulate``  -- one seeded run, written as a trace CSV plus summary JSON.
* ``sweep``     -- stability verdicts over a load grid, CSV plus bracket JSON.
* ``verify``    -- cross-checks between the analytic and simulated routes.

:func:`run` returns the exit code: 0 success, 1 verification failure, 2
config or usage error, 3 required certificate missing and not computable.
Malformed input raises ``ValueError`` or ``TypeError``; any other error is a
bug and keeps its traceback. Only --force overwrites an existing output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, capacity, model, sched, sim
from .model import config_field


def _read_config(path: str) -> tuple[dict, model.Instance]:
    """The config at ``path`` and the valid instance it holds or names."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError("config must be an object with field 'instance' or 'instance_path'")
    if "instance" in cfg:
        inst = model.instance_from_dict(config_field(cfg, "instance", "object"))
    elif "instance_path" in cfg:
        instance_path = Path(path).parent / config_field(cfg, "instance_path", "string")
        try:
            inst = model.load_instance(instance_path)
        except (OSError, ValueError) as exc:
            message = f"config field 'instance_path': cannot load {instance_path}: {exc}"
            raise ValueError(message) from exc
    else:
        raise ValueError("config needs field 'instance' or 'instance_path'")
    return cfg, inst


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(payload), fh, indent=2)
        fh.write("\n")


def run(argv: list[str] | None = None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``) and return
    its exit code; the parser exits 2 itself on a usage error."""
    parser = argparse.ArgumentParser("expertq", description=main.__doc__)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (body, _, fields) in _COMMANDS.items():
        command = commands.add_parser(name, help=body.__doc__, allow_abbrev=False)
        command.add_argument("config_path")
        command.add_argument("--out", default=".", help="default: %(default)s")
        command.add_argument("--force", action="store_true")
        if "seed" in fields or "seeds" in fields:
            command.add_argument("--seed-override", type=int, metavar="N")
    args = parser.parse_args(argv)
    seed_override = getattr(args, "seed_override", None)
    if seed_override is not None and seed_override < 0:
        parser.error(f"argument --seed-override: {seed_override} is negative")
    out = Path(args.out)
    existing = next(path for path in (out, *out.parents) if path.exists() or path.is_symlink())
    if not existing.is_dir():
        parser.error(f"argument --out: {existing} is not a directory")
    body, outputs, fields = _COMMANDS[args.command]
    targets = [out / n for n in outputs]

    # A body calls this once its work is done, so a rejected command makes no --out.
    def prepare() -> list[Path]:
        out.mkdir(parents=True, exist_ok=True)
        return targets

    try:
        cfg, inst = _read_config(args.config_path)
        for target in targets:
            if target.exists() and not args.force:
                raise ValueError(f"{target} exists; pass --force to overwrite")
        values = {key: config_field(cfg, key, *spec) for key, spec in fields.items()}
        if seed_override is not None and "seed" in values:
            values["seed"] = seed_override
        if seed_override is not None and "seeds" in values:
            values["seeds"] = [seed_override + k for k in range(len(values["seeds"]))]
        code = body(cfg, inst, prepare, **values)
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except sched.CertificateError as exc:
        print(f"missing certificate: {exc}", file=sys.stderr)
        return 3
    print("wrote " + " and ".join(map(str, targets)))
    return code or 0


def main() -> None:
    """Capacity analysis and simulation for expert request queues."""
    sys.exit(run())


def cmd_capacity(cfg, inst, prepare) -> None:
    """Compute the configured capacity value and certificate."""
    report = capacity.capacity_report(inst, cfg)
    (target,) = prepare()
    _write_json(target, report)


def cmd_simulate(cfg, inst, prepare, scheduler, seed, horizon, sample_interval) -> None:
    """Run one seeded simulation; write trace.csv and summary.json."""
    sim.check_sample_count(horizon, sample_interval)
    scheduler = sched.build_scheduler(inst, scheduler)
    stats = sim.run(sim.SimConfig(inst, scheduler, horizon, seed, sample_interval))
    verdict = analysis.classify_stability(stats)
    summary = {
        **stats.summary(),
        "seed": seed,
        "scheduler": scheduler.kind,
        "lambda": inst.arrivals.lam,
        "verdict": verdict.verdict,
        "growth_slope": verdict.growth_slope,
    }
    trace_target, summary_target = prepare()
    sim.write_trace_csv(stats, trace_target)
    _write_json(summary_target, summary)


def cmd_sweep(cfg, inst, prepare, scheduler, seeds, lambdas, horizon, slope_threshold,
              sample_interval) -> None:
    """Sweep a load grid; write sweep.csv and bracket.json."""
    sim.check_sample_count(horizon, sample_interval)
    scheduler = sched.build_scheduler(inst, scheduler)
    result = analysis.capacity_boundary_sweep(
        inst, scheduler, lambdas, horizon, seeds, slope_threshold, sample_interval
    )
    boundary = analysis.analytic_boundary(inst, scheduler)
    sweep_target, bracket_target = prepare()

    with open(sweep_target, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "seed", "verdict", "slope", "final_quarter_mean"])
        writer.writerows(
            [repr(c.lam), c.seed, c.verdict, repr(c.growth_slope), repr(c.final_quarter_mean)]
            for c in result.cells
        )
    _write_json(
        bracket_target,
        {
            "lambda_lo": result.lambda_lo,
            "lambda_hi": result.lambda_hi,
            "analytic_lambda_star": boundary,
            "lambdas": list(result.lambdas),
            "seeds": list(result.seeds),
        },
    )


def cmd_verify(cfg, inst, prepare, seed) -> int:
    """Cross-check analytic values against simulation; exit 1 on failure."""
    checks = analysis.verify(inst, cfg, seed)
    all_passed = all(c["passed"] for c in checks)
    (target,) = prepare()
    _write_json(target, {"all_passed": all_passed, "checks": checks})
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}")
    return 0 if all_passed else 1


# Each command's body, the files it writes in --out, and the top-level fields
# run reads first, in order, as config_field(cfg, key, kind[, default]) and passes
# as body(cfg, inst, prepare, **fields). A command reading 'seed' or 'seeds' takes
# --seed-override N: 'seed' becomes N, and 'seeds' N, N+1, ...
_COMMANDS = {
    "capacity": (cmd_capacity, ("capacity.json",), {}),
    "simulate": (cmd_simulate, ("trace.csv", "summary.json"), {
        "scheduler": ("object",),
        "seed": ("seed", 0),
        "horizon": ("count",),
        "sample_interval": ("count", sim.SAMPLE_INTERVAL),
    }),
    "sweep": (cmd_sweep, ("sweep.csv", "bracket.json"), {
        "scheduler": ("object",),
        "seeds": ("seeds",),
        "lambdas": ("loads",),
        "horizon": ("count",),
        "slope_threshold": ("positive", None),
        "sample_interval": ("count", sim.SAMPLE_INTERVAL),
    }),
    "verify": (cmd_verify, ("verify.json",), {"seed": ("seed", 0)}),
}

# Not API: the benchmark launcher still calls the click-style
# ``main.main(args=..., prog_name=..., standalone_mode=False)``.
main.main = lambda args, **_: sys.exit(run(args))

if __name__ == "__main__":
    main()
