"""Run one expertq CLI command in this fresh interpreter and report on it.

    python3 benchmarks/launch.py REPORT.json [--cut NAME]... -- sweep cfg.json --out DIR
    python3 benchmarks/launch.py REPORT.json --trace RUN_ID [--memory] -- ...

``expertq`` must be importable (``PYTHONPATH=src``). The command runs
through the CLI's own entry point, in-process, so untraced and traced
launches run the same program.

Untraced, only entry timers are installed: the monotonic time of the
first call to any ``--cut`` function (where set-up ends) and the time and
slots spent inside ``sim.run``. Nothing runs per slot or per arrival.
Traced, the execution of ``scipy.optimize``'s module body (nested imports
included) is timed whenever it is imported, every layer is wrapped (see
``spans.py``) and the report carries the spans and the per-layer metrics.

The report is written when the command ends; the exit code is the
command's.
"""

from __future__ import annotations

import argparse
import importlib.abc
import json
import sys
import time
from pathlib import Path


def _parse(argv: list[str]) -> tuple[argparse.Namespace, list[str]]:
    if "--" not in argv:
        raise SystemExit(__doc__)
    split = argv.index("--")
    parser = argparse.ArgumentParser(usage=__doc__)
    parser.add_argument("report", type=Path)
    parser.add_argument("--cut", action="append", default=[])
    parser.add_argument("--trace", type=int, metavar="RUN_ID")
    parser.add_argument("--memory", action="store_true")
    return parser.parse_args(argv[:split]), argv[split + 1 :]


def _run_cli(cli, command: list[str]) -> int:
    import click

    try:
        cli.main.main(args=command, prog_name="expertq", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    return 0


class ImportTimer(importlib.abc.MetaPathFinder):
    """Times the execution of one module's body, nested imports included,
    whenever it is imported."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None and spec.loader is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def timed_exec(module):
            t0 = time.perf_counter()
            try:
                exec_module(module)
            finally:
                self.seconds += time.perf_counter() - t0

        spec.loader.exec_module = timed_exec
        return spec


def _install_entry_timers(cuts: list[str], report: dict) -> None:
    from spans import bind_everywhere

    sim = sys.modules["expertq.sim"]
    report.update(cut_ns=None, sim_s=0.0, sim_slots=0)

    def mark(fn):
        def first_call(*args, **kwargs):
            if report["cut_ns"] is None:
                report["cut_ns"] = time.monotonic_ns()
            return fn(*args, **kwargs)

        return first_call

    def timed_run(run):
        def timed(config):
            t0 = time.perf_counter()
            try:
                return run(config)
            finally:
                report["sim_s"] += time.perf_counter() - t0
                report["sim_slots"] += int(config.horizon)

        return timed

    bind_everywhere(sim.run, timed_run(sim.run))
    for name in cuts:
        layer, attr = name.split(".")
        fn = getattr(sys.modules[f"expertq.{layer}"], attr)
        bind_everywhere(fn, mark(fn))


def main(argv: list[str]) -> int:
    args, command = _parse(argv)
    if args.trace is not None:
        import_timer = ImportTimer("scipy.optimize")
        sys.meta_path.insert(0, import_timer)
    t0 = time.perf_counter()
    import expertq  # noqa: F401  (the timed import)

    report: dict = {"import_s": time.perf_counter() - t0}
    from expertq import cli

    if args.trace is None:
        _install_entry_timers(args.cut, report)
        code = _run_cli(cli, command)
    else:
        from spans import Tracer

        tracer = Tracer(run_id=args.trace, memory=args.memory)
        tracer.install()
        root = tracer.open("cli.main")
        code = _run_cli(cli, command)
        tracer.close(root)
        layers = {**tracer.metrics(), "import.scipy_optimize_s": import_timer.seconds}
        report.update(spans=tracer.spans, layers=layers, problems=tracer.problems())
    report["exit_code"] = code
    args.report.write_text(json.dumps(report) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
