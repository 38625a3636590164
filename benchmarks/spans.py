"""Tracing for one expertq CLI command run in-process.

Every public function of the traced layers is replaced at every module
binding that holds it, so a call made through ``from .sim import run``
inside ``analysis`` is seen just like one made through ``sim.run`` in the
CLI. Each call records a span: name, start, end, parent span and run id.
Spans stay in memory until the command ends.

The per-arrival and per-slot callbacks (the scheduler's ``admit``,
``route`` and ``select`` and the streams made by ``RngStreams.from_seed``)
run millions of times, so they are wrapped on the objects each simulation
run actually uses and recorded as a count and a total per ``sim.run``
span. Their decisions are also recorded and replayed after the run, slot
by slot, to count busy expert-slots and completions independently of the
engine; :meth:`SimProbe.finish` cross-checks those counts exactly.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import tracemalloc
from time import perf_counter

LAYERS = ("model", "lp", "capacity", "sched", "rng", "sim", "analysis")
MIB = float(1 << 20)

# Callbacks the engine calls directly; the admission, routing and
# selection uniforms are drawn inside admit, route and select.
_ENGINE_CALLBACKS = (
    "sched.admit",
    "sched.route",
    "sched.select",
    "rng.uniforms.service",
    "rng.arrivals",
)

# Stream draws made inside a scheduler callback, so inside its timed window.
_NESTED = {
    "sched.admit": "rng.uniforms.admission",
    "sched.route": "rng.uniforms.routing",
    "sched.select": "rng.uniforms.selection",
}

# Instance loading and validation as the CLI calls them.
_LOADING = ("model.load_instance", "model.instance_from_dict", "model.validate_instance")


def bind_everywhere(original, replacement) -> None:
    """Point every ``expertq`` module attribute that holds ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "expertq" or name.startswith("expertq.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _timed(calls: dict, seconds: dict, name: str, fn, record=None):
    """Wrap a callback to count its calls and total their time. ``record``
    sees each call's arguments and result, outside the timed window."""
    calls[name] = 0
    seconds[name] = 0.0

    def timed(*args):
        t0 = perf_counter()
        out = fn(*args)
        seconds[name] += perf_counter() - t0
        calls[name] += 1
        if record is not None:
            record(args, out)
        return out

    return timed


def call_cost(n: int = 100_000) -> tuple[float, float, float]:
    """The tracer's own cost per wrapped callback, in seconds, measured on
    an empty callback: the part inside the callback's timed window, the
    part outside it, and the part outside it when the call is recorded.
    Each is the minimum over three tries."""

    def empty(*args):
        return None

    def per_call(fn) -> float:
        t0 = perf_counter()
        for i in range(n):
            fn(i)
        return (perf_counter() - t0) / n

    sink: list = []
    best = [math.inf] * 3
    for _ in range(3):
        plain = per_call(empty)
        t0 = perf_counter()
        for i in range(n):
            pass
        call = plain - (perf_counter() - t0) / n
        for k, record in ((1, None), (2, lambda args, out: sink.append(out))):
            seconds: dict = {}
            total = per_call(_timed({}, seconds, "empty", empty, record)) - plain
            inside = max(0.0, seconds["empty"] / n - call)
            best[0] = min(best[0], inside)
            best[k] = min(best[k], max(0.0, total - inside))
            sink.clear()
    return best[0], best[1], best[2]


def _public_functions(module):
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class _Stream:
    """Stands in for a ``UniformBuffer``: only ``next`` is ever called."""

    __slots__ = ("next",)

    def __init__(self, next_fn) -> None:
        self.next = next_fn


class _Arrivals:
    """Stands in for the arrival generator; times and sizes each block."""

    def __init__(self, gen, probe: "SimProbe") -> None:
        self._gen = gen
        self._probe = probe

    def random(self, size):
        t0 = perf_counter()
        block = self._gen.random(size)
        self._probe.on_arrival_block(block, perf_counter() - t0)
        return block

    def __getattr__(self, name):
        return getattr(self._gen, name)


class SimProbe:
    """Counters, timers and recorded decisions for one ``sim.run`` call."""

    def __init__(self, config, cost: tuple[float, float, float] = (0.0, 0.0, 0.0)) -> None:
        inst = config.instance
        self.cost = cost  # see call_cost()
        self.horizon = int(config.horizon)
        self.n = inst.n_experts
        self.n_topics = inst.n_topics
        # Same expression as the engine's arrival probabilities.
        self.probs = inst.arrivals.lam * inst.arrivals.pmf
        self.qprob = [[float(v) for v in e.success_prob] for e in inst.experts]
        self.kind = getattr(config.scheduler, "kind", None)
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.overhead_s = 0.0
        self.arrival_counts: list[int] = []
        self.arrival_draws = 0
        self.block_bytes = 0
        self.admits: list[bool] = []
        self.routes: list[int] = []
        # expert * n_topics + topic: one int per select keeps the recording
        # free of objects the garbage collector would have to traverse.
        self.selects: list[int] = []
        self.services: list[float] = []
        self._patched: list[tuple[object, str]] = []

    def instrument_scheduler(self, sched) -> None:
        m = self.n_topics
        recorders = {
            "admit": lambda args, out: self.admits.append(out),
            "route": lambda args, out: self.routes.append(out),
            "select": lambda args, out: self.selects.append(args[0] * m + out),
        }
        for method, record in recorders.items():
            fn = getattr(sched, method)
            setattr(sched, method, _timed(self.calls, self.seconds, f"sched.{method}", fn, record))
            self._patched.append((sched, method))

    def restore(self) -> None:
        for obj, attr in self._patched:
            delattr(obj, attr)
        self._patched.clear()

    def instrument_streams(self, streams) -> None:
        for purpose in ("admission", "routing", "selection", "service"):
            record = self._record_service if purpose == "service" else None
            name = f"rng.uniforms.{purpose}"
            timed = _timed(self.calls, self.seconds, name, getattr(streams, purpose).next, record)
            setattr(streams, purpose, _Stream(timed))
        self.calls["rng.arrivals"] = 0
        self.seconds["rng.arrivals"] = 0.0
        streams.arrivals = _Arrivals(streams.arrivals, self)

    def _record_service(self, args, out) -> None:
        self.services.append(out)

    def on_arrival_block(self, block, draw_s: float) -> None:
        self.calls["rng.arrivals"] += 1
        self.seconds["rng.arrivals"] += draw_s
        t0 = perf_counter()
        self.arrival_draws += block.size
        # The engine holds the float64 block and its boolean hit mask.
        self.block_bytes = max(self.block_bytes, block.nbytes + block.size)
        hits = (block < self.probs).reshape(block.shape[0], -1).sum(axis=1)
        self.arrival_counts.extend(int(v) for v in hits)
        self.overhead_s += perf_counter() - t0

    def replay(self) -> tuple[int, int, list[str]]:
        """Replay the recorded decisions slot by slot; return busy
        expert-slots, completions and any disagreement with the engine."""
        admits, routes, selects, services = self.admits, self.routes, self.selects, self.services
        totals = [0] * self.n
        busy = completions = 0
        ia = ir = k = 0
        try:
            for arrivals in self.arrival_counts:
                for _ in range(arrivals):
                    if admits[ia]:
                        totals[routes[ir]] += 1
                        ir += 1
                    ia += 1
                for i in range(self.n):
                    if not totals[i]:
                        continue
                    served, topic = divmod(selects[k], self.n_topics)
                    if served != i:
                        problem = f"replay: expert {served} served where {i} was next busy"
                        return busy, completions, [problem]
                    if services[k] < self.qprob[i][topic]:
                        totals[i] -= 1
                        completions += 1
                    k += 1
                    busy += 1
        except IndexError:
            problem = "replay: the engine made fewer decisions than its arrivals imply"
            return busy, completions, [problem]
        problems = []
        if (ia, ir, k, k) != (len(admits), len(routes), len(selects), len(services)):
            problems.append("replay: the engine made decisions its arrivals do not explain")
        return busy, completions, problems

    def finish(self, stats, run_s: float, child_span_s: float) -> dict:
        busy, completions, problems = self.replay()
        calls = self.calls
        arrivals = sum(self.arrival_counts)
        expected = {
            "sim.slots = horizon": (len(self.arrival_counts), self.horizon),
            "sim.arrivals = sched.admit_calls": (arrivals, calls["sched.admit"]),
            "sched.route_calls = sum(cum_arrivals)": (
                calls["sched.route"],
                int(stats.final_state.cum_arrivals.sum()),
            ),
            "sched.select_calls = rng.uniforms.service": (
                calls["sched.select"],
                calls["rng.uniforms.service"],
            ),
            "sched.select_calls = sim.busy_expert_slots": (calls["sched.select"], busy),
            "sim.completions = sum(cum_departures)": (
                completions,
                int(stats.final_state.cum_departures.sum()),
            ),
        }
        if self.kind == "routing":
            expected["rng.uniforms.routing = sched.route_calls"] = (
                calls["rng.uniforms.routing"],
                calls["sched.route"],
            )
        for label, (left, right) in expected.items():
            if left != right:
                problems.append(f"{label}: {left} != {right}")
        # The wrappers' own cost: inside a callback's window it inflates
        # that callback (and, for an unrecorded stream draw, the scheduler
        # callback it is made in); outside, it lands in the engine's self
        # time. The engine calls only recorded callbacks directly.
        inside, outside, outside_recorded = self.cost
        seconds = {name: s - calls[name] * inside for name, s in self.seconds.items()}
        seconds["rng.arrivals"] = self.seconds["rng.arrivals"]
        for outer, inner in _NESTED.items():
            seconds[outer] -= calls[inner] * (inside + outside)
        callback_s = sum(self.seconds[name] for name in _ENGINE_CALLBACKS)
        recorded = sum(calls[name] for name in _ENGINE_CALLBACKS if name != "rng.arrivals")
        tracer_s = recorded * outside_recorded
        return {
            "slots": len(self.arrival_counts),
            "arrivals": arrivals,
            "busy_expert_slots": busy,
            "completions": completions,
            "calls": dict(calls),
            "seconds": seconds,
            "arrival_draws": self.arrival_draws,
            "arrival_block_bytes": self.block_bytes,
            "run_s": run_s,
            "self_s": run_s - child_span_s - callback_s - self.overhead_s - tracer_s,
            "problems": problems,
        }


class Tracer:
    """Spans and per-run probes for one CLI command."""

    def __init__(self, run_id: int = 0, memory: bool = False) -> None:
        self.run_id = run_id
        # tracemalloc slows the primal grid by about half, so peak memory
        # is measured only when asked, in a launch whose times are unused.
        self.memory = memory
        self.spans: list[dict] = []
        self.sim_runs: list[dict] = []
        self.lp_vars = 0
        self.primal_points = 0
        self.primal_grid_bytes = 0
        self.primal_peak_bytes = 0
        self.geometric_trials = 0
        self.call_cost = (0.0, 0.0, 0.0)
        self._stack: list[int] = []
        self._probes: list[SimProbe] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": perf_counter(), "end": None, "parent": parent,
             "run": self.run_id}
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index]["end"] = perf_counter()
        self._stack.pop()

    def _children_s(self, index: int) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] == index)

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every public function of the traced layers everywhere it is
        bound. ``expertq`` and its modules must already be imported."""
        self.call_cost = call_cost()
        special = {
            "sim.run": self._sim_run,
            "capacity.multi_capacity_primal": self._primal,
            "capacity.simplex_grid": self._simplex_grid,
            "lp.solve_lp": self._solve_lp,
            "sim.geometric_service_check": self._geometric,
        }
        for layer in LAYERS:
            module = sys.modules[f"expertq.{layer}"]
            for attr, fn in list(_public_functions(module)):
                name = f"{layer}.{attr}"
                inner = special[name](fn) if name in special else fn
                bind_everywhere(fn, self._spanned(name, inner))
        rng = sys.modules["expertq.rng"]
        from_seed = rng.RngStreams.from_seed.__func__

        def traced_from_seed(cls, seed):
            streams = from_seed(cls, seed)
            if self._probes:
                self._probes[-1].instrument_streams(streams)
            return streams

        rng.RngStreams.from_seed = classmethod(traced_from_seed)

    def _sim_run(self, run):
        def probed(config):
            probe = SimProbe(config, self.call_cost)
            probe.instrument_scheduler(config.scheduler)
            self._probes.append(probe)
            index = self._stack[-1]  # the enclosing sim.run span
            t0 = perf_counter()
            try:
                stats = run(config)
            finally:
                run_s = perf_counter() - t0
                self._probes.pop()
                probe.restore()
            self.sim_runs.append(probe.finish(stats, run_s, self._children_s(index)))
            return stats

        return probed

    def _primal(self, primal):
        def measured(p_merged, experts, resolution, *args, **kwargs):
            k = max(1, round(1.0 / resolution))
            n = len(experts)
            self.primal_points += math.comb(k + n - 1, n - 1)
            if not self.memory:
                return primal(p_merged, experts, resolution, *args, **kwargs)
            tracemalloc.start()
            try:
                return primal(p_merged, experts, resolution, *args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self.primal_peak_bytes = max(self.primal_peak_bytes, peak)
                tracemalloc.stop()

        return measured

    def _simplex_grid(self, simplex_grid):
        def measured(*args, **kwargs):
            grid = simplex_grid(*args, **kwargs)
            self.primal_grid_bytes = max(self.primal_grid_bytes, grid.nbytes)
            return grid

        return measured

    def _solve_lp(self, solve_lp):
        def measured(lp):
            self.lp_vars += lp.n_vars
            return solve_lp(lp)

        return measured

    def _geometric(self, check):
        def measured(q_val, trials, rng):
            self.geometric_trials += int(trials)
            return check(q_val, trials, rng)

        return measured

    # -- results -----------------------------------------------------------
    def problems(self) -> list[str]:
        return [p for run in self.sim_runs for p in run["problems"]]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced command (see benchmarks/README.md)."""
        spans = self.spans

        def duration(s):
            return s["end"] - s["start"]

        def total(name):
            return sum(duration(s) for s in spans if s["name"] == name)

        def count(name):
            return sum(1 for s in spans if s["name"] == name)

        roots = [i for i, s in enumerate(spans) if s["parent"] is None and s["name"] == "cli.main"]
        root = roots[0] if roots else None
        runs = self.sim_runs

        def run_sum(key):
            return sum(r[key] for r in runs)

        def call_sum(name, key="calls"):
            return sum(r[key].get(name, 0) for r in runs)

        sweeps = {
            i for i, s in enumerate(spans) if s["name"] == "analysis.capacity_boundary_sweep"
        }

        def under_sweep(name):
            return [duration(s) for s in spans if s["name"] == name and s["parent"] in sweeps]

        cell_runs = under_sweep("sim.run")
        cell_classify = under_sweep("analysis.classify_stability")
        cells = [r + c for r, c in zip(cell_runs, cell_classify)]
        busy = run_sum("busy_expert_slots")
        events = run_sum("arrivals") + busy
        run_s = total("sim.run")
        primal_s = total("capacity.multi_capacity_primal")
        m = {
            "model.load_s": sum(
                duration(s) for s in spans if s["parent"] == root and s["name"] in _LOADING
            ),
            "lp.solve_calls": count("lp.solve_lp"),
            "lp.vars": self.lp_vars,
            "lp.solve_s": total("lp.solve_lp"),
            "capacity.dual_s": total("capacity.multi_capacity_dual"),
            "capacity.primal_s": primal_s,
            "capacity.primal_points": self.primal_points,
            "capacity.primal_points_per_s": self.primal_points / primal_s if primal_s else 0.0,
            "capacity.primal_grid_bytes": self.primal_grid_bytes,
            "sched.admit_calls": call_sum("sched.admit"),
            "sched.route_calls": call_sum("sched.route"),
            "sched.select_calls": call_sum("sched.select"),
            "sched.admit_s": call_sum("sched.admit", "seconds"),
            "sched.route_s": call_sum("sched.route", "seconds"),
            "sched.select_s": call_sum("sched.select", "seconds"),
            "rng.arrival_draws": run_sum("arrival_draws"),
            "rng.arrival_draw_s": call_sum("rng.arrivals", "seconds"),
            "rng.arrival_block_bytes": max((r["arrival_block_bytes"] for r in runs), default=0),
            "sim.slots": run_sum("slots"),
            "sim.arrivals": run_sum("arrivals"),
            "sim.busy_expert_slots": busy,
            "sim.completions": run_sum("completions"),
            "sim.service_success_ratio": run_sum("completions") / busy if busy else 0.0,
            "sim.run_s": run_s,
            "sim.self_s": run_sum("self_s"),
            "sim.ns_per_event": 1e9 * run_s / events if events else 0.0,
            "sim.geometric_s": total("sim.geometric_service_check"),
            "sim.geometric_trials": self.geometric_trials,
            "sim.write_s": total("sim.write_trace_csv"),
            "analysis.sweep_cells": len(cell_runs),
            "analysis.cell_s_p50": statistics.median(cells) if cells else 0.0,
            "analysis.classify_s": total("analysis.classify_stability"),
            "cli.self_s": (
                duration(spans[root]) - self._children_s(root) if root is not None else 0.0
            ),
        }
        for purpose in ("admission", "routing", "selection", "service"):
            m[f"rng.uniforms.{purpose}"] = call_sum(f"rng.uniforms.{purpose}")
        if self.memory:
            m["capacity.primal_peak_mb"] = self.primal_peak_bytes / MIB
        return m
