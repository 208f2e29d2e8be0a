"""Spans and counts at the boundaries of the xypurify modules.

The tracer records from outside the package: it replaces each layer's
public functions, in every module namespace that binds them, by a
wrapper that opens a span, and it wraps ``DensityMatrix.__init__``, the
``quad`` binding of ``cavity`` and the callback of every command of
``cli.main`` (the ``cli`` layer: what a command does once click has
parsed its arguments).  Nothing under ``src/`` changes.

Spans live in flat in-memory arrays (start, end, name, parent, pass)
and are written out once at the end.  A span's self time is its
duration minus the durations of its direct children; calls are
synchronous, so children never overlap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

PACKAGE = "xypurify"
LAYERS = ("states", "xy", "rounds", "pumping", "cnot", "cavity", "montecarlo", "cli")
CLOSED_FORMS = ("rounds.closed_form_general", "rounds.closed_form_fidelity",
                "rounds.closed_form_success")
INTEGRATIONS = ("cavity.integrate_full", "cavity.integrate_effective")
# the traced run stops starting passes beyond this many spans (32 B each)
MAX_SPANS = 1_500_000
# layer self times that leave more than this share of a traced pass's
# wall time unaccounted point to a call made outside any boundary
UNACCOUNTED_LIMIT = 0.03


# --- counts recorded at the boundaries ---------------------------------

def _count_dm(tracer, args, kwargs, result):
    if args[0].dim == 64:
        tracer.counts["states.dm64"] += 1


def _record_closed_form(name):
    def observe(tracer, args, kwargs, result):
        tracer.closed_form_args.add((name, args, tuple(sorted(kwargs.items()))))
    return observe


def _record_integration(name):
    def observe(tracer, args, kwargs, result):
        geom, initial = args[0], args[1] if len(args) > 1 else kwargs["initial"]
        if hasattr(initial, "vector"):
            initial = initial.vector()
        window = args[2] if len(args) > 2 else kwargs.get("window")
        key = (name, geom, np.asarray(initial, dtype=complex).tobytes(), window)
        tracer.integration_keys.add(key)
        tracer.counts["cavity.steps"] += len(result.times) - 1
    return observe


def _count_reported_rounds(tracer, args, kwargs, result):
    tracer.counts["cnot.reported_rounds"] += len(result.rounds)


def _count_attempts(tracer, args, kwargs, result):
    tracer.counts["montecarlo.attempts"] += result.rounds_attempted
    tracer.counts["montecarlo.successes"] += result.rounds_succeeded


def _count_cli_bytes(tracer, args, kwargs, result):
    for option in ("output", "dump_trajectory", "trials_csv"):
        path = kwargs.get(option)
        if path and os.path.exists(path):
            tracer.counts["cli.bytes_out"] += os.path.getsize(path)


OBSERVERS = {
    **{name: _record_closed_form(name) for name in CLOSED_FORMS},
    **{name: _record_integration(name) for name in INTEGRATIONS},
    "cnot.scheme_c_pump": _count_reported_rounds,
    "montecarlo.run_protocol": _count_attempts,
}


class Tracer:
    """Installs span wrappers around the layer boundaries of one process."""

    def __init__(self):
        self.starts, self.ends = array("q"), array("q")
        self.names, self.parents, self.passes = array("i"), array("i"), array("i")
        self.name_list: list[str] = []
        self.stack: list[int] = []
        self.pass_id = -1
        self.pass_walls: dict[int, int] = {}
        self.counts: Counter = Counter()
        self.closed_form_args: set = set()
        self.integration_keys: set = set()
        self.patches: list[tuple[object, str, object, object]] = []
        self.commands: list[str] = []
        self._plan()

    # -- installation --------------------------------------------------

    def _plan(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        wrapped: dict = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self._wrap(name, obj, OBSERVERS.get(name))
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        for ns in namespaces:
            for attr, obj in vars(ns).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    self.patches.append((ns, attr, obj, wrapped[obj]))
        cavity = modules["cavity"]
        if hasattr(cavity, "quad"):
            self.patches.append((cavity, "quad", cavity.quad,
                                 self._wrap("cavity.quad", cavity.quad, None)))
        dm = modules["states"].DensityMatrix
        self.patches.append((dm, "__init__", dm.__init__,
                             self._wrap("states.DensityMatrix", dm.__init__, _count_dm)))
        # click's argument parsing and dispatch stay outside every span
        for command, cmd in modules["cli"].main.commands.items():
            name = f"cli.{command}"
            self.commands.append(name)
            self.patches.append((cmd, "callback", cmd.callback,
                                 self._wrap(name, cmd.callback, _count_cli_bytes)))

    def _wrap(self, name, fn, observe):
        nid = len(self.name_list)
        self.name_list.append(name)
        starts, ends, names = self.starts, self.ends, self.names
        parents, passes, stack = self.parents, self.passes, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            passes.append(self.pass_id)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, args, kwargs, result)
                return result
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
        return traced

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        for ns, attr, _, wrapper in self.patches:
            setattr(ns, attr, wrapper)

    def end_pass(self, wall_ns: int) -> None:
        for ns, attr, original, _ in reversed(self.patches):
            setattr(ns, attr, original)
        self.pass_walls[self.pass_id] = wall_ns

    @property
    def full(self) -> bool:
        return len(self.starts) >= MAX_SPANS

    # -- analysis ------------------------------------------------------

    def _arrays(self):
        start = np.array(self.starts, dtype=np.int64)
        dur = np.array(self.ends, dtype=np.int64) - start
        parent = np.array(self.parents, dtype=np.int64)
        name = np.array(self.names, dtype=np.int64)
        pass_ = np.array(self.passes, dtype=np.int64)
        child = parent >= 0
        self_ns = dur - np.bincount(parent[child], weights=dur[child],
                                    minlength=len(dur))
        return dur, parent, name, pass_, self_ns

    def unaccounted(self) -> dict[int, float]:
        """Per traced pass: share of its wall time outside top-level spans.

        Self times over a pass sum to its top-level span durations, so
        this is one minus the share the layer self times account for.
        """
        dur, parent, _, pass_, _ = self._arrays()
        top = parent < 0
        covered = np.bincount(pass_[top], weights=dur[top],
                              minlength=max(self.pass_walls, default=0) + 1)
        return {p: 1.0 - covered[p] / wall for p, wall in self.pass_walls.items()}

    def idle_layers(self, layers) -> list[str]:
        """The given layers that no traced pass entered."""
        entered = {self.name_list[i].split(".")[0] for i in set(self.names)}
        return [layer for layer in layers if layer not in entered]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced pass; ratios over all passes."""
        n = max(len(self.pass_walls), 1)
        dur, _, name, _, self_ns = self._arrays()
        n_names = len(self.name_list)
        calls = np.bincount(name, minlength=n_names)
        own = np.bincount(name, weights=self_ns, minlength=n_names) / 1e9
        incl = np.bincount(name, weights=dur, minlength=n_names) / 1e9
        idx = {nm: i for i, nm in enumerate(self.name_list)}

        def total(arr, *names):
            return float(sum(arr[idx[nm]] for nm in names if nm in idx))

        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            members = [nm for nm in self.name_list if nm.split(".")[0] == layer]
            out[f"{layer}.calls"] = (total(calls, *members) / n, "count/pass")
            out[f"{layer}.self_s"] = (total(own, *members) / n, "s/pass")
        c = self.counts
        cf_calls = total(calls, *CLOSED_FORMS)
        n_int = total(calls, *INTEGRATIONS)
        n_cnot = total(calls, "cnot.cnot_round")
        n_trials = total(calls, "montecarlo.run_protocol")
        out.update({
            "states.density_matrices": (total(calls, "states.DensityMatrix") / n, "count/pass"),
            "states.dm64": (c["states.dm64"] / n, "count/pass"),
            "states.validate_s": (total(incl, "states.DensityMatrix") / n, "s/pass"),
            "xy.propagators": (total(calls, "xy.evolve_composite", "xy.evolve_triplet") / n,
                               "count/pass"),
            "rounds.run_round.calls": (total(calls, "rounds.run_round") / n, "count/pass"),
            "rounds.run_round.self_s": (total(own, "rounds.run_round") / n, "s/pass"),
            "rounds.closed_form.calls": (cf_calls / n, "count/pass"),
            "rounds.closed_form.unique_ratio": (ratio(len(self.closed_form_args), cf_calls),
                                                "ratio"),
            "pumping.fixed_point.calls": (total(calls, "pumping.fixed_point") / n, "count/pass"),
            "pumping.fixed_point.self_s": (total(own, "pumping.fixed_point") / n, "s/pass"),
            "cnot.cnot_round.calls": (n_cnot / n, "count/pass"),
            "cnot.useful_ratio": (ratio(c["cnot.reported_rounds"], n_cnot), "ratio"),
            "cavity.integrations": (n_int / n, "count/pass"),
            "cavity.steps": (c["cavity.steps"] / n, "count/pass"),
            "cavity.unique_ratio": (ratio(len(self.integration_keys), n_int), "ratio"),
            "cavity.integrate_s": (total(incl, *INTEGRATIONS) / n, "s/pass"),
            "cavity.quad_s": (total(incl, "cavity.quad") / n, "s/pass"),
            "montecarlo.trials": (n_trials / n, "count/pass"),
            "montecarlo.attempts": (c["montecarlo.attempts"] / n, "count/pass"),
            "montecarlo.success_ratio": (ratio(c["montecarlo.successes"],
                                               c["montecarlo.attempts"]), "ratio"),
            "cli.commands": (total(calls, *self.commands) / n, "count/pass"),
            "cli.bytes_out": (c["cli.bytes_out"] / n, "B/pass"),
            "trace.spans": (len(dur) / n, "count/pass"),
        })
        return out

    def write(self, path) -> None:
        """Write every span to a compressed .npz file."""
        dur, parent, name, pass_, self_ns = self._arrays()
        np.savez_compressed(
            path, start_ns=np.array(self.starts, dtype=np.int64),
            duration_ns=dur, self_ns=self_ns.astype(np.int64), parent=parent,
            name=name, pass_id=pass_, names=np.array(self.name_list))
