"""The three benchmark workloads: inputs, one timed pass, output checks.

Each workload draws fresh inputs for every pass from the run's
generator, so nothing one pass computes can be reused by the next, just
as a new CLI process could not reuse it.  ``run`` is the timed region
and returns (result, seconds) for each operation, in a fixed order;
``check`` runs after it and returns one problem string per failed
operation.  An operation is one CLI invocation (``figures``,
``montecarlo``) or one library call (``exact-pump``).  ``layers`` names
the package layers a pass enters.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import io
import time
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

CLI_OUTPUT_FLAGS = ("--output", "--dump-trajectory")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Invoke the xypurify CLI in this process; return its exit code and stderr.

    Only the process start-up a shell would add is left out; exceptions
    other than the CLI's own exits propagate.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            importlib.import_module("xypurify.cli").main.main(
                args=argv, prog_name="xypurify", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _call(fn, *args, **kwargs) -> tuple[object, float]:
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # recorded as a failed operation, not raised
        result = exc
    return result, time.perf_counter() - t0


def _cli_problem(argv, result) -> str | None:
    if isinstance(result, Exception):
        return f"{argv[0]}: raised {result!r}"
    code, err = result
    if code != 0:
        return f"{argv[0]}: exit {code}: {err.strip()[-300:]}"
    return None


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def _close(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol))


class Figures:
    """The commands of scripts/make_figure_data.py, through the CLI."""

    name = "figures"
    item = "output file"
    layers = ("states", "rounds", "pumping", "cnot", "cavity", "cli")
    FIG5B_CHUNKS = 8

    def __init__(self, out: Path):
        self.out = out

    def draw(self, rng: np.random.Generator) -> dict:
        u = rng.uniform
        return {
            "f_a": u(0.74, 0.76),
            "b": (u(0.54, 0.56), u(0.94, 0.96)),
            "c": (u(0.49, 0.51), u(0.99, 1.0)),
            "fig6": (u(0.54, 0.56), u(0.94, 0.96)),
            "delta": float(rng.choice((-1.0, 1.0)) * u(48.0, 52.0)),
        }

    def commands(self, p: dict) -> list[tuple[list[str], object]]:
        """(argv, check) per CLI invocation of one pass.

        ``fig5 -b`` runs its 41-point grid as FIG5B_CHUNKS invocations over
        consecutive points: the same rows and work, in operations short
        enough for their fastest time to stay steady on a loaded machine.
        """
        o = self.out
        grid = np.linspace(*p["b"], 41)
        cmds = [(["fig5", "--panel", "a", f"--f={p['f_a']!r}",
                  "--output", str(o / "fidelity_vs_time.csv")], self._fig5a)]
        for k, idx in enumerate(np.array_split(np.arange(len(grid)), self.FIG5B_CHUNKS)):
            out = o / f"scheme_comparison_{k}.csv"
            cmds.append((["fig5", "--panel", "b", f"--f-min={float(grid[idx[0]])!r}",
                          f"--f-max={float(grid[idx[-1]])!r}", "--f-steps", str(len(idx)),
                          "--output", str(out)],
                         functools.partial(self._fig5b, out, grid[idx])))
        cmds += [
            (["fig5", "--panel", "c", f"--f-min={p['c'][0]!r}", f"--f-max={p['c'][1]!r}",
              "--f-steps", "26", "--output", str(o / "round_map_surface.csv")], self._fig5c),
            (["fig6", f"--f-min={p['fig6'][0]!r}", f"--f-max={p['fig6'][1]!r}",
              "--f-steps", "41", "--n-max", "10",
              "--output", str(o / "pumping_saturation.csv")], self._fig6),
            (["validate-cavity", f"--delta={p['delta']!r}", "--ell", "1.0",
              "--output", str(o / "cavity_validation.json"),
              "--dump-trajectory", str(o / "cavity_trajectory.csv")], self._cavity),
        ]
        return cmds

    def run(self, p: dict) -> list:
        return [_call(run_cli, argv) for argv, _ in self.commands(p)]

    def items(self, p: dict) -> int:
        return sum(argv.count(flag) for argv, _ in self.commands(p)
                   for flag in CLI_OUTPUT_FLAGS)

    def check(self, p: dict, results: list) -> tuple[int, list[str]]:
        problems = []
        for (argv, verify), result in zip(self.commands(p), results):
            problem = _cli_problem(argv, result)
            if problem is None:
                try:
                    problem = verify(p)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problem = f"unreadable output: {exc!r}"
            if problem:
                problems.append(f"{' '.join(argv[:3])}: {problem}")
        return len(results), problems

    def _fig5a(self, p):
        _, t = _read_csv(self.out / "fidelity_vs_time.csv")
        expect = [ref.round_fidelity_at(jt, p["f_a"]) for jt in t[:, 0]]
        if len(t) != 121 or not _close(t[:, 0], np.linspace(0, math.pi / 2, 121), 1e-11):
            return "time grid differs"
        if not _close(t[:, 1], expect, 1e-9):
            return "fidelity differs from the closed form"

    @staticmethod
    def _fig5b(path, grid, p):
        _, t = _read_csv(path)
        if len(t) != len(grid) or not _close(t[:, 0], grid, 1e-11):
            return "f grid differs"
        f, xy, cnot, two = t.T
        if not _close(xy, [ref.round_map(x, x)[0] for x in f], 1e-9):
            return "xy_one_round differs from closed_form_general(f, f)"
        if not _close(cnot, [ref.cnot_fidelity(x) for x in f], 1e-9):
            return "cnot_one_round differs from the closed form"
        if not (np.all(xy > cnot) and np.all(two > cnot) and np.all(two <= 1.0)):
            return "rows out of order: need xy > cnot and cnot < two rounds <= 1"

    def _fig5c(self, p):
        _, t = _read_csv(self.out / "round_map_surface.csv")
        grid = np.linspace(*p["c"], 26)
        if len(t) != 26 * 26 or not _close(t[:, :2], [(a, b) for a in grid for b in grid],
                                           1e-11):
            return "(f, f') grid differs"
        if not _close(t[:, 2], [ref.round_map(a, b)[0] for a, b in t[:, :2]], 1e-9):
            return "fidelity differs from closed_form_general"

    def _fig6(self, p):
        _, t = _read_csv(self.out / "pumping_saturation.csv")
        grid = np.linspace(*p["fig6"], 41)
        if len(t) != 41 * 10:
            return f"{len(t)} rows, expected 410"
        for k, f in enumerate(grid):
            rows = t[10 * k:10 * (k + 1)]
            fs, ps = np.array(ref.pump_sequence(f, 10)).T
            xstar = ref.fixed_point(f)
            if not (_close(rows[:, 0], f, 1e-11) and _close(rows[:, 1], range(1, 11), 0)):
                return f"row keys differ at f={f}"
            if not (_close(rows[:, 2], fs, 1e-9) and _close(rows[:, 5], ps, 1e-9)
                    and _close(rows[:, 3], fs - f, 1e-9)
                    and _close(rows[:, 4], np.diff(fs, prepend=f), 1e-9)):
                return f"pump columns differ from the recurrence at f={f}"
            if not _close(rows[:, 6], xstar, 1e-9):
                return f"fixed_point differs at f={f}"
            prev = np.concatenate(([f], rows[:-1, 2]))
            rising = rows[:, 2] > prev
            below = xstar - prev > 1e-9
            if not (np.all(rising[below]) and np.all(rows[:, 2] <= xstar + 1e-9)):
                return f"F_n not increasing below the fixed point at f={f}"

    def _cavity(self, p):
        rep = json.loads((self.out / "cavity_validation.json").read_text(encoding="utf-8"))
        agree = rep["agreement"]
        if rep["geometry"]["delta_over_g0"] != p["delta"]:
            return "geometry echoes another detuning"
        if not agree["max_photon_population"] <= agree["photon_population_bound"]:
            return "photon population above its bound"
        if abs(agree["c12_numeric"] - 1.0) > 1e-6:
            return f"c12_numeric = {agree['c12_numeric']!r}, expected 1"
        if not 0.4 < rep["distance_halving_ratio"] < 0.6:
            return f"distance halving ratio {rep['distance_halving_ratio']!r}"
        if not (agree["distance_full_mean"] < 0.05 and agree["distance_full_effective"] < 1e-3
                and agree["distance_mean_corrected_xy"] < 1e-10 and agree["adiabatic"]):
            return "agreement distances out of bounds"
        _, t = _read_csv(self.out / "cavity_trajectory.csv")
        amps = t[:, 1:9:2] + 1j * t[:, 2:9:2]
        if len(t) < 100 or t[0, 0] != 0.0 or not _close(amps[0], [0, 1, 0, 0], 1e-12):
            return "trajectory does not start in the conveyed-atom excitation"
        if not (_close(np.linalg.norm(amps, axis=1), 1.0, 1e-6)
                and _close(t[:, 9], np.abs(amps[:, 0]) ** 2, 1e-9)
                and t[:, 9].max() <= agree["photon_population_bound"]):
            return "trajectory norm or photon population out of bounds"


class ExactPump:
    """Library calls into the six-qubit engine on fresh fidelities."""

    name = "exact-pump"
    item = "stored-pair purification round"
    layers = ("states", "xy", "rounds", "pumping")
    FIDELITIES = 3       # per pass
    PUMP_ROUNDS = 10
    STORED_PAIRS = 4     # random Bell-diagonal stored pairs per fidelity

    def __init__(self, out: Path):
        self.pumping = importlib.import_module("xypurify.pumping")
        self.rounds = importlib.import_module("xypurify.rounds")
        self.states = importlib.import_module("xypurify.states")

    def draw(self, rng: np.random.Generator) -> list:
        fs = rng.uniform(0.55, 0.95, self.FIDELITIES)
        return [(float(f), [self.states.random_bell_diagonal(rng, labels=(3, 6))
                            for _ in range(self.STORED_PAIRS)]) for f in fs]

    def run(self, p: list) -> list:
        rounds = self.rounds
        t = rounds.operational_time(1.0).t
        out = []
        for f, stored in p:
            out.append(_call(self.pumping.pump, f, self.PUMP_ROUNDS, mode="simulation"))
            out.append(_call(rounds.bootstrap_round, f, t))
            out.extend(_call(self._stored_round, f, s, t) for s in stored)
        return out

    def _stored_round(self, f, stored, t):
        rounds = self.rounds
        return rounds.run_round(rounds.RoundInput(f=f, stationary_state=stored, t0=t))

    def items(self, p: list) -> int:
        return len(p) * (self.PUMP_ROUNDS + 1 + self.STORED_PAIRS)

    def check(self, p: list, results: list) -> tuple[int, list[str]]:
        problems = []
        it = iter(results)
        for f, stored in p:
            ops = [("pump", self._pump, ()),
                   ("bootstrap_round", self._round, (ref.STATE_00, False))]
            ops += [("run_round", self._round, (s.matrix, True)) for s in stored]
            for (label, verify, args), result in zip(ops, it):
                problem = (f"raised {result!r}" if isinstance(result, Exception)
                           else verify(f, *args, result))
                if problem:
                    problems.append(f"{label}(f={f!r}): {problem}")
        return len(results), problems

    def _pump(self, f, trace):
        sim = trace.rounds
        cf = ref.pump_sequence(f, self.PUMP_ROUNDS)
        if len(sim) != self.PUMP_ROUNDS:
            return f"{len(sim)} rounds, expected {self.PUMP_ROUNDS}"
        for r, (fc, pc) in zip(sim[:2], cf):
            if abs(r.fidelity - fc) > 1e-9 or abs(r.success_probability - pc) > 1e-9:
                return f"round {r.n} differs from the closed form"
        drift = [r.fidelity - fc for r, (fc, _) in zip(sim[2:], cf[2:])]
        if not all(-1e-9 < d < 5e-3 for d in drift):
            return f"drift from the scalar recurrence outside [0, 5e-3): {max(drift)!r}"
        if abs(trace.fixed_point - ref.fixed_point(f)) > 1e-9:
            return "fixed point differs"
        if trace.n_optimal != ref.optimal_rounds(f):
            return "optimal round count differs"
        state = ref.werner_matrix(f)
        for r in sim:
            prob, state = ref.oracle_round(f, state)
            if (abs(prob - r.success_probability) > 1e-9
                    or abs(ref.phi_plus_fidelity(state) - r.fidelity) > 1e-9):
                return f"round {r.n} differs from the six-qubit oracle"

    @staticmethod
    def _round(f, stored, bell_diagonal, result):
        prob, post = ref.oracle_round(f, stored)
        if abs(result.success_probability - prob) > 1e-9:
            return "success probability differs from the six-qubit oracle"
        if not _close(result.post_state.matrix, post, 1e-9):
            return "post-selected state differs from the six-qubit oracle"
        if bell_diagonal and ref.bell_off_diagonal(result.post_state.matrix) > 1e-10:
            return "post-selected state is not Bell-diagonal"


class MonteCarlo:
    """The ``montecarlo`` CLI command on two seeded configs per pass."""

    name = "montecarlo"
    item = "protocol trial"
    layers = ("rounds", "pumping", "montecarlo", "cli")
    # trial counts keep each command near 20 ms: on a loaded machine the
    # fastest time of an operation stays steady only if it is short
    TRIALS_ROUNDS = 200      # target_rounds config: few attempts per trial
    TRIALS_FIDELITY = 80     # target_fidelity config: ~100 attempts per trial
    SLICE_TRIALS = 300       # trials of the untimed worker-count rerun
    HALFWIDTHS = 3.0         # 3 x 1.96 sigma

    def __init__(self, out: Path):
        self.out = out
        self.first: list[dict] | None = None

    def draw(self, rng: np.random.Generator) -> list[dict]:
        f_a, f_b = rng.uniform(0.74, 0.76, 2)
        seeds = rng.integers(0, 2 ** 31, 2)
        # a target between F_6 and F_7 (1e-4 to 5e-4 below the fixed point)
        # takes exactly 7 rounds, so every draw asks for the same work
        (f6, _), (f7, _) = ref.pump_sequence(f_b, 7)[-2:]
        configs = [
            {"schema_version": 1, "f": float(f_a), "target_rounds": 4,
             "p_inconclusive": 0.0, "seed": int(seeds[0]), "trials": self.TRIALS_ROUNDS},
            {"schema_version": 1, "f": float(f_b),
             "target_fidelity": f6 + rng.uniform(0.25, 0.75) * (f7 - f6),
             "p_inconclusive": 0.5, "seed": int(seeds[1]), "trials": self.TRIALS_FIDELITY},
        ]
        for k, cfg in enumerate(configs):
            (self.out / f"config_{k}.json").write_text(json.dumps(cfg), encoding="utf-8")
        if self.first is None:
            self.first = configs
        return configs

    def _argv(self, k: int, workers: int = 1, tag: str = "") -> list[str]:
        return ["montecarlo", "--config", str(self.out / f"config{tag}_{k}.json"),
                "--workers", str(workers), "--output", str(self.out / f"stats{tag}_{k}.json")]

    def run(self, p: list[dict]) -> list:
        return [_call(run_cli, self._argv(k)) for k in range(len(p))]

    def items(self, p: list[dict]) -> int:
        return sum(cfg["trials"] for cfg in p)

    def check(self, p: list[dict], results: list) -> tuple[int, list[str]]:
        problems = []
        for k, (cfg, result) in enumerate(zip(p, results)):
            problem = _cli_problem(self._argv(k), result)
            if problem is None:
                try:
                    problem = self._stats(cfg, json.loads(
                        (self.out / f"stats_{k}.json").read_text(encoding="utf-8")))
                except (OSError, ValueError, KeyError) as exc:
                    problem = f"unreadable output: {exc!r}"
            if problem:
                problems.append(f"montecarlo config {k}: {problem}")
        return len(results), problems

    def _stats(self, cfg: dict, out: dict) -> str | None:
        f, p_inc, trials = cfg["f"], cfg["p_inconclusive"], cfg["trials"]
        if "target_rounds" in cfg:
            probs = [p for _, p in ref.pump_sequence(f, cfg["target_rounds"])]
        else:
            probs = ref.rounds_to_reach(f, cfg["target_fidelity"])
        expected = sum(1.0 / (p * (1.0 - p_inc)) for p in probs)
        final = ref.pump_sequence(f, len(probs))[-1][0]
        analytic = out["expected_attempts_analytic"]
        if out["trials"] != trials or out["config"]["seed"] != cfg["seed"]:
            return "output echoes another config"
        if analytic is not None and abs(analytic - expected) > 1e-9 * expected:
            return f"expected_attempts_analytic {analytic!r} != {expected!r}"
        if abs(out["mean_attempts"] - expected) > self.HALFWIDTHS * out["attempts_halfwidth"]:
            return (f"mean_attempts {out['mean_attempts']!r} is more than "
                    f"{self.HALFWIDTHS} halfwidths from {expected!r}")
        if out["successes_by_round"] != [trials] * len(probs):
            return "successes_by_round does not count every trial in every round"
        if abs(sum(out["attempts_by_round"]) - out["mean_attempts"] * trials) > 1e-6 * trials:
            return "attempts_by_round does not add up to mean_attempts"
        if abs(out["mean_final_fidelity"] - final) > 1e-12:
            return "mean_final_fidelity differs from the pump recurrence"

    def final_check(self) -> tuple[int, list[str]]:
        """Untimed: the first pass's configs at SLICE_TRIALS, one worker vs two."""
        problems = []
        for k, cfg in enumerate(self.first):
            path = self.out / f"config_slice_{k}.json"
            path.write_text(json.dumps({**cfg, "trials": self.SLICE_TRIALS}), encoding="utf-8")
            outputs = []
            for workers in (1, 2):
                argv = self._argv(k, workers, "_slice")
                problem = _cli_problem(argv, _call(run_cli, argv)[0])
                if problem:
                    problems.append(f"worker check config {k}: {problem}")
                    break
                outputs.append((self.out / f"stats_slice_{k}.json").read_bytes())
            else:
                if outputs[0] != outputs[1]:
                    problems.append(f"worker check config {k}: --workers 2 output differs")
        return len(self.first), problems


WORKLOADS = {w.name: w for w in (Figures, ExactPump, MonteCarlo)}
