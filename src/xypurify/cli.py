"""Batch command-line front end.

Subcommands wrap the library analyses and emit CSV or JSON only; no
plotting.  All numeric CSV fields are written with 12 significant
digits and a '.' decimal separator regardless of locale.  Exit codes:
0 success, 2 input/validation error, 3 numeric failure; errors are
mirrored as one-line JSON on stderr.
"""
from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import asdict, fields
from itertools import chain
from typing import Iterable, Sequence

import click
import numpy as np

from . import cavity, cnot, montecarlo, pumping, rounds
from .errors import DomainError, XyPurifyError
from .states import werner

CONFIG_SCHEMA_VERSION = 1
MAX_ROWS = 10**6  # bound on a table built in memory, checked before its grid


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _emit_csv(header: Sequence[str], table: Iterable[Sequence], output: str | None) -> None:
    """Write a CSV table: to a file one line per row, to stdout in one piece.

    A row that raises while the file is written leaves a partial file, so
    a table whose rows call the library is built before this is called.
    """
    lines = (",".join(_fmt(v) for v in row) + "\n" for row in chain([header], table))
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        click.echo("".join(lines), nl=False)


def _finite_or_null(value):
    """Replace non-finite floats, which JSON cannot express, by None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _emit_json(payload: dict, output: str | None) -> None:
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            _fail(exc, code=2)
        except (ArithmeticError, RuntimeError) as exc:
            if isinstance(exc, XyPurifyError):
                _fail(exc, code=3)
            raise
    return wrapper


def _fail(exc: Exception, code: int) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(code)


@click.group()
def main() -> None:
    """Purification-protocol analyses as reproducible batch commands."""


@main.command("round")
@click.option("--f", "f", type=float, required=True,
              help="Fidelity of both conveyed pairs.")
@click.option("--fprime", type=float, required=True,
              help="Fidelity of the stored (stationary) Werner pair.")
@click.option("--jt0", type=float, default=None,
              help="Evolution time J*t0, in units J = 1 (either sign).")
@click.option("--at-T", "at_t", is_flag=True,
              help="Evolve for the operational time J*T = pi/3 (n + 1/2).")
@click.option("--n", "n_index", type=int, default=0, show_default=True,
              help="Index n of the operational time (with --at-T).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def cmd_round(f: float, fprime: float, jt0: float | None, at_t: bool,
              n_index: int, fmt: str, output: str | None) -> None:
    """Simulate one purification round and compare to the closed forms."""
    if (jt0 is None) == (not at_t):
        raise click.UsageError("specify exactly one of --jt0 / --at-T")
    if at_t:
        jt0 = rounds.operational_time(1.0, n_index).t
    stationary = werner(fprime)
    result = rounds.run_round(rounds.RoundInput(f=f, stationary_state=stationary,
                                                t0=jt0))
    at = rounds.closed_form_at(jt0, f)
    payload = {
        "f": f,
        "fprime": fprime,
        "jt0": jt0,
        "fidelity": result.fidelity,
        "success_probability": result.success_probability,
        "werner_deviation": result.werner_deviation,
        "closed_form_fidelity": at.fidelity,
        "closed_form_success": at.success_probability,
    }
    if at_t:
        general = rounds.closed_form_general(f, fprime)
        payload["closed_form_general_fidelity"] = general.fidelity
        payload["closed_form_general_success"] = general.success_probability
    if fmt == "json":
        _emit_json(payload, output)
    else:
        keys = sorted(payload)
        _emit_csv(keys, [[payload[k] for k in keys]], output)


def _float_grid(lo: float, hi: float, steps: int, rows: int) -> np.ndarray:
    """The grid of a table of ``rows`` rows, each built before any is written."""
    if steps < 2:
        raise click.UsageError("grid needs at least 2 steps")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"grid bounds must be finite, got {lo} and {hi}")
    if rows > MAX_ROWS:
        raise DomainError(f"the table would have {rows} rows, above the bound "
                          f"of {MAX_ROWS}")
    return np.linspace(lo, hi, steps)


@main.command("fig5")
@click.option("--panel", type=click.Choice(["a", "b", "c"]), required=True)
@click.option("--f", "f_fixed", type=float, default=0.75, show_default=True,
              help="Input fidelity for panel a.")
@click.option("--f-min", type=float, default=0.55, show_default=True)
@click.option("--f-max", type=float, default=0.95, show_default=True)
@click.option("--f-steps", type=int, default=41, show_default=True)
@click.option("--jt-max", type=float, default=math.pi / 2, show_default=True)
@click.option("--jt-steps", type=int, default=121, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def cmd_fig5(panel: str, f_fixed: float, f_min: float, f_max: float,
             f_steps: int, jt_max: float, jt_steps: int,
             output: str | None) -> None:
    """Single-round fidelity sweeps: vs time (a), vs baseline (b), vs f,f' (c)."""
    if panel == "a":
        grid = _float_grid(0.0, jt_max, jt_steps, jt_steps)
        table = [(jt, rounds.closed_form_at(jt, f_fixed).fidelity) for jt in grid]
        _emit_csv(["jt0", "fidelity"], table, output)
    elif panel == "b":
        grid = _float_grid(f_min, f_max, f_steps, f_steps)
        table = [(r.f, r.xy_one_round, r.cnot_one_round, r.scheme_c_two_rounds)
                 for r in cnot.comparison_table(grid)]
        _emit_csv(["f", "xy_one_round", "cnot_one_round", "scheme_c_two_rounds"],
                  table, output)
    else:
        grid = _float_grid(f_min, f_max, f_steps, f_steps ** 2)
        table = [(f, fp, rounds.closed_form_general(f, fp).fidelity)
                 for f in grid for fp in grid]
        _emit_csv(["f", "fprime", "fidelity"], table, output)


@main.command("fig6")
@click.option("--f-min", type=float, default=0.55, show_default=True)
@click.option("--f-max", type=float, default=0.95, show_default=True)
@click.option("--f-steps", type=int, default=41, show_default=True)
@click.option("--n-max", type=int, default=10, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def cmd_fig6(f_min: float, f_max: float, f_steps: int, n_max: int,
             output: str | None) -> None:
    """Pumping saturation table over (f, n), incl. n = 1 and n = 4 rows."""
    if n_max < 4:
        raise click.UsageError("n-max must be at least 4 for the comparison rows")
    grid = _float_grid(f_min, f_max, f_steps, f_steps * n_max)
    table = [(t.f, r.n, r.fidelity, r.fidelity - t.f, r.delta,
              r.success_probability, t.fixed_point)
             for t in (pumping.pump(f, n_max) for f in grid) for r in t.rounds]
    _emit_csv(["f", "n", "F_n", "F_hat", "F_bar", "P_succ", "fixed_point"],
              table, output)


@main.command("validate-cavity")
@click.option("--delta", type=float, required=True,
              help="Detuning ratio Delta/g0 (sign allowed).")
@click.option("--ell", type=float, required=True,
              help="Trapped-atom offset in units of the waist w.")
@click.option("--v", type=float, default=0.5, show_default=True,
              help="Conveyor velocity in units of w*g0.")
@click.option("--d", "d_override", type=float, default=None,
              help="Pair spacing in units of w (default: solve for C12 = 1).")
@click.option("--force", is_flag=True,
              help="Run even when the adiabaticity condition fails.")
@click.option("--dump-trajectory", type=click.Path(dir_okay=False), default=None,
              help="Write the exact-dynamics trajectory CSV here.")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def cmd_validate_cavity(delta: float, ell: float, v: float,
                        d_override: float | None, force: bool,
                        dump_trajectory: str | None,
                        output: str | None) -> None:
    """Check the microscopic-to-ring-exchange reduction for one geometry."""
    d = d_override if d_override is not None else cavity.solve_geometry(ell)
    geom = cavity.CavityGeometry(ell=ell, d=d, v=v, delta=delta)
    if not geom.adiabatic and not force:
        raise cavity.GeometryError(
            f"detuning ratio |delta|/g0 = {abs(delta):.4g} is below the "
            f"adiabatic minimum {cavity.ADIABATIC_RATIO_MIN:.4g}; the effective "
            "dynamics is not trustworthy here (pass --force to run anyway)")
    # one integration per detuning: convergence_study checks the 2 delta geometry
    # before it integrates; the exact run at delta feeds the report and the dump
    [(_, doubled)] = cavity.convergence_study(geom, (2.0,))
    full = cavity.integrate_full(geom, np.array([0.0, 1.0, 0.0, 0.0], dtype=complex))
    report = cavity.xy_agreement(geom, full=full)
    couplings = cavity.asymptotic_hamiltonian(geom)
    dist = report.distance_full_mean
    ratio = doubled / dist if dist > 0 else float("nan")
    payload = {
        "geometry": {
            "delta_over_g0": delta, "ell_over_w": ell, "d_over_w": d,
            "v_over_w_g0": v, "adiabatic": geom.adiabatic,
            "j_effective": geom.j_effective, "t_prime": geom.t_prime,
        },
        "c_matrix": [[float(x) for x in row] for row in couplings.c_matrix],
        "c_matrix_max_rel_error": couplings.max_rel_error,
        "agreement": {**asdict(report), "c12_numeric": float(couplings.c_matrix[0, 1])},
        "distance_halving_ratio": ratio,
    }
    if dump_trajectory:
        header = ["t", "re_c0", "im_c0", "re_c1", "im_c1", "re_c2", "im_c2",
                  "re_c3", "im_c3", "photon_population"]
        table = (
            [t, c[0].real, c[0].imag, c[1].real, c[1].imag,
             c[2].real, c[2].imag, c[3].real, c[3].imag, abs(c[0]) ** 2]
            for t, c in zip(full.times, full.amplitudes)
        )
        _emit_csv(header, table, dump_trajectory)
    _emit_json(payload, output)


@main.command("montecarlo")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="JSON configuration file.")
@click.option("--trials-csv", type=click.Path(dir_okay=False), default=None,
              help="Write per-trial attempt counts here.")
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def cmd_montecarlo(config_path: str, trials_csv: str | None, workers: int,
                   output: str | None) -> None:
    """Run seeded protocol trials from a JSON config and emit JSON stats."""
    with open(config_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise montecarlo.ConfigurationError("config must be a JSON object")
    version = raw.pop("schema_version", None)
    if isinstance(version, bool) or version != CONFIG_SCHEMA_VERSION:
        raise montecarlo.ConfigurationError(
            f"config schema_version must be {CONFIG_SCHEMA_VERSION}, got {version!r}")
    # ProtocolConfig checks every field, simulate_batch the trial count
    unknown = set(raw) - {f.name for f in fields(montecarlo.ProtocolConfig)} - {"trials"}
    if unknown:
        raise montecarlo.ConfigurationError(
            f"unknown config keys: {sorted(unknown)}")
    trials = raw.pop("trials", 1000)
    config = montecarlo.ProtocolConfig(**raw)
    batch = montecarlo.simulate_batch(config, trials, workers=workers)
    click.echo(
        f"trials={batch.trials} mean_attempts={batch.mean_attempts:.6g} "
        f"mean_final_fidelity={batch.mean_final_fidelity:.9g}",
        err=True,
    )
    payload = {
        "config": {**raw, "trials": trials, "schema_version": CONFIG_SCHEMA_VERSION},
        "trials": batch.trials,
        "mean_attempts": batch.mean_attempts,
        "attempts_halfwidth": batch.attempts_halfwidth,
        "mean_time": batch.mean_time,
        "time_halfwidth": batch.time_halfwidth,
        "mean_final_fidelity": batch.mean_final_fidelity,
        "attempts_by_round": list(batch.attempts_by_round),
        "successes_by_round": list(batch.successes_by_round),
        "expected_attempts_analytic": (
            montecarlo.expected_attempts(config.f, config.target_rounds,
                                         config.p_inconclusive)
            if config.target_rounds is not None else None),
    }
    _emit_json(payload, output)
    if trials_csv:
        _emit_csv(["trial", "attempts"],
                  enumerate(batch.attempts_per_trial), trials_csv)


if __name__ == "__main__":
    main()
