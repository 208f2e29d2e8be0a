"""Import costs, checked in fresh interpreters.

The other test modules import scipy (the reference the cavity tests
compare against) before any test runs, so only a new interpreter shows
what a plain ``import xypurify`` or a command loads.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xypurify

SRC = Path(__file__).resolve().parents[1] / "src"
# numpy.random: a montecarlo run imports it when it draws, so that no
# other command pays its ~11 ms import
HEAVY = ("scipy", "concurrent.futures.process", "numpy.random")
CAVITY_NAMES = (
    "AgreementReport", "AsymptoticCouplings",
    "CavityGeometry", "Trajectory", "asymptotic_hamiltonian",
    "convergence_study", "integrate_full",
    "solve_geometry", "xy_agreement",
)

# every public name of ``dir(xypurify)``, submodules included, in dir's
# sorted order; a name joins or leaves the package only with an edit here
PUBLIC_API = (
    "AgreementReport", "AnalysisError", "AsymptoticCouplings", "BatchStats",
    "BelowThresholdWarning", "CavityGeometry",
    "ComparisonRow", "ConfigurationError",
    "DensityMatrix", "DomainError",
    "GeometryError", "OperationalTime", "ProtocolConfig", "PumpRound",
    "PumpTrace", "RoundFormulas", "RoundInput", "RoundResult",
    "ShapeError", "StateValidationError", "StiffnessError",
    "Trajectory", "XyPurifyError",
    "ZeroProbabilityError", "asymptotic_hamiltonian",
    "bell_diagonal_map", "bootstrap_round", "cavity",
    "closed_form_at", "closed_form_cnot", "closed_form_general",
    "cnot", "comparison_table",
    "computational_pair", "convergence_study", "errors",
    "evolve_triplet", "expected_attempts", "fidelity",
    "fixed_point", "integrate_full", "montecarlo",
    "operational_time", "pump", "pumping",
    "random_bell_diagonal", "rounds",
    "run_round", "simulate_batch",
    "solve_geometry", "states", "werner", "werner_weights", "xy", "xy_agreement",
)


def cold_ok(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, *args], capture_output=True,
                            text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    return result


@pytest.mark.parametrize("module", ["xypurify", "xypurify.cli",
                                    "xypurify.montecarlo", "xypurify.cavity"])
def test_import_leaves_scipy_and_process_pool_out(module):
    result = cold_ok("-c", f"import sys, {module}; "
                     f"print(*(m for m in {HEAVY!r} if m in sys.modules))")
    assert result.stdout.split() == []


def test_cavity_names_are_bound_without_scipy():
    script = (
        "import json, sys, xypurify\n"
        "listed = dir(xypurify)\n"
        f"names = {CAVITY_NAMES!r}\n"
        "same = [getattr(xypurify, n) is getattr(xypurify.cavity, n) for n in names]\n"
        "print(json.dumps({'scipy': 'scipy' in sys.modules, 'listed': listed,\n"
        "                  'same': same}))\n"
    )
    report = json.loads(cold_ok("-c", script).stdout)
    assert report["scipy"] is False
    assert report["same"] == [True] * len(CAVITY_NAMES)
    assert set(CAVITY_NAMES) | {"cavity"} <= set(report["listed"])


def test_public_api_is_pinned():
    # in a new interpreter: once any test imports xypurify.cli, the package
    # binds "cli" too
    script = "import json, xypurify; print(json.dumps(dir(xypurify)))"
    listed = json.loads(cold_ok("-c", script).stdout)
    assert tuple(n for n in listed if not n.startswith("_")) == PUBLIC_API


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        xypurify.no_such_name


def test_validate_cavity_runs_cold():
    # the command exits through SystemExit; the exit hook reports what it loaded
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(*(m for m in %r if m in sys.modules),\n"
        "                              file=sys.stderr))\n"
        "sys.argv = ['xypurify', 'validate-cavity', '--delta', '50', '--ell', '1.0']\n"
        "runpy.run_module('xypurify.cli', run_name='__main__')\n" % (HEAVY,)
    )
    result = cold_ok("-c", script)
    assert result.stderr.split() == []
    payload = json.loads(result.stdout)
    assert payload["geometry"]["delta_over_g0"] == 50.0
    assert payload["agreement"]["distance_full_mean"] > 0


def test_montecarlo_with_two_workers_runs_cold(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema_version": 1, "f": 0.75,
                                  "target_rounds": 2, "trials": 50, "seed": 4}))
    outputs = [
        cold_ok("-m", "xypurify.cli", "montecarlo", "--config", str(config),
                "--workers", workers).stdout
        for workers in ("1", "2")
    ]
    assert json.loads(outputs[1])["trials"] == 50
    assert outputs[0] == outputs[1]
