"""Import costs and the lazy cavity names, checked in fresh interpreters.

The other test modules import ``xypurify.cavity`` (and with it scipy)
before any test runs, so only a new interpreter shows what a plain
``import xypurify`` or a non-cavity command loads.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xypurify

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy", "concurrent.futures.process")
CAVITY_NAMES = (
    "AgreementReport", "AsymptoticCouplings",
    "CavityGeometry", "Trajectory", "asymptotic_hamiltonian",
    "convergence_study", "coupling", "integrate_effective", "integrate_full",
    "solve_geometry", "xy_agreement",
)


def cold_ok(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, *args], capture_output=True,
                            text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    return result


@pytest.mark.parametrize("module", ["xypurify", "xypurify.cli",
                                    "xypurify.montecarlo"])
def test_import_leaves_scipy_and_process_pool_out(module):
    result = cold_ok("-c", f"import sys, {module}; "
                     f"print(*(m for m in {HEAVY!r} if m in sys.modules))")
    assert result.stdout.split() == []


def test_cavity_names_resolve_lazily():
    script = (
        "import json, sys, xypurify\n"
        "before = 'scipy' in sys.modules\n"
        "listed = dir(xypurify)\n"
        f"names = {CAVITY_NAMES!r}\n"
        "same = [getattr(xypurify, n) is getattr(xypurify.cavity, n) for n in names]\n"
        "print(json.dumps({'before': before, 'after': 'scipy' in sys.modules,\n"
        "                  'listed': listed, 'same': same}))\n"
    )
    report = json.loads(cold_ok("-c", script).stdout)
    assert report["before"] is False
    assert report["after"] is True
    assert report["same"] == [True] * len(CAVITY_NAMES)
    assert set(CAVITY_NAMES) | {"cavity"} <= set(report["listed"])


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        xypurify.no_such_name


def test_validate_cavity_runs_cold():
    result = cold_ok("-m", "xypurify.cli", "validate-cavity",
                     "--delta", "50", "--ell", "1.0")
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
