"""Acceptance suite: one test per release criterion.

Each test enforces the criterion's numeric tolerance and runtime budget
and prints a single pass line (visible with ``pytest -s`` or ``-rP``).
Run with:  pytest tests/test_acceptance.py -v -s
"""
import math
import time
import warnings

import numpy as np
import pytest

from xypurify import (
    CavityGeometry,
    DensityMatrix,
    ProtocolConfig,
    RoundInput,
    bootstrap_round,
    closed_form_at,
    closed_form_cnot,
    closed_form_general,
    comparison_table,
    convergence_study,
    expected_attempts,
    operational_time,
    pump,
    random_bell_diagonal,
    run_round,
    simulate_batch,
    solve_geometry,
    werner,
    xy_agreement,
)
from xypurify.cavity import peak_collective_coupling

from oracle import bell_matrix, bell_weights, cnot_round, restore, ring_pair, six_qubit_state

T = operational_time(1.0).t


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.name}: PASS ({self.elapsed:.2f}s "
                  f"< {self.seconds:.0f}s budget)")
            assert self.elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s runtime budget")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL after {self.elapsed:.2f}s")


def quiet_werner(f):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return werner(f)


def werner_round(f, fprime, t0):
    return run_round(RoundInput(f=f, stationary_state=quiet_werner(fprime),
                                t0=t0))


def coherence(rho):
    """The real phi+/phi- coherence d of a two-qubit state."""
    return float(np.real(bell_matrix(rho)[0, 1]))


def test_criterion_01_peak_fidelity():
    with _Budget("1 peak fidelity", 1.0):
        result = werner_round(0.75, 0.75, T)
        assert 0.8272 <= result.fidelity <= 0.8282


def test_criterion_02_oracle_equivalence():
    with _Budget("2 oracle equivalence", 30.0):
        f_grid = np.round(np.arange(0.55, 0.951, 0.05), 10)
        jt_grid = np.linspace(0.0, math.pi / 2, 13)
        assert len(f_grid) == 9 and len(jt_grid) == 13
        for f in f_grid:
            for jt in jt_grid:
                res = werner_round(f, f, jt)
                expect = closed_form_at(jt, f)
                assert abs(res.fidelity - expect.fidelity) < 1e-9
                assert abs(res.success_probability - expect.success_probability) < 1e-9
        pair_grid = np.linspace(0.5, 1.0, 11)
        for f in pair_grid:
            for fp in pair_grid:
                res = werner_round(f, fp, T)
                formulas = closed_form_general(f, fp)
                assert abs(res.fidelity - formulas.fidelity) < 1e-9
                assert abs(res.success_probability
                           - formulas.success_probability) < 1e-9


def test_criterion_03_cnot_baseline():
    with _Budget("3 cnot baseline", 5.0):
        for f in np.linspace(0.5, 1.0, 21):
            res = cnot_round(quiet_werner(f), quiet_werner(f))
            assert abs(res.fidelity - closed_form_cnot(f)) < 1e-12
        # fixed values of the closed form itself: the rational map gives
        # 5.125/6.5 at f = 0.75 (its numerator 1 - 1.5 + 5.625) and the
        # threshold fixed point 1/2 at f = 0.5
        assert closed_form_cnot(0.75) == pytest.approx(5.125 / 6.5, abs=1e-15)
        assert closed_form_cnot(0.5) == pytest.approx(0.5, abs=1e-15)


def test_criterion_04_werner_preservation():
    with _Budget("4 werner preservation", 10.0):
        rng = np.random.default_rng(404)
        jt_samples = list(np.linspace(0.0, math.pi, 13)) + list(
            rng.uniform(0.0, math.pi, 12))
        for f, fp in ((0.55, 0.9), (0.75, 0.75), (0.95, 0.6)):
            for jt in jt_samples:
                res = werner_round(f, fp, jt)
                assert res.werner_deviation < 1e-10


def test_criterion_05_restoration():
    with _Budget("5 restoration", 30.0):
        rng = np.random.default_rng(505)
        for _ in range(100):
            rho = six_qubit_state(*(random_bell_diagonal(rng).matrix
                                    for _ in range(3)))
            elapsed = rng.uniform(0.0, math.pi)
            u = ring_pair(elapsed)
            evolved = DensityMatrix(u @ rho @ u.conj().T)
            restored = restore(evolved.matrix, elapsed)
            delta = restored - rho
            trace_distance = 0.5 * np.abs(np.linalg.eigvalsh(delta)).sum()
            assert trace_distance < 1e-10


def test_criterion_06_saturation_structure():
    with _Budget("6 saturation structure", 5.0):
        f_grid = (0.55, 0.65, 0.75, 0.85, 0.95)
        gain = {(f, r.n): r.delta for f in f_grid for r in pump(f, 10).rounds}
        for n in (1, 2):
            best = max(f_grid, key=lambda f: gain[(f, n)])
            assert best == 0.75
        for f in f_grid:
            for n in range(6, 11):
                assert gain[(f, n)] < 0.005


def test_criterion_07_comparison_claims():
    with _Budget("7 comparison claims", 10.0):
        for f in np.round(np.arange(0.55, 0.951, 0.05), 10):
            xy = closed_form_general(f, f).fidelity
            assert xy > closed_form_cnot(f)
            two_round = comparison_table([f])[0].scheme_c_two_rounds
            assert abs(two_round - xy) < 0.03


def test_criterion_08_bootstrap():
    with _Budget("8 bootstrap", 10.0):
        result = bootstrap_round(0.75, T)
        state = result.post_state
        assert abs(bell_weights(state)["phi_plus"] - 0.75) < 0.02
        coherences = [abs(coherence(state))]
        for _ in range(5):
            state = run_round(RoundInput(f=0.75, stationary_state=state,
                                         t0=T)).post_state
            coherences.append(abs(coherence(state)))
        assert all(b < a for a, b in zip(coherences, coherences[1:]))
        assert coherences[-1] < 1e-3
        assert min(i for i, c in enumerate(coherences) if c < 1e-3) <= 6


def test_criterion_09_microscopic_validation():
    with _Budget("9 microscopic validation", 60.0):
        ell = 1.0
        d = solve_geometry(ell)
        geom = CavityGeometry(ell=ell, d=d, v=0.5, delta=50.0)
        report = xy_agreement(geom)
        assert report.distance_full_mean < 0.05
        gmax = peak_collective_coupling(geom)
        assert report.max_photon_population < 4.0 * (gmax / geom.delta) ** 2
        study = convergence_study(geom, factors=(1.0, 2.0))
        ratio = study[1][1] / study[0][1]
        assert 0.4 < ratio < 0.6  # halving within 20 percent


def test_criterion_10_monte_carlo_consistency():
    with _Budget("10 monte carlo consistency", 60.0):
        config = ProtocolConfig(f=0.75, target_rounds=4, seed=20240817)
        batch = simulate_batch(config, 100_000)
        analytic = expected_attempts(0.75, 4)
        assert abs(batch.mean_attempts - analytic) / analytic < 0.02
        current = 0.75
        for attempts, successes in zip(batch.attempts_by_round,
                                       batch.successes_by_round):
            p = closed_form_general(0.75, current).success_probability
            sigma = math.sqrt(p * (1.0 - p) * attempts)
            assert abs(successes - p * attempts) <= 3.0 * sigma
            current = closed_form_general(0.75, current).fidelity
        small = ProtocolConfig(f=0.75, target_rounds=4, seed=7)
        one = simulate_batch(small, 2000, workers=1)
        four = simulate_batch(small, 2000, workers=4)
        assert one.attempts_per_trial == four.attempts_per_trial
        assert one.mean_attempts == four.mean_attempts
