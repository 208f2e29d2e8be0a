import numpy as np
import pytest

from xypurify import (
    DensityMatrix,
    DomainError,
    bell_decompose,
    closed_form_cnot,
    closed_form_general,
    cnot_round,
    comparison_table,
    random_bell_diagonal,
    scheme_c_pump,
    werner,
)
from xypurify.cnot import U_MINUS, U_PLUS, _dejmps_map
from xypurify.pumping import EPSILON_DEFAULT
from xypurify.states import BELL_ORDER


def quiet_werner(f, labels=(1, 2)):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return werner(f, labels=labels)


class TestGateConventions:
    def test_rotations_are_unitary_and_conjugate(self):
        for u in (U_PLUS, U_MINUS):
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(U_PLUS.conj().T, U_MINUS, atol=1e-15)


class TestCnotRound:
    def test_formula_match_21_points(self):
        for f in np.linspace(0.5, 1.0, 21):
            res = cnot_round(quiet_werner(f), quiet_werner(f))
            assert res.fidelity == pytest.approx(closed_form_cnot(f), abs=1e-12)

    def test_reference_values(self):
        assert closed_form_cnot(0.75) == pytest.approx(5.125 / 6.5, abs=1e-15)
        res = cnot_round(werner(0.75), werner(0.75))
        assert res.fidelity == pytest.approx(5.125 / 6.5, abs=1e-12)
        # threshold is a fixed point
        res_half = cnot_round(quiet_werner(0.5), quiet_werner(0.5))
        assert res_half.fidelity == pytest.approx(0.5, abs=1e-12)

    def test_perfect_pairs(self):
        res = cnot_round(werner(1.0), werner(1.0))
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)
        assert res.success_probability == pytest.approx(1.0, abs=1e-12)

    def test_success_probability_closed_form(self):
        # brute-force enumeration oracle collapses to (5 - 4f + 8f^2)/9
        # for Werner x Werner inputs
        for f in (0.5, 0.6, 0.75, 0.9, 1.0):
            res = cnot_round(quiet_werner(f), quiet_werner(f))
            assert res.success_probability == pytest.approx(
                (5 - 4 * f + 8 * f * f) / 9.0, abs=1e-12)

    def test_improves_above_threshold(self):
        for f in (0.55, 0.7, 0.85):
            assert closed_form_cnot(f) > f

    def test_bell_diagonal_preserved(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            src = random_bell_diagonal(rng)
            tgt = random_bell_diagonal(rng)
            res = cnot_round(src, tgt)
            assert bell_decompose(res.post_state).off_diagonal_norm < 1e-10

    def test_input_validation(self):
        with pytest.raises(DomainError):
            cnot_round(werner(0.8),
                       DensityMatrix(np.eye(2) / 2, ("x",)))


class TestSchemeCPump:
    def test_single_round_equals_formula(self):
        for f in (0.6, 0.75, 0.9):
            trace = scheme_c_pump(f, 1)
            assert trace.rounds[0].fidelity == pytest.approx(
                closed_form_cnot(f), abs=1e-12)

    def test_two_rounds_near_xy_single_round(self):
        trace = scheme_c_pump(0.75, 2)
        assert trace.rounds[-1].fidelity == pytest.approx(0.840909, abs=1e-5)
        xy = closed_form_general(0.75, 0.75).fidelity
        assert abs(trace.rounds[-1].fidelity - xy) < 0.03

    def test_perfect_pairs(self):
        trace = scheme_c_pump(1.0, 3)
        assert all(r.fidelity == pytest.approx(1.0, abs=1e-12)
                   for r in trace.rounds)

    def test_monotone_toward_fixed_point(self):
        trace = scheme_c_pump(0.7, 10)
        fs = trace.fidelities
        assert all(b > a for a, b in zip(fs, fs[1:]))
        assert fs[-1] <= trace.fixed_point + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            scheme_c_pump(0.5, 2)


class TestComparisonTable:
    def test_ring_exchange_dominates(self):
        rows = comparison_table(np.linspace(0.55, 0.95, 9))
        for row in rows:
            assert row.xy_one_round > row.cnot_one_round
            assert abs(row.scheme_c_two_rounds - row.xy_one_round) < 0.03

    def test_gain_ratio_band(self):
        # the one-round gain of the ring-exchange scheme is close to
        # twice the baseline gain across the midrange
        for row in comparison_table(np.linspace(0.55, 0.95, 9)):
            ratio = (row.xy_one_round - row.f) / (row.cnot_one_round - row.f)
            assert 1.5 <= ratio <= 2.5

    def test_all_converge_at_high_f(self):
        row = comparison_table([0.999])[0]
        assert row.xy_one_round == pytest.approx(1.0, abs=5e-3)
        assert row.cnot_one_round == pytest.approx(1.0, abs=5e-3)
        assert row.scheme_c_two_rounds == pytest.approx(1.0, abs=5e-3)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            comparison_table([1.0])


def bell_weights(rho):
    weights = bell_decompose(rho).weights
    return np.array([weights[k] for k in BELL_ORDER])


def simulated_fixed_point(f, max_iter=500):
    # the limit of a cnot_round loop, the oracle for the map's Perron vector
    stored = quiet_werner(f, labels=("1A", "1B"))
    prev = f
    for _ in range(max_iter):
        res = cnot_round(stored, quiet_werner(f, labels=("2A", "2B")))
        stored = res.post_state
        if abs(res.fidelity - prev) < 1e-15:
            return res.fidelity
        prev = res.fidelity
    raise AssertionError(f"no convergence for f={f}")


def simulated_optimal_rounds(f, epsilon):
    target = simulated_fixed_point(f)
    stored = quiet_werner(f, labels=("1A", "1B"))
    current, n = f, 0
    while target - current >= epsilon:
        res = cnot_round(stored, quiet_werner(f, labels=("2A", "2B")))
        stored, current, n = res.post_state, res.fidelity, n + 1
    return n


class TestDejmpsMap:
    def test_matches_cnot_round_on_bell_diagonal_sources(self):
        rng = np.random.default_rng(23)
        for f in rng.uniform(0.0, 1.0, 12):
            src = random_bell_diagonal(rng, labels=("1A", "1B"))
            res = cnot_round(src, quiet_werner(f, labels=("2A", "2B")))
            post = _dejmps_map(f) @ bell_weights(src)
            assert post.sum() == pytest.approx(res.success_probability, abs=1e-12)
            np.testing.assert_allclose(post / post.sum(), bell_weights(res.post_state),
                                       rtol=0, atol=1e-12)

    def test_werner_success_probability(self):
        for f in (0.5, 0.6, 0.75, 0.9, 1.0):
            w = np.array([f] + 3 * [(1.0 - f) / 3.0])
            assert (_dejmps_map(f) @ w).sum() == pytest.approx(
                (5 - 4 * f + 8 * f * f) / 9.0, abs=1e-15)

    def test_fixed_point_and_optimal_rounds_match_simulation(self):
        for f in np.linspace(0.55, 1.0, 10):
            trace = scheme_c_pump(f, 1)
            assert trace.fixed_point == pytest.approx(simulated_fixed_point(f), abs=1e-14)
            assert trace.n_optimal == simulated_optimal_rounds(f, EPSILON_DEFAULT)

    def test_pump_runs_cnot_round_only_for_reported_rounds(self, monkeypatch):
        import xypurify.cnot as cnot
        calls = []
        original = cnot.cnot_round
        monkeypatch.setattr(cnot, "cnot_round",
                            lambda *a: calls.append(1) or original(*a))
        built = []
        werner = cnot.werner
        monkeypatch.setattr(cnot, "werner",
                            lambda *a, **kw: built.append(1) or werner(*a, **kw))
        trace = scheme_c_pump(0.75, 2)
        assert len(calls) == 2
        assert len(built) == 2  # the stored pair and one target for all rounds
        assert trace.n_optimal == simulated_optimal_rounds(0.75, EPSILON_DEFAULT)
