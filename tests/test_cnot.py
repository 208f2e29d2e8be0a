from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from xypurify import (
    DensityMatrix,
    DomainError,
    ZeroProbabilityError,
    closed_form_cnot,
    closed_form_general,
    comparison_table,
    random_bell_diagonal,
    werner,
)
from xypurify.cnot import _dejmps_map
from xypurify.pumping import _bell_rounds
from xypurify.states import BELL_ORDER, _bell_off_diagonal

import oracle
from oracle import U_MINUS, U_PLUS, cnot_round


def quiet_werner(f):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return werner(f)


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
            assert _bell_off_diagonal(res.post_state) < 1e-10

    def test_input_validation(self):
        with pytest.raises(DomainError):
            cnot_round(werner(0.8), DensityMatrix(np.eye(2) / 2))

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    def test_lost_or_nan_weight_is_zero_probability(self, monkeypatch, fill):
        # a gate that keeps no weight, or carries nan, must stop at the
        # probability check and not reach DensityMatrix
        monkeypatch.setattr(oracle, "_GATE", np.full((16, 16), fill, dtype=complex))
        with pytest.raises(ZeroProbabilityError):
            cnot_round(werner(0.8), werner(0.7))


def scheme_c_rounds(f, n):
    """(F_k, P_k) of the first n rounds of pumping with the baseline gate."""
    return list(islice(_bell_rounds(_dejmps_map(f), f), n))


def simulated_fixed_point(f, max_iter=500):
    """The limit of a cnot_round pump loop with fresh Werner(f) targets."""
    stored = quiet_werner(f)
    prev = f
    for _ in range(max_iter):
        res = cnot_round(stored, quiet_werner(f))
        stored = res.post_state
        if abs(res.fidelity - prev) < 1e-15:
            return res.fidelity
        prev = res.fidelity
    raise AssertionError(f"no convergence for f={f}")


class TestSchemeCPump:
    # the stored pair the source, a fresh Werner(f) pair the target, every
    # round: the DEJMPS map through the shared Bell-weight iterator
    def test_single_round_equals_formula(self):
        for f in (0.6, 0.75, 0.9):
            [(fid, _)] = scheme_c_rounds(f, 1)
            assert fid == pytest.approx(closed_form_cnot(f), abs=1e-12)

    def test_two_rounds_near_xy_single_round(self):
        two, _ = scheme_c_rounds(0.75, 2)[-1]
        assert two == pytest.approx(0.840909, abs=1e-5)
        xy = closed_form_general(0.75, 0.75).fidelity
        assert abs(two - xy) < 0.03
        assert comparison_table([0.75])[0].scheme_c_two_rounds == two

    def test_perfect_pairs(self):
        assert all(fid == pytest.approx(1.0, abs=1e-12)
                   for fid, _ in scheme_c_rounds(1.0, 3))

    def test_monotone_toward_fixed_point(self):
        # the circuit loop's limit bounds the map's rounds from above
        fs = [0.7] + [fid for fid, _ in scheme_c_rounds(0.7, 10)]
        assert all(b > a for a, b in zip(fs, fs[1:]))
        assert fs[-1] <= simulated_fixed_point(0.7) + 1e-12

    @pytest.mark.parametrize("f", [0.51, 0.6, 0.75, 0.9, 0.99, 1.0])
    def test_rounds_match_circuit_loop(self, f):
        # the Bell-weight map, iterated; the circuit, carrying its exact
        # stored state, is the reference over 30 rounds
        stored = target = quiet_werner(f)
        for fid, p in scheme_c_rounds(f, 30):
            res = cnot_round(stored, target)
            stored = res.post_state
            assert fid == pytest.approx(res.fidelity, rel=1e-12, abs=0)
            assert p == pytest.approx(res.success_probability, rel=1e-12, abs=0)


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

    @staticmethod
    def dominance(f):
        """comparison_table's docstring: xy - cnot in factored form."""
        return (21 * (1 - f) * (2 * f - 1) * (2 * f + 1) * (4 * f - 1)
                / ((8 * f * f - 4 * f + 5) * (128 * f * f - 106 * f + 59)))

    def test_dominance_factorization_exact(self):
        # cross-multiplied, both sides are polynomials of degree 9, so
        # agreement at 21 points proves the identity; the closed forms are
        # written out in exact arithmetic
        for k in range(21):
            f = Fraction(k, 20)
            xy = ((f * (12 * f + 236 * f * f - 5) - 16 * (f - 1))
                  / (59 + (12 - 64 * f) * f - 4 * (5 - 64 * f) * f * f))
            cnot = (1 - 2 * f + 10 * f * f) / (5 - 4 * f + 8 * f * f)
            assert xy - cnot == self.dominance(f)

    def test_dominance_factorization_float(self):
        for f in np.linspace(0.5, 1.0, 201):
            diff = closed_form_general(f, f).fidelity - closed_form_cnot(f)
            assert diff == pytest.approx(self.dominance(f), abs=1e-15)
            if 0.5 < f < 1.0:
                assert self.dominance(f) > 0

    def test_grid_endpoints_next_to_half_and_one(self):
        # the two rounds agree to the last bits here; the table still
        # returns rows, since dominance is a theorem and not a check
        fs = [0.5 + 2.0 ** -51, 0.5 + 2.0 ** -53, 1.0 - 2.0 ** -51, 1.0 - 2.0 ** -52]
        rows = comparison_table(fs)
        assert [row.f for row in rows] == fs
        for row in rows:
            assert row.xy_one_round == closed_form_general(row.f, row.f).fidelity
            assert row.cnot_one_round == closed_form_cnot(row.f)
            assert abs(row.xy_one_round - row.cnot_one_round) < 1e-15


def bell_weights(rho):
    weights = oracle.bell_weights(rho)
    return np.array([weights[k] for k in BELL_ORDER])


class TestDejmpsMap:
    def test_matches_cnot_round_on_bell_diagonal_sources(self):
        rng = np.random.default_rng(23)
        for f in rng.uniform(0.0, 1.0, 12):
            src = random_bell_diagonal(rng)
            res = cnot_round(src, quiet_werner(f))
            post = _dejmps_map(f) @ bell_weights(src)
            assert post.sum() == pytest.approx(res.success_probability, abs=1e-12)
            np.testing.assert_allclose(post / post.sum(), bell_weights(res.post_state),
                                       rtol=0, atol=1e-12)

    def test_werner_success_probability(self):
        for f in (0.5, 0.6, 0.75, 0.9, 1.0):
            w = np.array([f] + 3 * [(1.0 - f) / 3.0])
            assert (_dejmps_map(f) @ w).sum() == pytest.approx(
                (5 - 4 * f + 8 * f * f) / 9.0, abs=1e-15)
