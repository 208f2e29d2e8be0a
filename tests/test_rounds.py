from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xypurify import (
    DensityMatrix,
    DomainError,
    NegativeDurationError,
    RoundInput,
    ZeroProbabilityError,
    bell_coefficients,
    bell_decompose,
    bell_diagonal_map,
    bell_projector,
    bootstrap_round,
    build_xy,
    closed_form_fidelity,
    closed_form_general,
    closed_form_success,
    cnot_round,
    evolve_composite,
    fidelity,
    operational_time,
    partial_trace,
    permute,
    random_bell_diagonal,
    restore,
    run_round,
    tensor,
    werner,
)
from xypurify import rounds
from xypurify.states import BELL_ORDER

T = operational_time(1.0).t  # pi/6


def make_input(f, fprime, t0, j=1.0):
    return RoundInput(f=f, stationary_state=werner(fprime, labels=(3, 6)),
                      t0=t0, j=j)


class TestClosedForms:
    def test_zero_time_returns_input(self):
        # algebraic simplification of the trig form at t0 = 0, checked
        # against a numeric sweep of f
        for f in np.linspace(0.0, 1.0, 11):
            assert closed_form_fidelity(0.0, f) == pytest.approx(f, abs=1e-12)

    def test_peak_value(self):
        assert closed_form_fidelity(T, 0.75) == pytest.approx(42.625 / 51.5,
                                                              abs=1e-14)

    def test_perfect_input_stays_perfect(self):
        assert closed_form_fidelity(T, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_general_matches_diagonal_special_case(self):
        for f in np.linspace(0.5, 1.0, 11):
            assert closed_form_general(f, f).fidelity == pytest.approx(
                closed_form_fidelity(T, f), abs=1e-12)
            assert closed_form_general(f, f).success_probability == pytest.approx(
                closed_form_success(T, f), abs=1e-12)

    def test_values_at_fixed_points(self):
        assert closed_form_general(1.0, 1.0).fidelity == pytest.approx(1.0)
        assert closed_form_general(1.0, 1.0).success_probability == pytest.approx(
            243.0 / 972.0, abs=1e-15)
        assert closed_form_general(0.75, 0.75).fidelity == pytest.approx(
            106.5625 / 128.75, abs=1e-14)
        assert closed_form_general(0.75, 0.75).success_probability == pytest.approx(
            128.75 / 972.0, abs=1e-15)
        # threshold is a fixed point of the map
        assert closed_form_general(0.5, 0.5).fidelity == pytest.approx(0.5,
                                                                       abs=1e-14)

    def test_single_outcome_normalization_at_zero_time(self):
        # at t0 = 0 the success formula factorizes into the two diagonal
        # pair weights, which is the per-outcome (not per accepted set)
        # probability
        for f in (0.6, 0.8, 1.0):
            assert closed_form_success(0.0, f) == pytest.approx(
                ((1 + 2 * f) / 6.0) ** 2, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(f=st.floats(0.0, 1.0), fprime=st.floats(0.0, 1.0))
    @example(f=1.0, fprime=0.0)
    def test_success_probability_floor(self, f, fprime):
        # the fidelity denominator is 972 P_succ >= 51 on [0,1]^2, with
        # equality at (1, 0); the slack covers float rounding only
        p = closed_form_general(f, fprime).success_probability
        assert 972.0 * p >= 51.0 - 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            closed_form_fidelity(T, 1.5)
        with pytest.raises(DomainError):
            closed_form_general(0.5, -0.1)

    def test_next_round_improves(self):
        first = closed_form_general(0.75, 0.75).fidelity
        second = closed_form_general(0.75, first).fidelity
        assert second > first > 0.75


class TestOperationalTime:
    def test_reference_values(self):
        assert operational_time(1.0, 0).t == pytest.approx(np.pi / 6, abs=1e-15)
        assert operational_time(1.0, 1).t == pytest.approx(np.pi / 2, abs=1e-15)

    def test_exact_relation(self):
        for j in (0.5, 2.0, -1.0):
            for n in range(4):
                ot = operational_time(j, n)
                assert j * ot.t == pytest.approx(np.pi / 3 * (n + 0.5), abs=1e-12)

    def test_local_maximum(self):
        f0 = closed_form_fidelity(T, 0.75)
        for delta in (1e-3, 1e-2):
            assert closed_form_fidelity(T - delta, 0.75) <= f0
            assert closed_form_fidelity(T + delta, 0.75) <= f0

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            operational_time(0.0)
        with pytest.raises(DomainError):
            operational_time(1.0, -1)


class TestRunRound:
    def test_peak_fidelity(self):
        result = run_round(make_input(0.75, 0.75, T))
        assert result.fidelity == pytest.approx(0.8277, abs=5e-4)
        assert result.success_probability == pytest.approx(128.75 / 972, abs=1e-12)

    def test_perfect_inputs(self):
        result = run_round(make_input(1.0, 1.0, T))
        assert result.fidelity == pytest.approx(1.0, abs=1e-12)
        assert result.werner_deviation < 1e-12

    def test_no_evolution_passes_stationary_through(self):
        for fprime in (0.6, 0.85):
            result = run_round(make_input(0.9, fprime, 0.0))
            assert result.fidelity == pytest.approx(fprime, abs=1e-12)

    def test_outcome_probabilities_sum_to_one(self):
        result = run_round(make_input(0.8, 0.7, 0.4))
        assert sum(result.outcome_probabilities.values()) == pytest.approx(
            1.0, abs=1e-10)

    def test_accepted_outcomes_symmetric(self):
        result = run_round(make_input(0.8, 0.7, T))
        p0101 = result.outcome_probabilities["0101"]
        p1010 = result.outcome_probabilities["1010"]
        assert p0101 == pytest.approx(p1010, abs=1e-12)
        assert result.accepted_outcomes == {"0101", "1010"}

    def test_conditioning_identical_across_accepted_outcomes(self):
        # for Bell-diagonal stationary states either accepted outcome
        # leaves the same stored state
        inp = make_input(0.8, 0.7, T)
        res_a = run_round(inp, predefined_outcome="0101")
        res_b = run_round(inp, predefined_outcome="1010")
        np.testing.assert_allclose(res_a.post_state.matrix,
                                   res_b.post_state.matrix, atol=1e-12)

    def test_zero_probability_branch(self):
        # with perfect pairs and no evolution, outcome 0001 requires
        # anti-correlated bits on a perfectly correlated pair
        with pytest.raises(ZeroProbabilityError):
            run_round(make_input(1.0, 1.0, 0.0), predefined_outcome="0001")

    def test_malformed_outcome_rejected(self):
        for bits in ("01", "01a1", "01010"):
            with pytest.raises(DomainError):
                run_round(make_input(0.8, 0.7, T), predefined_outcome=bits)

    def test_validates_only_two_qubit_states(self, monkeypatch):
        # the six-qubit state of run_round and the four-qubit state of
        # cnot_round are plain arrays; returned pairs are validated
        stored = random_bell_diagonal(np.random.default_rng(5), labels=(3, 6))
        source, target = werner(0.8), werner(0.7)
        dims = Counter()
        validate = DensityMatrix.__post_init__

        def counting(rho):
            validate(rho)
            dims[rho.dim] += 1

        monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
        run_round(RoundInput(f=0.8, stationary_state=stored, t0=T))
        bootstrap_round(0.8, T)
        cnot_round(source, target)
        # one returned pair per call, plus the bootstrap's |00> seed
        assert dims == {4: 4}

    def test_oracle_equivalence_small_grid(self):
        for f in (0.55, 0.75, 0.95):
            for jt in (0.0, np.pi / 8, np.pi / 3):
                result = run_round(make_input(f, f, jt))
                assert result.fidelity == pytest.approx(
                    closed_form_fidelity(jt, f), abs=1e-9)
                assert result.success_probability == pytest.approx(
                    closed_form_success(jt, f), abs=1e-9)

    def test_general_formulas_at_t(self):
        for f, fprime in ((0.6, 0.9), (0.9, 0.6), (0.75, 0.82)):
            result = run_round(make_input(f, fprime, T))
            formulas = closed_form_general(f, fprime)
            assert result.fidelity == pytest.approx(formulas.fidelity, abs=1e-9)
            assert result.success_probability == pytest.approx(
                formulas.success_probability, abs=1e-9)

    def test_werner_closure(self):
        for jt in np.linspace(0.0, np.pi, 9):
            result = run_round(make_input(0.8, 0.7, jt))
            assert result.werner_deviation < 1e-10

    def test_output_is_exactly_werner_when_fidelities_match(self):
        # equal conveyed and stored fidelities give the full Werner form,
        # not only Bell diagonality
        result = run_round(make_input(0.7, 0.7, T))
        dec = bell_decompose(result.post_state)
        rest = (1 - dec.weights["phi_plus"]) / 3
        for k in ("phi_minus", "psi_plus", "psi_minus"):
            assert dec.weights[k] == pytest.approx(rest, abs=1e-12)

    def test_unequal_fidelities_leave_werner_family(self):
        # Bell-diagonal but the three non-target weights split; this is
        # why closed-form and simulated pumping drift apart from round 3
        result = run_round(make_input(0.9, 0.6, T))
        dec = bell_decompose(result.post_state)
        assert dec.off_diagonal_norm < 1e-12
        rest = (1 - dec.weights["phi_plus"]) / 3
        spread = max(abs(dec.weights[k] - rest)
                     for k in ("phi_minus", "psi_plus", "psi_minus"))
        assert spread > 1e-3

    def test_input_validation(self):
        with pytest.raises(DomainError):
            make_input(1.2, 0.7, T)
        with pytest.raises(DomainError):
            RoundInput(f=0.8, stationary_state=werner(0.7, labels=(3, 6)),
                       t0=T, j=0.0)

    @settings(max_examples=25, deadline=None)
    @given(f=st.floats(0.501, 1.0), fprime=st.floats(0.501, 1.0),
           jt=st.floats(0.0, np.pi))
    def test_werner_closure_property(self, f, fprime, jt):
        result = run_round(make_input(f, fprime, jt))
        assert result.werner_deviation < 1e-10
        assert 0.0 <= result.fidelity <= 1.0 + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(f=st.floats(0.501, 1.0), jt=st.floats(0.0, np.pi))
    def test_closed_form_property(self, f, jt):
        result = run_round(make_input(f, f, jt))
        assert result.fidelity == pytest.approx(closed_form_fidelity(jt, f),
                                                abs=1e-9)
        assert result.success_probability == pytest.approx(
            closed_form_success(jt, f), abs=1e-9)


class TestRestore:
    def evolved_composite(self, rng, elapsed, j=1.0):
        rho = tensor(tensor(random_bell_diagonal(rng, (1, 4)),
                            random_bell_diagonal(rng, (2, 5))),
                     random_bell_diagonal(rng, (3, 6)))
        rho = permute(rho, (1, 2, 3, 4, 5, 6))
        u = evolve_composite(build_xy(j), elapsed).matrix
        return rho, DensityMatrix(u @ rho.matrix @ u.conj().T, rho.labels)

    def test_restores_after_gate_time(self):
        rng = np.random.default_rng(5)
        original, evolved = self.evolved_composite(rng, T)
        restored = restore(evolved, elapsed=T, j=1.0, m=1)
        np.testing.assert_allclose(restored.matrix, original.matrix, atol=1e-11)
        red_orig = partial_trace(original, keep={3, 6})
        red_rest = partial_trace(restored, keep={3, 6})
        np.testing.assert_allclose(red_rest.matrix, red_orig.matrix, atol=1e-11)

    def test_zero_elapsed_unchanged(self):
        rng = np.random.default_rng(6)
        original, _ = self.evolved_composite(rng, 0.0)
        for m in (1, 3):
            restored = restore(original, elapsed=0.0, j=1.0, m=m)
            np.testing.assert_allclose(restored.matrix, original.matrix,
                                       atol=1e-11)

    def test_default_m_is_smallest_period(self):
        rng = np.random.default_rng(7)
        elapsed = 0.37 * np.pi
        original, evolved = self.evolved_composite(rng, elapsed)
        restored = restore(evolved, elapsed=elapsed, j=1.0)
        np.testing.assert_allclose(restored.matrix, original.matrix, atol=1e-11)

    def test_negative_duration(self):
        rng = np.random.default_rng(8)
        _, evolved = self.evolved_composite(rng, 1.5 * np.pi)
        with pytest.raises(NegativeDurationError):
            restore(evolved, elapsed=1.5 * np.pi, j=1.0, m=1)


class TestBootstrap:
    def test_first_round_coefficients(self):
        result = bootstrap_round(0.75, T)
        coeff = bell_coefficients(result.post_state)
        assert coeff.a == pytest.approx(0.75, abs=0.02)
        # frozen from the six-qubit simulation
        assert coeff.a == pytest.approx(0.758398, abs=1e-5)
        assert coeff.c == pytest.approx(0.069337, abs=1e-5)
        assert coeff.b == pytest.approx(0.086133, abs=1e-5)
        assert coeff.d == pytest.approx(0.069337, abs=1e-5)
        assert result.success_probability == pytest.approx(0.099537, abs=1e-5)

    def test_perfect_pairs_favor_target(self):
        result = bootstrap_round(1.0, T)
        dec = bell_decompose(result.post_state)
        target = dec.weights["phi_plus"]
        assert all(target >= dec.weights[k] for k in dec.weights)

    def test_coherence_decays_over_rounds(self):
        state = bootstrap_round(0.75, T).post_state
        magnitudes = [abs(bell_coefficients(state).d)]
        for _ in range(5):
            state = run_round(RoundInput(f=0.75, stationary_state=state,
                                         t0=T, j=1.0)).post_state
            magnitudes.append(abs(bell_coefficients(state).d))
        assert all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
        assert min(magnitudes) < 1e-3

    def test_below_threshold_rejected(self):
        with pytest.raises(DomainError):
            bootstrap_round(0.5, T)

    def test_nonzero_coherence_seen_by_decomposition(self):
        result = bootstrap_round(0.75, T)
        assert bell_decompose(result.post_state).off_diagonal_norm > 1e-3


def oracle_map(f, j=1.0):
    """Bell-weight map of one six-qubit round, column k from Bell state k."""
    cols = []
    for k in BELL_ORDER:
        stored = DensityMatrix(bell_projector(k).matrix, (3, 6))
        result = run_round(RoundInput(f=f, stationary_state=stored,
                                      t0=operational_time(j).t, j=j))
        weights = bell_decompose(result.post_state).weights
        cols.append([result.success_probability * weights[b] for b in BELL_ORDER])
    return np.array(cols).T


class TestBellDiagonalMap:
    def test_integer_coefficients_rederived_from_oracle(self):
        # 2916 M(f) = A + B f + C f^2, solved from f = 0, 1/2, 1
        m0, mh, m1 = (2916.0 * oracle_map(f) for f in (0.0, 0.5, 1.0))
        c = 2.0 * (m1 - 2.0 * mh + m0)
        b = m1 - m0 - c
        for derived, pinned in ((m0, rounds._BELL_MAP_A), (b, rounds._BELL_MAP_B),
                                (c, rounds._BELL_MAP_C)):
            assert np.abs(derived - np.rint(derived)).max() < 1e-9
            np.testing.assert_array_equal(np.rint(derived), pinned)
            np.testing.assert_array_equal(pinned, pinned.T)

    def test_matches_oracle_on_random_bell_diagonal_pairs(self):
        rng = np.random.default_rng(11)
        for f in (0.3, 0.6, 0.9):
            for j in (1.0, -0.7, 2.5):
                stored = random_bell_diagonal(rng, (3, 6))
                result = run_round(RoundInput(f=f, stationary_state=stored,
                                              t0=operational_time(j).t, j=j))
                w = bell_decompose(stored).weights
                post = bell_diagonal_map(f) @ [w[k] for k in BELL_ORDER]
                dec = bell_decompose(result.post_state)
                assert post.sum() == pytest.approx(result.success_probability,
                                                   abs=1e-12)
                np.testing.assert_allclose(
                    post / post.sum(), [dec.weights[k] for k in BELL_ORDER],
                    atol=1e-12, rtol=0)
                assert dec.off_diagonal_norm < 1e-12

    def test_werner_inputs_match_closed_form_exactly(self):
        # on sixteenths every intermediate of the float closed form is
        # exact and only its last division rounds, so it must equal the
        # correctly rounded value of the rational map bit for bit
        grid = [Fraction(k, 16) for k in (0, 1, 2, 4, 6, 8, 10, 12, 14, 15, 16)]
        a, b, c = (m.tolist() for m in (rounds._BELL_MAP_A, rounds._BELL_MAP_B,
                                        rounds._BELL_MAP_C))
        for f in grid:
            m = [[Fraction(a[r][s] + b[r][s] * f + c[r][s] * f * f, 2916)
                  for s in range(4)] for r in range(4)]
            for fprime in grid:
                w = [fprime] + 3 * [(1 - fprime) / 3]
                post = [sum(mr[s] * w[s] for s in range(4)) for mr in m]
                norm = sum(post)
                expect = closed_form_general(float(f), float(fprime))
                assert expect.success_probability == float(norm)
                assert expect.fidelity == float(post[0] / norm)

    def test_domain(self):
        with pytest.raises(DomainError):
            bell_diagonal_map(1.2)
