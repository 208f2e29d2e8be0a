import hashlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xypurify import (
    DensityMatrix,
    DomainError,
    RoundInput,
    ZeroProbabilityError,
    bell_diagonal_map,
    bootstrap_round,
    closed_form_at,
    closed_form_general,
    computational_pair,
    evolve_triplet,
    fidelity,
    operational_time,
    random_bell_diagonal,
    run_round,
    werner,
)
from xypurify import rounds
from xypurify.states import BELL_ORDER, BELL_PROJECTORS, _bell_off_diagonal

from oracle import (
    bell_matrix,
    bell_weights,
    post_selected,
    restore,
    ring_pair,
    six_qubit_state,
    stored_pair,
)

T = operational_time(1.0).t  # pi/6


def make_input(f, fprime, t0):
    return RoundInput(f=f, stationary_state=werner(fprime), t0=t0)


def coherence(rho):
    """The real phi+/phi- coherence d of a two-qubit state."""
    return float(np.real(bell_matrix(rho)[0, 1]))


class TestClosedForms:
    def test_zero_time_returns_input(self):
        # algebraic simplification of the trig form at t0 = 0, checked
        # against a numeric sweep of f
        for f in np.linspace(0.0, 1.0, 11):
            assert closed_form_at(0.0, f).fidelity == pytest.approx(f, abs=1e-12)

    def test_peak_value(self):
        assert closed_form_at(T, 0.75).fidelity == pytest.approx(42.625 / 51.5,
                                                                 abs=1e-14)

    def test_perfect_input_stays_perfect(self):
        assert closed_form_at(T, 1.0).fidelity == pytest.approx(1.0, abs=1e-14)

    def test_general_matches_diagonal_special_case(self):
        for f in np.linspace(0.5, 1.0, 11):
            at = closed_form_at(T, f)
            assert closed_form_general(f, f).fidelity == pytest.approx(
                at.fidelity, abs=1e-12)
            assert closed_form_general(f, f).success_probability == pytest.approx(
                at.success_probability, abs=1e-12)

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
            assert closed_form_at(0.0, f).success_probability == pytest.approx(
                ((1 + 2 * f) / 6.0) ** 2, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(f=st.floats(0.0, 1.0), fprime=st.floats(0.0, 1.0))
    @example(f=1.0, fprime=0.0)
    def test_success_probability_floor(self, f, fprime):
        # the fidelity denominator is 972 P_succ >= 51 on [0,1]^2, with
        # equality at (1, 0); the slack covers float rounding only
        p = closed_form_general(f, fprime).success_probability
        assert 972.0 * p >= 51.0 - 1e-12

    def test_fidelity_denominator_bound(self):
        # closed_form_at's docstring: with c = cos(6 J t0) the fidelity
        # denominator is -8 (4f-1)(2f+1) c^2 + 16 (4f-1)(f-1) c + 42 f - 51
        # and lies in [-81, -9], the maximum at f = 1, c = 0; it is
        # -972 P / (1 + 2f) with P the success probability.  The grid holds
        # f = 0 and 1 and J t0 = pi/12, where c = 0.
        fs = np.linspace(0.0, 1.0, 101)
        jts = np.append(np.linspace(0.0, np.pi / 3, 241), np.pi / 12)
        dens = []
        for f in fs:
            for jt in jts:
                den = -972.0 * closed_form_at(jt, f).success_probability / (1.0 + 2.0 * f)
                c = np.cos(6.0 * jt)
                assert den == pytest.approx(
                    -8 * (4 * f - 1) * (2 * f + 1) * c * c
                    + 16 * (4 * f - 1) * (f - 1) * c + 42 * f - 51, abs=1e-12)
                dens.append(den)
        assert max(dens) <= -9.0 + 1e-12
        assert min(dens) >= -81.0 - 1e-12
        assert max(dens) == pytest.approx(-9.0, abs=1e-12)
        assert min(dens) == pytest.approx(-81.0, abs=1e-12)

    # 1e308 and -1e308 are finite, but the phase 12 J t0 overflows
    @pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf, 1e308, -1e308])
    def test_non_finite_time_rejected(self, t0):
        with pytest.raises(DomainError):
            closed_form_at(t0, 0.75)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            closed_form_at(T, 1.5)
        with pytest.raises(DomainError):
            closed_form_general(0.5, -0.1)

    @pytest.mark.parametrize("f, f_prime, message", [
        (1.5, 0.5, "f must lie in [0,1], got 1.5"),
        (0.5, -0.1, "f_prime must lie in [0,1], got -0.1"),
        (-1.0, 2.0, "f must lie in [0,1], got -1.0"),
        (np.nan, 0.5, "f must lie in [0,1], got nan"),
        (0.5, np.float64(np.nan), "f_prime must lie in [0,1], got nan"),
        (10**400, 0.5, f"f must lie in [0,1], got {10**400}"),
        (0.5, -(10**400), f"f_prime must lie in [0,1], got {-(10**400)}"),
    ], ids=["f", "f_prime", "both", "f-nan", "f_prime-nan", "f-int-past-float",
            "f_prime-int-past-float"])
    def test_domain_error_names_the_argument(self, f, f_prime, message):
        # the first argument out of [0,1] is the one named
        with pytest.raises(DomainError) as err:
            closed_form_general(f, f_prime)
        assert str(err.value) == message

    def test_next_round_improves(self):
        first = closed_form_general(0.75, 0.75).fidelity
        second = closed_form_general(0.75, first).fidelity
        assert second > first > 0.75


class TestRoundFormulas:
    GRID = [k / 20 for k in range(21)]
    TIMES = [k * np.pi / 40 for k in range(-8, 25)]

    def records(self):
        yield from (closed_form_general(f, fp) for f in self.GRID for fp in self.GRID)
        yield from (closed_form_at(t, f) for t in self.TIMES for f in self.GRID)

    def test_unpacks_into_two_python_floats(self):
        for record in self.records():
            assert type(record) is rounds.RoundFormulas
            fid, p = record
            assert (fid, p) == (record.fidelity, record.success_probability)
            assert type(fid) is float and type(p) is float

    def test_values_pinned_on_a_grid(self):
        # sha256 of every float.hex on the grid, taken while the record was
        # a frozen dataclass: the named tuple carries the same bits
        text = " ".join(float.hex(x) for record in self.records() for x in record)
        assert len(text.split()) == 2 * (21 * 21 + 33 * 21)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8b484cda9bb4eb40c902228c0f8a4425e9477fcabde9239aab329de9f0e5c158")


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
        f0 = closed_form_at(T, 0.75).fidelity
        for delta in (1e-3, 1e-2):
            assert closed_form_at(T - delta, 0.75).fidelity <= f0
            assert closed_form_at(T + delta, 0.75).fidelity <= f0

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            operational_time(0.0)
        with pytest.raises(DomainError):
            operational_time(1.0, -1)


# the one entry point that takes the coupling J; the rest work in J = 1
@pytest.mark.parametrize("j", [0.0, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [operational_time], ids=["operational_time"])
def test_coupling_finite_and_nonzero(entry, j):
    with pytest.raises(DomainError, match="coupling J must be finite and nonzero"):
        entry(j)


# n is a count, and T = pi/3 (n + 1/2) / J must be a finite float
@pytest.mark.parametrize("j, n", [(1.0, np.nan), (1.0, 2.5), (1.0, True),
                                  (1e-320, 0), (1.0, 10**400)],
                         ids=["n-nan", "n-float", "n-bool", "j-subnormal", "n-past-floats"])
def test_operational_time_rejects_non_count_or_infinite_t(j, n):
    with pytest.raises(DomainError, match="must be an integer >= 0|not finite"):
        operational_time(j, n)


def test_operational_time_takes_numpy_integers():
    assert operational_time(1.0, np.int64(2)) == operational_time(1.0, 2)


# numpy floats take the Python-float path, and ints past the float range
# meet the range check first: a DomainError, with no numpy RuntimeWarning
# (an error under pytest) or OverflowError on the way
@pytest.mark.parametrize("call", [
    lambda: closed_form_at(np.float64(1e308), 0.75),
    lambda: closed_form_at(np.float64(-1e308), 0.75),
    lambda: closed_form_at(2**1024, 0.75),
    lambda: operational_time(np.float64(1e-320)),
    lambda: evolve_triplet(np.float64(1e308)),
    lambda: run_round(make_input(0.8, 0.7, np.float64(1e308))),
    lambda: run_round(make_input(0.8, 0.7, 2**1024)),
], ids=["closed_form", "closed_form-negative", "closed_form-int", "operational_time",
        "evolve_triplet", "run_round", "run_round-int"])
def test_overflow_of_numpy_float_or_int_is_domain_error(call):
    with pytest.raises(DomainError):
        call()


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

    @staticmethod
    def oracle_outcomes(f, fprime, t0):
        """The oracle's probability of each of the 16 outcomes on slots (1, 2, 4, 5)."""
        u = ring_pair(t0)
        rho6 = six_qubit_state(werner(f).matrix, werner(f).matrix, werner(fprime).matrix)
        evolved = u @ rho6 @ u.conj().T
        return {format(k, "04b"): post_selected(evolved, format(k, "04b"))[0]
                for k in range(16)}

    def test_outcome_probabilities_sum_to_one(self):
        probs = self.oracle_outcomes(0.8, 0.7, 0.4)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
        result = run_round(make_input(0.8, 0.7, 0.4))
        assert result.success_probability == pytest.approx(probs["0101"], abs=1e-12)

    def test_accepted_outcomes_symmetric(self):
        probs = self.oracle_outcomes(0.8, 0.7, T)
        assert probs["0101"] == pytest.approx(probs["1010"], abs=1e-12)

    def test_conditioning_identical_across_accepted_outcomes(self):
        # run_round keeps the 0101 branch; the oracle's evolved six-qubit
        # state gives both branches.  They agree for any stored pair, the
        # bootstrap's |00> and a random state included
        rng = np.random.default_rng(12)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mixed = a @ a.conj().T
        u = ring_pair(T)
        for stored in (werner(0.7), computational_pair("00"),
                       DensityMatrix(mixed / np.trace(mixed))):
            result = run_round(RoundInput(f=0.8, stationary_state=stored, t0=T))
            rho6 = six_qubit_state(werner(0.8).matrix, werner(0.8).matrix,
                                   stored.matrix)
            for bits in ("0101", "1010"):
                prob, post = post_selected(u @ rho6 @ u.conj().T, bits)
                assert prob == pytest.approx(result.success_probability, abs=1e-12)
                np.testing.assert_allclose(post, result.post_state.matrix,
                                           atol=1e-12)

    def test_zero_probability_branch(self, monkeypatch):
        # with perfect pairs and no evolution, outcome 0001 requires
        # anti-correlated bits on a perfectly correlated pair
        monkeypatch.setattr(rounds, "PREDEFINED_OUTCOME", "0001")
        with pytest.raises(ZeroProbabilityError):
            run_round(make_input(1.0, 1.0, 0.0))

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    def test_lost_or_nan_weight_is_zero_probability(self, monkeypatch, fill):
        # a propagator that keeps no weight, or carries nan, must stop at
        # the probability check and not reach DensityMatrix
        propagator = np.full((8, 8), fill, dtype=complex)
        monkeypatch.setattr(rounds, "evolve_triplet", lambda t: propagator)
        with pytest.raises(ZeroProbabilityError):
            run_round(make_input(0.8, 0.7, T))

    def test_validates_only_two_qubit_states(self, monkeypatch):
        # the six-qubit state of run_round is a plain array; returned pairs
        # are validated
        stored = random_bell_diagonal(np.random.default_rng(5))
        dims = Counter()
        validate = DensityMatrix.__post_init__

        def counting(rho):
            validate(rho)
            dims[rho.dim] += 1

        monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
        run_round(RoundInput(f=0.8, stationary_state=stored, t0=T))
        bootstrap_round(0.8, T)
        # one returned pair per call, plus the bootstrap's |00> seed
        assert dims == {4: 3}

    @pytest.mark.parametrize("t0", [T, -0.4, 2.9])
    def test_propagator_is_the_oracle_ring_pair(self, monkeypatch, t0):
        # the one Kronecker product of a round is its six-qubit propagator,
        # bit for bit the square of the triplet propagator, and that is the
        # oracle's independent ring pair
        inp, u3 = make_input(0.8, 0.7, t0), evolve_triplet(t0)
        expect = np.kron(u3, u3)
        np.testing.assert_allclose(expect, ring_pair(t0), rtol=0, atol=1e-14)
        made = []
        kron = np.kron
        monkeypatch.setattr(np, "kron", lambda a, b: made.append(kron(a, b)) or made[-1])
        run_round(inp)
        monkeypatch.undo()
        assert len(made) == 1
        assert made[0].dtype == expect.dtype
        assert made[0].tobytes() == expect.tobytes()

    # long times: a propagator whose -2 eigenvalue is off by one ulp
    # (8.9e-16) misses the closed forms by 6.3e-11 at 1e6, 2.0e-9 at 4e7
    @pytest.mark.parametrize("t0", [1e6, -1e6, 4e7])
    def test_closed_form_at_long_times(self, t0):
        for f in (0.6, 0.8):
            result, expect = run_round(make_input(f, f, t0)), closed_form_at(t0, f)
            assert abs(result.fidelity - expect.fidelity) <= 1e-12
            assert abs(result.success_probability - expect.success_probability) <= 1e-12

    def test_oracle_equivalence_small_grid(self):
        for f in (0.55, 0.75, 0.95):
            for jt in (0.0, np.pi / 8, np.pi / 3):
                result = run_round(make_input(f, f, jt))
                expect = closed_form_at(jt, f)
                assert result.fidelity == pytest.approx(expect.fidelity, abs=1e-9)
                assert result.success_probability == pytest.approx(
                    expect.success_probability, abs=1e-9)

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
        weights = bell_weights(result.post_state)
        rest = (1 - weights["phi_plus"]) / 3
        for k in ("phi_minus", "psi_plus", "psi_minus"):
            assert weights[k] == pytest.approx(rest, abs=1e-12)

    def test_unequal_fidelities_leave_werner_family(self):
        # Bell-diagonal but the three non-target weights split; this is
        # why closed-form and simulated pumping drift apart from round 3
        result = run_round(make_input(0.9, 0.6, T))
        weights = bell_weights(result.post_state)
        assert result.werner_deviation < 1e-12
        rest = (1 - weights["phi_plus"]) / 3
        spread = max(abs(weights[k] - rest)
                     for k in ("phi_minus", "psi_plus", "psi_minus"))
        assert spread > 1e-3

    def test_input_validation(self):
        with pytest.raises(DomainError):
            make_input(1.2, 0.7, T)
        with pytest.raises(DomainError):
            make_input(0.8, 0.7, np.nan)

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
        expect = closed_form_at(jt, f)
        assert result.fidelity == pytest.approx(expect.fidelity, abs=1e-9)
        assert result.success_probability == pytest.approx(
            expect.success_probability, abs=1e-9)


class TestRestore:
    # the oracle's restore: the propagator is the identity at every m pi
    def evolved_composite(self, rng, elapsed):
        rho = six_qubit_state(*(random_bell_diagonal(rng).matrix for _ in range(3)))
        u = ring_pair(elapsed)
        return rho, u @ rho @ u.conj().T

    def test_restores_after_gate_time(self):
        rng = np.random.default_rng(5)
        original, evolved = self.evolved_composite(rng, T)
        restored = restore(evolved, T)
        np.testing.assert_allclose(restored, original, atol=1e-11)
        np.testing.assert_allclose(stored_pair(restored), stored_pair(original), atol=1e-11)

    def test_zero_elapsed_unchanged(self):
        rng = np.random.default_rng(6)
        original, _ = self.evolved_composite(rng, 0.0)
        np.testing.assert_allclose(restore(original, 0.0), original, atol=1e-11)

    # backward in time, and past one period (m = 3)
    @pytest.mark.parametrize("elapsed", [-T, 2.5 * np.pi], ids=["minus-T", "2.5pi"])
    def test_restores_any_finite_elapsed_time(self, elapsed):
        rng = np.random.default_rng(8)
        original, evolved = self.evolved_composite(rng, elapsed)
        np.testing.assert_allclose(restore(evolved, elapsed), original, atol=1e-11)

    def test_default_m_is_smallest_period(self):
        rng = np.random.default_rng(7)
        elapsed = 0.37 * np.pi
        original, evolved = self.evolved_composite(rng, elapsed)
        np.testing.assert_allclose(restore(evolved, elapsed), original, atol=1e-11)


class TestBootstrap:
    def test_first_round_coefficients(self):
        result = bootstrap_round(0.75, T)
        w = bell_weights(result.post_state)
        assert w["phi_plus"] == pytest.approx(0.75, abs=0.02)
        # frozen from the six-qubit simulation; psi+ and psi- share b
        assert w["phi_plus"] == pytest.approx(0.758398, abs=1e-5)
        assert w["phi_minus"] == pytest.approx(0.069337, abs=1e-5)
        assert 0.5 * (w["psi_plus"] + w["psi_minus"]) == pytest.approx(0.086133,
                                                                       abs=1e-5)
        assert coherence(result.post_state) == pytest.approx(0.069337, abs=1e-5)
        assert result.success_probability == pytest.approx(0.099537, abs=1e-5)

    def test_perfect_pairs_favor_target(self):
        result = bootstrap_round(1.0, T)
        weights = bell_weights(result.post_state)
        target = weights["phi_plus"]
        assert all(target >= weights[k] for k in weights)

    def test_coherence_decays_over_rounds(self):
        state = bootstrap_round(0.75, T).post_state
        magnitudes = [abs(coherence(state))]
        for _ in range(5):
            state = run_round(RoundInput(f=0.75, stationary_state=state,
                                         t0=T)).post_state
            magnitudes.append(abs(coherence(state)))
        assert all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
        assert min(magnitudes) < 1e-3

    def test_below_threshold_rejected(self):
        with pytest.raises(DomainError):
            bootstrap_round(0.5, T)

    def test_nonzero_coherence_seen_by_decomposition(self):
        result = bootstrap_round(0.75, T)
        assert result.werner_deviation > 1e-3
        assert result.werner_deviation == _bell_off_diagonal(result.post_state)


def oracle_map(f, t0):
    """Bell-weight map of one six-qubit round, column k from Bell state k."""
    cols = []
    for k in BELL_ORDER:
        stored = DensityMatrix(BELL_PROJECTORS[k])
        result = run_round(RoundInput(f=f, stationary_state=stored, t0=t0))
        weights = bell_weights(result.post_state)
        cols.append([result.success_probability * weights[b] for b in BELL_ORDER])
    return np.array(cols).T


class TestBellDiagonalMap:
    def test_integer_coefficients_rederived_from_oracle(self):
        # 2916 M(f) = A + B f + C f^2, solved from f = 0, 1/2, 1; the same
        # at J T = pi/6 and at -pi/6
        for t0 in (T, -T):
            m0, mh, m1 = (2916.0 * oracle_map(f, t0) for f in (0.0, 0.5, 1.0))
            c = 2.0 * (m1 - 2.0 * mh + m0)
            b = m1 - m0 - c
            for derived, pinned in ((m0, rounds._BELL_MAP_A),
                                    (b, rounds._BELL_MAP_B),
                                    (c, rounds._BELL_MAP_C)):
                assert np.abs(derived - np.rint(derived)).max() < 1e-9
                np.testing.assert_array_equal(np.rint(derived), pinned)
                np.testing.assert_array_equal(pinned, pinned.T)

    def test_matches_oracle_on_random_bell_diagonal_pairs(self):
        rng = np.random.default_rng(11)
        for f in (0.3, 0.6, 0.9):
            # the operational times J T = pi/6, -pi/6 and pi/2 (n = 1)
            for t0 in (T, -T, 3 * T):
                stored = random_bell_diagonal(rng)
                result = run_round(RoundInput(f=f, stationary_state=stored, t0=t0))
                w = bell_weights(stored)
                post = bell_diagonal_map(f) @ [w[k] for k in BELL_ORDER]
                weights = bell_weights(result.post_state)
                assert post.sum() == pytest.approx(result.success_probability,
                                                   abs=1e-12)
                np.testing.assert_allclose(
                    post / post.sum(), [weights[k] for k in BELL_ORDER],
                    atol=1e-12, rtol=0)
                assert result.werner_deviation < 1e-12

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
