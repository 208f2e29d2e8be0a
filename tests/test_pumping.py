import numpy as np
import pytest

from xypurify import (
    DomainError,
    PumpRound,
    PumpTrace,
    RoundInput,
    closed_form_general,
    fidelity,
    fixed_point,
    operational_time,
    pump,
    run_round,
    werner,
)
from xypurify.pumping import EPSILON_DEFAULT, MAX_ROUNDS


def fidelities(trace):
    """F_0 = f, then the fidelity after each round of a trace."""
    return [trace.f] + [r.fidelity for r in trace.rounds]


# a round count is an integer >= 1, checked before any round runs
@pytest.mark.parametrize("n", [2.5, np.nan, True, 0], ids=["float", "nan", "bool", "zero"])
@pytest.mark.parametrize("entry", [lambda n: pump(0.8, n)], ids=["pump"])
def test_round_count_is_an_integer(entry, n):
    with pytest.raises(DomainError, match=r"^n must be (an integer|>= 1), got"):
        entry(n)


# at most MAX_ROUNDS, the bound of the optimal-round search; an int past
# the float range raised islice's bare ValueError
@pytest.mark.parametrize("n", [MAX_ROUNDS + 1, 2**1024], ids=["above", "past-floats"])
@pytest.mark.parametrize("entry", [lambda n: pump(0.8, n)], ids=["pump"])
def test_round_count_is_bounded(entry, n):
    with pytest.raises(DomainError, match=f"^n must be at most {MAX_ROUNDS}, got"):
        entry(n)


class TestPump:
    def test_perfect_pairs_stay_perfect(self):
        trace = pump(1.0, 5)
        assert all(r.fidelity == pytest.approx(1.0, abs=1e-12) for r in trace.rounds)

    def test_below_threshold_rejected(self):
        with pytest.raises(DomainError):
            pump(0.5, 3)
        with pytest.raises(DomainError):
            pump(0.75, 0)

    def test_reference_sequence(self):
        trace = pump(0.75, 4)
        expect = [0.8276699029126213, 0.8603408949159791,
                  0.8730388800965841, 0.8778211869480556]
        got = [r.fidelity for r in trace.rounds]
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_deltas_are_consistent(self):
        trace = pump(0.8, 8)
        fs = fidelities(trace)
        for r, (prev, cur) in zip(trace.rounds, zip(fs, fs[1:])):
            assert r.delta == pytest.approx(cur - prev, abs=1e-14)

    def test_monotone_and_bounded_by_fixed_point(self):
        # strictly increasing until the gap to the fixed point is below
        # numeric resolution, never decreasing, never overshooting
        for f in np.linspace(0.52, 1.0, 50):
            trace = pump(f, 12)
            fs = fidelities(trace)
            for a, b in zip(fs, fs[1:]):
                assert b >= a
                if trace.fixed_point - a > 1e-9:
                    assert b > a
            assert fs[-1] <= trace.fixed_point + 1e-12

    def test_simulation_mode_agrees_exactly_for_two_rounds(self):
        # the stored state is exactly Werner entering rounds 1 and 2, so
        # the scalar recurrence is exact there
        for f in (0.6, 0.75, 0.9):
            sim = pump(f, 2, mode="simulation")
            cf = pump(f, 2, mode="closed_form")
            for a, b in zip(sim.rounds, cf.rounds):
                assert a.fidelity == pytest.approx(b.fidelity, abs=1e-9)
                assert a.success_probability == pytest.approx(
                    b.success_probability, abs=1e-9)

    def test_simulation_mode_drift_is_bounded(self):
        # from round 3 the stored state leaves the Werner family and the
        # exact dynamics pumps slightly above the scalar recurrence;
        # quantified envelope from the simulation oracle
        for f in (0.6, 0.75, 0.9):
            sim = pump(f, 10, mode="simulation")
            cf = pump(f, 10, mode="closed_form")
            diffs = [a.fidelity - b.fidelity
                     for a, b in zip(sim.rounds, cf.rounds)]
            assert max(abs(d) for d in diffs) < 5e-3
            assert all(d > -1e-9 for d in diffs)

    # J t0 = k T: T, -T and the next operational time 3T (n = 1)
    @pytest.mark.parametrize("k", [1.0, -1.0, 3.0])
    @pytest.mark.parametrize("f", [0.6, 0.75, 0.9])
    def test_simulation_mode_matches_six_qubit_loop(self, f, k):
        # the rounds do not depend on which operational time, or its sign
        sim = pump(f, 10, mode="simulation")
        state = werner(f)
        t = k * operational_time(1.0).t
        for r in sim.rounds:
            result = run_round(RoundInput(f=f, stationary_state=state, t0=t))
            state = result.post_state
            assert r.fidelity == pytest.approx(fidelity(state), abs=1e-12)
            assert r.success_probability == pytest.approx(
                result.success_probability, abs=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            pump(0.75, 2, mode="magic")


class TestPumpTraceSummary:
    @staticmethod
    def expected_trace(f, n):
        # the recurrence written out: the first n rounds, and the first
        # round within EPSILON_DEFAULT of the fixed point (0 if F_0 is)
        xstar = fixed_point(f)
        rounds, fids, current = [], [f], f
        while len(rounds) < n or xstar - fids[-1] >= EPSILON_DEFAULT:
            step = closed_form_general(f, current)
            if len(rounds) < n:
                rounds.append(PumpRound(n=len(rounds) + 1, fidelity=step.fidelity,
                                        delta=step.fidelity - current,
                                        success_probability=step.success_probability))
            current = step.fidelity
            fids.append(current)
        n_optimal = next(k for k, x in enumerate(fids) if xstar - x < EPSILON_DEFAULT)
        return PumpTrace(f=f, rounds=tuple(rounds), fixed_point=xstar,
                         n_optimal=n_optimal)

    def test_trace_unchanged_on_grid(self):
        for f in np.linspace(0.51, 1.0, 25):
            assert pump(f, 6) == self.expected_trace(f, 6)

    def test_fixed_point_searched_once(self, monkeypatch):
        import xypurify.pumping as pumping
        calls = []
        original = pumping.fixed_point
        monkeypatch.setattr(pumping, "fixed_point",
                            lambda f: calls.append(f) or original(f))
        for mode in ("closed_form", "simulation"):
            pump(0.75, 3, mode=mode)
        assert calls == [0.75, 0.75]


class TestThresholdBehavior:
    def test_gain_positive_below_fixed_point(self):
        for f in (0.6, 0.75, 0.9):
            x = fixed_point(f)
            for fp in np.linspace(0.5, x - 1e-6, 7):
                assert closed_form_general(f, fp).fidelity > fp

    def test_gain_negative_above_fixed_point(self):
        for f in (0.6, 0.75, 0.9):
            x = fixed_point(f)
            for fp in np.linspace(x + 1e-6, 0.995, 5):
                assert closed_form_general(f, fp).fidelity < fp

    def test_below_threshold_pairs_degrade(self):
        assert closed_form_general(0.4, 0.6).fidelity < 0.6
        assert closed_form_general(0.5, 0.5).fidelity == pytest.approx(0.5,
                                                                       abs=1e-14)


class TestFixedPoint:
    def test_perfect(self):
        assert fixed_point(1.0) == 1.0

    def test_threshold(self):
        assert fixed_point(0.5) == pytest.approx(0.5, abs=1e-9)

    def test_reference_value(self):
        x = fixed_point(0.75)
        assert x == pytest.approx(0.880647030, abs=1e-9)
        assert abs(closed_form_general(0.75, x).fidelity - x) < 1e-12

    def test_known_rational_point(self):
        # f = 0.7 lands on exactly 5/6
        assert fixed_point(0.7) == pytest.approx(5.0 / 6.0, abs=1e-11)

    def test_root_is_stationary_to_rounding(self):
        for f in np.linspace(0.5, 1.0, 101):
            x = fixed_point(f)
            assert abs(closed_form_general(f, x).fidelity - x) <= 4e-16

    def test_pump_converges_to_it(self):
        trace = pump(0.75, 20)
        assert trace.fixed_point - trace.rounds[-1].fidelity < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            fixed_point(0.4)


class TestOptimalRounds:
    # n_optimal of a trace: the rounds the scalar recurrence needs to come
    # within EPSILON_DEFAULT of the fixed point
    def test_saturation_after_four_rounds(self):
        # F_4 is the first fidelity within 0.005 of the fixed point
        gaps = [fixed_point(0.75) - x for x in fidelities(pump(0.75, 4))]
        assert [gap < 0.005 for gap in gaps] == [False] * 4 + [True]

    def test_default_epsilon(self):
        assert EPSILON_DEFAULT == 1e-3
        assert pump(0.75, 1).n_optimal == 6

    def test_zero_rounds_when_close_enough(self):
        # f = 0.999 starts 7.5e-4 below its fixed point, f = 0.998 1.5e-3
        assert 0.0 < fixed_point(0.999) - 0.999 < EPSILON_DEFAULT
        assert pump(0.999, 1).n_optimal == 0
        assert fixed_point(0.998) - 0.998 > EPSILON_DEFAULT
        assert pump(0.998, 1).n_optimal == 1

    def test_perfect_needs_one_round(self):
        assert pump(1.0, 1).n_optimal <= 1


class TestSaturationTable:
    # the rows of ``xypurify fig6``: every round of pump(f, n_max), with
    # F_hat = F_n - f and F_bar the round's delta
    def test_first_round_matches_closed_form(self):
        for f in (0.6, 0.75, 0.9):
            first = pump(f, 4).rounds[0]
            expect = closed_form_general(f, f).fidelity
            assert first.fidelity == pytest.approx(expect, abs=1e-14)
            assert first.delta == pytest.approx(expect - f, abs=1e-14)

    def test_four_rounds_dominate_one(self):
        for f in np.linspace(0.55, 0.95, 17):
            rounds = pump(f, 4).rounds
            assert rounds[3].fidelity - f >= rounds[0].fidelity - f

    def test_gain_column_nonnegative(self):
        for f in np.linspace(0.51, 0.99, 25):
            assert all(r.delta >= 0.0 for r in pump(f, 8).rounds)

    def test_f_bar_is_delta_of_f_hat(self):
        # fig6's F_hat = F_n - f of a trace of n rounds steps by round n's
        # delta, on both pump modes
        for trace in (lambda n: pump(0.8, n), lambda n: pump(0.8, n, mode="simulation")):
            hats = [0.0] + [trace(n).rounds[-1].fidelity - 0.8 for n in range(1, 7)]
            for r in trace(6).rounds:
                assert r.delta == pytest.approx(hats[r.n] - hats[r.n - 1], abs=1e-14)
