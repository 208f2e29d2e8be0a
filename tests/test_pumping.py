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
    optimal_rounds,
    pump,
    run_round,
    saturation_table,
    scheme_c_pump,
    werner,
)
from xypurify.pumping import EPSILON_DEFAULT


# a round count is an integer >= 1, checked before any round runs
@pytest.mark.parametrize("n", [2.5, np.nan, True, 0], ids=["float", "nan", "bool", "zero"])
@pytest.mark.parametrize("entry", [
    lambda n: pump(0.8, n),
    lambda n: saturation_table([0.8], n),
    lambda n: scheme_c_pump(0.8, n),
], ids=["pump", "saturation_table", "scheme_c_pump"])
def test_round_count_is_an_integer(entry, n):
    with pytest.raises(DomainError, match=r"^n(_max)? must be (an integer|>= 1), got"):
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
        fs = trace.fidelities
        for r, (prev, cur) in zip(trace.rounds, zip(fs, fs[1:])):
            assert r.delta == pytest.approx(cur - prev, abs=1e-14)
        assert trace.f_hat == pytest.approx(fs[-1] - 0.8, abs=1e-14)

    def test_monotone_and_bounded_by_fixed_point(self):
        # strictly increasing until the gap to the fixed point is below
        # numeric resolution, never decreasing, never overshooting
        for f in np.linspace(0.52, 1.0, 50):
            trace = pump(f, 12)
            fs = trace.fidelities
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
        rounds, current = [], f
        for k in range(1, n + 1):
            step = closed_form_general(f, current)
            rounds.append(PumpRound(n=k, fidelity=step.fidelity,
                                    delta=step.fidelity - current,
                                    success_probability=step.success_probability))
            current = step.fidelity
        return PumpTrace(f=f, rounds=tuple(rounds), f_hat=current - f,
                         fixed_point=fixed_point(f),
                         n_optimal=optimal_rounds(f))

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
        assert trace.fixed_point - trace.fidelities[-1] < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            fixed_point(0.4)


class TestOptimalRounds:
    def test_saturation_after_four_rounds(self):
        # F_4 is the first fidelity within 0.005 of the fixed point
        gaps = [fixed_point(0.75) - x for x in pump(0.75, 4).fidelities]
        assert [gap < 0.005 for gap in gaps] == [False] * 4 + [True]

    def test_default_epsilon(self):
        assert EPSILON_DEFAULT == 1e-3
        assert optimal_rounds(0.75) == 6

    def test_zero_rounds_when_close_enough(self):
        # f = 0.999 starts 7.5e-4 below its fixed point, f = 0.998 1.5e-3
        assert 0.0 < fixed_point(0.999) - 0.999 < EPSILON_DEFAULT
        assert optimal_rounds(0.999) == 0
        assert fixed_point(0.998) - 0.998 > EPSILON_DEFAULT
        assert optimal_rounds(0.998) == 1

    def test_perfect_needs_one_round(self):
        assert optimal_rounds(1.0) <= 1


class TestSaturationTable:
    def test_first_round_matches_closed_form(self):
        rows = saturation_table([0.6, 0.75, 0.9], n_max=4)
        for row in rows:
            if row.n == 1:
                expect = closed_form_general(row.f, row.f).fidelity
                assert row.fidelity == pytest.approx(expect, abs=1e-14)
                assert row.f_hat == pytest.approx(expect - row.f, abs=1e-14)

    def test_four_rounds_dominate_one(self):
        grid = np.linspace(0.55, 0.95, 17)
        rows = saturation_table(grid, n_max=4)
        by_n = {}
        for row in rows:
            by_n.setdefault(row.n, {})[row.f] = row.f_hat
        for f in grid:
            assert by_n[4][f] >= by_n[1][f]

    def test_gain_column_nonnegative(self):
        rows = saturation_table(np.linspace(0.51, 0.99, 25), n_max=8)
        assert all(row.f_bar >= 0.0 for row in rows)

    def test_f_bar_is_delta_of_f_hat(self):
        rows = saturation_table([0.8], n_max=6)
        hats = {row.n: row.f_hat for row in rows}
        for row in rows:
            prev = hats.get(row.n - 1, 0.0)
            assert row.f_bar == pytest.approx(row.f_hat - prev, abs=1e-14)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            saturation_table([0.5], n_max=4)
        with pytest.raises(DomainError):
            saturation_table([], n_max=4)
        with pytest.raises(DomainError):
            saturation_table([0.8], n_max=0)
