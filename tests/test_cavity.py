import math
import tracemalloc
import dataclasses
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from xypurify import (
    CavityGeometry,
    DomainError,
    GeometryError,
    StiffnessError,
    asymptotic_hamiltonian,
    convergence_study,
    integrate_full,
    operational_time,
    solve_geometry,
    xy_agreement,
)
from xypurify import cavity
from xypurify.cavity import (
    _coupling_vector,
    _dop853,
    _effective_steps,
    _endpoint,
    _full_steps,
    _integrate,
    _mean_hamiltonian_3,
    _propagator,
    _ring_exchange_3,
    distance_mod_phase,
    peak_collective_coupling,
)


def default_geom(delta=50.0, ell=1.0, v=0.5, **kw):
    return CavityGeometry(ell=ell, d=solve_geometry(ell), v=v, delta=delta, **kw)


C3 = np.array([1.0, 0.0, 0.0], dtype=complex)
C4 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)


def effective_endpoint(geom, initial):
    """The eliminated run's endpoint, as xy_agreement reads it."""
    return _endpoint(_effective_steps(geom, initial), 3)


def reference_commutator_ratio(geom):
    """xy_agreement's commutator_ratio as a loop over pairs of np.outer generators."""
    mats = []
    for t in np.linspace(*geom.window(), 25):
        g = _coupling_vector(geom, t)
        m = np.outer(g, g) / geom.delta
        np.fill_diagonal(m, 0.0)
        mats.append(m)
    norm_max = max(np.linalg.norm(m, 2) for m in mats)
    comm_max = max(np.linalg.norm(m1 @ m2 - m2 @ m1, 2)
                   for i, m1 in enumerate(mats) for m2 in mats[i + 1:])
    return float(comm_max / norm_max ** 2)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(GeometryError):
            CavityGeometry(ell=1.0, d=1.0, v=0.0, delta=50.0)
        with pytest.raises(GeometryError):
            CavityGeometry(ell=1.0, d=1.0, v=0.5, delta=0.0)
        # the integrator needs finite couplings and a finite window
        fields = dict(ell=1.0, d=1.0, v=0.5, delta=50.0)
        for name in fields:
            for bad in (math.nan, math.inf):
                with pytest.raises(GeometryError):
                    CavityGeometry(**{**fields, name: bad})
        for d, v in ((0.0, 1e-320), (1e308, 0.5)):
            with pytest.raises(GeometryError):
                CavityGeometry(**{**fields, "d": d, "v": v})

    def test_transit_phase_bound(self, monkeypatch):
        # |delta| (t_b - t_a) above MAX_TRANSIT_PHASE is rejected; the bound
        # itself is allowed
        geom = default_geom(delta=-50.0)
        t_a, t_b = geom.window()
        phase = 50.0 * (t_b - t_a)
        assert phase < cavity.MAX_TRANSIT_PHASE / 100
        monkeypatch.setattr(cavity, "MAX_TRANSIT_PHASE", phase)
        assert replace(geom, delta=50.0).delta == 50.0
        for delta in (math.nextafter(50.0, math.inf), -100.0):
            with pytest.raises(GeometryError, match="above the bound"):
                replace(geom, delta=delta)
        with pytest.raises(GeometryError, match="above the bound"):
            replace(geom, v=math.nextafter(geom.v, 0.0))

    def test_transit_window_bound_below_unit_detuning(self, monkeypatch):
        # below |delta| = 1 the couplings, not delta, set the step count, so
        # max(|delta|, 1) (t_b - t_a) is bounded: the window itself
        geom = default_geom(delta=1e-4, v=1e-3)
        t_a, t_b = geom.window()
        monkeypatch.setattr(cavity, "MAX_TRANSIT_PHASE", t_b - t_a)
        for delta in (1e-4, -0.5, 1.0):
            assert replace(geom, delta=delta).delta == delta
        for change in (dict(v=math.nextafter(geom.v, 0.0)),
                       dict(delta=math.nextafter(1.0, 2.0))):
            with pytest.raises(GeometryError, match="above the bound"):
                replace(geom, **change)
        monkeypatch.undo()
        # a slow conveyor at a small detuning: |delta| times its window of
        # ~1.1e8 is ~1.1e4, far below the bound, but the exact run would
        # take millions of steps
        with pytest.raises(GeometryError, match="above the bound"):
            default_geom(delta=1e-4, v=1e-7)

    def test_field_bounds(self):
        # each bound is inclusive, and the first float past it is rejected
        # before any run
        fields = dict(ell=1.0, d=1.0, v=0.5, delta=50.0)
        at = [dict(d=cavity.MAX_SPACING),
              dict(delta=cavity.MAX_DETUNING, v=cavity.MAX_VELOCITY),
              dict(delta=-cavity.MAX_DETUNING, v=cavity.MAX_VELOCITY),
              dict(delta=1.0 / cavity.MAX_DETUNING, v=cavity.MAX_VELOCITY),
              dict(delta=50.0, v=cavity.MAX_VELOCITY)]
        past = [dict(d=math.nextafter(cavity.MAX_SPACING, math.inf)),
                dict(delta=math.nextafter(cavity.MAX_DETUNING, math.inf),
                     v=cavity.MAX_VELOCITY),
                dict(delta=-math.nextafter(1.0 / cavity.MAX_DETUNING, 0.0)),
                dict(v=math.nextafter(cavity.MAX_VELOCITY, math.inf))]
        for change in at:
            CavityGeometry(**{**fields, **change})
        for change in past:
            with pytest.raises(GeometryError, match="bound"):
                CavityGeometry(**{**fields, **change})

    def test_every_solved_spacing_within_bound(self):
        for ell in np.linspace(math.sqrt(math.log(2.0) / 2.0), cavity.MAX_OFFSET, 200):
            geom = default_geom(ell=float(ell))
            assert geom.d <= cavity.MAX_SPACING
            assert np.isfinite(asymptotic_hamiltonian(geom).max_rel_error)

    def test_settable_fields_are_the_four_ratios(self):
        # g0 = w = 1: Delta/g0, ell/w, d/w and v/(w g0) fix the model
        settable = tuple(f.name for f in dataclasses.fields(CavityGeometry) if f.init)
        assert settable == ("ell", "d", "v", "delta")

    def test_adiabatic_flag(self):
        assert default_geom(delta=50.0).adiabatic
        assert not default_geom(delta=5.0).adiabatic
        assert default_geom(delta=-25.0).adiabatic

    def test_default_positions_respect_spacing(self):
        geom = default_geom()
        assert abs(abs(geom.z0[0] - geom.z0[1]) - geom.d) < 1e-12
        assert replace(geom, delta=100.0).z0 == geom.z0


class TestCoupling:
    # couplings in units of g0, at axial positions in waists
    def test_peak_at_waist_center(self):
        geom = default_geom()
        t_peak = -geom.z0[0] / geom.v
        assert _coupling_vector(geom, t_peak)[0] == pytest.approx(1.0, abs=1e-12)

    def test_trapped_atom_constant(self):
        geom = default_geom(ell=1.0)
        expect = math.exp(-1.0)
        for t in (0.0, 3.0, 17.2):
            assert _coupling_vector(geom, t)[2] == pytest.approx(expect, abs=1e-15)

    def test_waist_envelope(self):
        geom = default_geom()
        t_at_w = (1.0 - geom.z0[0]) / geom.v  # z_1 = +w
        assert _coupling_vector(geom, t_at_w)[0] == pytest.approx(1.0 / math.e,
                                                                  abs=1e-12)


# ints past the float range fail the range check before any float arithmetic
BIG = 10**400


@pytest.mark.parametrize("call, error", [
    (lambda: operational_time(BIG), DomainError),
    (lambda: solve_geometry(BIG), GeometryError),
    (lambda: CavityGeometry(ell=1.0, d=1.0, v=0.5, delta=BIG), GeometryError),
    (lambda: CavityGeometry(ell=1.0, d=BIG, v=0.5, delta=50.0), GeometryError),
    (lambda: CavityGeometry(ell=1.0, d=1.0, v=BIG, delta=50.0), GeometryError),
    (lambda: CavityGeometry(ell=BIG, d=1.0, v=0.5, delta=50.0), GeometryError),
], ids=["operational_time", "solve_geometry", "delta", "d", "v", "ell"])
def test_int_past_float_range_rejected_up_front(call, error):
    with pytest.raises(error):
        call()


class TestSolveGeometry:
    def test_reference_solutions(self):
        assert solve_geometry(1.0) == pytest.approx(
            math.sqrt(2.0 - math.log(2.0)), abs=1e-14)
        assert solve_geometry(2.0) == pytest.approx(
            math.sqrt(8.0 - math.log(2.0)), abs=1e-14)

    def test_feasibility_boundary(self):
        ell0 = math.sqrt(math.log(2.0) / 2.0)
        assert solve_geometry(ell0) == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("ell", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_offset_rejected(self, ell):
        with pytest.raises(GeometryError, match="finite and nonnegative"):
            solve_geometry(ell)

    def test_infeasible_reports_bound(self):
        with pytest.raises(GeometryError) as err:
            solve_geometry(0.3)
        assert "0.588" in str(err.value)

    def test_unit_coupling_achieved(self):
        geom = default_geom(ell=1.3)
        res = asymptotic_hamiltonian(geom)
        assert res.c_matrix[0, 1] == pytest.approx(1.0, abs=1e-9)


class TestAsymptoticCouplings:
    def test_stationary_rows_are_unity(self):
        res = asymptotic_hamiltonian(default_geom())
        for i, k in ((0, 2), (1, 2)):
            assert res.c_matrix[i, k] == pytest.approx(1.0, abs=1e-6)

    def test_numeric_matches_closed_form(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            ell = rng.uniform(0.6, 2.0)
            d = rng.uniform(0.3, 2.5)
            v = rng.uniform(0.2, 1.5)
            delta = rng.uniform(25.0, 80.0)
            geom = CavityGeometry(ell=ell, d=d, v=v, delta=delta)
            res = asymptotic_hamiltonian(geom)
            assert res.max_rel_error < 1e-6

    def test_degenerate_overlap(self):
        geom = CavityGeometry(ell=0.0, d=0.0, v=0.5, delta=50.0)
        res = asymptotic_hamiltonian(geom)
        assert res.c_matrix[0, 1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)

    def test_window_reach_is_default_span(self):
        # the proof in asymptotic_hamiltonian's docstring: each conveyed atom
        # crosses the waist inside the window and is DEFAULT_SPAN waists from
        # it at the nearer edge, so the clipped tails are below erfc(5)
        assert math.erfc(cavity.DEFAULT_SPAN) < 1e-11
        for v in (0.01, 0.25, 1.0, 7.5):
            for d in (0.0, 0.3, 1.0, 4.2):
                geom = CavityGeometry(ell=1.0, d=d, v=v, delta=50.0)
                t_a, t_b = geom.window()
                assert t_a < t_b
                reach = math.inf
                for z in geom.z0:
                    za, zb = z + v * t_a, z + v * t_b
                    assert za < 0.0 < zb
                    reach = min(reach, abs(za), abs(zb))
                assert reach == pytest.approx(cavity.DEFAULT_SPAN, abs=1e-12)

    def test_t_prime(self):
        geom = default_geom(v=0.5)
        assert geom.t_prime == pytest.approx(math.sqrt(math.pi) / 0.5, abs=1e-12)


class TestFullIntegration:
    def test_no_coupling_freezes_amplitudes(self):
        # a transit of 1e-11 / g0 leaves no time for the couplings to act
        geom = CavityGeometry(ell=1.0, d=1.0, v=1e12, delta=50.0)
        traj = integrate_full(geom, C4)
        np.testing.assert_allclose(traj.endpoint, C4, atol=1e-9)

    def test_norm_drift_small(self):
        traj = integrate_full(default_geom(), C4)
        assert np.abs(np.linalg.norm(traj.amplitudes, axis=1) - 1.0).max() < 1e-9

    def test_photon_population_bounded(self):
        geom = default_geom(delta=50.0)
        traj = integrate_full(geom, C4)
        gmax = peak_collective_coupling(geom)
        assert traj.max_photon_population < 4.0 * (gmax / geom.delta) ** 2

    def test_atomic_norm_accounts_for_leakage(self):
        traj = integrate_full(default_geom(), C4)
        atomic = np.linalg.norm(traj.endpoint[1:]) ** 2
        assert atomic >= 1.0 - traj.max_photon_population - 1e-9

    def test_detuning_sign_conjugates(self):
        geom_p = default_geom(delta=50.0)
        geom_m = default_geom(delta=-50.0)
        end_p = integrate_full(geom_p, C4).endpoint
        end_m = integrate_full(geom_m, C4).endpoint
        np.testing.assert_allclose(end_m, end_p.conj(), atol=1e-8)

    def test_initial_state_validation(self):
        for bad in ([1.0, 1.0, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0]):
            with pytest.raises(DomainError):
                integrate_full(default_geom(), np.array(bad))

    def test_stiffness_error_names_the_detuning(self, monkeypatch):
        # the stored and the endpoint-only exact runs report it alike
        def stiff(*args):
            raise StiffnessError("adaptive integrator failed at t = 1")
            yield

        monkeypatch.setattr(cavity, "_dop853", stiff)
        geom = default_geom(delta=-50.0)
        for run in (lambda: integrate_full(geom, C4),
                    lambda: convergence_study(geom, (2.0,))):
            with pytest.raises(StiffnessError, match=r"t = 1; .*\(\|delta\|/g0 = \d+\)"):
                run()

    def test_heap_per_step(self):
        # times and complex amplitudes written straight into one array of
        # each, grown in place by a quarter and cut at the end, take about
        # 83 B of traced heap per step for the 72 B kept
        geom = default_geom(delta=200.0, v=0.25)
        integrate_full(geom, C4)  # numpy's first-use allocations stay out
        tracemalloc.start()
        try:
            traj = integrate_full(geom, C4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        steps = len(traj.times) - 1
        assert steps > 3 * cavity._BLOCK_ROWS
        assert peak <= 90 * steps
        assert traj.times.ndim == 1 and traj.times.dtype == np.float64
        assert traj.amplitudes.shape == (len(traj.times), 4)
        assert traj.amplitudes.dtype == np.complex128


def captured_rhs(monkeypatch, steps, geom, initial):
    """The right-hand side that ``steps`` hands to _dop853."""
    seen = []
    monkeypatch.setattr(cavity, "_dop853", lambda fun, *args: seen.append(fun) or iter(()))
    deque(steps(geom, initial), maxlen=0)
    [fun] = seen
    return fun


def full_definition(geom, t, c):
    """c0' = i delta c0 + g . c_atoms, c_k' = -g_k c0, in complex arithmetic."""
    g = _coupling_vector(geom, t)
    return np.concatenate(([1j * geom.delta * c[0] + g @ c[1:]], -g * c[0]))


def effective_definition(geom, t, c):
    """c' = -i g (g . c) / delta, in complex arithmetic."""
    g = _coupling_vector(geom, t)
    return -1j * g * (g @ c) / geom.delta


class TestRightHandSides:
    """Each float right-hand side against its complex definition."""

    @pytest.mark.parametrize("delta", [20.0, -50.0, 100.0])
    @pytest.mark.parametrize("steps, initial, definition", [
        (_full_steps, C4, full_definition), (_effective_steps, C3, effective_definition)],
        ids=["full", "effective"])
    def test_equals_definition(self, monkeypatch, steps, initial, definition, delta):
        geom = default_geom(delta=delta)
        rhs = captured_rhs(monkeypatch, steps, geom, initial)
        n = len(initial)
        rng = np.random.default_rng(37)
        for _ in range(200):
            t = rng.uniform(*geom.window())
            y = rng.standard_normal(2 * n)
            dc = definition(geom, t, y[:n] + 1j * y[n:])
            want = np.concatenate((dc.real, dc.imag))
            got = rhs(t, y)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("steps, initial", [(_full_steps, C4), (_effective_steps, C3)],
                             ids=["full", "effective"])
    def test_each_call_returns_a_new_array(self, monkeypatch, steps, initial):
        # _dop853 and solve_ivp keep f_new across steps
        geom = default_geom()
        rhs = captured_rhs(monkeypatch, steps, geom, initial)
        y = np.concatenate((initial.real, initial.imag))
        first, second = rhs(0.0, y), rhs(0.0, y)
        assert first is not second and not np.shares_memory(first, second)
        for out in (first, second):
            assert out.dtype == np.float64 and out.shape == (2 * len(initial),)


class TestEffectiveIntegration:
    def test_frozen_couplings_reduce_to_matrix_exponential(self):
        geom = default_geom()
        g = _coupling_vector(geom, 0.5 * sum(geom.window()))
        m = np.outer(g, g) / geom.delta
        dt = 0.37

        def rhs(t, y):  # y = (Re c, Im c), c' = -i m c
            dc = -1j * (m @ (y[:3] + 1j * y[3:]))
            return np.concatenate([dc.real, dc.imag])

        [(t, y)] = deque(_dop853(rhs, 0.0, dt, np.concatenate([C3.real, C3.imag]),
                                 1e-12, 1e-14), maxlen=1)
        assert t == dt
        got = y[:3] + 1j * y[3:]
        np.testing.assert_allclose(got, expm(-1j * m * dt) @ C3, atol=1e-10)

    def test_norm_preserved(self):
        # y = (Re c, Im c) has the norm of c at every step
        drift = [abs(np.linalg.norm(y) - 1.0)
                 for _, y in _effective_steps(default_geom(), C3)]
        assert len(drift) > 10
        assert max(drift) < 1e-10

    def test_detuning_sign_conjugates(self):
        end_p = effective_endpoint(default_geom(delta=50.0), C3)
        end_m = effective_endpoint(default_geom(delta=-50.0), C3)
        np.testing.assert_allclose(end_m, end_p.conj(), atol=1e-10)

    def test_peak_collective_coupling_matches_sample_loop(self):
        for geom in (default_geom(), default_geom(v=0.25, ell=1.3)):
            t_a, t_b = geom.window()
            loop = max(math.sqrt(sum(g ** 2 for g in _coupling_vector(geom, t)))
                       for t in np.linspace(t_a, t_b, 2001))
            assert peak_collective_coupling(geom) == pytest.approx(loop, rel=0, abs=1e-15)

    def test_tracks_full_dynamics(self):
        for delta in (20.0, 50.0):
            geom = default_geom(delta=delta)
            full = integrate_full(geom, C4).endpoint[1:]
            eff = effective_endpoint(geom, C3)
            gmax = peak_collective_coupling(geom)
            assert np.linalg.norm(full - eff) < 5.0 * gmax / abs(delta)


class TestAgreement:
    def test_reference_distances(self):
        rep = xy_agreement(default_geom())
        assert rep.distance_full_mean < 0.05
        assert rep.distance_full_effective < 1e-3
        assert rep.distance_mean_corrected_xy < 1e-10
        assert rep.max_photon_population < rep.photon_population_bound
        assert rep.adiabatic

    def test_unit_pair_coupling(self):
        rep = xy_agreement(default_geom())
        assert rep.c12_numeric == pytest.approx(1.0, abs=1e-6)

    def test_commutator_ratio_is_moderate(self):
        # the time-dependent exchange generator self-commutes only
        # approximately; the ratio just has to stay well below 1
        rep = xy_agreement(default_geom())
        assert 0.0 < rep.commutator_ratio < 1.0

    def test_convergence_order_one(self):
        geom = default_geom()
        study = convergence_study(geom, factors=(1.0, 2.0, 4.0))
        d1, d2, d4 = (d for _, d in study)
        assert 0.4 < d2 / d1 < 0.6
        assert 0.4 < d4 / d2 < 0.6
        # the endpoint-only exact runs read the same distance, bit for bit,
        # as the report on the stored trajectory, at +-20, +-50 and +-100
        for delta in (20.0, -20.0):
            study = convergence_study(default_geom(delta=delta), (1.0, 2.5, 5.0))
            assert [g for g, _ in study] == [delta, 2.5 * delta, 5.0 * delta]
            assert [d for _, d in study] == [
                xy_agreement(default_geom(delta=g)).distance_full_mean for g, _ in study]

    def test_convergence_study_memory_is_flat(self):
        # each exact run keeps only its current state: the peak does not
        # grow with the step count (3274 steps at 200, more at 400)
        geom = default_geom(delta=200.0, v=0.25)
        convergence_study(geom, (1.0,))  # numpy's first-use allocations stay out
        tracemalloc.start()
        try:
            convergence_study(geom, (1.0, 2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(integrate_full(geom, C4).times) > 3 * cavity._BLOCK_ROWS
        assert peak < 16 * 1024

    @pytest.mark.parametrize("delta", [20.0, -20.0, 50.0, -50.0, 100.0, -100.0])
    def test_stacked_checks_equal_reference_loops(self, delta):
        # the report's eliminated-side numbers, bit for bit, against the
        # per-pair loop over np.outer generators and the endpoint of a
        # stored eliminated trajectory
        geom = default_geom(delta=delta)
        full = integrate_full(geom, C4)
        _, eff = _integrate(_effective_steps(geom, C3), 3)
        rep = xy_agreement(geom, full=full)
        assert rep.commutator_ratio == reference_commutator_ratio(geom)
        assert rep.distance_full_effective == float(
            np.linalg.norm(full.endpoint[1:] - eff[-1]))

    def test_stacked_commutator_equals_reference_loop_on_random_geometries(self):
        # the couplings are sampled with math.exp, as the loop samples them:
        # np.exp samples move the last bit on some of these geometries.  A
        # two-row stand-in for the exact run keeps the test fast; the ratio
        # does not read it
        rng = np.random.default_rng(31)
        for _ in range(40):
            geom = CavityGeometry(ell=rng.uniform(0.6, 2.0), d=rng.uniform(0.3, 2.5),
                                  v=rng.uniform(0.2, 1.5),
                                  delta=rng.choice([-1.0, 1.0]) * rng.uniform(25.0, 80.0))
            stand_in = cavity.Trajectory(times=np.array(geom.window()),
                                         amplitudes=np.array([C4, C4]),
                                         max_photon_population=0.0)
            rep = xy_agreement(geom, full=stand_in)
            assert rep.commutator_ratio == reference_commutator_ratio(geom)

    def test_precomputed_trajectory_changes_nothing(self):
        geom = default_geom()
        assert xy_agreement(geom, full=integrate_full(geom, C4)) == xy_agreement(geom)

    def test_mismatched_trajectory_rejected(self):
        geom = default_geom()
        other_start = integrate_full(geom, np.array([0.0, 0.0, 1.0, 0.0], dtype=complex))
        with pytest.raises(DomainError):
            xy_agreement(geom, full=other_start)
        full = integrate_full(geom, C4)
        short = replace(full, times=full.times[:-1], amplitudes=full.amplitudes[:-1])
        with pytest.raises(DomainError):
            xy_agreement(geom, full=short)

    def test_distance_mod_phase(self):
        a = np.array([1.0, 0.0], dtype=complex)
        assert distance_mod_phase(a, np.exp(1j * 0.7) * a) < 1e-12


class TestScipyReference:
    """The numpy integrator, quadrature and propagator against scipy's."""

    @pytest.mark.parametrize("delta", [20.0, -20.0, 50.0, -50.0, 100.0, -100.0])
    @pytest.mark.parametrize("integrate, initial", [(integrate_full, C4),
                                                    (effective_endpoint, C3)])
    def test_dop853_steps_equal_solve_ivp(self, monkeypatch, integrate, initial, delta):
        calls = []

        def spy(*args):
            # every yielded state is a new array, so the list holds the steps
            calls.append((args, list(_dop853(*args))))
            return iter(calls[-1][1])

        monkeypatch.setattr(cavity, "_dop853", spy)
        out = integrate(default_geom(delta=delta), initial)
        [((fun, t_a, t_b, y0, rtol, atol), steps)] = calls
        times = np.array([t for t, _ in steps])
        states = np.array([y for _, y in steps]).T
        sol = solve_ivp(fun, (t_a, t_b), y0, method="DOP853", rtol=rtol, atol=atol)
        assert sol.success
        assert np.array_equal(times, sol.t)
        assert np.array_equal(states, sol.y)
        n = len(initial)
        if integrate is integrate_full:
            # the collector stores them unchanged
            assert np.array_equal(out.times, sol.t)
            assert np.array_equal(out.amplitudes.real.T, sol.y[:n])
            assert np.array_equal(out.amplitudes.imag.T, sol.y[n:])
        else:
            # the endpoint keeps the last one unchanged
            assert np.array_equal(out.real, sol.y[:n, -1])
            assert np.array_equal(out.imag, sol.y[n:, -1])

    def test_blow_up_raises_where_solve_ivp_fails(self):
        # y' = y^2, y(0) = 1 reaches infinity at t = 1
        sol = solve_ivp(lambda t, y: y ** 2, (0.0, 2.0), [1.0], method="DOP853",
                        rtol=1e-10, atol=1e-12)
        assert not sol.success
        steps = _dop853(lambda t, y: y ** 2, 0.0, 2.0, np.array([1.0]), 1e-10, 1e-12)
        with pytest.raises(StiffnessError, match="t = 1:"):
            deque(steps, maxlen=0)

    def test_gauss_legendre_matches_quad(self):
        rng = np.random.default_rng(29)
        for _ in range(18):
            geom = CavityGeometry(ell=rng.uniform(0.6, 2.0),
                                  d=rng.uniform(0.3, 2.5), v=rng.uniform(0.2, 1.5),
                                  delta=rng.choice([-1.0, 1.0]) * rng.uniform(25.0, 80.0))
            c = asymptotic_hamiltonian(geom).c_matrix
            t_a, t_b = geom.window()
            scale = math.exp(-geom.ell ** 2) * geom.t_prime
            for i, k in ((0, 1), (0, 2), (1, 2)):
                val, _ = quad(lambda t: _coupling_vector(geom, t)[i]
                              * _coupling_vector(geom, t)[k], t_a, t_b, limit=200)
                assert c[i, k] == pytest.approx(val / scale, rel=1e-14, abs=0)

    def test_eigh_propagator_matches_expm(self):
        for delta in (20.0, -50.0, 100.0):
            geom = default_geom(delta=delta)
            for h in (_mean_hamiltonian_3(geom), _ring_exchange_3(geom)):
                np.testing.assert_allclose(_propagator(h, geom.t_prime),
                                           expm(-1j * h * geom.t_prime), rtol=0, atol=1e-14)
