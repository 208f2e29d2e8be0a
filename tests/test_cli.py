import json
import math
from itertools import islice

import numpy as np
import pytest
from click.testing import CliRunner

from xypurify import cavity, cli, montecarlo, pump, werner
from xypurify.cli import main
from xypurify.montecarlo import MAX_TRIALS

from oracle import cnot_round


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestRoundCommand:
    def test_at_operational_time(self, runner):
        result = run_ok(runner, ["round", "--f", "0.75", "--fprime", "0.75",
                                 "--at-T"])
        payload = json.loads(result.stdout)
        assert payload["fidelity"] == pytest.approx(0.8277, abs=5e-4)
        assert payload["success_probability"] == pytest.approx(0.1324, abs=5e-4)

    def test_perfect_inputs(self, runner):
        result = run_ok(runner, ["round", "--f", "1", "--fprime", "1", "--at-T"])
        payload = json.loads(result.stdout)
        assert payload["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_zero_time_returns_stationary_fidelity(self, runner):
        result = run_ok(runner, ["round", "--f", "0.75", "--fprime", "0.75",
                                 "--jt0", "0"])
        payload = json.loads(result.stdout)
        assert payload["fidelity"] == pytest.approx(0.75, abs=1e-9)

    def test_validation_error_exit_code(self, runner):
        result = runner.invoke(main, ["round", "--f", "1.5", "--fprime", "0.75",
                                      "--at-T"])
        assert result.exit_code == 2
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "DomainError"

    @pytest.mark.parametrize("jt0", ["1e308", "-1e308", "nan", "inf"])
    def test_non_finite_phase_exit_code(self, runner, jt0):
        # no RuntimeWarning on the way: pytest makes warnings errors, which
        # would end the command with exit code 1
        result = runner.invoke(main, ["round", "--f", "0.8", "--fprime", "0.8",
                                      "--jt0", jt0])
        assert result.exit_code == 2, result.output
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "DomainError"

    def test_index_past_float_range_exit_2(self, runner):
        # T would overflow: a DomainError, not an OverflowError traceback
        result = runner.invoke(main, ["round", "--f", "0.8", "--fprime", "0.7",
                                      "--at-T", "--n", str(10**400)])
        assert result.exit_code == 2, result.output
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "DomainError"

    def test_mutually_exclusive_time_flags(self, runner):
        result = runner.invoke(main, ["round", "--f", "0.75", "--fprime", "0.75"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("n", ["3", "-1"])
    def test_index_without_operational_time_exit_2(self, runner, n):
        # --n picks the operational time, so --jt0 would drop it
        result = runner.invoke(main, ["round", "--f", "0.8", "--fprime", "0.7",
                                      "--jt0", "0.4", "--n", n])
        assert result.exit_code == 2, result.output
        assert "--at-T" in result.output

    def test_index_zero_with_jt0_unchanged(self, runner):
        # --n 0 is the default, so it asks for nothing --jt0 drops
        args = ["round", "--f", "0.8", "--fprime", "0.7", "--jt0", "0.4"]
        assert (run_ok(runner, args + ["--n", "0"]).stdout
                == run_ok(runner, args).stdout)

    def test_csv_format(self, runner):
        result = run_ok(runner, ["round", "--f", "0.75", "--fprime", "0.75",
                                 "--at-T", "--format", "csv"])
        lines = result.output.strip().splitlines()
        assert len(lines) == 2
        assert "fidelity" in lines[0]


class TestFig5Command:
    def test_panel_a_contains_peak(self, runner, tmp_path):
        out = tmp_path / "a.csv"
        run_ok(runner, ["fig5", "--panel", "a", "--jt-steps", "121",
                        "--output", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "jt0,fidelity"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        best = max(rows, key=lambda r: r[1])
        assert best[1] == pytest.approx(0.8277, abs=5e-4)
        assert best[0] == pytest.approx(math.pi / 6, abs=0.02)

    def test_panel_a_overflowing_phase_exit_2(self, runner):
        # the grid's numpy floats take the Python-float path of the closed
        # form: a DomainError, not a RuntimeWarning (an error under pytest,
        # exit code 1) on the way
        result = runner.invoke(main, ["fig5", "--panel", "a", "--jt-max", "1e308",
                                      "--jt-steps", "3"])
        assert result.exit_code == 2, result.output
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "DomainError"
        assert "must be finite" in err["message"]

    def test_panel_b_solid_above_dashed(self, runner, tmp_path):
        out = tmp_path / "b.csv"
        run_ok(runner, ["fig5", "--panel", "b", "--f-steps", "9",
                        "--output", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "f,xy_one_round,cnot_one_round,scheme_c_two_rounds"
        for ln in lines[1:]:
            _, xy, base, _ = map(float, ln.split(","))
            assert xy > base

    def test_panel_b_prints_the_circuit_rounds(self, runner, tmp_path):
        # the two-round column runs through the Bell-weight map; on the
        # default grid it prints what two circuit rounds give, digit for digit
        out = tmp_path / "b.csv"
        run_ok(runner, ["fig5", "--panel", "b", "--output", str(out)])
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        grid = np.linspace(0.55, 0.95, 41)
        assert [row[0] for row in rows] == [format(f, ".12g") for f in grid]
        for f, (_, _, _, two_text) in zip(grid, rows):
            pair = werner(f)
            first = cnot_round(pair, pair)
            second = cnot_round(first.post_state, pair)
            assert two_text == format(second.fidelity, ".12g")

    @pytest.mark.parametrize("f_min, f_max", [(0.5 + 2.0 ** -51, 1.0 - 2.0 ** -51),
                                              (0.5 + 2.0 ** -53, 1.0 - 2.0 ** -52)])
    def test_panel_b_grid_next_to_half_and_one(self, runner, tmp_path, f_min, f_max):
        out = tmp_path / "b.csv"
        run_ok(runner, ["fig5", "--panel", "b", "--f-min", repr(f_min),
                        "--f-max", repr(f_max), "--f-steps", "3", "--output", str(out)])
        assert len(out.read_text().strip().splitlines()) == 4

    def test_panel_c_perfect_corner(self, runner, tmp_path):
        out = tmp_path / "c.csv"
        run_ok(runner, ["fig5", "--panel", "c", "--f-min", "0.6", "--f-max",
                        "1.0", "--f-steps", "5", "--output", str(out)])
        lines = out.read_text().strip().splitlines()
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0 and float(last[1]) == 1.0
        assert float(last[2]) == pytest.approx(1.0, abs=1e-12)


class TestFig6Command:
    def test_columns_and_first_round(self, runner, tmp_path):
        out = tmp_path / "f6.csv"
        run_ok(runner, ["fig6", "--f-steps", "5", "--n-max", "4",
                        "--output", str(out)])
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "f,n,F_n,F_hat,F_bar,P_succ,fixed_point"
        from xypurify import closed_form_general
        for ln in lines[1:]:
            f, n, fn, fhat, fbar, _, _ = map(float, ln.split(","))
            if n == 1:
                assert fn == pytest.approx(closed_form_general(f, f).fidelity,
                                           abs=1e-9)
                assert fbar == pytest.approx(fhat, abs=1e-12)

    def test_contains_comparison_rows(self, runner, tmp_path):
        out = tmp_path / "f6.csv"
        run_ok(runner, ["fig6", "--f-steps", "3", "--n-max", "4",
                        "--output", str(out)])
        ns = {int(float(ln.split(",")[1]))
              for ln in out.read_text().strip().splitlines()[1:]}
        assert {1, 4} <= ns

    def test_deterministic_bytes(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ok(runner, ["fig6", "--f-steps", "4", "--n-max", "4",
                        "--output", str(a)])
        run_ok(runner, ["fig6", "--f-steps", "4", "--n-max", "4",
                        "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_numeric_format_12_digits(self, runner, tmp_path):
        out = tmp_path / "f6.csv"
        run_ok(runner, ["fig6", "--f-steps", "3", "--n-max", "4",
                        "--output", str(out)])
        cell = out.read_text().strip().splitlines()[1].split(",")[2]
        mantissa = cell.replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa) <= 12
        assert "," not in cell and cell.count(".") <= 1


    def test_default_csv_is_pump_traces(self, runner):
        # every round of pump(f, 10) on the default grid, at 12 digits
        lines = ["f,n,F_n,F_hat,F_bar,P_succ,fixed_point"]
        for f in np.linspace(0.55, 0.95, 41):
            trace = pump(f, 10)
            for r in trace.rounds:
                cells = (f, r.n, r.fidelity, r.fidelity - f, r.delta,
                         r.success_probability, trace.fixed_point)
                lines.append(",".join(format(c, ".12g") if isinstance(c, float)
                                      else str(c) for c in cells))
        assert run_ok(runner, ["fig6"]).stdout == "\n".join(lines) + "\n"


class TestCsvOutput:
    @pytest.mark.parametrize("args", [["fig5", "--panel", "c"], ["fig6"]],
                             ids=["fig5-c", "fig6"])
    def test_stdout_equals_output_file(self, runner, tmp_path, args):
        out = tmp_path / "table.csv"
        shown = run_ok(runner, args).stdout
        run_ok(runner, args + ["--output", str(out)])
        assert out.read_bytes() == shown.encode("utf-8")

    @pytest.mark.parametrize("args", [["fig5", "--panel", "c", "--f-min", "1.2",
                                       "--f-max", "1.3"],
                                      ["fig6", "--f-min", "0.4"],
                                      ["fig5", "--panel", "a", "--jt-max", "nan",
                                       "--jt-steps", "3"],
                                      ["fig5", "--panel", "a", "--jt-max", "inf",
                                       "--jt-steps", "3"]],
                             ids=["fig5-c", "fig6", "fig5-a-nan", "fig5-a-inf"])
    def test_domain_error_leaves_no_file(self, runner, tmp_path, args):
        out = tmp_path / "table.csv"
        result = runner.invoke(main, args + ["--output", str(out)])
        assert result.exit_code == 2
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "DomainError"
        assert not out.exists()


class TestValidateCavityCommand:
    def test_default_geometry_report(self, runner):
        result = run_ok(runner, ["validate-cavity", "--delta", "50",
                                 "--ell", "1.0"])
        payload = json.loads(result.stdout)
        assert payload["geometry"]["d_over_w"] == pytest.approx(1.14317, abs=1e-4)
        assert payload["c_matrix"][0][1] == pytest.approx(1.0, abs=1e-6)
        assert payload["agreement"]["distance_full_mean"] < 0.05
        assert 0.4 < payload["distance_halving_ratio"] < 0.6

    def test_low_detuning_rejected(self, runner):
        result = runner.invoke(main, ["validate-cavity", "--delta", "5",
                                      "--ell", "1.0"])
        assert result.exit_code == 2
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "GeometryError"
        assert "adiabatic" in err["message"]

    def test_force_overrides_detuning_gate(self, runner):
        result = runner.invoke(main, ["validate-cavity", "--delta", "15",
                                      "--ell", "1.0", "--force"])
        assert result.exit_code == 0

    def test_infeasible_offset(self, runner):
        result = runner.invoke(main, ["validate-cavity", "--delta", "50",
                                      "--ell", "0.3"])
        assert result.exit_code == 2
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "GeometryError"

    def test_trajectory_dump(self, runner, tmp_path):
        traj = tmp_path / "traj.csv"
        run_ok(runner, ["validate-cavity", "--delta", "50", "--ell", "1.0",
                        "--dump-trajectory", str(traj)])
        lines = traj.read_text().strip().splitlines()
        assert lines[0].startswith("t,re_c0,im_c0")
        assert len(lines) > 100

    def test_trajectory_dump_is_the_exact_run(self, runner, tmp_path):
        traj = tmp_path / "traj.csv"
        run_ok(runner, ["validate-cavity", "--delta", "-50", "--ell", "1.0",
                        "--dump-trajectory", str(traj)])
        geom = cavity.CavityGeometry(ell=1.0, d=cavity.solve_geometry(1.0), v=0.5,
                                     delta=-50.0)
        direct = cavity.integrate_full(geom, np.array([0, 1, 0, 0], dtype=complex))
        rows = [line.split(",") for line in traj.read_text().splitlines()[1:]]
        assert len(rows) == len(direct.times)
        for row, t, c in zip(rows, direct.times, direct.amplitudes):
            parts = [t] + [x for ck in c for x in (ck.real, ck.imag)] + [abs(c[0]) ** 2]
            assert row == [format(float(x), ".12g") for x in parts]

    # the integrator-dependent numbers as the right-hand sides built from
    # numpy arrays and np.dot gave them; the float sums agree to 3.4e-10
    # relative, and a new integrator has to show how far it moves them
    @pytest.mark.parametrize("delta, pinned", [
        ("50", dict(distance_full_mean=0.036927394355024776,
                    distance_full_mean_raw=0.04403758800652604,
                    distance_full_effective=0.0002986007825975257,
                    max_photon_population=0.00039941163423170656,
                    distance_halving_ratio=0.4995746291356816)),
        ("-50", dict(distance_full_mean=0.03692739435502778,
                     distance_full_mean_raw=0.044037588006526025,
                     distance_full_effective=0.0002986007825975257,
                     max_photon_population=0.00039941163423170656,
                     distance_halving_ratio=0.499574629135641)),
    ])
    def test_integrator_numbers_pinned(self, runner, delta, pinned):
        payload = json.loads(run_ok(runner, ["validate-cavity", "--delta", delta,
                                             "--ell", "1.0"]).stdout)
        got = {**payload["agreement"],
               "distance_halving_ratio": payload["distance_halving_ratio"]}
        for key, value in pinned.items():
            assert got[key] == pytest.approx(value, rel=1e-8, abs=0), key

    # far past MAX_OFFSET, where ell^2 itself overflows (above ~1.34e154)
    @pytest.mark.parametrize("ell", ["1e200", "1.4e154", "1.3407807929942597e154"])
    def test_offset_with_overflowing_square_exit_2(self, runner, monkeypatch, ell):
        self.check_offset_rejected(runner, monkeypatch, ell, [[], ["--d", "1.0"]])

    # past MAX_OFFSET = 15, at --d 0; without the bound ell = 20 runs, and
    # ell = 28 and 30 end in an OverflowError of exp(ell^2)
    @pytest.mark.parametrize("ell", ["20", "28", "30"])
    def test_offset_past_bound_exit_2(self, runner, monkeypatch, ell):
        self.check_offset_rejected(runner, monkeypatch, ell, [["--d", "0"]])

    @staticmethod
    def check_offset_rejected(runner, monkeypatch, ell, extras):
        # by the library and by the CLI, before any integration
        def no_run(*args):
            raise AssertionError("integrated a geometry with an offset past the bound")
        monkeypatch.setattr(cavity, "_dop853", no_run)
        bound = f"at most the bound of {cavity.MAX_OFFSET:g}"
        with pytest.raises(cavity.GeometryError, match=bound):
            cavity.solve_geometry(float(ell))
        with pytest.raises(cavity.GeometryError, match=bound):
            cavity.CavityGeometry(ell=float(ell), d=1.0, v=0.5, delta=50.0)
        for extra in extras:
            result = runner.invoke(main, ["validate-cavity", "--delta", "50",
                                          "--ell", ell] + extra)
            assert result.exit_code == 2, result.output
            err = json.loads(result.stderr.strip().splitlines()[-1])
            assert err["error"] == "GeometryError"
            assert bound in err["message"]

    # each ran to a RuntimeWarning (exit 1 under pytest and under
    # PYTHONWARNINGS=error) before d and |delta| were bounded: a division by
    # the underflowed closed-form pair coupling, or a commutator ratio of 0/0
    @pytest.mark.parametrize("args, bound", [
        (["--delta", "50", "--ell", "1", "--d", "40"], "distance d"),
        (["--delta", "1e112", "--ell", "15", "--v", "1e111"], "|delta|"),
        (["--delta", "1e200", "--ell", "1", "--v", "1e197"], "|delta|"),
    ], ids=["d40", "delta1e112", "delta1e200"])
    def test_underflowing_geometry_exit_2(self, runner, monkeypatch, args, bound):
        def no_run(*args):
            raise AssertionError("integrated a geometry past a bound")
        monkeypatch.setattr(cavity, "_dop853", no_run)
        result = runner.invoke(main, ["validate-cavity", *args])
        assert result.exit_code == 2, result.output
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "GeometryError"
        assert err["message"].startswith(bound)

    # at the bounds every number stays finite; the 2 delta run's geometry
    # is inside them too
    @pytest.mark.parametrize("args", [
        ["--delta", "5e49", "--ell", "15", "--v", "5e45"],
        ["--delta", "-50", "--ell", "15", "--d", "25"],
        ["--delta", "-5e49", "--ell", "0", "--d", "25", "--v", "1e50"],
    ], ids=["delta", "spacing", "velocity"])
    def test_geometry_at_bounds_runs_clean(self, runner, args):
        payload = json.loads(run_ok(runner, ["validate-cavity", *args]).stdout)
        assert payload["c_matrix_max_rel_error"] < 1e-6
        assert payload["agreement"]["commutator_ratio"] > 0

    # at the bound every number stays finite: pytest makes warnings errors,
    # and a 0/0 in the commutator ratio would print null
    @pytest.mark.parametrize("delta", ["20", "-20", "50", "-50", "100", "-100"])
    def test_offset_at_bound_runs_clean(self, runner, delta):
        payload = json.loads(run_ok(runner, ["validate-cavity", "--delta", delta, "--ell",
                                             repr(cavity.MAX_OFFSET)]).stdout)
        assert payload["agreement"]["commutator_ratio"] > 0
        assert payload["c_matrix"][0][1] == pytest.approx(1.0, abs=1e-6)

    def test_one_integration_per_detuning(self, runner, tmp_path, monkeypatch):
        # counted where the integrator runs, so the endpoint-only run at
        # 2 delta counts as well as the stored ones
        calls = []
        original = cavity._dop853

        def counted(fun, t_a, t_b, y0, *args):
            # the exact model's state has 8 real components; its photon
            # row reads delta off the unit vector e0
            delta = float(fun(t_a, np.eye(8)[0])[4]) if y0.size == 8 else None
            calls.append((y0.size, delta))
            return original(fun, t_a, t_b, y0, *args)
        monkeypatch.setattr(cavity, "_dop853", counted)
        run_ok(runner, ["validate-cavity", "--delta", "50", "--ell", "1.0",
                        "--dump-trajectory", str(tmp_path / "traj.csv")])
        assert sorted(calls) == [(6, None), (8, 50.0), (8, 100.0)]


class TestTransitPhaseBound:
    # at --ell 1.0, |delta| (t_b - t_a) is 50 * 11.14 / v: 5.6e11 at v = 1e-9;
    # at v = 8e-4, 7.0e5 at delta and 1.4e6 at 2 delta
    @pytest.mark.parametrize("v", ["1e-9", "8e-4"], ids=["delta", "two-delta"])
    def test_oversized_transit_exit_2(self, runner, monkeypatch, v):
        # rejected before any integration: one run anyway fails here
        # instead of taking hours
        def no_run(*args):
            raise AssertionError("integrated a geometry above the phase bound")
        monkeypatch.setattr(cavity, "_dop853", no_run)
        result = runner.invoke(main, ["validate-cavity", "--delta", "50", "--ell", "1.0",
                                      "--v", v])
        assert result.exit_code == 2, result.output
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "GeometryError"
        assert f"above the bound of {cavity.MAX_TRANSIT_PHASE:.3g}" in err["message"]

    def test_slow_transit_below_unit_detuning_exit_2(self, runner, monkeypatch):
        # |delta| times the window is only 1.1e4 here, but the couplings set
        # the step count below |delta| = 1: the window of 1.1e8 is rejected
        def no_run(*args):
            raise AssertionError("integrated a geometry above the phase bound")
        monkeypatch.setattr(cavity, "_dop853", no_run)
        result = runner.invoke(main, ["validate-cavity", "--delta", "1e-4", "--ell", "1",
                                      "--v", "1e-7", "--force"])
        assert result.exit_code == 2, result.output
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "GeometryError"
        assert "above the bound" in err["message"]


class TestTableBound:
    @pytest.mark.parametrize("args", [
        ["fig5", "--panel", "a", "--jt-steps", str(10**9)],
        ["fig5", "--panel", "b", "--f-steps", str(10**9)],
        ["fig5", "--panel", "c", "--f-steps", str(10**9)],
        ["fig5", "--panel", "c", "--f-steps", "1001"],
        ["fig6", "--f-steps", str(10**9)],
        ["fig6", "--f-steps", "41", "--n-max", str(10**9)],
    ], ids=["a", "b", "c", "c-just-above", "fig6-f", "fig6-n"])
    def test_oversized_table_exit_2(self, runner, monkeypatch, args):
        # rejected before the grid exists: a grid built anyway fails here
        # instead of allocating
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built for an oversized table")
        monkeypatch.setattr(np, "linspace", no_grid)
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "DomainError"
        assert f"above the bound of {cli.MAX_ROWS}" in err["message"]

    def test_bound_is_inclusive(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "MAX_ROWS", 9)
        result = run_ok(runner, ["fig5", "--panel", "c", "--f-steps", "3"])
        assert len(result.stdout.splitlines()) == 1 + 9
        result = runner.invoke(main, ["fig6", "--f-steps", "2", "--n-max", "5"])
        assert result.exit_code == 2, result.output


class TestMonteCarloCommand:
    def make_config(self, tmp_path, **overrides):
        cfg = {"schema_version": 1, "f": 0.75, "target_rounds": 3,
               "seed": 99, "trials": 400}
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_byte_identical_given_seed(self, runner, tmp_path):
        # the JSON and the per-trial CSV do not depend on --workers
        path = self.make_config(tmp_path)

        def run(workers):
            out, csv_path = tmp_path / "stats.json", tmp_path / "trials.csv"
            run_ok(runner, ["montecarlo", "--config", str(path), "--workers",
                            str(workers), "--output", str(out),
                            "--trials-csv", str(csv_path)])
            return out.read_bytes(), csv_path.read_bytes()

        reference = run(1)
        for workers in (1, 2, 3):
            assert run(workers) == reference, f"--workers {workers}"

    def test_stats_contents(self, runner, tmp_path):
        path = self.make_config(tmp_path)
        result = run_ok(runner, ["montecarlo", "--config", str(path)])
        payload = json.loads(result.stdout)
        assert payload["trials"] == 400
        assert payload["mean_attempts"] > 0
        analytic = payload["expected_attempts_analytic"]
        assert abs(payload["mean_attempts"] - analytic) / analytic < 0.15

    def test_unreachable_target_exit_2(self, runner, tmp_path):
        path = self.make_config(tmp_path, target_rounds=None,
                                target_fidelity=0.95)
        path.write_text(path.read_text().replace('"target_rounds": null, ', ""))
        result = runner.invoke(main, ["montecarlo", "--config", str(path)])
        assert result.exit_code == 2
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert "fixed" in err["message"]

    def test_unknown_keys_rejected(self, runner, tmp_path):
        path = self.make_config(tmp_path, bogus=1)
        result = runner.invoke(main, ["montecarlo", "--config", str(path)])
        assert result.exit_code == 2

    def test_schema_version_required(self, runner, tmp_path):
        path = self.make_config(tmp_path)
        raw = json.loads(path.read_text())
        del raw["schema_version"]
        path.write_text(json.dumps(raw))
        result = runner.invoke(main, ["montecarlo", "--config", str(path)])
        assert result.exit_code == 2

    def test_trials_csv(self, runner, tmp_path):
        path = self.make_config(tmp_path, trials=50)
        csv_path = tmp_path / "trials.csv"
        run_ok(runner, ["montecarlo", "--config", str(path), "--trials-csv",
                        str(csv_path)])
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "trial,attempts"
        assert len(lines) == 51

    @pytest.mark.parametrize("overrides", [
        {"f": "0.75"},
        {"f": None},
        {"trials": 2.5},
        {"trials": True},
        {"target_rounds": 2.5},
        {"target_rounds": False},
        {"seed": 1.5},
        {"seed": 2**64 + 1},
        {"seed": -(2**63) - 1},
        {"p_inconclusive": [0.1]},
        {"schema_version": True},
    ], ids=["f-string", "f-null", "trials-float", "trials-bool",
            "target_rounds-float", "target_rounds-bool", "seed-float",
            "seed-above-64-bits", "seed-below-64-bits",
            "p_inconclusive-list", "schema_version-bool"])
    def test_wrong_json_types_exit_2(self, runner, tmp_path, overrides):
        path = self.make_config(tmp_path, **overrides)
        result = runner.invoke(main, ["montecarlo", "--config", str(path)])
        assert result.exit_code == 2, result.output
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigurationError"
        assert next(iter(overrides)) in err["message"]

    @pytest.mark.parametrize("key, literal", [
        ("gate_time", "NaN"),
        ("message_latency", "Infinity"),
        ("restore_extra_time", "-Infinity"),
        ("f", "NaN"),
        ("target_fidelity", "NaN"),
        ("p_inconclusive", "1e400"),
        pytest.param("gate_time", "1" + "0" * 400, id="gate_time-int-past-float"),
    ])
    def test_non_finite_numbers_exit_2(self, runner, tmp_path, key, literal):
        # json.load accepts these literals and integers of any size; the
        # config check names the key
        overrides = {key: "@"}
        if key == "target_fidelity":
            overrides["target_rounds"] = None
        path = self.make_config(tmp_path, **overrides)
        path.write_text(path.read_text().replace('"@"', literal))
        result = runner.invoke(main, ["montecarlo", "--config", str(path)])
        assert result.exit_code == 2, result.output
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigurationError"
        assert f"config key {key!r} must be a finite number" in err["message"]

    @pytest.mark.parametrize("value", [1e308, 1e160])
    @pytest.mark.parametrize("key", ["gate_time", "restore_extra_time", "message_latency"])
    def test_time_past_bound_exit_2(self, runner, tmp_path, key, value):
        # finite, but a trial's time or its square would overflow: rejected
        # before any draw, where mean_time used to read null
        path = self.make_config(tmp_path, **{key: value})
        result = runner.invoke(main, ["montecarlo", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigurationError"
        assert f"{key} must be nonnegative and at most the bound of 1e+50" in err["message"]

    @pytest.mark.parametrize("literal", [str(MAX_TRIALS + 1), "1" + "0" * 400],
                             ids=["above-bound", "400-digits"])
    def test_oversized_trials_exit_2(self, runner, tmp_path, literal):
        # rejected before any array of that length is allocated; a
        # 400-digit count used to end in an OverflowError traceback
        path = self.make_config(tmp_path, trials="@")
        path.write_text(path.read_text().replace('"@"', literal))
        result = runner.invoke(main, ["montecarlo", "--config", str(path)])
        assert result.exit_code == 2, result.output
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigurationError"
        assert "above the bound" in err["message"]

    def test_non_object_config_exit_2(self, runner, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        result = runner.invoke(main, ["montecarlo", "--config", str(path)])
        assert result.exit_code == 2, result.output
        err = json.loads(result.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigurationError"

    def test_one_walk_of_the_pump_map(self, runner, tmp_path, monkeypatch):
        # the config's attempts bound and expected_attempts_analytic share
        # one walk of the map
        walks = []
        original = montecarlo._werner_rounds
        monkeypatch.setattr(montecarlo, "_werner_rounds",
                            lambda f: walks.append(f) or original(f))
        path = self.make_config(tmp_path, trials=20)
        payload = json.loads(run_ok(runner, ["montecarlo", "--config", str(path)]).stdout)
        assert walks == [0.75]
        assert payload["expected_attempts_analytic"] == montecarlo._walk(
            0.75, islice(original(0.75), 3), 0.0)[2]

    def test_expected_attempts_for_a_target_fidelity(self, runner, tmp_path):
        # the other stopping rule reports its config's sum too, not null
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"schema_version": 1, "f": 0.8, "target_fidelity": 0.9,
                                    "p_inconclusive": 0.3, "trials": 20, "seed": 5}))
        payload = json.loads(run_ok(runner, ["montecarlo", "--config", str(path)]).stdout)
        rounds = montecarlo._rounds_to(0.8, 0.9, montecarlo.fixed_point(0.8))
        assert payload["expected_attempts_analytic"] == montecarlo._walk(0.8, rounds, 0.3)[2]

    def test_single_trial_output_is_strict_json(self, runner, tmp_path):
        # one trial has no halfwidth; JSON has no NaN literal, so it is null
        path = self.make_config(tmp_path, trials=1)
        result = run_ok(runner, ["montecarlo", "--config", str(path)])

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(result.stdout, parse_constant=reject)
        assert payload["attempts_halfwidth"] is None
        assert payload["time_halfwidth"] is None
        assert payload["mean_attempts"] > 0
