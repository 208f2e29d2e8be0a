import math
import tracemalloc
import warnings
import weakref
from itertools import islice

import numpy as np
import pytest

from xypurify import (
    ConfigurationError,
    ProtocolConfig,
    closed_form_general,
    expected_attempts,
    fixed_point,
    pump,
    run_protocol,
    simulate_batch,
)
from xypurify import montecarlo
from xypurify.montecarlo import (
    GATE_TIME_DEFAULT,
    MAX_EXPECTED_ATTEMPTS,
    MAX_TIME,
    MAX_TRIALS,
    MESSAGES_PER_ATTEMPT,
    RESTORE_EXTRA_DEFAULT,
    ProtocolStats,
    _trial_rng,
)
from xypurify.pumping import MAX_ROUNDS


REAL_FIELDS = ("f", "target_fidelity", "p_inconclusive", "gate_time",
               "restore_extra_time", "message_latency")
TIMES = ("gate_time", "restore_extra_time", "message_latency")


def config(**kw):
    base = dict(f=0.75, target_rounds=4, seed=1234)
    base.update(kw)
    return ProtocolConfig(**base)


class TestConfigValidation:
    def test_exactly_one_stopping_rule(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(f=0.75, seed=1)
        with pytest.raises(ConfigurationError):
            ProtocolConfig(f=0.75, target_rounds=2, target_fidelity=0.8, seed=1)

    def test_unreachable_target_rejected_before_sampling(self):
        limit = fixed_point(0.75)
        with pytest.raises(ConfigurationError) as err:
            ProtocolConfig(f=0.75, target_fidelity=limit + 1e-6, seed=1)
        assert f"{limit:.6f}"[:6] in str(err.value)
        # at f = 0.55 the floating-point recurrence settles a few ulps below
        # the closed-form fixed point; a target between the two is rejected
        x = settled = 0.55
        for _ in range(MAX_ROUNDS):
            x = closed_form_general(0.55, x).fidelity
            settled = max(settled, x)
        target = np.nextafter(settled, 1.0)
        assert target < fixed_point(0.55)
        with pytest.raises(ConfigurationError, match="does not reach it"):
            ProtocolConfig(f=0.55, target_fidelity=target, seed=1)

    @pytest.mark.parametrize("kwargs", [
        {"target_rounds": 4, "p_inconclusive": 0.999999},
        {"target_fidelity": 0.86, "p_inconclusive": 0.99999},
        {"target_rounds": 500_000},
    ], ids=["rounds-inconclusive", "fidelity-inconclusive", "many-rounds"])
    def test_unbounded_attempts_rejected_before_sampling(self, kwargs):
        # building the config is the whole test: these would run for hours
        with pytest.raises(ConfigurationError, match="attempts on average"):
            ProtocolConfig(f=0.75, seed=1, **kwargs)
        if "target_rounds" in kwargs:
            with pytest.raises(ConfigurationError, match="attempts on average"):
                expected_attempts(0.75, kwargs["target_rounds"],
                                  kwargs.get("p_inconclusive", 0.0))

    def test_huge_target_rounds_rejected_without_walking(self, monkeypatch):
        def no_walk(f):
            raise AssertionError("walked the pump trajectory")
        monkeypatch.setattr(montecarlo, "_werner_rounds", no_walk)
        for build in (lambda: ProtocolConfig(f=0.75, target_rounds=10**12, seed=1),
                      lambda: expected_attempts(0.75, MAX_EXPECTED_ATTEMPTS + 1)):
            with pytest.raises(ConfigurationError, match=str(MAX_EXPECTED_ATTEMPTS)):
                build()

    def test_attempt_bound_cites_expected_count(self):
        # the first round alone needs 1 / (P_1 (1 - p_inconclusive)) attempts
        p_first = closed_form_general(0.75, 0.75).success_probability
        with pytest.raises(ConfigurationError) as err:
            ProtocolConfig(f=0.75, target_rounds=4, p_inconclusive=0.999999, seed=1)
        assert f"at least {1.0 / (p_first * (1.0 - 0.999999)):.0f} attempts" in str(err.value)

    def test_reachable_target_accepted(self):
        ProtocolConfig(f=0.75, target_fidelity=0.86, seed=1)
        # seven rounds with half the readouts inconclusive: about 100 attempts
        ProtocolConfig(f=0.75, target_fidelity=pump(0.75, 7).rounds[-1].fidelity,
                       p_inconclusive=0.5, seed=1)

    def test_probability_range(self):
        with pytest.raises(ConfigurationError):
            config(p_inconclusive=1.0)
        with pytest.raises(ConfigurationError):
            config(p_inconclusive=-0.1)
        for p in (1.0, -0.5):
            with pytest.raises(ConfigurationError, match="p_inconclusive"):
                expected_attempts(0.75, 3, p)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0,
                                       pytest.param(10**400, id="int-past-float")])
    @pytest.mark.parametrize("name", ["gate_time", "restore_extra_time",
                                      "message_latency"])
    def test_times_finite_and_nonnegative(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            config(**{name: value})
        config(**{name: 0.0})

    @pytest.mark.parametrize("value", [1e308, 1e160, math.nextafter(MAX_TIME, math.inf)],
                             ids=["1e308", "1e160", "above-bound"])
    @pytest.mark.parametrize("name", TIMES)
    def test_times_bounded(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be nonnegative"):
            config(**{name: value})

    def test_times_at_bound_keep_every_time_finite(self):
        # the proof of MAX_TIME: totals, mean and squared deviations finite,
        # and no overflow warning
        cfg = config(**{name: MAX_TIME for name in TIMES})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = simulate_batch(cfg, 400)
        assert math.isfinite(batch.mean_time) and batch.mean_time > MAX_TIME
        assert math.isfinite(batch.time_halfwidth) and batch.time_halfwidth > 0

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.75", None, [0.1]],
                             ids=["true", "false", "numpy-bool", "string", "none", "list"])
    @pytest.mark.parametrize("name", REAL_FIELDS)
    def test_float_fields_must_be_numbers(self, name, value):
        if name == "target_fidelity":
            if value is None:
                config(target_fidelity=None)    # the other stopping rule
                return
            kwargs = {"target_rounds": None, name: value}
        else:
            kwargs = {name: value}
        with pytest.raises(ConfigurationError, match=f"config key '{name}' must be a number"):
            config(**kwargs)
        if name in ("f", "p_inconclusive"):
            # expected_attempts checks its arguments through ProtocolConfig
            with pytest.raises(ConfigurationError, match=f"config key '{name}'"):
                expected_attempts(**{"f": 0.75, "target_rounds": 3, name: value})

    def test_float_fields_stored_as_python_floats(self):
        numpy_fields = dict(f=np.float64(0.75), target_fidelity=np.float64(0.86),
                            p_inconclusive=np.float32(0.25), gate_time=np.int64(1),
                            restore_extra_time=np.float64(2.3), message_latency=1)
        cfg = ProtocolConfig(seed=5, **numpy_fields)
        assert all(type(getattr(cfg, name)) is float for name in REAL_FIELDS)
        plain = ProtocolConfig(seed=5, **{k: float(v) for k, v in numpy_fields.items()})
        assert cfg == plain
        assert run_protocol(cfg, 3) == run_protocol(plain, 3)

    def test_threshold_fidelity_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig(f=0.5, target_rounds=1, seed=1)
        for f in (0.4, 0.5, 1.2):
            with pytest.raises(ConfigurationError, match="fidelity"):
                expected_attempts(f, 3)

    @pytest.mark.parametrize("rounds", [2.5, 2.0, True, np.float64(3.0), "2", 0])
    def test_target_rounds_must_be_a_positive_integer(self, rounds):
        with pytest.raises(ConfigurationError, match="target_rounds"):
            ProtocolConfig(f=0.75, target_rounds=rounds, seed=1)
        with pytest.raises(ConfigurationError, match="target_rounds"):
            expected_attempts(0.75, rounds)

    def test_numpy_integer_counts_accepted(self):
        cfg = ProtocolConfig(f=0.75, target_rounds=np.int64(3), seed=1)
        assert run_protocol(cfg).rounds_succeeded == 3
        assert simulate_batch(cfg, np.int32(4), workers=np.int64(1)).trials == 4
        assert expected_attempts(0.75, np.int64(4)) == expected_attempts(0.75, 4)

    @pytest.mark.parametrize("kwargs", [{"trials": True}, {"trials": 2.0},
                                        {"trials": 0}, {"trials": MAX_TRIALS + 1},
                                        {"trials": 3, "workers": 1.5},
                                        {"trials": 3, "workers": True}],
                             ids=["trials-bool", "trials-float", "trials-zero",
                                  "trials-above-bound", "workers-float",
                                  "workers-bool"])
    def test_batch_counts_must_be_positive_integers(self, kwargs):
        with pytest.raises(ConfigurationError, match=next(reversed(kwargs))):
            simulate_batch(config(), **kwargs)


class TestSingleRun:
    def test_deterministic_under_seed(self):
        a = run_protocol(config())
        b = run_protocol(config())
        assert a == b

    def test_history_follows_pump_map(self):
        stats = run_protocol(config(target_rounds=5))
        expect = [0.75] + [r.fidelity for r in pump(0.75, 5).rounds]
        np.testing.assert_allclose(stats.fidelity_history, expect, atol=1e-12)

    def test_resource_accounting(self):
        stats = run_protocol(config())
        assert stats.rounds_succeeded == 4
        failures = stats.rounds_attempted - stats.rounds_succeeded
        expect_time = (stats.rounds_attempted * GATE_TIME_DEFAULT
                       + failures * RESTORE_EXTRA_DEFAULT)
        assert stats.total_time == pytest.approx(expect_time, abs=1e-9)
        assert sum(stats.attempts_per_round) == stats.rounds_attempted

    def test_latency_adds_to_time(self):
        base = run_protocol(config())
        slow = run_protocol(config(message_latency=0.5))
        # same seed, same decisions, extra time for two messages per attempt
        assert slow.rounds_attempted == base.rounds_attempted
        assert slow.total_time == pytest.approx(
            base.total_time + 0.5 * 2 * slow.rounds_attempted, abs=1e-9)

    def test_negative_seed_shares_its_unsigned_twin_stream(self):
        # numpy forms too: _trial_rng masks a signed numpy seed as a Python int
        for twin in (2**64 - 1, np.int64(-1), np.uint64(2**64 - 1)):
            for trial in (0, 9):
                assert run_protocol(config(seed=twin), trial) == run_protocol(
                    config(seed=-1), trial)

    def test_target_fidelity_stopping(self):
        stats = run_protocol(config(target_rounds=None, target_fidelity=0.86))
        assert stats.final_fidelity >= 0.86
        assert stats.rounds_succeeded == 2  # pump map needs two successes


def reference_run_protocol(config: ProtocolConfig, trial: int = 0) -> ProtocolStats:
    """The plain loop: one ``rng.random()`` per attempt, the config read in place."""
    rng = _trial_rng(config.seed, trial)
    f_current = config.f

    history = [f_current]
    attempts_per_round: list[int] = []
    attempts = successes = 0
    elapsed = 0.0
    attempts_this_round = 0

    def done() -> bool:
        if config.target_rounds is not None:
            return successes >= config.target_rounds
        return f_current >= config.target_fidelity

    while not done():
        step = closed_form_general(config.f, f_current)
        attempts += 1
        attempts_this_round += 1
        elapsed += config.gate_time
        elapsed += MESSAGES_PER_ATTEMPT * config.message_latency
        if rng.random() < step.success_probability * (1.0 - config.p_inconclusive):
            f_current = step.fidelity
            successes += 1
            history.append(f_current)
            attempts_per_round.append(attempts_this_round)
            attempts_this_round = 0
        else:
            # restoration: stored state unchanged, extra dwell time
            elapsed += config.restore_extra_time

    return ProtocolStats(
        rounds_attempted=attempts,
        rounds_succeeded=successes,
        total_time=elapsed,
        final_fidelity=f_current,
        fidelity_history=tuple(history),
        attempts_per_round=tuple(attempts_per_round),
    )


class TestReferenceLoop:
    # seven rounds near the fixed point with half the readouts inconclusive:
    # about a hundred attempts per trial, many past one and two blocks
    SEVEN_ROUNDS = pump(0.75, 7).rounds[-1].fidelity
    CONFIGS = [
        dict(f=0.75, target_rounds=4, seed=1234),
        dict(f=0.75, target_rounds=3, p_inconclusive=0.3, message_latency=0.37,
             gate_time=0.41, restore_extra_time=2.3, seed=-7),
        dict(f=0.8, target_fidelity=0.9172, p_inconclusive=0.3, message_latency=0.37,
             seed=11),
        dict(f=0.75, target_fidelity=SEVEN_ROUNDS, p_inconclusive=0.5, seed=-2**63),
        dict(f=0.62, target_fidelity=0.7, gate_time=0.0, restore_extra_time=0.0,
             seed=2**64 - 1),
    ]

    def test_same_stats_as_one_draw_per_attempt(self):
        longest = 0
        for kwargs in self.CONFIGS:
            cfg = ProtocolConfig(**kwargs)
            for trial in range(50):
                stats = run_protocol(cfg, trial)
                # dataclass equality: every float compared exactly
                assert stats == reference_run_protocol(cfg, trial), (kwargs, trial)
                longest = max(longest, stats.rounds_attempted)
        assert longest > 2 * montecarlo._DRAW_BLOCK

    @pytest.mark.parametrize("seed", [-5, 2**63])
    def test_uniforms_are_successive_scalar_draws(self, seed):
        n = 200
        assert n > 3 * montecarlo._DRAW_BLOCK
        blocks = montecarlo._uniforms(_trial_rng(seed, 3))
        scalar = _trial_rng(seed, 3)
        assert list(islice(blocks, n)) == [scalar.random() for _ in range(n)]


class TestBatch:
    def test_worker_independence(self):
        cfg = config(seed=777)
        one = simulate_batch(cfg, 300, workers=1)
        many = simulate_batch(cfg, 300, workers=3)
        assert one.attempts_per_trial == many.attempts_per_trial
        assert one.mean_attempts == many.mean_attempts
        assert one.attempts_by_round == many.attempts_by_round

    def test_keeps_no_per_trial_results(self, monkeypatch):
        refs, calls, alive_at_call = [], [], []
        original = montecarlo.run_protocol

        def tracked(config, trial=0):
            calls.append(trial)
            alive_at_call.append(sum(ref() is not None for ref in refs))
            result = original(config, trial)
            refs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(montecarlo, "run_protocol", tracked)
        simulate_batch(config(seed=8), 500)
        assert calls == list(range(500))
        assert max(alive_at_call) <= 1

    def test_pool_sized_to_chunks(self, monkeypatch):
        import concurrent.futures
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        cfg = config(seed=5)
        reference = simulate_batch(cfg, 10, workers=1).attempts_per_trial
        assert sizes == []
        # one chunk per CPU at most, however many workers are asked for
        batch = simulate_batch(cfg, 10, workers=64)
        assert sizes == [4]
        assert batch.attempts_per_trial == reference

        # chunk bounds follow the trials, not the worker count: 10**6 workers
        # on 3 trials used to build a million-entry grid (16 MB, 2 s)
        simulate_batch(cfg, 3, workers=3)  # first-use allocations stay out
        tracemalloc.start()
        try:
            batch = simulate_batch(cfg, 3, workers=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes[-1] == 3
        assert peak < 2_000_000
        assert batch.attempts_per_trial == simulate_batch(cfg, 3).attempts_per_trial

        # an unknown CPU count, like one CPU, runs in this process
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        runs = len(sizes)
        assert simulate_batch(cfg, 10, workers=64).attempts_per_trial == reference
        assert len(sizes) == runs

    def test_matches_analytic_attempts(self):
        batch = simulate_batch(config(seed=2024), 20_000)
        analytic = expected_attempts(0.75, 4)
        assert abs(batch.mean_attempts - analytic) / analytic < 0.02

    def test_per_round_success_rates(self):
        batch = simulate_batch(config(seed=99), 20_000)
        current = 0.75
        for attempts, successes in zip(batch.attempts_by_round,
                                       batch.successes_by_round):
            p = closed_form_general(0.75, current).success_probability
            sigma = math.sqrt(p * (1 - p) * attempts)
            assert abs(successes - p * attempts) < 3.0 * sigma + 1.0
            current = closed_form_general(0.75, current).fidelity

    def test_inconclusive_rate_doubles_attempts(self):
        clean = expected_attempts(0.75, 4, p_inconclusive=0.0)
        noisy = expected_attempts(0.75, 4, p_inconclusive=0.5)
        assert noisy == pytest.approx(2.0 * clean, abs=1e-12)
        batch = simulate_batch(config(seed=5, p_inconclusive=0.5), 5_000)
        assert abs(batch.mean_attempts - noisy) / noisy < 0.05

    def test_perfect_pairs_quarter_success(self):
        # success probability per attempt for f = 1 is 243/972 = 1/4 in
        # the per-outcome normalization
        cfg = ProtocolConfig(f=1.0, target_rounds=1, seed=31)
        batch = simulate_batch(cfg, 20_000)
        assert expected_attempts(1.0, 1) == pytest.approx(4.0, abs=1e-12)
        assert abs(batch.mean_attempts - 4.0) / 4.0 < 0.05

