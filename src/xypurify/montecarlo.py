"""Stochastic two-node protocol runs with resource accounting.

Each attempt conveys one fresh atomic pair per node through its cavity
(two shared entangled pairs), runs the purification gate, exchanges
two classical messages, and either succeeds (stored fidelity advances
along the deterministic pump map) or fails (the stored state is
restored by completing the evolution period, costing extra dwell
time).  Inconclusive non-destructive readouts are folded into the
failure branch by thinning the success probability.

Each attempt evaluates the scalar pump map
:func:`xypurify.rounds.closed_form_general` at the current stored
fidelity and unpacks the (F, P) tuple it returns; the pump trajectory
does not depend on the draws, so a schedule precomputed once per config
could replace these calls.  Each attempt takes the next uniform of its
trial's stream; the uniforms are drawn from that stream in blocks, the
same doubles as one draw per attempt.  :class:`ProtocolConfig` walks the
same map once, through the shared iterator of :mod:`xypurify.pumping`,
for its attempts bound, and keeps the sum: the analytic mean
:func:`expected_attempts`.
:func:`simulate_batch` is the one runner of trials: it keeps each
trial's outcome as a few numbers in flat arrays, not as a record per
trial.

Reproducibility: every trial draws from its own stream, numpy's
``default_rng([seed, trial index])`` reseeded in place (:func:`_streams`),
so results are independent of scheduling and worker count.  A seed is a
64-bit integer, in [-2**63, 2**64); a negative seed shares its stream
with its unsigned twin, seed + 2**64.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from itertools import islice, zip_longest
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigurationError
from .pumping import MAX_ROUNDS, _check_count, _werner_rounds, fixed_point
from .rounds import closed_form_general

GATE_TIME_DEFAULT = math.pi / 6.0          # units of 1/J, one gate at n = 0
RESTORE_EXTRA_DEFAULT = math.pi - math.pi / 6.0  # pi/J minus the gate time
MESSAGES_PER_ATTEMPT = 2
MAX_EXPECTED_ATTEMPTS = 10**6    # bound on a config's mean attempts per trial
MAX_TRIALS = 10**6
"""Bound on a batch's trials, checked before any draw.

A trial index is below 1e6 < 2**32 ~ 4.29e9, so numpy makes it one 32-bit
entropy word: the one word that :func:`_streams` reserves for it."""
MAX_TIME = 1e50
"""Bound on each of ``gate_time``, ``restore_extra_time`` and ``message_latency``.

It keeps every time a batch computes finite.  An attempt adds at most
g + 2 l + r <= 4e50 to its trial's time (gate g, latency l, restore r).
A trial makes its attempts one loop iteration at a time, fewer than 1e30
even at 1e9 a second for 1e18 s (the universe is 4.4e17 s old), so its
time is below 4e80.  The batch mean sums at most ``MAX_TRIALS`` = 1e6
such times, below 4e86; ``time_halfwidth`` sums 1e6 squared deviations
of at most 4e80, below 1.6e167, against a float maximum of ~1.8e308.
"""
# uniforms per Generator.random call; a benchmark trial takes about 49
_DRAW_BLOCK = 64
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645    # PCG_DEFAULT_MULTIPLIER_128
# generate_state's (xor, multiplier) per 32-bit word: INIT_B * MULT_B**i
_STATE_KEYS = tuple((0x8B51F9DD * 0x58F38DED**i & _MASK32,
                     0x8B51F9DD * 0x58F38DED**(i + 1) & _MASK32) for i in range(8))
_TIMES = ("gate_time", "restore_extra_time", "message_latency")


def _real(name: str, value) -> float:
    """``value`` as a Python float, if it is a finite number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer,
                                                         np.floating)):
        raise ConfigurationError(f"config key {name!r} must be a number, got {value!r}")
    try:
        x = float(value)  # exact on a numpy float
    except OverflowError:  # an int past the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigurationError(
            f"config key {name!r} must be a finite number, got {value!r}")
    return x


@dataclass(frozen=True)
class ProtocolConfig:
    """Stopping rule, noise knob and bookkeeping constants for one run.

    Every field is checked here, before any draw, and the six float
    fields are stored as Python floats; the ``montecarlo`` command checks
    only its JSON's schema version and key names.  Exactly one of
    ``target_rounds`` / ``target_fidelity`` must be set.  ``p_inconclusive``
    is the probability that the non-destructive readout returns no
    verdict; such attempts are discarded and handled like failures.
    Times are in units of 1/J, each at most ``MAX_TIME``.
    """

    f: float
    target_rounds: int | None = None
    target_fidelity: float | None = None
    p_inconclusive: float = 0.0
    seed: int = 0
    gate_time: float = GATE_TIME_DEFAULT
    restore_extra_time: float = RESTORE_EXTRA_DEFAULT
    message_latency: float = 0.0

    def __post_init__(self) -> None:
        for name in ("f", "target_fidelity", "p_inconclusive", *_TIMES):
            if name != "target_fidelity" or self.target_fidelity is not None:
                object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not 0.5 < self.f <= 1.0:
            raise ConfigurationError(
                f"fresh-pair fidelity must lie in (0.5, 1], got {self.f}")
        if (self.target_rounds is None) == (self.target_fidelity is None):
            raise ConfigurationError(
                "set exactly one of target_rounds / target_fidelity")
        if not 0.0 <= self.p_inconclusive < 1.0:
            raise ConfigurationError(
                f"p_inconclusive must lie in [0, 1), got {self.p_inconclusive}")
        # a seed is 64-bit, signed or unsigned: _streams would wrap a
        # wider int onto an in-range seed's stream; a bool is not a seed
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or not -2**63 <= int(self.seed) < 2**64):
            raise ConfigurationError(
                f"seed must be an integer in [-2**63, 2**64), got {self.seed!r}")
        for name in _TIMES:
            if not 0.0 <= (value := getattr(self, name)) <= MAX_TIME:
                raise ConfigurationError(f"{name} must be nonnegative and at most the "
                                         f"bound of {MAX_TIME:g}, got {value}")
        if self.target_rounds is not None:
            _check_count("target_rounds", self.target_rounds, ConfigurationError)
            # every round takes at least one attempt on average
            if self.target_rounds > MAX_EXPECTED_ATTEMPTS:
                raise ConfigurationError(
                    f"target_rounds = {self.target_rounds} needs at least "
                    f"{self.target_rounds} attempts per trial on average, above "
                    f"the bound of {MAX_EXPECTED_ATTEMPTS}")
            rounds = islice(_werner_rounds(self.f), self.target_rounds)
        else:
            limit = fixed_point(self.f)
            if not self.f <= self.target_fidelity < limit:
                raise ConfigurationError(
                    f"target fidelity {self.target_fidelity} is unreachable; "
                    f"the pump map for f = {self.f} is bounded by the fixed "
                    f"point {limit:.12g}")
            rounds = _rounds_to(self.f, self.target_fidelity, limit)
        # not a field: fields() lists the CLI's config keys, and repr and
        # equality stay those of the fields
        object.__setattr__(self, "_mean_attempts",
                           _expected_total(rounds, self.p_inconclusive))


def _rounds_to(f: float, target: float, limit: float) -> Iterator[tuple[float, float]]:
    """(F_k, P_k) of the rounds a trial needs to reach ``target``.

    Raises once ``MAX_ROUNDS`` rounds fall short: the recurrence a
    trial follows settles in floating point a few ulps from the
    closed-form fixed point ``limit``, and can settle below it.
    """
    if f >= target:
        return
    for fid, p_succ in islice(_werner_rounds(f), MAX_ROUNDS):
        yield fid, p_succ
        if fid >= target:
            return
    raise ConfigurationError(
        f"target fidelity {target} is unreachable; the pump recurrence for "
        f"f = {f} does not reach it in {MAX_ROUNDS} rounds (fixed point {limit:.12g})")


def _expected_total(rounds: Iterable[tuple[float, float]], p_inconclusive: float) -> float:
    """Mean attempts over ``rounds``, a sum of geometric means.

    Raises as soon as the sum passes ``MAX_EXPECTED_ATTEMPTS``, so a
    config whose trials would run without practical bound is rejected
    before any draw.
    """
    total = 0.0
    for _, p_succ in rounds:
        total += 1.0 / (p_succ * (1.0 - p_inconclusive))
        if total > MAX_EXPECTED_ATTEMPTS:
            raise ConfigurationError(
                f"a trial needs at least {total:.0f} attempts on average, "
                f"above the bound of {MAX_EXPECTED_ATTEMPTS}")
    return total


def _streams(seed: int) -> Callable[[int], np.random.Generator]:
    """``at(trial)``: one generator, reseeded to ``default_rng([seed, trial])``.

    numpy's entropy for that list is the masked seed's 32-bit words (two
    from 2**32 on, low first) and the trial's one word.  ``at`` takes
    ``SeedSequence``'s pool of it, hashes the pool as ``generate_state(4,
    np.uint64)`` does and seeds ``PCG64`` as its constructor does (NEP 19).
    """
    from numpy.random import PCG64, Generator, SeedSequence
    seed = int(seed) & _MASK64     # int() first: a numpy int cannot take the mask
    entropy = np.array([seed & _MASK32, seed >> 32, 0] if seed >> 32 else [seed, 0],
                       dtype=np.uint32)
    rng, pcg = Generator(PCG64(0)), {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}

    def at(trial: int) -> np.random.Generator:
        entropy[-1] = trial
        pool = SeedSequence(entropy).pool.tolist()
        w = [(x := (p ^ k) * m & _MASK32) ^ x >> 16
             for p, (k, m) in zip(pool * 2, _STATE_KEYS)]
        # uint64 words w1:w0 .. w7:w6; 128-bit seed (hi, lo) and stream
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        pcg["inc"] = inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _MASK128 | 1
        # pcg_setseq_128_srandom_r: state = 0, step, += initstate, step
        pcg["state"] = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        rng.bit_generator.state = state
        return rng

    return at


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """``rng``'s uniforms one at a time, drawn ``_DRAW_BLOCK`` at a time.

    ``Generator.random(n)`` returns the doubles of n successive scalar
    calls, so this yields exactly what one ``rng.random()`` per attempt
    would.
    """
    while True:
        yield from rng.random(_DRAW_BLOCK).tolist()


def _trial(config: ProtocolConfig,
           rng: np.random.Generator) -> tuple[int, float, list[float], list[int]]:
    """One trial's attempts, total time, fidelity history and attempts per round.

    Attempt k compares the k-th uniform of ``rng`` with its thinned
    success probability, and evaluates
    :func:`xypurify.rounds.closed_form_general` at the stored fidelity.
    """
    uniform = _uniforms(rng).__next__
    f = f_current = config.f
    target_rounds, target_fidelity = config.target_rounds, config.target_fidelity
    keep = 1.0 - config.p_inconclusive
    gate, restore = config.gate_time, config.restore_extra_time
    messages = MESSAGES_PER_ATTEMPT * config.message_latency

    history = [f_current]
    attempts_per_round: list[int] = []
    attempts = successes = 0
    last = 0               # the attempt count at the last success
    elapsed = 0.0

    while (successes < target_rounds if target_rounds is not None
           else f_current < target_fidelity):
        fid, p = closed_form_general(f, f_current)
        attempts += 1
        # (elapsed + gate) + messages: the two roundings of two +=
        elapsed = elapsed + gate + messages
        if uniform() < p * keep:
            f_current = fid
            successes += 1
            history.append(f_current)
            attempts_per_round.append(attempts - last)
            last = attempts
        else:
            # restoration: stored state unchanged, extra dwell time
            elapsed += restore
    return attempts, elapsed, history, attempts_per_round


@dataclass(frozen=True)
class BatchStats:
    """Aggregate over independent trials of the same configuration."""

    trials: int
    mean_attempts: float
    attempts_halfwidth: float      # 1.96 sigma / sqrt(trials)
    mean_time: float
    time_halfwidth: float
    mean_final_fidelity: float
    attempts_by_round: tuple[int, ...]    # attempts targeting round k
    successes_by_round: tuple[int, ...]
    attempts_per_trial: tuple[int, ...] = field(repr=False)


class _Chunk(NamedTuple):
    """Outcomes of consecutive trials, in trial order."""

    attempts: np.ndarray        # attempts of each trial
    times: np.ndarray           # total time of each trial
    finals: np.ndarray          # final fidelity of each trial
    attempts_by_round: list[int]
    successes_by_round: list[int]


def _run_chunk(config: ProtocolConfig, trials: range) -> _Chunk:
    """Run ``trials`` on one reseeded generator, keeping a few numbers of each."""
    at = _streams(config.seed)
    attempts, times, finals = (np.empty(len(trials)) for _ in range(3))
    attempts_by_round: list[int] = []
    successes_by_round: list[int] = []
    for i, trial in enumerate(trials):
        attempts[i], times[i], history, per_round = _trial(config, at(trial))
        finals[i] = history[-1]
        for k, n_att in enumerate(per_round):
            if k == len(attempts_by_round):
                attempts_by_round.append(0)
                successes_by_round.append(0)
            attempts_by_round[k] += n_att
            successes_by_round[k] += 1
    return _Chunk(attempts, times, finals, attempts_by_round, successes_by_round)


def _join(parts: list[_Chunk]) -> _Chunk:
    """Chunks of consecutive trial ranges as one chunk, in trial order."""
    def add(sums: Iterable[list[int]]) -> list[int]:
        return [sum(k) for k in zip_longest(*sums, fillvalue=0)]

    return _Chunk(np.concatenate([p.attempts for p in parts]),
                  np.concatenate([p.times for p in parts]),
                  np.concatenate([p.finals for p in parts]),
                  add(p.attempts_by_round for p in parts),
                  add(p.successes_by_round for p in parts))


def simulate_batch(config: ProtocolConfig, trials: int,
                   workers: int = 1) -> BatchStats:
    """Run ``trials`` independent protocol executions and aggregate.

    Identical results for any worker count: trial streams depend only
    on (seed, trial index) and aggregation is in trial order.  Runs
    ``min(workers, trials, os.cpu_count())`` chunks, each in its own
    process; one chunk runs in this process.
    """
    _check_count("trials", trials, ConfigurationError)
    _check_count("workers", workers, ConfigurationError)
    # before the per-trial arrays, whose length is ``trials``
    if trials > MAX_TRIALS:
        raise ConfigurationError(f"trials is above the bound of {MAX_TRIALS}")

    chunks = min(workers, trials, os.cpu_count() or 1)
    if chunks == 1:
        run = _run_chunk(config, range(trials))
    else:
        from concurrent.futures import ProcessPoolExecutor
        # at most one chunk per trial, so every span is non-empty
        bounds = np.linspace(0, trials, chunks + 1, dtype=int)
        spans = [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        # the pool forks max_workers processes up front; one per chunk
        with ProcessPoolExecutor(max_workers=chunks) as pool:
            run = _join(list(pool.map(functools.partial(_run_chunk, config), spans)))

    def halfwidth(x: np.ndarray) -> float:
        if len(x) < 2:
            return float("nan")
        return float(1.96 * x.std(ddof=1) / math.sqrt(len(x)))

    return BatchStats(
        trials=trials,
        mean_attempts=float(run.attempts.mean()),
        attempts_halfwidth=halfwidth(run.attempts),
        mean_time=float(run.times.mean()),
        time_halfwidth=halfwidth(run.times),
        mean_final_fidelity=float(run.finals.mean()),
        attempts_by_round=tuple(run.attempts_by_round),
        successes_by_round=tuple(run.successes_by_round),
        attempts_per_trial=tuple(run.attempts.astype(int).tolist()),
    )


def expected_attempts(f: float, target_rounds: int,
                      p_inconclusive: float = 0.0) -> float:
    """Analytic mean attempt count: sum of geometric means per round.

    The sum that :class:`ProtocolConfig`'s attempts bound computes.
    """
    return ProtocolConfig(f=f, target_rounds=target_rounds,
                          p_inconclusive=p_inconclusive)._mean_attempts
