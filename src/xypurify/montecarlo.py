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
fidelity.  The analytic mean :func:`expected_attempts` walks the same
map through the shared iterator of :mod:`xypurify.pumping`.
:func:`simulate_batch` keeps each trial's outcome as a few numbers in
flat arrays and holds one :class:`ProtocolStats` at a time.

Reproducibility: every trial draws from its own generator seeded by
(seed, trial index), so results are independent of scheduling and
worker count.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from itertools import islice, zip_longest
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigurationError
from .pumping import MAX_ROUNDS, _werner_rounds, fixed_point
from .rounds import closed_form_general

GATE_TIME_DEFAULT = math.pi / 6.0          # units of 1/J, one gate at n = 0
RESTORE_EXTRA_DEFAULT = math.pi - math.pi / 6.0  # pi/J minus the gate time
MESSAGES_PER_ATTEMPT = 2
MAX_EXPECTED_ATTEMPTS = 10**6    # bound on a config's mean attempts per trial


def _check_count(name: str, value) -> None:
    """A count is a Python or numpy integer >= 1; floats and bools are not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Stopping rule, noise knob and bookkeeping constants for one run.

    Exactly one of ``target_rounds`` / ``target_fidelity`` must be set.
    ``p_inconclusive`` is the probability that the non-destructive
    readout returns no verdict; such attempts are discarded and handled
    like failures.  Times are in units of 1/J.
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
        if not 0.5 < self.f <= 1.0:
            raise ConfigurationError(
                f"fresh-pair fidelity must lie in (0.5, 1], got {self.f}")
        if (self.target_rounds is None) == (self.target_fidelity is None):
            raise ConfigurationError(
                "set exactly one of target_rounds / target_fidelity")
        if not 0.0 <= self.p_inconclusive < 1.0:
            raise ConfigurationError(
                f"p_inconclusive must lie in [0, 1), got {self.p_inconclusive}")
        for name in ("gate_time", "restore_extra_time", "message_latency"):
            value = getattr(self, name)
            # nan fails too, and so does an int past the float range
            if not 0.0 <= value <= sys.float_info.max:
                raise ConfigurationError(
                    f"{name} must be finite and nonnegative, got {value}")
        if self.target_rounds is not None:
            _check_count("target_rounds", self.target_rounds)
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
        _expected_total(rounds, self.p_inconclusive)


def _rounds_to(f: float, target: float, limit: float) -> Iterator[tuple[float, float]]:
    """(F_k, P_k) of the rounds a trial needs to reach ``target``.

    Raises once ``MAX_ROUNDS`` rounds fall short: the recurrence
    ``run_protocol`` follows settles in floating point a few ulps from
    the closed-form fixed point ``limit``, and can settle below it.
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


@dataclass(frozen=True)
class ProtocolStats:
    """Outcome of a single protocol run.

    Resources follow from ``rounds_attempted``: each attempt conveys one
    atomic pair per node, consumes the two shared entangled pairs those
    atoms carry, and exchanges ``MESSAGES_PER_ATTEMPT`` classical
    messages.
    """

    rounds_attempted: int
    rounds_succeeded: int
    total_time: float
    final_fidelity: float
    fidelity_history: tuple[float, ...]
    attempts_per_round: tuple[int, ...]


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # counter-based stream: the pair (seed, trial) fully determines it;
    # negative 64-bit seeds are mapped to their unsigned representation
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, trial])


def run_protocol(config: ProtocolConfig, trial: int = 0) -> ProtocolStats:
    """Execute one protocol run."""
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
        p_succ = closed_form_general(config.f, f_current).success_probability
        attempts += 1
        attempts_this_round += 1
        elapsed += config.gate_time
        elapsed += MESSAGES_PER_ATTEMPT * config.message_latency
        if rng.random() < p_succ * (1.0 - config.p_inconclusive):
            f_current = closed_form_general(config.f, f_current).fidelity
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

    attempts: np.ndarray        # rounds_attempted of each trial
    times: np.ndarray           # total_time of each trial
    finals: np.ndarray          # final_fidelity of each trial
    attempts_by_round: list[int]
    successes_by_round: list[int]


def _run_chunk(config: ProtocolConfig, trials: range) -> _Chunk:
    """Run ``trials``, keeping their numbers and one ``ProtocolStats`` at a time."""
    attempts, times, finals = (np.empty(len(trials)) for _ in range(3))
    attempts_by_round: list[int] = []
    successes_by_round: list[int] = []
    for i, trial in enumerate(trials):
        stats = run_protocol(config, trial)
        attempts[i] = stats.rounds_attempted
        times[i] = stats.total_time
        finals[i] = stats.final_fidelity
        for k, n_att in enumerate(stats.attempts_per_round):
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
    on (seed, trial index) and aggregation is in trial order.
    """
    _check_count("trials", trials)
    _check_count("workers", workers)

    if workers == 1:
        run = _run_chunk(config, range(trials))
    else:
        from concurrent.futures import ProcessPoolExecutor
        bounds = np.linspace(0, trials, workers + 1, dtype=int)
        spans = [range(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        # the pool forks max_workers processes up front; one per chunk
        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
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
    """Analytic mean attempt count: sum of geometric means per round."""
    ProtocolConfig(f=f, target_rounds=target_rounds, p_inconclusive=p_inconclusive)
    return _expected_total(islice(_werner_rounds(f), target_rounds), p_inconclusive)
