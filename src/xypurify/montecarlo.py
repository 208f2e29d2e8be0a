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

Reproducibility: every trial draws from its own generator seeded by
(seed, trial index), so results are independent of scheduling and
worker count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ConfigurationError
from .pumping import MAX_ROUNDS, _werner_rounds, fixed_point
from .rounds import closed_form_general

GATE_TIME_DEFAULT = math.pi / 6.0          # units of 1/J, one gate at n = 0
RESTORE_EXTRA_DEFAULT = math.pi - math.pi / 6.0  # pi/J minus the gate time
MESSAGES_PER_ATTEMPT = 2


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
        if self.target_rounds is not None:
            _check_count("target_rounds", self.target_rounds)
        if self.target_fidelity is not None:
            limit = fixed_point(self.f)
            if not self.f <= self.target_fidelity < limit:
                raise ConfigurationError(
                    f"target fidelity {self.target_fidelity} is unreachable; "
                    f"the pump map for f = {self.f} is bounded by the fixed "
                    f"point {limit:.12g}")
            # the bisected fixed point is good to 1e-12 only; the recurrence
            # run_protocol follows can settle below it
            walk = islice(_werner_rounds(self.f), MAX_ROUNDS)
            if not any(fid >= self.target_fidelity for fid, _ in walk):
                raise ConfigurationError(
                    f"target fidelity {self.target_fidelity} is unreachable; "
                    f"the pump recurrence for f = {self.f} does not reach it "
                    f"in {MAX_ROUNDS} rounds (fixed point {limit:.12g})")
        if not 0.0 <= self.p_inconclusive < 1.0:
            raise ConfigurationError(
                f"p_inconclusive must lie in [0, 1), got {self.p_inconclusive}")
        if self.gate_time < 0 or self.restore_extra_time < 0 or self.message_latency < 0:
            raise ConfigurationError("times must be nonnegative")


@dataclass(frozen=True)
class ProtocolStats:
    """Outcome of a single protocol run.

    ``pairs_consumed`` counts conveyed atomic pairs per node (one per
    attempt); each attempt also consumes the two shared entangled pairs
    those atoms carry.
    """

    rounds_attempted: int
    rounds_succeeded: int
    pairs_consumed: int
    total_time: float
    messages_exchanged: int
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
        pairs_consumed=attempts,
        total_time=elapsed,
        messages_exchanged=MESSAGES_PER_ATTEMPT * attempts,
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


def _run_chunk(args: tuple[ProtocolConfig, int, int]) -> list[ProtocolStats]:
    config, start, stop = args
    return [run_protocol(config, trial) for trial in range(start, stop)]


def simulate_batch(config: ProtocolConfig, trials: int,
                   workers: int = 1) -> BatchStats:
    """Run ``trials`` independent protocol executions and aggregate.

    Identical results for any worker count: trial streams depend only
    on (seed, trial index) and aggregation is in trial order.
    """
    _check_count("trials", trials)
    _check_count("workers", workers)

    if workers == 1:
        stats = [run_protocol(config, trial) for trial in range(trials)]
    else:
        from concurrent.futures import ProcessPoolExecutor
        bounds = np.linspace(0, trials, workers + 1, dtype=int)
        chunks = [(config, int(a), int(b))
                  for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        # the pool forks max_workers processes up front; one per chunk
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(_run_chunk, chunks))
        stats = [s for part in parts for s in part]

    attempts = np.array([s.rounds_attempted for s in stats], dtype=float)
    times = np.array([s.total_time for s in stats], dtype=float)
    finals = np.array([s.final_fidelity for s in stats], dtype=float)

    max_round = max(s.rounds_succeeded for s in stats)
    attempts_by_round = [0] * max_round
    successes_by_round = [0] * max_round
    for s in stats:
        for k, n_att in enumerate(s.attempts_per_round):
            attempts_by_round[k] += n_att
            successes_by_round[k] += 1

    def halfwidth(x: np.ndarray) -> float:
        if len(x) < 2:
            return float("nan")
        return float(1.96 * x.std(ddof=1) / math.sqrt(len(x)))

    return BatchStats(
        trials=trials,
        mean_attempts=float(attempts.mean()),
        attempts_halfwidth=halfwidth(attempts),
        mean_time=float(times.mean()),
        time_halfwidth=halfwidth(times),
        mean_final_fidelity=float(finals.mean()),
        attempts_by_round=tuple(attempts_by_round),
        successes_by_round=tuple(successes_by_round),
        attempts_per_trial=tuple(int(a) for a in attempts),
    )


def expected_attempts(f: float, target_rounds: int,
                      p_inconclusive: float = 0.0) -> float:
    """Analytic mean attempt count: sum of geometric means per round."""
    ProtocolConfig(f=f, target_rounds=target_rounds, p_inconclusive=p_inconclusive)
    total = 0.0
    for _, p_succ in islice(_werner_rounds(f), target_rounds):
        total += 1.0 / (p_succ * (1.0 - p_inconclusive))
    return total
