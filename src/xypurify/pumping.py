"""Multi-round entanglement pumping on a stored pair.

A stored ("permanent") pair is purified repeatedly with fresh
fidelity-f pairs.  Two modes:

* ``closed_form``: iterate the scalar recurrence F_k = F(T, f, F_{k-1})
  of :func:`xypurify.rounds.closed_form_general`.  This is the map the
  saturation analysis and all reported tables use.
* ``simulation``: carry the four Bell weights of the stored pair between
  rounds through the exact Bell-weight map
  :func:`xypurify.rounds.bell_diagonal_map`, which reproduces the
  six-qubit engine on every Bell-diagonal stored pair.

The two maps agree exactly on Werner stored pairs.  The exact post-round
state is Werner only when f' = f, so they agree for two rounds; from
round 3 on they differ only because the scalar recurrence twirls the
stored pair back to Werner form before each round.

One iterator serves each kind of round map: ``_werner_rounds`` runs the
scalar recurrence and ``_bell_rounds`` any 4x4 Bell-weight map (the
exact XY map above or the DEJMPS map of :mod:`xypurify.cnot`);
``_rounds_within`` is the one optimal-round search over either.
:mod:`xypurify.cnot` and :mod:`xypurify.montecarlo` iterate through them.
Fixed points are not searched for: the recurrence's is the root of a
quadratic (:func:`fixed_point`), and a Bell-weight map's is its Perron
eigenvector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .errors import AnalysisError, DomainError
from .rounds import bell_diagonal_map, closed_form_general

SATURATION_THRESHOLD = 0.005   # per-round gain below this counts as saturated
EPSILON_DEFAULT = 1e-3         # default fixed-point proximity target
MAX_ROUNDS = 10_000            # bound on a search along a pump trajectory

PumpMode = Literal["closed_form", "simulation"]


@dataclass(frozen=True)
class PumpRound:
    """One successful pumping round."""

    n: int
    fidelity: float
    delta: float
    success_probability: float


@dataclass(frozen=True)
class PumpTrace:
    """Fidelity trajectory of a pump sequence starting from F_0 = f."""

    f: float
    rounds: tuple[PumpRound, ...]
    f_hat: float          # F_n - f after the last round
    fixed_point: float
    n_optimal: int

    @property
    def fidelities(self) -> list[float]:
        return [self.f] + [r.fidelity for r in self.rounds]


def fixed_point(f: float) -> float:
    """Stationary fidelity x solving F(T, f, x) = x on [1/2, 1].

    Clearing the denominator of :func:`closed_form_general` leaves the
    quadratic a x^2 + b x + c = 0 with a = 4f(4f - 1), b = 4(1 - 4f^2)
    and c = -(1 - f); this is its larger root.  On [1/2, 1], a > 0 and
    b, c <= 0, so -b + sqrt(b^2 - 4ac) adds two nonnegative terms and
    does not cancel.  The pump sequence converges to this value
    monotonically from below.
    """
    if not 0.5 <= f <= 1.0:
        raise DomainError(f"fixed point defined for f in [0.5, 1], got {f}")
    a = 4.0 * f * (4.0 * f - 1.0)
    b = 4.0 * (1.0 - 4.0 * f * f)
    c = f - 1.0
    return (-b + math.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)


def optimal_rounds(f: float, epsilon: float = EPSILON_DEFAULT) -> int:
    """Smallest n with fixed_point(f) - F_n < epsilon."""
    return _rounds_within(_werner_rounds(f), f, fixed_point(f), epsilon)


def _werner_rounds(f: float) -> Iterator[tuple[float, float]]:
    """(F_k, P_k) for k = 1, 2, ... on the scalar recurrence from F_0 = f."""
    current = f
    while True:
        step = closed_form_general(f, current)
        current = step.fidelity
        yield current, step.success_probability


def _bell_rounds(transfer: np.ndarray, f: float) -> Iterator[tuple[float, float]]:
    """(F_k, P_k) for k = 1, 2, ... through a 4x4 Bell-weight map.

    The stored pair starts as Werner(f).  ``transfer`` maps its Bell
    weights (``BELL_ORDER``) to unnormalised post-round weights, whose
    sum is the success probability P_k.
    """
    weights = np.array([f] + 3 * [(1.0 - f) / 3.0])   # Werner, in BELL_ORDER
    while True:
        post = transfer @ weights
        p = float(post.sum())
        weights = post / p
        yield float(weights[0]), p


def _rounds_within(trajectory: Iterator[tuple[float, float]], f: float,
                   target: float, epsilon: float) -> int:
    """Smallest n with target - F_n < epsilon along a trajectory from F_0 = f."""
    if not 0.0 < epsilon < math.inf:  # nan fails too, before the walk
        raise DomainError(f"epsilon must be positive and finite, got {epsilon}")
    if target - f < epsilon:
        return 0
    for n, (fid, _) in enumerate(islice(trajectory, MAX_ROUNDS), start=1):
        if target - fid < epsilon:
            return n
    raise AnalysisError(f"pump map failed to approach its fixed point for f={f}")


def pump(f: float, n: int, mode: PumpMode = "closed_form",
         epsilon: float = EPSILON_DEFAULT) -> PumpTrace:
    """Run n successful pumping rounds with fresh fidelity-f pairs."""
    if not 0.5 < f <= 1.0:
        raise DomainError(f"pumping needs fresh-pair fidelity in (0.5, 1], got {f}")
    if n < 1:
        raise DomainError(f"need at least one round, got n={n}")
    if mode == "closed_form":
        trajectory = _werner_rounds(f)
    elif mode == "simulation":
        trajectory = _bell_rounds(bell_diagonal_map(f), f)
    else:
        raise DomainError(f"unknown pump mode {mode!r}")

    rounds: list[PumpRound] = []
    current_f = f
    for k, (new_f, p) in enumerate(islice(trajectory, n), start=1):
        rounds.append(PumpRound(n=k, fidelity=new_f, delta=new_f - current_f,
                                success_probability=p))
        current_f = new_f
    xstar = fixed_point(f)
    return PumpTrace(
        f=f,
        rounds=tuple(rounds),
        f_hat=current_f - f,
        fixed_point=xstar,
        n_optimal=_rounds_within(_werner_rounds(f), f, xstar, epsilon),
    )


@dataclass(frozen=True)
class SaturationRow:
    """One (f, n) entry of the pumping saturation table."""

    f: float
    n: int
    fidelity: float      # F_n
    f_hat: float         # F_n - f
    f_bar: float         # F_n - F_{n-1}
    success_probability: float
    fixed_point: float


def saturation_table(f_grid: Iterable[float], n_max: int) -> list[SaturationRow]:
    """Closed-form pumping table over a fidelity grid, rounds 1..n_max."""
    grid: Sequence[float] = list(f_grid)
    if not grid:
        raise DomainError("empty fidelity grid")
    for f in grid:
        if not 0.5 < f <= 1.0:
            raise DomainError(f"grid value {f} outside (0.5, 1]")
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    rows: list[SaturationRow] = []
    for f in grid:
        xstar = fixed_point(f)
        current = f
        for k, (fid, p) in enumerate(islice(_werner_rounds(f), n_max), start=1):
            rows.append(SaturationRow(
                f=f, n=k,
                fidelity=fid,
                f_hat=fid - f,
                f_bar=fid - current,
                success_probability=p,
                fixed_point=xstar,
            ))
            current = fid
    return rows
