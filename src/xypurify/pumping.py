"""Multi-round entanglement pumping on a stored pair.

A stored ("permanent") pair is purified repeatedly with fresh
fidelity-f pairs.  Two modes:

* ``closed_form``: iterate the scalar recurrence F_k = F(T, f, F_{k-1})
  of :func:`xypurify.rounds.closed_form_general`.  This is the map the
  saturation table (``xypurify fig6``, read from :func:`pump` traces)
  and all reported tables use.
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
exact XY map above or the DEJMPS map of :mod:`xypurify.cnot`), from the
Werner weights of :func:`xypurify.states.werner_weights`.  A pump
sequence has one record, :class:`PumpTrace`, which :func:`pump` builds
through ``_trace`` in either mode: the first n rounds, the fixed point
and the optimal round count ``n_optimal``, the one optimal-round
search.  It holds nothing a caller can read off the rounds: F_n - f is
``rounds[n - 1].fidelity - f``.  :mod:`xypurify.montecarlo` iterates
the recurrence directly, and :func:`xypurify.cnot.comparison_table` the
DEJMPS map.  The fixed point is not searched for: it is the root of a
quadratic (:func:`fixed_point`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, tee
from typing import Iterator, Literal

import numpy as np

from .errors import AnalysisError, DomainError
from .rounds import bell_diagonal_map, closed_form_general
from .states import werner_weights

EPSILON_DEFAULT = 1e-3         # fixed-point proximity target of n_optimal
MAX_ROUNDS = 10_000            # bound on a pump's length and on a search along one

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
    fixed_point: float
    n_optimal: int


def _check_count(name: str, value, error: type[ValueError] = DomainError,
                 maximum: int | None = None) -> None:
    """A count is a Python or numpy integer >= 1, and <= maximum if one is given.

    Floats and bools are not counts.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise error(f"{name} must be >= 1, got {value}")
    if maximum is not None and value > maximum:
        raise error(f"{name} must be at most {maximum}, got {value}")


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


def _werner_rounds(f: float) -> Iterator[tuple[float, float]]:
    """(F_k, P_k) for k = 1, 2, ... on the scalar recurrence from F_0 = f."""
    current = f
    while True:
        current, p = closed_form_general(f, current)
        yield current, p


def _bell_rounds(transfer: np.ndarray, f: float) -> Iterator[tuple[float, float]]:
    """(F_k, P_k) for k = 1, 2, ... through a 4x4 Bell-weight map.

    The stored pair starts as Werner(f).  ``transfer`` maps its Bell
    weights (``BELL_ORDER``) to unnormalised post-round weights, whose
    sum is the success probability P_k.
    """
    weights = werner_weights(f)
    while True:
        post = transfer @ weights
        p = float(post.sum())
        weights = post / p
        yield float(weights[0]), p


def _trace(f: float, n: int, trajectory: Iterator[tuple[float, float]],
           search: Iterator[tuple[float, float]] | None = None) -> PumpTrace:
    """The first n rounds of a trajectory from F_0 = f, as a :class:`PumpTrace`.

    ``n_optimal`` is the smallest n with fixed_point(f) - F_n <
    EPSILON_DEFAULT along ``search``, a trajectory from the same f;
    without one, along ``trajectory`` itself, whose rounds are then
    computed once.
    """
    xstar = fixed_point(f)
    if search is None:
        trajectory, search = tee(trajectory)
    rounds: list[PumpRound] = []
    current = f
    for k, (fid, p) in enumerate(islice(trajectory, n), start=1):
        rounds.append(PumpRound(n=k, fidelity=fid, delta=fid - current,
                                success_probability=p))
        current = fid
    n_optimal = 0
    if xstar - f >= EPSILON_DEFAULT:
        for n_optimal, (fid, _) in enumerate(islice(search, MAX_ROUNDS), start=1):
            if xstar - fid < EPSILON_DEFAULT:
                break
        else:
            raise AnalysisError(f"pump map failed to approach its fixed point for f={f}")
    return PumpTrace(f=f, rounds=tuple(rounds), fixed_point=xstar, n_optimal=n_optimal)


def pump(f: float, n: int, mode: PumpMode = "closed_form") -> PumpTrace:
    """Run n <= MAX_ROUNDS successful pumping rounds with fresh fidelity-f pairs.

    ``n_optimal`` of the trace is the number of rounds the scalar
    recurrence needs to come within EPSILON_DEFAULT of
    :func:`fixed_point`, whichever ``mode`` ran the n rounds.
    """
    if not 0.5 < f <= 1.0:
        raise DomainError(f"pumping needs fresh-pair fidelity in (0.5, 1], got {f}")
    _check_count("n", n, maximum=MAX_ROUNDS)
    if mode == "closed_form":
        return _trace(f, n, _werner_rounds(f))
    if mode == "simulation":
        return _trace(f, n, _bell_rounds(bell_diagonal_map(f), f), _werner_rounds(f))
    raise DomainError(f"unknown pump mode {mode!r}")
