"""Single purification round: evolution, measurement, post-selection.

One round takes two freshly conveyed entangled pairs (slots 1-4 and
2-5, both Werner with fidelity f) plus the stationary pair (slots 3-6,
arbitrary two-qubit state), evolves both triplets (1,2,3) and (4,5,6)
under the ring-exchange Hamiltonian for a time t0, measures slots
(1,2,4,5) in the computational basis, and keeps the stationary pair
conditioned on the predefined outcome.  These positions are the only
slot bookkeeping: the six-qubit arrays run over slots 1..6 in order,
and the returned pair is the 4x4 matrix of slots (3, 6).  The six-qubit
propagator is the Kronecker square of the triplet propagator of
:mod:`xypurify.xy`, a plain array that is unitary by construction
(:func:`run_round` shows how closely).

Units: like :mod:`xypurify.xy`, this module works in units J = 1, so
every time it takes (t0) is J t.  :func:`operational_time` alone takes
the coupling J: it is the one conversion of J T = pi/3 (n + 1/2) into
T, and at J = 1 it returns the t0 the other functions take.

A failed round is undone by evolving on to the next multiple of pi,
where the ring propagator is the identity (:mod:`xypurify.xy`);
:mod:`xypurify.montecarlo` charges that dwell time, and the tests pin
the restoration on random six-qubit states.

Both closed forms return a :class:`RoundFormulas` named tuple
(fidelity, success probability): :func:`closed_form_at` at any time t0
for pairs of one fidelity f, and :func:`closed_form_general` at the
operational time for fidelities f, f'.

Outcome convention
------------------
The two outcomes 0101 and 1010 (slot order 1,2,4,5) both herald
success, and they give identical conditional states with identical
probabilities for every stationary state, the product-state bootstrap
included: exchanging sites 1<->2 and 4<->5 swaps the two conveyed
pairs, which are the same Werner state, commutes with both ring
Hamiltonians, leaves slots 3 and 6 alone and maps 0101 to 1010.
:func:`run_round` conditions on 0101 (``PREDEFINED_OUTCOME``), and
all closed forms below are normalized per that single outcome, so
``success_probability`` reports the probability of 0101 alone; the
probability of either accepted outcome is twice that.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ShapeError, ZeroProbabilityError
from .states import (
    DensityMatrix,
    _bell_off_diagonal,
    _werner_matrix,
    computational_pair,
    fidelity,
)
from .xy import evolve_triplet

MEASURED_SLOTS = (1, 2, 4, 5)
PREDEFINED_OUTCOME = "0101"
ZERO_PROBABILITY_THRESHOLD = 1e-14


@dataclass(frozen=True)
class OperationalTime:
    """Gate duration T with J T = pi/3 (n + 1/2)."""

    n: int
    t: float


def operational_time(j: float, n: int = 0) -> OperationalTime:
    """T = pi/3 (n + 1/2) / J, finite, for J of either sign, not 0, and integer n >= 0."""
    # the float-range bound, unlike math.isfinite, also takes ints past it
    if j == 0 or not abs(j) <= sys.float_info.max:
        raise DomainError(f"coupling J must be finite and nonzero, got {j}")
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"time index n must be an integer >= 0, got {n!r}")
    # in Python floats, which overflow to inf without numpy's RuntimeWarning
    # for numpy arguments; n + 0.5 converts n to float, which overflows past
    # the float range
    t = (math.pi * (int(n) + 0.5) / (3.0 * float(j)) if n <= sys.float_info.max
         else math.inf)
    if not math.isfinite(t):
        raise DomainError(f"operational time T = pi/3 (n + 1/2) / J is not finite: "
                          f"J = {j} is too small or n too large")
    return OperationalTime(n, t)


@dataclass(frozen=True)
class RoundInput:
    """Inputs of one purification round."""

    f: float
    stationary_state: DensityMatrix
    t0: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.f <= 1.0:
            raise DomainError(f"conveyed-pair fidelity must lie in [0,1], got {self.f}")
        if self.stationary_state.dim != 4:
            raise ShapeError("stationary state must be a two-qubit density matrix")
        # the float-range bound, unlike np.isfinite, also takes ints past it
        if not abs(self.t0) <= sys.float_info.max:
            raise DomainError(f"evolution time must be finite, got {self.t0}")


@dataclass(frozen=True)
class RoundResult:
    """Post-selected stationary-pair state and its single-outcome probability."""

    post_state: DensityMatrix
    success_probability: float
    werner_deviation: float

    @property
    def fidelity(self) -> float:
        return fidelity(self.post_state)


def run_round(inp: RoundInput) -> RoundResult:
    """Execute one purification round by direct six-qubit simulation.

    The stationary pair is post-selected on ``PREDEFINED_OUTCOME``, 0101
    on slots (1, 2, 4, 5): the block of the evolved state with those
    bits in rows and columns is the unnormalised pair of slots (3, 6),
    and its trace the success probability.  Only the returned stationary
    pair is a validated :class:`DensityMatrix`; the six-qubit state is a
    plain array.

    The two triplets evolve under u = u3 (x) u3, with u3 the 8x8
    propagator of :func:`xypurify.xy.evolve_triplet`, and neither is
    checked at run time.  u3 = sum_k z_k P_k over three orthogonal
    projectors P_k that sum to I, with |z_k| = 1, so exactly u3^H u3 =
    sum_k |z_k|^2 P_k = I.  As computed, each 24 P_k is an exact integer
    matrix, and each entry of u3 takes a few roundings of its phases,
    their integer multiples, their sum and the division by 24, so
    u3^H u3 = I + E with max |E| = eps of a few ulp at any t0 (the tests
    bound it by 1e-15 up to t0 = 4e7).  Then (X (x) Y)^H (X (x) Y)
    = X^H X (x) Y^H Y gives u^H u - I = E (x) I + I (x) E + E (x) E,
    every entry of which is at most 2 eps + eps^2 in magnitude.
    """
    # rho_f(1,4) x rho_f(2,5) x rho_stat(3,6), each (row, row, col, col),
    # into rows 1..6 then columns 1..6
    pair = _werner_matrix(inp.f).reshape(2, 2, 2, 2)
    stat = inp.stationary_state.matrix.reshape(2, 2, 2, 2)
    rho6 = np.einsum("adAD,beBE,cfCF->abcdefABCDEF", pair, pair, stat)
    u3 = evolve_triplet(inp.t0)
    u = np.kron(u3, u3)
    evolved = u @ rho6.reshape(64, 64) @ u.conj().T
    b1, b2, b4, b5 = (int(b) for b in PREDEFINED_OUTCOME)
    block = evolved.reshape((2,) * 12)[b1, b2, :, b4, b5, :,
                                       b1, b2, :, b4, b5, :].reshape(4, 4)
    prob = float(np.trace(block).real)
    if not prob >= ZERO_PROBABILITY_THRESHOLD:
        raise ZeroProbabilityError(
            f"outcome {PREDEFINED_OUTCOME!r} on slots {MEASURED_SLOTS} "
            f"has probability {prob:.3e}")
    post = DensityMatrix(block / prob)
    return RoundResult(
        post_state=post,
        success_probability=prob,
        werner_deviation=_bell_off_diagonal(post),
    )


def _cosines(t0: float) -> tuple[float, float]:
    """cos(6 t0) and cos(12 t0), for a finite phase 12 t0 only.

    In Python floats, after the float-range bound, so that an int past it
    or a numpy float overflows without an OverflowError or RuntimeWarning.
    """
    if not (abs(t0) <= sys.float_info.max and math.isfinite(12.0 * float(t0))):
        raise DomainError(f"evolution time J t0 must be finite, got t0={t0}")
    t0 = float(t0)
    return math.cos(6.0 * t0), math.cos(12.0 * t0)


class RoundFormulas(NamedTuple):
    """Closed forms of one round: output fidelity and single-outcome success.

    A named tuple, built with ``tuple.__new__``, because the Monte Carlo
    makes one per attempt.
    """

    fidelity: float
    success_probability: float


def closed_form_at(t0: float, f: float) -> RoundFormulas:
    """Round map at time t0 for Werner conveyed and stored pairs, f' = f.

    Rational-trigonometric in cos(6 J t0) and cos(12 J t0); the fidelity
    equals f at t0 = 0 and peaks at the operational time, where both
    values are those of :func:`closed_form_general` at (f, f).

    With c = cos(6 J t0) and cos(12 J t0) = 2c^2 - 1 the fidelity
    denominator is -8 (4f - 1)(2f + 1) c^2 + 16 (4f - 1)(f - 1) c + 42 f
    - 51, which lies in [-81, -9] on f in [0,1], c in [-1,1] and so needs
    no singularity check.  For f >= 1/4, maximising over |c| bounds it by
    8 (4f - 1)(1 - f)^2 / (2f + 1) - 42 (1 - f) - 9 <= -9 - 26 (1 - f),
    as 4f - 1 < 2 (2f + 1) and (1 - f)^2 <= 1 - f; -9 is reached only at
    f = 1, c = 0.  For f < 1/4 the c terms add at most 12 + 16 to
    42 f - 51 < -40.5.  From below, f >= 1/4 gives -24 (4f - 1) + 42 f
    - 51 >= -81 (at f = 1, c = +-1) and f < 1/4 gives -16 - 51.

    The success probability is -(1 + 2f) / 972 times that denominator,
    so it is at least 9 (1 + 2f) / 972.  It is evaluated as its own
    polynomial, not from the denominator: the two orders of evaluation
    differ in the last bit.  Non-finite times raise :class:`DomainError`.
    """
    if not 0.0 <= f <= 1.0:
        raise DomainError(f"fidelity must lie in [0,1], got {f}")
    c6, c12 = _cosines(t0)
    num = (f - 38.0 * f * f - 8.0
           + 8.0 * (1.0 - 5.0 * f + 4.0 * f * f) * c6
           - 12.0 * f * (4.0 * f - 1.0) * c12)
    den = (34.0 * f - 32.0 * f * f - 47.0
           + 16.0 * (1.0 - 5.0 * f + 4.0 * f * f) * c6
           - 4.0 * (2.0 * f + 8.0 * f * f - 1.0) * c12)
    success = (1.0 + 2.0 * f) * (
        47.0 - 34.0 * f + 32.0 * f * f
        - 16.0 * (1.0 - 5.0 * f + 4.0 * f * f) * c6
        + 4.0 * (2.0 * f + 8.0 * f * f - 1.0) * c12
    ) / 972.0
    return tuple.__new__(RoundFormulas, (num / den, success))


def closed_form_general(f: float, f_prime: float) -> RoundFormulas:
    """Round map at t0 = T for Werner conveyed pairs (f) and stationary (f').

    The fidelity denominator is 972 * success_probability, i.e.
    59 + 12 f - 20 f^2 + f' (256 f^2 - 64 f).  It is linear in f', and
    its minimum over [0,1]^2 is 51, at (f, f') = (1, 0): the f' = 0 edge
    decreases to 51 at f = 1 and the f' = 1 edge stays above 56.  It
    therefore never vanishes on the domain and needs no singularity
    check.
    """
    # one test on the hot path; nan fails it too
    if not (0.0 <= f <= 1.0 and 0.0 <= f_prime <= 1.0):
        name, val = ("f", f) if not 0.0 <= f <= 1.0 else ("f_prime", f_prime)
        raise DomainError(f"{name} must lie in [0,1], got {val}")
    num = f_prime * (12.0 * f + 236.0 * f * f - 5.0) - 16.0 * (f - 1.0)
    den = 59.0 + (12.0 - 64.0 * f_prime) * f - 4.0 * (5.0 - 64.0 * f_prime) * f * f
    return tuple.__new__(RoundFormulas, (num / den, den / 972.0))


# Bell-weight round map at t0 = T, times 2916 = 3 * 972: M(f) =
# (A + B f + C f^2) / 2916, rows and columns in BELL_ORDER.  Derived
# from run_round on the four Bell projectors.
_BELL_MAP_A = np.array([[33, 0, 72, 72], [0, 113, 8, 8],
                        [72, 8, 89, 32], [72, 8, 32, 89]])
_BELL_MAP_B = np.array([[-12, 96, -120, -120], [96, -172, 200, 200],
                        [-120, 200, -124, -64], [-120, 200, -64, -124]])
_BELL_MAP_C = np.array([[708, -96, 48, 48], [-96, 68, -208, -208],
                        [48, -208, 260, 32], [48, -208, 32, 260]])


def bell_diagonal_map(f: float) -> np.ndarray:
    """Exact round map on the Bell weights of a Bell-diagonal stored pair.

    For Werner conveyed pairs of fidelity f and a stored pair with Bell
    weights w (``BELL_ORDER``), one round at the operational time leaves
    the stored pair Bell-diagonal with unnormalised weights M(f) @ w; their
    sum is the single-outcome success probability.  On Werner stored
    pairs it reproduces :func:`closed_form_general` exactly; on other
    Bell-diagonal pairs it is what :func:`run_round` computes.
    """
    if not 0.0 <= f <= 1.0:
        raise DomainError(f"f must lie in [0,1], got {f}")
    return (_BELL_MAP_A + f * _BELL_MAP_B + f * f * _BELL_MAP_C) / 2916.0


def bootstrap_round(f: float, t0: float) -> RoundResult:
    """First round seeded with the stationary pair in |00><00|.

    Requires f > 1/2; the output carries a real phi+/phi- coherence
    that decays over subsequent rounds.
    """
    if not 0.5 < f <= 1.0:
        raise DomainError(f"bootstrap needs f in (0.5, 1], got {f}")
    seed = computational_pair("00")
    return run_round(RoundInput(f=f, stationary_state=seed, t0=t0))

