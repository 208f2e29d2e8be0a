"""Single purification round: evolution, measurement, post-selection.

One round takes two freshly conveyed entangled pairs (slots 1-4 and
2-5, both Werner with fidelity f) plus the stationary pair (slots 3-6,
arbitrary two-qubit state), evolves both triplets (1,2,3) and (4,5,6)
under the ring-exchange Hamiltonian for a time t0, measures slots
(1,2,4,5) in the computational basis, and keeps the stationary pair
conditioned on the predefined outcome.

Outcome convention
------------------
The two outcomes 0101 and 1010 (slot order 1,2,4,5) both herald
success and, for Bell-diagonal stationary states, give identical
conditional states with identical probabilities.  All closed forms
below are normalized per single predefined outcome, so
``success_probability`` reports the probability of 0101 alone; the
probability of either accepted outcome is twice that for symmetric
inputs.  Conditioning uses the single predefined outcome as well,
which matters only for non-symmetric stationary states (the product
state bootstrap), where the 1010 branch carries the opposite sign of
the phi+/phi- coherence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (DomainError, NegativeDurationError, ShapeError,
                     SingularExpressionError, ZeroProbabilityError)
from .states import (
    DensityMatrix,
    _werner_matrix,
    bell_decompose,
    computational_pair,
    fidelity,
)
from .xy import build_xy, evolve_composite

MEASURED_SLOTS = (1, 2, 4, 5)
PREDEFINED_OUTCOME = "0101"
ACCEPTED_OUTCOMES = frozenset({"0101", "1010"})
ZERO_PROBABILITY_THRESHOLD = 1e-14


@dataclass(frozen=True)
class OperationalTime:
    """Gate duration T with J T = pi/3 (n + 1/2)."""

    n: int
    t: float


def operational_time(j: float, n: int = 0) -> OperationalTime:
    if j == 0:
        raise DomainError("coupling J must be nonzero")
    if n < 0:
        raise DomainError(f"time index n must be >= 0, got {n}")
    return OperationalTime(n, math.pi * (n + 0.5) / (3.0 * j))


@dataclass(frozen=True)
class RoundInput:
    """Inputs of one purification round."""

    f: float
    stationary_state: DensityMatrix
    t0: float
    j: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.f <= 1.0:
            raise DomainError(f"conveyed-pair fidelity must lie in [0,1], got {self.f}")
        if self.stationary_state.dim != 4:
            raise ShapeError("stationary state must be a two-qubit density matrix")
        if self.j == 0:
            raise DomainError("coupling J must be nonzero")
        if not np.isfinite(self.t0):
            raise DomainError(f"evolution time must be finite, got {self.t0}")


@dataclass(frozen=True)
class RoundResult:
    """Post-selected stationary-pair state and outcome bookkeeping."""

    post_state: DensityMatrix
    success_probability: float
    accepted_outcomes: frozenset
    outcome_probabilities: Mapping[str, float]
    werner_deviation: float

    @property
    def fidelity(self) -> float:
        return fidelity(self.post_state)


def run_round(inp: RoundInput,
              predefined_outcome: str = PREDEFINED_OUTCOME) -> RoundResult:
    """Execute one purification round by direct six-qubit simulation.

    ``predefined_outcome`` is configurable for diagnostics only; the
    protocol fixes it to 0101 on slots (1, 2, 4, 5).  Only the returned
    stationary pair is a validated :class:`DensityMatrix`; the six-qubit
    state is a plain array.
    """
    bits = predefined_outcome
    if len(bits) != len(MEASURED_SLOTS) or any(b not in "01" for b in bits):
        raise DomainError(f"outcome {bits!r} does not match slots {MEASURED_SLOTS}")
    # rho_f(1,4) x rho_f(2,5) x rho_stat(3,6), each (row, row, col, col),
    # into rows 1..6 then columns 1..6
    pair = _werner_matrix(inp.f).reshape(2, 2, 2, 2)
    stat = inp.stationary_state.matrix.reshape(2, 2, 2, 2)
    rho6 = np.einsum("adAD,beBE,cfCF->abcdefABCDEF", pair, pair, stat)
    u = evolve_composite(build_xy(inp.j), inp.t0).matrix
    evolved = u @ rho6.reshape(64, 64) @ u.conj().T
    # diagonal as (1,2,4,5 | 3,6): row k sums the block of outcome k
    diag = np.diagonal(evolved).reshape(2, 2, 2, 2, 2, 2)
    probs = diag.transpose(0, 1, 3, 4, 2, 5).reshape(16, 4).sum(axis=1).real
    outcome_probs = {format(k, "04b"): float(p) for k, p in enumerate(probs)}
    prob = outcome_probs[bits]
    if prob < ZERO_PROBABILITY_THRESHOLD:
        raise ZeroProbabilityError(
            f"outcome {bits!r} on slots {MEASURED_SLOTS} has probability {prob:.3e}")
    b1, b2, b4, b5 = (int(b) for b in bits)
    block = evolved.reshape((2,) * 12)[b1, b2, :, b4, b5, :,
                                       b1, b2, :, b4, b5, :].reshape(4, 4)
    post = DensityMatrix(block / prob, (3, 6))
    return RoundResult(
        post_state=post,
        success_probability=prob,
        accepted_outcomes=ACCEPTED_OUTCOMES,
        outcome_probabilities=outcome_probs,
        werner_deviation=bell_decompose(post).off_diagonal_norm,
    )


def closed_form_fidelity(t0: float, f: float, j: float = 1.0) -> float:
    """Analytic post-selected fidelity for Werner inputs with f' = f.

    Rational-trigonometric in cos(6 J t0) and cos(12 J t0); equals f at
    t0 = 0 and peaks at the operational time.
    """
    if not 0.0 <= f <= 1.0:
        raise DomainError(f"fidelity must lie in [0,1], got {f}")
    c6 = math.cos(6.0 * j * t0)
    c12 = math.cos(12.0 * j * t0)
    num = (f - 38.0 * f * f - 8.0
           + 8.0 * (1.0 - 5.0 * f + 4.0 * f * f) * c6
           - 12.0 * f * (4.0 * f - 1.0) * c12)
    den = (34.0 * f - 32.0 * f * f - 47.0
           + 16.0 * (1.0 - 5.0 * f + 4.0 * f * f) * c6
           - 4.0 * (2.0 * f + 8.0 * f * f - 1.0) * c12)
    if abs(den) < 1e-12:
        raise SingularExpressionError(
            f"fidelity denominator vanished at t0={t0}, f={f}")
    return num / den


def closed_form_success(t0: float, f: float, j: float = 1.0) -> float:
    """Analytic single-outcome success probability for f' = f."""
    if not 0.0 <= f <= 1.0:
        raise DomainError(f"fidelity must lie in [0,1], got {f}")
    c6 = math.cos(6.0 * j * t0)
    c12 = math.cos(12.0 * j * t0)
    return (1.0 + 2.0 * f) * (
        47.0 - 34.0 * f + 32.0 * f * f
        - 16.0 * (1.0 - 5.0 * f + 4.0 * f * f) * c6
        + 4.0 * (2.0 * f + 8.0 * f * f - 1.0) * c12
    ) / 972.0


@dataclass(frozen=True)
class RoundFormulas:
    """Closed forms at the operational time: output fidelity and success."""

    fidelity: float
    success_probability: float


def closed_form_general(f: float, f_prime: float) -> RoundFormulas:
    """Round map at t0 = T for Werner conveyed pairs (f) and stationary (f').

    The fidelity denominator is 972 * success_probability, i.e.
    59 + 12 f - 20 f^2 + f' (256 f^2 - 64 f).  It is linear in f', and
    its minimum over [0,1]^2 is 51, at (f, f') = (1, 0): the f' = 0 edge
    decreases to 51 at f = 1 and the f' = 1 edge stays above 56.  It
    therefore never vanishes on the domain and needs no singularity
    check.
    """
    for name, val in (("f", f), ("f_prime", f_prime)):
        if not 0.0 <= val <= 1.0:
            raise DomainError(f"{name} must lie in [0,1], got {val}")
    num = f_prime * (12.0 * f + 236.0 * f * f - 5.0) - 16.0 * (f - 1.0)
    den = 59.0 + (12.0 - 64.0 * f_prime) * f - 4.0 * (5.0 - 64.0 * f_prime) * f * f
    return RoundFormulas(fidelity=num / den, success_probability=den / 972.0)


# Bell-weight round map at t0 = T, times 2916 = 3 * 972: M(f) =
# (A + B f + C f^2) / 2916, rows and columns in BELL_ORDER.  Derived
# from run_round on the four Bell projectors; independent of J.
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


def restore(state: DensityMatrix, elapsed: float, j: float,
            m: int | None = None) -> DensityMatrix:
    """Complete the evolution to a full period m*pi/J.

    The propagator is the exact identity at multiples of pi/J, so
    evolving the six-qubit state for (m*pi/J - elapsed) undoes the
    partial evolution without any measurement or feedback.
    """
    if state.dim != 64:
        raise ShapeError("restore acts on the full six-qubit state")
    if j == 0:
        raise DomainError("coupling J must be nonzero")
    period = math.pi / abs(j)
    if m is None:
        m = max(1, math.ceil(elapsed / period - 1e-12))
    if m * period < elapsed - 1e-12 * period:
        raise NegativeDurationError(
            f"m={m} gives total time {m * period:.6g} before elapsed {elapsed:.6g}")
    remaining = m * period - elapsed
    u = evolve_composite(build_xy(j), remaining)
    return DensityMatrix(u.matrix @ state.matrix @ u.matrix.conj().T,
                         state.labels)


def bootstrap_round(f: float, t0: float, j: float = 1.0) -> RoundResult:
    """First round seeded with the stationary pair in |00><00|.

    Requires f > 1/2; the output carries a real phi+/phi- coherence
    that decays over subsequent rounds.
    """
    if not 0.5 < f <= 1.0:
        raise DomainError(f"bootstrap needs f in (0.5, 1], got {f}")
    seed = computational_pair("00", labels=(3, 6))
    return run_round(RoundInput(f=f, stationary_state=seed, t0=t0, j=j))


@dataclass(frozen=True)
class BellCoefficients:
    """Bell-basis summary (a, b, c, d) of a stationary-pair state.

    a: phi+ weight, c: phi- weight, b: common psi+/psi- weight,
    d: real phi+/phi- coherence.
    """

    a: float
    b: float
    c: float
    d: float


def bell_coefficients(rho: DensityMatrix) -> BellCoefficients:
    dec = bell_decompose(rho)
    m = dec.matrix
    return BellCoefficients(
        a=dec.weights["phi_plus"],
        b=0.5 * (dec.weights["psi_plus"] + dec.weights["psi_minus"]),
        c=dec.weights["phi_minus"],
        d=float(np.real(m[0, 1])),
    )
