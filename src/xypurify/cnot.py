"""Conventional CNOT-based purification round and its pumping variant.

The baseline gate sequence on two shared pairs (source kept, target
measured): single-qubit rotations (I + i X)/sqrt(2) on node-A qubits
and (I - i X)/sqrt(2) on node-B qubits, bilateral CNOTs with the
source qubits as controls, then a computational-basis measurement of
the target pair accepting equal outcomes {00, 11}.  For Werner x
Werner inputs the kept-pair fidelity is the rational map
:func:`closed_form_cnot`, with success probability (5 - 4f + 8f^2)/9.

The sign assignment (plus on A, minus on B) is pinned by requiring the
simulated circuit to reproduce the closed form to 1e-12; the mirrored
assignment works equally well, the same-sign ones do not.

With these rotations the round is the DEJMPS protocol (Deutsch et al.,
PRL 77, 2818, 1996).  A Bell-diagonal source with a Werner(f) target
stays Bell-diagonal, and its Bell weights follow a 4x4 map in f.  The
fixed point of :func:`scheme_c_pump` is that map's Perron eigenvector,
and its optimal round count iterates the map through the shared
Bell-weight iterator of :mod:`xypurify.pumping`.  :func:`cnot_round`
simulates the four-qubit circuit, computes the rounds
:func:`scheme_c_pump` reports, and stays the oracle the map is tested
against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ZeroProbabilityError
from .pumping import PumpRound, PumpTrace, _bell_rounds, _check_count, _rounds_within
from .rounds import closed_form_general
from .states import DensityMatrix, fidelity, werner

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
U_PLUS = (_I2 + 1j * _X) / np.sqrt(2.0)
U_MINUS = (_I2 - 1j * _X) / np.sqrt(2.0)


def _kron(*ops: np.ndarray) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def _cnot(n: int, control: int, target: int) -> np.ndarray:
    dim = 2 ** n
    m = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - k)) & 1 for k in range(n)]
        if bits[control]:
            bits[target] ^= 1
        row = sum(b << (n - 1 - k) for k, b in enumerate(bits))
        m[row, col] = 1.0
    return m

# qubit order inside the round: (1A, 1B, 2A, 2B); the source (1A, 1B) is kept
_GATE = (_cnot(4, 0, 2) @ _cnot(4, 1, 3)) @ _kron(U_PLUS, U_MINUS, U_PLUS, U_MINUS)
_GATE.setflags(write=False)


@dataclass(frozen=True)
class CnotRoundResult:
    post_state: DensityMatrix
    fidelity: float
    success_probability: float


def cnot_round(source: DensityMatrix, target: DensityMatrix) -> CnotRoundResult:
    """One baseline purification round; keeps the source pair.

    Success means equal outcomes on the measured target pair; the
    post-selected state mixes both accepted branches.  Only the returned
    pair is a validated :class:`DensityMatrix`.
    """
    if source.dim != 4 or target.dim != 4:
        raise DomainError("source and target must be two-qubit states")
    rho = _GATE @ np.kron(source.matrix, target.matrix) @ _GATE.conj().T
    t = rho.reshape((2,) * 8)
    post = np.zeros((4, 4), dtype=complex)
    p_succ = 0.0
    for b in (0, 1):
        block = t[:, :, b, b, :, :, b, b].reshape(4, 4)
        p_succ += float(np.real(block.trace()))
        post += block
    if not p_succ >= 1e-14:
        raise ZeroProbabilityError("both accepted outcomes have zero probability")
    post_state = DensityMatrix(post / p_succ)
    return CnotRoundResult(
        post_state=post_state,
        fidelity=fidelity(post_state),
        success_probability=p_succ,
    )


def closed_form_cnot(f: float) -> float:
    """Kept-pair fidelity of the baseline round for Werner(f) x Werner(f)."""
    if not 0.0 <= f <= 1.0:
        raise DomainError(f"fidelity must lie in [0,1], got {f}")
    return (1.0 - 2.0 * f + 10.0 * f * f) / (5.0 - 4.0 * f + 8.0 * f * f)


def scheme_c_pump(f: float, n: int) -> PumpTrace:
    """Entanglement pumping with the baseline gate.

    The stored pair is the source, a fresh Werner(f) pair the measured
    target, every round; the exact Bell-diagonal stored state is
    carried between rounds (no twirling).
    """
    if not 0.5 < f <= 1.0:
        raise DomainError(f"pumping needs f in (0.5, 1], got {f}")
    _check_count("n", n)
    rounds = _scheme_c_rounds(f, n)
    xstar = _scheme_c_fixed_point(f)
    return PumpTrace(
        f=f,
        rounds=rounds,
        f_hat=rounds[-1].fidelity - f,
        fixed_point=xstar,
        n_optimal=_rounds_within(_bell_rounds(_dejmps_map(f), f), f, xstar),
    )


def _scheme_c_rounds(f: float, n: int) -> tuple[PumpRound, ...]:
    """The first n rounds of :func:`scheme_c_pump`, each a :func:`cnot_round`."""
    stored = target = werner(f)
    rounds: list[PumpRound] = []
    current = f
    for k in range(1, n + 1):
        res = cnot_round(stored, target)
        stored = res.post_state
        rounds.append(PumpRound(n=k, fidelity=res.fidelity,
                                delta=res.fidelity - current,
                                success_probability=res.success_probability))
        current = res.fidelity
    return tuple(rounds)


def _dejmps_map(f: float) -> np.ndarray:
    """Bell-weight map of one baseline round with a Werner(f) target.

    A Bell-diagonal source with weights w (``BELL_ORDER``) leaves the
    round Bell-diagonal with unnormalised weights M @ w; their sum is
    the success probability, (5 - 4f + 8f^2)/9 on a Werner(f) source.
    """
    b = (1.0 - f) / 3.0
    return np.array([[f, 0.0, 0.0, b],
                     [b, 0.0, 0.0, f],
                     [0.0, b, b, 0.0],
                     [0.0, b, b, 0.0]])


def _scheme_c_fixed_point(f: float) -> float:
    """phi+ weight of the Perron eigenvector of :func:`_dejmps_map`.

    The map has no negative entries, so by Perron-Frobenius the
    normalised weights of :func:`xypurify.pumping._bell_rounds`, a power
    iteration, converge to the eigenvector of its largest eigenvalue.
    """
    values, vectors = np.linalg.eig(_dejmps_map(f))
    v = vectors[:, np.argmax(values.real)]
    return float((v[0] / v.sum()).real)


@dataclass(frozen=True)
class ComparisonRow:
    """Equal-resource comparison at one fresh-pair fidelity."""

    f: float
    xy_one_round: float
    cnot_one_round: float
    scheme_c_two_rounds: float


def comparison_table(f_grid: Iterable[float]) -> list[ComparisonRow]:
    """Ring-exchange single round vs baseline round vs two pump rounds.

    The ring-exchange round beats the baseline on all of (1/2, 1), so no
    check guards the rows: xy - cnot = 21 (1 - f)(2f - 1)(2f + 1)(4f - 1)
    / ((8f^2 - 4f + 5)(128f^2 - 106f + 59)), whose quadratics have
    negative discriminants.  Next to 1/2 and 1 rounding may tie or swap them.
    """
    grid: Sequence[float] = list(f_grid)
    rows: list[ComparisonRow] = []
    for f in grid:
        if not 0.5 < f < 1.0:
            raise DomainError(f"grid value {f} outside (0.5, 1)")
        xy = closed_form_general(f, f).fidelity
        base = closed_form_cnot(f)
        two = _scheme_c_rounds(f, 2)[-1].fidelity
        rows.append(ComparisonRow(f=f, xy_one_round=xy, cnot_one_round=base,
                                  scheme_c_two_rounds=two))
    return rows
