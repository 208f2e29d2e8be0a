"""Brute-force references the package's fast paths are tested against.

Six-qubit states on plain arrays, independent of ``run_round``.  The
round fixes every pairing by position: conveyed pairs on slots (1, 4)
and (2, 5), the stored pair on (3, 6).  Here the three pairs are joined
with ``np.kron`` in the order (1, 4, 2, 5, 3, 6) and moved to slot order
1..6 by an explicit transpose, not by ``run_round``'s ``einsum``.
:func:`ring_pair` is the two triplets' propagator, ``scipy.linalg.expm``
of a ring Hamiltonian built here from Pauli Kronecker products, not the
package's ``evolve_triplet``; :func:`restore` completes a partial ring
evolution to a full period.

:func:`bell_matrix` and :func:`bell_weights` give a two-qubit state in
the Bell basis, from the Bell vectors written out here.

The four-qubit CNOT baseline circuit, :func:`cnot_round`: the reference
for ``cnot._dejmps_map`` and ``closed_form_cnot``, which give every CNOT
round the package reports.
"""
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from xypurify import (
    DensityMatrix,
    DomainError,
    ZeroProbabilityError,
    fidelity,
)
from xypurify.states import BELL_ORDER

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def _kron(*ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


# H of one triplet in units J = 1: XX + YY on each bond of the ring
RING_H = sum(_kron(*(pauli if k in bond else _I2 for k in range(3)))
             for bond in ((0, 1), (1, 2), (0, 2)) for pauli in (_X, _Y))

# position of slots 1..6 in the Kronecker order (1, 4, 2, 5, 3, 6)
KRON_TO_SLOTS = (0, 2, 4, 1, 3, 5)
# the measured slots 1, 2, 4, 5, by position in slot order
MEASURED = (0, 1, 3, 4)


def to_slot_order(rho):
    """A 64x64 matrix in Kronecker order (1, 4, 2, 5, 3, 6), in slot order."""
    axes = list(KRON_TO_SLOTS)
    t = np.asarray(rho).reshape((2,) * 12)
    return t.transpose(axes + [a + 6 for a in axes]).reshape(64, 64)


def six_qubit_state(p14, p25, p36):
    """Pairs on slots (1, 4), (2, 5) and (3, 6), as one matrix over slots 1..6."""
    return to_slot_order(np.kron(np.kron(p14, p25), p36))


def ring_pair(t):
    """Propagator of the triplets (1, 2, 3) and (4, 5, 6), both evolved for t."""
    u3 = scipy.linalg.expm(-1j * t * RING_H)
    return np.kron(u3, u3)


def stored_pair(rho6):
    """Reduced state of slots (3, 6): slots 1, 2, 4 and 5 traced out."""
    t = np.asarray(rho6).reshape((2,) * 12)
    for ax in sorted(MEASURED, reverse=True):
        # a row axis and its column axis, half the remaining axes further on
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    return t.reshape(4, 4)


def post_selected(rho6, bits):
    """Probability of ``bits`` on slots (1, 2, 4, 5), and the state of (3, 6) given it."""
    t = np.asarray(rho6).reshape((2,) * 12)
    index = [slice(None)] * 6
    for ax, bit in zip(MEASURED, bits):
        index[ax] = int(bit)
    block = t[tuple(index + index)].reshape(4, 4)
    prob = np.trace(block).real
    return prob, block / prob


def restore(rho6, elapsed):
    """A six-qubit state evolved for ``elapsed``, evolved on to the next full period.

    The propagator is the exact identity at multiples of pi, so evolving
    for m pi - elapsed undoes the partial evolution without measurement
    or feedback.  m is the smallest positive integer with m pi >= elapsed
    less 1e-12 periods.
    """
    m = max(1, math.ceil(elapsed / math.pi - 1e-12))
    u = ring_pair(m * math.pi - elapsed)
    return u @ np.asarray(rho6) @ u.conj().T


# --- the Bell basis -----------------------------------------------------

# columns: the Bell vectors in BELL_ORDER, each times sqrt(2), in the
# basis 00, 01, 10, 11
_BELL_COLUMNS = np.array([[1, 1, 0, 0],
                          [0, 0, 1, 1],
                          [0, 0, 1, -1],
                          [1, -1, 0, 0]])


def bell_matrix(rho):
    """A two-qubit DensityMatrix in the Bell basis, rows and columns in BELL_ORDER."""
    return _BELL_COLUMNS.T @ rho.matrix @ _BELL_COLUMNS / 2.0


def bell_weights(rho):
    """The Bell weights of a two-qubit DensityMatrix, keyed by BELL_ORDER."""
    return dict(zip(BELL_ORDER, np.diag(bell_matrix(rho)).real.tolist()))


# --- the four-qubit CNOT baseline round ---------------------------------

U_PLUS = (_I2 + 1j * _X) / np.sqrt(2.0)
U_MINUS = (_I2 - 1j * _X) / np.sqrt(2.0)


def _cnot(n, control, target):
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


@dataclass(frozen=True)
class CnotRoundResult:
    post_state: DensityMatrix
    fidelity: float
    success_probability: float


def cnot_round(source, target):
    """One baseline purification round on two DensityMatrix pairs; keeps the source.

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
