"""Three-spin isotropic XY ring Hamiltonian and its evolution operator.

The generator used throughout the protocol code is

    H = J * sum_{i=1..3} (x_i x_{i+1} + y_i y_{i+1}),   site 4 == site 1,

i.e. hopping amplitude 2J between every pair of the triangle.  The
ring layer works in units J = 1, so times are in units of 1/J: the
protocol depends on J and t only through J t.  This coupling convention
is fixed by the protocol's quantitative behavior: the single-round
closed forms oscillate as cos(6 J t) and cos(12 J t), the operational
time satisfies J T = pi/3 (n + 1/2), and the evolution operator returns
to the exact identity at J t = m pi, which is what makes failed rounds
restorable.  The single-excitation block then has eigenvalues
{4J, -2J, -2J}.  A ring of coupling J evolved for t is the unit ring
evolved for J t, a negative J included.

:func:`evolve_triplet` is the one propagator, for one triplet; a round's
two triplets evolve under its Kronecker square, which
:func:`xypurify.rounds.run_round` builds (and the docstring there shows
why that needs no check of its own).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

UNITARITY_TOL = 1e-11


def _op_on(op: np.ndarray, site: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for k in range(3):
        out = np.kron(out, op if k == site else np.eye(2, dtype=complex))
    return out


def _xy_unit() -> np.ndarray:
    """H in units J = 1: sum over ring bonds of (XX + YY)."""
    h = np.zeros((8, 8), dtype=complex)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        h += _op_on(PAULI_X, i) @ _op_on(PAULI_X, j)
        h += _op_on(PAULI_Y, i) @ _op_on(PAULI_Y, j)
    return h


_XY_UNIT = _xy_unit()
# its eigendecomposition, computed once per process and read-only like H
_XY_W, _XY_V = np.linalg.eigh(_XY_UNIT)
_XY_V_H = _XY_V.conj().T
_XY_PHASE_MAX = float(np.abs(_XY_W).max())  # 4.0, the largest |eigenvalue|
for _array in (_XY_UNIT, _XY_W, _XY_V, _XY_V_H):
    _array.setflags(write=False)


@dataclass(frozen=True)
class EvolutionOperator:
    """Unitary propagator for a fixed evolution time."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"propagator must be square, got {m.shape}")
        # before the product, in which an inf entry warns (inf * 0)
        if not np.isfinite(m).all():
            raise ShapeError("propagator not unitary: non-finite entries")
        dev = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        if not dev <= UNITARITY_TOL:
            raise ShapeError(f"propagator not unitary: deviation {dev:.3e}")
        m.setflags(write=False)


def evolve_triplet(t: float) -> EvolutionOperator:
    """exp(-i H t) for one triplet via Hermitian eigendecomposition, t in 1/J.

    Raises :class:`DomainError` unless the largest phase |w| t is finite,
    which rejects a non-finite t and a finite one whose phase overflows.
    The float-range bound comes first, so that ``float`` takes any int;
    the phase is then a Python float, which overflows to inf without
    numpy's RuntimeWarning for a numpy float t.
    """
    if not (abs(t) <= sys.float_info.max and math.isfinite(float(t) * _XY_PHASE_MAX)):
        raise DomainError(f"evolution phase must be finite, got t={t}")
    t = float(t)
    u = (_XY_V * np.exp(-1j * _XY_W * t)) @ _XY_V_H
    return EvolutionOperator(u)
