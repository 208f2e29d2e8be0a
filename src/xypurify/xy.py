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

H has the integer spectrum {-2, 0, 4}, so its spectral projectors are
polynomials in H (Lagrange interpolation on the three eigenvalues).  24
times the projectors on -2, 0 and 4 are the integer matrices

    A = 2 H (H - 4),   B = -3 (H + 2)(H - 4),   C = (H + 2) H,

built once here in ints.  :func:`evolve_triplet`, the one propagator,
for one triplet, is exp(-i H t) = (e^{2it} A + B + e^{-4it} C) / 24.  At J t = m pi both phases are 1 and it is (A + B + C) / 24 =
I, the identity, up to the rounding of t itself.  A round's two triplets
evolve under its Kronecker square, which :func:`xypurify.rounds.run_round`
builds (and the docstring there shows why it is unitary to a few ulp).
"""
from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .errors import DomainError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


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


def _projectors(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A, B, C: 24 times the projectors of H on -2, 0 and 4, in ints."""
    h = h.real.astype(int)      # entries 0 and 2, exact
    eye = np.eye(8, dtype=int)
    return 2 * h @ (h - 4 * eye), -3 * (h + 2 * eye) @ (h - 4 * eye), (h + 2 * eye) @ h


_XY_UNIT = _xy_unit()
_XY_A, _XY_B, _XY_C = _projectors(_XY_UNIT)
for _array in (_XY_UNIT, _XY_A, _XY_B, _XY_C):
    _array.setflags(write=False)


def evolve_triplet(t: float) -> np.ndarray:
    """exp(-i H t) for one triplet, t in 1/J: (e^{2it} A + B + e^{-4it} C) / 24.

    A plain 8x8 complex array.  The phases are of 2 t and 4 t, exact
    multiples of t, so the error of an entry does not grow with t.

    Raises :class:`DomainError` unless the largest phase 4 |t| is finite,
    which rejects a non-finite t and a finite one whose phase overflows.
    The float-range bound comes first, so that ``float`` takes any int;
    the phase is then a Python float, which overflows to inf without
    numpy's RuntimeWarning for a numpy float t.
    """
    if not (abs(t) <= sys.float_info.max and math.isfinite(float(t) * 4.0)):
        raise DomainError(f"evolution phase must be finite, got t={t}")
    t = float(t)
    return (cmath.exp(2j * t) * _XY_A + _XY_B + cmath.exp(-4j * t) * _XY_C) / 24.0
