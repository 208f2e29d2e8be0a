"""Three-spin isotropic XY ring Hamiltonian and its evolution operators.

The generator used throughout the protocol code is

    H(J) = J * sum_{i=1..3} (x_i x_{i+1} + y_i y_{i+1}),   site 4 == site 1,

i.e. hopping amplitude 2J between every pair of the triangle.  This
coupling convention is fixed by the protocol's quantitative behavior:
the single-round closed forms oscillate as cos(6 J t) and cos(12 J t),
the operational time satisfies J T = pi/3 (n + 1/2), and the evolution
operator returns to the exact identity at t = m pi / J, which is what
makes failed rounds restorable.  The single-excitation block then has
eigenvalues {4J, -2J, -2J}.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCouplingError, ShapeError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_N_SITE = np.array([[0, 0], [0, 1]], dtype=complex)  # |1><1|, excited = |1>

UNITARITY_TOL = 1e-11


def _op_on(op: np.ndarray, site: int, n: int = 3) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        out = np.kron(out, op if k == site else np.eye(2, dtype=complex))
    return out


def _xy_unit() -> np.ndarray:
    """sum over ring bonds of (XX + YY), coupling set to 1."""
    h = np.zeros((8, 8), dtype=complex)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        h += _op_on(PAULI_X, i) @ _op_on(PAULI_X, j)
        h += _op_on(PAULI_Y, i) @ _op_on(PAULI_Y, j)
    return h


_XY_UNIT = _xy_unit()
_XY_UNIT.setflags(write=False)


def number_operator(n: int = 3) -> np.ndarray:
    """Total excitation number operator on n qubits."""
    return sum(_op_on(_N_SITE, k, n) for k in range(n))


@dataclass(frozen=True)
class XYHamiltonian:
    """Ring-exchange Hamiltonian for one atomic triplet."""

    j: float
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)


def build_xy(j: float) -> XYHamiltonian:
    """Construct H(J); J may take either sign but not zero."""
    if j == 0:
        raise DegenerateCouplingError("coupling J must be nonzero")
    return XYHamiltonian(j, j * _XY_UNIT)


@dataclass(frozen=True)
class EvolutionOperator:
    """Unitary propagator for a fixed evolution time."""

    t: float
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"propagator must be square, got {m.shape}")
        dev = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        if dev > UNITARITY_TOL:
            raise ShapeError(f"propagator not unitary: deviation {dev:.3e}")
        m.setflags(write=False)


def evolve_triplet(h: XYHamiltonian, t: float) -> EvolutionOperator:
    """exp(-i H t) for one triplet via Hermitian eigendecomposition."""
    if not np.isfinite(t):
        raise ShapeError(f"evolution time must be finite, got {t}")
    w, v = np.linalg.eigh(h.matrix)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return EvolutionOperator(t, u)


def evolve_composite(h: XYHamiltonian, t: float) -> EvolutionOperator:
    """Propagator for two identical triplets, slots (1,2,3) x (4,5,6)."""
    u3 = evolve_triplet(h, t).matrix
    return EvolutionOperator(t, np.kron(u3, u3))


def excitation_sectors(n: int = 3) -> dict[int, list[int]]:
    """Computational-basis indices grouped by excitation number."""
    sectors: dict[int, list[int]] = {}
    for idx in range(2 ** n):
        sectors.setdefault(bin(idx).count("1"), []).append(idx)
    return sectors
