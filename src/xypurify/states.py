"""Validated density matrices and the Bell basis.

:class:`DensityMatrix` is the one validation boundary.  Every state a
caller builds and every state a public function returns is checked for
finite entries, Hermiticity, unit trace and positivity, against the
constant tolerances below.  Intermediates inside a computation (the
six-qubit product and its evolution in :func:`xypurify.rounds.run_round`)
are plain arrays and are not validated: they are Kronecker products of
validated states under the Kronecker square of a triplet propagator
that is unitary by construction (:func:`xypurify.xy.evolve_triplet`).

The rest is the Bell/Werner constructors and the Bell basis used
throughout the purification analysis.  :func:`werner_weights` is the one
definition of the Werner state's Bell weights: the Werner matrix here
and the Bell-weight iterator of :mod:`xypurify.pumping` both read it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import (
    BelowThresholdWarning,
    DomainError,
    ShapeError,
    StateValidationError,
)

# DensityMatrix validation tolerances: max |rho - rho^H|, |Tr rho - 1|
# and the most negative eigenvalue allowed
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
# on the real and imaginary part of every entry: a state's are at most 1
# (|rho_ij|^2 <= rho_ii rho_jj), so 2 leaves room for the tolerances and
# keeps the sums of the checks below finite
MAX_ENTRY = 2.0

# Computational basis kets and the standard Bell basis.
KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)

BELL_ORDER = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
# unnormalized integer Bell vectors; keeping the 1/2 factors out of the
# outer products makes every projector entry exactly representable
_BELL_INT: Mapping[str, np.ndarray] = {
    "phi_plus": np.kron(KET0, KET0) + np.kron(KET1, KET1),
    "phi_minus": np.kron(KET0, KET0) - np.kron(KET1, KET1),
    "psi_plus": np.kron(KET0, KET1) + np.kron(KET1, KET0),
    "psi_minus": np.kron(KET0, KET1) - np.kron(KET1, KET0),
}
# columns are the integer Bell vectors in BELL_ORDER, sqrt(2) times a
# unitary; sandwiching with it keeps the Bell-basis cancellations exact
# for symmetric inputs
_BELL_BASIS_INT = np.column_stack([_BELL_INT[k] for k in BELL_ORDER])

BELL_PROJECTORS: Mapping[str, np.ndarray] = {
    k: np.outer(v, v.conj()) / 2.0 for k, v in _BELL_INT.items()
}
for _projector in BELL_PROJECTORS.values():
    _projector.setflags(write=False)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated, immutable density matrix.

    Parameters
    ----------
    matrix : ndarray
        Square complex matrix; it is copied and the copy made read-only.
    """

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        try:
            # C order, so that the last axis of the float view below is
            # contiguous whatever the input's layout
            mat = np.array(self.matrix, dtype=complex, order="C")
        except OverflowError:
            # a Python int past the float range; a float one is inf, below
            raise StateValidationError("matrix has entries past the float range") from None
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise ShapeError(f"expected a nonempty square matrix, got shape {mat.shape}")
        # before eigvalsh, which cannot take nan or inf, and before the
        # sums below, which overflow past the float range with a warning
        peak = np.abs(mat.view(float)).max()
        if not peak <= MAX_ENTRY:
            raise StateValidationError(
                "matrix has non-finite entries" if not np.isfinite(peak) else
                f"matrix has an entry part of magnitude {peak:.3e}, above {MAX_ENTRY:g}")
        herm = np.abs(mat - mat.conj().T).max()
        if not herm <= HERMITICITY_TOL:
            raise StateValidationError(f"not Hermitian: max deviation {herm:.3e}")
        tr = mat.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise StateValidationError(f"trace {tr:.15g} differs from 1")
        lo = np.linalg.eigvalsh(mat).min()
        if not lo >= -PSD_TOL:
            raise StateValidationError(f"negative eigenvalue {lo:.3e}")
        mat.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def werner(f: float) -> DensityMatrix:
    """Two-qubit Werner state with weight ``f`` on phi+.

    Emits :class:`BelowThresholdWarning` for f <= 0.5, where no
    purification protocol of this family can increase the fidelity.
    """
    mat = _werner_matrix(f)
    if f <= 0.5:
        warnings.warn(
            f"werner fidelity {f} is at or below the purification threshold 1/2",
            BelowThresholdWarning,
            stacklevel=2,
        )
    return DensityMatrix(mat)


def werner_weights(f: float) -> np.ndarray:
    """Bell weights of Werner(f) in ``BELL_ORDER``: f on phi+, (1 - f)/3 on the rest."""
    if not 0.0 <= f <= 1.0:
        raise DomainError(f"werner fidelity must lie in [0, 1], got {f}")
    return np.array([f] + 3 * [(1.0 - f) / 3.0])


def _werner_matrix(f: float) -> np.ndarray:
    """Werner matrix with weight ``f`` on phi+; no warning."""
    target, rest = werner_weights(f)[:2]
    return target * BELL_PROJECTORS["phi_plus"] + rest * (
        BELL_PROJECTORS["phi_minus"]
        + BELL_PROJECTORS["psi_plus"]
        + BELL_PROJECTORS["psi_minus"]
    )


def computational_pair(bits: str) -> DensityMatrix:
    """Pure two-qubit computational-basis product state, e.g. '00'."""
    if len(bits) != 2 or any(b not in "01" for b in bits):
        raise DomainError(f"bits must be a 2-character 0/1 string, got {bits!r}")
    vec = np.kron(KET1 if bits[0] == "1" else KET0,
                  KET1 if bits[1] == "1" else KET0)
    return DensityMatrix(np.outer(vec, vec.conj()))


def fidelity(rho: DensityMatrix) -> float:
    """Overlap Tr[phi+ rho] of a two-qubit state with the target Bell state."""
    if rho.dim != 4:
        raise ShapeError(f"fidelity is defined for two-qubit states, got dim {rho.dim}")
    return float(np.real(np.trace(BELL_PROJECTORS["phi_plus"] @ rho.matrix)))


def _bell_off_diagonal(rho: DensityMatrix) -> float:
    """Largest off-diagonal magnitude of a two-qubit state in the Bell basis.

    Its distance from Bell-diagonal form, which
    :func:`xypurify.rounds.run_round` reports as ``werner_deviation``.
    """
    m = (_BELL_BASIS_INT.conj().T @ rho.matrix @ _BELL_BASIS_INT) / 2.0
    return float(np.abs(m - np.diag(np.diag(m))).max())


def random_bell_diagonal(rng: np.random.Generator, labels=None) -> DensityMatrix:
    """Random mixture of the four Bell projectors (uniform simplex weights).

    ``labels`` is accepted and ignored; it is kept only because the
    ``exact-pump`` workload of ``benchmark/workloads.py`` passes it.
    """
    w = rng.dirichlet(np.ones(4))
    mat = sum(wi * BELL_PROJECTORS[k] for wi, k in zip(w, BELL_ORDER))
    return DensityMatrix(mat)
