"""Dense multi-qubit density-matrix primitives.

Everything here is a small, labeled, immutable wrapper around numpy
complex matrices: Bell/Werner constructors, tensor products, partial
trace, slot permutation, and the Bell-basis decomposition used
throughout the purification analysis.

Qubit slots carry explicit labels (integers in the protocol code:
1, 2, 3 for one node's triplet, 4, 5, 6 for the other) so that pairings
are done by label lookup instead of positional arithmetic.

:class:`DensityMatrix` is the one validation boundary.  Every state a
caller builds and every state a public function returns is checked for
Hermiticity, unit trace and positivity, against the constant tolerances
below.  Intermediates inside a computation (the six-qubit product and
its evolution in :func:`xypurify.rounds.run_round`, the four-qubit state
of :func:`xypurify.cnot.cnot_round`) are plain arrays and are not
validated: they are Kronecker products of validated states under
unitaries that :class:`xypurify.xy.EvolutionOperator` checks.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BelowThresholdWarning,
    DomainError,
    LabelError,
    ShapeError,
    StateValidationError,
)

Label = Hashable

# DensityMatrix validation tolerances: max |rho - rho^H|, |Tr rho - 1|
# and the most negative eigenvalue allowed
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

# Computational basis kets and the standard Bell basis.
KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)

_SQ2 = 1.0 / np.sqrt(2.0)
BELL_ORDER = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
# unnormalized integer Bell vectors; keeping the 1/2 factors out of the
# outer products makes every projector entry exactly representable
_BELL_INT: Mapping[str, np.ndarray] = {
    "phi_plus": np.kron(KET0, KET0) + np.kron(KET1, KET1),
    "phi_minus": np.kron(KET0, KET0) - np.kron(KET1, KET1),
    "psi_plus": np.kron(KET0, KET1) + np.kron(KET1, KET0),
    "psi_minus": np.kron(KET0, KET1) - np.kron(KET1, KET0),
}
BELL_VECTORS: Mapping[str, np.ndarray] = {
    k: _SQ2 * v for k, v in _BELL_INT.items()
}
# Columns are the Bell vectors in BELL_ORDER; unitary change of basis.
BELL_BASIS = np.column_stack([BELL_VECTORS[k] for k in BELL_ORDER])
# integer variant: BELL_BASIS * sqrt(2); sandwiching with it keeps the
# Bell-basis cancellations exact for symmetric inputs
_BELL_BASIS_INT = np.column_stack([_BELL_INT[k] for k in BELL_ORDER])


@dataclass(frozen=True)
class BellProjector:
    """Rank-1 projector onto one of the four Bell states."""

    which: str
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.which not in BELL_ORDER:
            raise DomainError(f"unknown Bell state {self.which!r}")
        self.matrix.setflags(write=False)


def bell_projector(which: str) -> BellProjector:
    vec = _BELL_INT.get(which)
    if vec is None:
        raise DomainError(f"unknown Bell state {which!r}; expected one of {BELL_ORDER}")
    return BellProjector(which, np.outer(vec, vec.conj()) / 2.0)


BELL_PROJECTORS: Mapping[str, np.ndarray] = {
    k: bell_projector(k).matrix for k in BELL_ORDER
}


@dataclass(frozen=True)
class DensityMatrix:
    """Labeled, validated, immutable qubit density matrix.

    Parameters
    ----------
    matrix : ndarray
        Square complex matrix of dimension 2**n.
    labels : tuple
        One hashable label per qubit slot, in tensor order.
    """

    matrix: np.ndarray = field(repr=False)
    labels: tuple

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        labels = tuple(self.labels)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "labels", labels)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeError(f"expected a square matrix, got shape {mat.shape}")
        dim = mat.shape[0]
        if dim != 2 ** len(labels):
            raise ShapeError(
                f"dimension {dim} does not match {len(labels)} qubit labels"
            )
        if len(set(labels)) != len(labels):
            raise LabelError(f"duplicate qubit labels in {labels}")
        herm = np.abs(mat - mat.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise StateValidationError(f"not Hermitian: max deviation {herm:.3e}")
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateValidationError(f"trace {tr:.15g} differs from 1")
        lo = np.linalg.eigvalsh(mat).min()
        if lo < -PSD_TOL:
            raise StateValidationError(f"negative eigenvalue {lo:.3e}")
        mat.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def slot(self, label: Label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelError(f"label {label!r} not in {self.labels}") from None


def werner(f: float, labels: Sequence[Label] = (1, 2)) -> DensityMatrix:
    """Two-qubit Werner state with weight ``f`` on phi+.

    Emits :class:`BelowThresholdWarning` for f <= 0.5, where no
    purification protocol of this family can increase the fidelity.
    """
    if not 0.0 <= f <= 1.0:
        raise DomainError(f"werner fidelity must lie in [0, 1], got {f}")
    if f <= 0.5:
        warnings.warn(
            f"werner fidelity {f} is at or below the purification threshold 1/2",
            BelowThresholdWarning,
            stacklevel=2,
        )
    return DensityMatrix(_werner_matrix(f), tuple(labels))


def _werner_matrix(f: float) -> np.ndarray:
    """Werner matrix with weight ``f`` on phi+; no checks, no warning."""
    rest = (1.0 - f) / 3.0
    return f * BELL_PROJECTORS["phi_plus"] + rest * (
        BELL_PROJECTORS["phi_minus"]
        + BELL_PROJECTORS["psi_plus"]
        + BELL_PROJECTORS["psi_minus"]
    )


def computational_pair(bits: str, labels: Sequence[Label] = (1, 2)) -> DensityMatrix:
    """Pure two-qubit computational-basis product state, e.g. '00'."""
    if len(bits) != 2 or any(b not in "01" for b in bits):
        raise DomainError(f"bits must be a 2-character 0/1 string, got {bits!r}")
    vec = np.kron(KET1 if bits[0] == "1" else KET0,
                  KET1 if bits[1] == "1" else KET0)
    return DensityMatrix(np.outer(vec, vec.conj()), tuple(labels))


def fidelity(rho: DensityMatrix) -> float:
    """Overlap Tr[phi+ rho] of a two-qubit state with the target Bell state."""
    if rho.dim != 4:
        raise ShapeError(f"fidelity is defined for two-qubit states, got dim {rho.dim}")
    return float(np.real(np.trace(BELL_PROJECTORS["phi_plus"] @ rho.matrix)))


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Tensor product; labels are concatenated and must be disjoint."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise LabelError(f"label collision on {sorted(map(str, overlap))}")
    return DensityMatrix(np.kron(a.matrix, b.matrix), a.labels + b.labels)


def permute(rho: DensityMatrix, new_order: Sequence[Label]) -> DensityMatrix:
    """Reorder the tensor factors so labels appear in ``new_order``."""
    new_order = tuple(new_order)
    if set(new_order) != set(rho.labels) or len(new_order) != rho.n_qubits:
        raise LabelError(f"{new_order} is not a permutation of {rho.labels}")
    n = rho.n_qubits
    src = [rho.slot(lab) for lab in new_order]
    t = rho.matrix.reshape([2] * (2 * n))
    t = np.transpose(t, axes=src + [s + n for s in src])
    return DensityMatrix(t.reshape(rho.dim, rho.dim), new_order)


def partial_trace(rho: DensityMatrix, keep: Iterable[Label]) -> DensityMatrix:
    """Reduced state over ``keep`` (slot order of the input is preserved)."""
    keep_set = set(keep)
    if not keep_set:
        raise DomainError("must keep at least one qubit slot")
    unknown = keep_set - set(rho.labels)
    if unknown:
        raise LabelError(f"unknown labels {sorted(map(str, unknown))}")
    n = rho.n_qubits
    kept = [i for i, lab in enumerate(rho.labels) if lab in keep_set]
    traced = [i for i in range(n) if i not in kept]
    t = rho.matrix.reshape([2] * (2 * n))
    for off, ax in enumerate(traced):
        # each trace removes one row and one column axis
        t = np.trace(t, axis1=ax - off, axis2=ax - off + n - off)
    k = len(kept)
    labels = tuple(rho.labels[i] for i in kept)
    return DensityMatrix(t.reshape(2 ** k, 2 ** k), labels)


@dataclass(frozen=True)
class BellDecomposition:
    """Bell-basis view of a two-qubit state."""

    weights: Mapping[str, float]
    off_diagonal_norm: float
    matrix: np.ndarray = field(repr=False)  # state in the Bell basis

    def reconstruct(self) -> np.ndarray:
        return BELL_BASIS @ self.matrix @ BELL_BASIS.conj().T


def bell_decompose(rho: DensityMatrix) -> BellDecomposition:
    """Diagonal Bell weights plus the largest off-diagonal magnitude."""
    if rho.dim != 4:
        raise ShapeError(f"Bell decomposition needs a two-qubit state, got {rho.dim}")
    m = (_BELL_BASIS_INT.conj().T @ rho.matrix @ _BELL_BASIS_INT) / 2.0
    weights = {k: float(np.real(m[i, i])) for i, k in enumerate(BELL_ORDER)}
    off = m - np.diag(np.diag(m))
    return BellDecomposition(weights, float(np.abs(off).max()), m)


def random_bell_diagonal(rng: np.random.Generator,
                         labels: Sequence[Label] = (1, 2)) -> DensityMatrix:
    """Random mixture of the four Bell projectors (uniform simplex weights)."""
    w = rng.dirichlet(np.ones(4))
    mat = sum(wi * BELL_PROJECTORS[k] for wi, k in zip(w, BELL_ORDER))
    return DensityMatrix(mat, tuple(labels))
