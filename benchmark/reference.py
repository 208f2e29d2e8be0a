"""Reference formulas and a brute-force six-qubit oracle for output checks.

These are written out independently of ``xypurify`` so that a fast path
added to the package later cannot make its own check pass.  Only numpy
is imported: the checks must not pull scipy into the measuring process.
"""
from __future__ import annotations

import math

import numpy as np

GATE_TIME = math.pi / 6.0  # J T = pi/3 (n + 1/2) at n = 0, J = 1


def round_map(f: float, fp: float) -> tuple[float, float]:
    """(fidelity, single-outcome success) of one round at T, Werner inputs."""
    p972 = 59.0 + (12.0 - 64.0 * fp) * f + 4.0 * (64.0 * fp - 5.0) * f * f
    num = fp * (12.0 * f + 236.0 * f * f - 5.0) - 16.0 * (f - 1.0)
    return num / p972, p972 / 972.0


def round_fidelity_at(t0: float, f: float) -> float:
    """Post-selected fidelity after evolving for t0 with f' = f (J = 1)."""
    c6, c12 = math.cos(6.0 * t0), math.cos(12.0 * t0)
    q = 1.0 - 5.0 * f + 4.0 * f * f
    num = f - 38.0 * f * f - 8.0 + 8.0 * q * c6 - 12.0 * f * (4.0 * f - 1.0) * c12
    den = (34.0 * f - 32.0 * f * f - 47.0 + 16.0 * q * c6
           - 4.0 * (2.0 * f + 8.0 * f * f - 1.0) * c12)
    return num / den


def cnot_fidelity(f: float) -> float:
    """Kept-pair fidelity of one bilateral-CNOT round on Werner(f) pairs."""
    return (1.0 - 2.0 * f + 10.0 * f * f) / (5.0 - 4.0 * f + 8.0 * f * f)


def fixed_point(f: float) -> float:
    """Stationary fidelity of the pump map, by bisection to 1e-13."""
    lo, hi = 0.5, 1.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if round_map(f, mid)[0] > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def pump_sequence(f: float, n: int) -> list[tuple[float, float]]:
    """(F_k, success_k) for k = 1..n of the scalar pump recurrence."""
    out, current = [], f
    for _ in range(n):
        current, p = round_map(f, current)
        out.append((current, p))
    return out


def rounds_to_reach(f: float, target: float) -> list[float]:
    """Success probabilities of the rounds needed to pump f up to target."""
    probs, current = [], f
    while current < target:
        current, p = round_map(f, current)
        probs.append(p)
    return probs


def optimal_rounds(f: float, epsilon: float = 1e-3) -> int:
    """Smallest n with fixed_point(f) - F_n < epsilon."""
    target, current, n = fixed_point(f), f, 0
    while target - current >= epsilon:
        current = round_map(f, current)[0]
        n += 1
    return n


# --- six-qubit oracle -------------------------------------------------

_PX = np.array([[0, 1], [1, 0]], dtype=complex)
_PY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0)
# columns phi+, phi-, psi+, psi- in the computational basis
BELL_BASIS = np.array([[1, 1, 0, 0], [0, 0, 1, 1],
                       [0, 0, 1, -1], [1, -1, 0, 0]], dtype=complex) / math.sqrt(2.0)


def _on_site(op: np.ndarray, site: int) -> np.ndarray:
    mats = [op if k == site else np.eye(2) for k in range(3)]
    return np.kron(np.kron(mats[0], mats[1]), mats[2])


def _ring_propagator(t: float) -> np.ndarray:
    """exp(-i t sum_bonds (XX + YY)) on two triplets, slots 1..6."""
    h = sum(_on_site(p, i) @ _on_site(p, j)
            for i, j in ((0, 1), (1, 2), (2, 0)) for p in (_PX, _PY))
    w, v = np.linalg.eigh(h)
    u3 = (v * np.exp(-1j * w * t)) @ v.conj().T
    return np.kron(u3, u3)


_U = _ring_propagator(GATE_TIME)
# basis indices of slots (1..6) with slots 1,2,4,5 reading 0,1,0,1; the
# remaining slots 3 and 6 run over 00, 01, 10, 11 in that order
_KEEP = [int(f"01{a}01{b}", 2) for a in "01" for b in "01"]


STATE_00 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)


def werner_matrix(f: float) -> np.ndarray:
    proj = np.outer(_PHI_PLUS, _PHI_PLUS)
    return f * proj + (1.0 - f) / 3.0 * (np.eye(4) - proj)


def oracle_round(f: float, stored: np.ndarray) -> tuple[float, np.ndarray]:
    """(probability of outcome 0101, post-selected stored pair).

    Conveyed pairs occupy slots (1,4) and (2,5), the stored pair (3,6);
    both triplets evolve for the gate time and slots 1, 2, 4, 5 are
    measured.
    """
    w = werner_matrix(f)
    rho = np.kron(np.kron(w, w), stored)  # slot order 1,4,2,5,3,6
    order = [0, 2, 4, 1, 3, 5]            # positions of slots 1..6 in it
    t = rho.reshape([2] * 12).transpose(order + [k + 6 for k in order])
    rho = _U @ t.reshape(64, 64) @ _U.conj().T
    block = rho[np.ix_(_KEEP, _KEEP)]
    prob = float(np.real(np.trace(block)))
    return prob, block / prob


def phi_plus_fidelity(rho: np.ndarray) -> float:
    return float(np.real(_PHI_PLUS.conj() @ rho @ _PHI_PLUS))


def bell_off_diagonal(rho: np.ndarray) -> float:
    """Largest off-diagonal magnitude of a two-qubit state in the Bell basis."""
    m = BELL_BASIS.conj().T @ rho @ BELL_BASIS
    return float(np.abs(m - np.diag(np.diag(m))).max())
