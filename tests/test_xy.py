import numpy as np
import pytest

from xypurify import (
    DomainError,
    evolve_triplet,
    random_bell_diagonal,
)
from xypurify import xy
from xypurify.xy import _XY_UNIT

from oracle import RING_H, ring_pair, six_qubit_state


def composite_bell_product(rng):
    return six_qubit_state(*(random_bell_diagonal(rng).matrix for _ in range(3)))


def excitation_sectors(n=3):
    """Computational-basis indices grouped by excitation number (|1> excited)."""
    sectors = {}
    for idx in range(2 ** n):
        sectors.setdefault(bin(idx).count("1"), []).append(idx)
    return sectors


def number_operator(n=3):
    """Total excitation number: diagonal, counting the 1 bits of each index."""
    return np.diag([float(bin(idx).count("1")) for idx in range(2 ** n)])


class TestHamiltonian:
    def test_hopping_rule_is_the_pauli_sum(self):
        # the int hopping rule against XX + YY on each bond, from Pauli
        # Kronecker products, entry for entry
        assert np.array_equal(_XY_UNIT, RING_H)

    def test_hermitian(self):
        h = _XY_UNIT
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)

    def test_single_excitation_block(self):
        # oracle: the block is 2J = 2 times the triangle adjacency matrix,
        # whose spectrum is {2, -1, -1} by direct diagonalization
        adjacency = np.ones((3, 3)) - np.eye(3)
        adj_eigs = np.sort(np.linalg.eigvalsh(adjacency))
        np.testing.assert_allclose(adj_eigs, [-1, -1, 2], atol=1e-12)

        idx = excitation_sectors()[1]
        block = _XY_UNIT[np.ix_(idx, idx)]
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(block)),
                                   2 * adj_eigs, atol=1e-12)

    def test_full_spectrum(self):
        eigs = np.sort(np.linalg.eigvalsh(_XY_UNIT))
        np.testing.assert_allclose(eigs, [-2, -2, -2, -2, 0, 0, 4, 4], atol=1e-12)

    def test_trapped_states(self):
        h = _XY_UNIT
        e000 = np.zeros(8)
        e000[0] = 1.0
        eee = np.zeros(8)
        eee[7] = 1.0
        assert np.abs(h @ e000).max() < 1e-14
        assert np.abs(h @ eee).max() < 1e-14

    def test_commutes_with_number_operator(self):
        h = _XY_UNIT
        n = number_operator()
        assert np.abs(h @ n - n @ h).max() < 1e-13

    def test_block_diagonal_over_sectors(self):
        h = _XY_UNIT
        sectors = excitation_sectors()
        for na, ia in sectors.items():
            for nb, ib in sectors.items():
                if na != nb:
                    assert np.abs(h[np.ix_(ia, ib)]).max() < 1e-15

    def test_particle_hole_symmetric_sectors(self):
        h = _XY_UNIT
        s = excitation_sectors()
        e1 = np.sort(np.linalg.eigvalsh(h[np.ix_(s[1], s[1])]))
        e2 = np.sort(np.linalg.eigvalsh(h[np.ix_(s[2], s[2])]))
        np.testing.assert_allclose(e1, e2, atol=1e-12)


class TestProjectors:
    # exact in ints: 24 times the spectral projectors of H on -2, 0 and 4
    H = _XY_UNIT
    PROJECTORS = {-2: xy._XY_A, 0: xy._XY_B, 4: xy._XY_C}

    def test_integer_matrices_sum_to_24_identity(self):
        assert all(p.dtype.kind == "i" for p in (self.H, *self.PROJECTORS.values()))
        assert np.array_equal(sum(self.PROJECTORS.values()), 24 * np.eye(8, dtype=int))

    @pytest.mark.parametrize("eigenvalue", [-2, 0, 4])
    def test_projector_and_eigenspace(self, eigenvalue):
        p = self.PROJECTORS[eigenvalue]
        assert np.array_equal(p @ p, 24 * p)
        assert np.array_equal(self.H @ p, eigenvalue * p)

    @pytest.mark.parametrize("a, b", [(-2, 0), (-2, 4), (0, 4)])
    def test_pairwise_orthogonal(self, a, b):
        assert not (self.PROJECTORS[a] @ self.PROJECTORS[b]).any()
        assert not (self.PROJECTORS[b] @ self.PROJECTORS[a]).any()


class TestEvolution:
    def test_time_zero_is_identity(self):
        np.testing.assert_allclose(evolve_triplet(0.0), np.eye(8), atol=1e-14)

    def test_unitary(self):
        u = evolve_triplet(2.31)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-12)

    def test_one_parameter_group(self):
        u1 = evolve_triplet(0.4)
        u2 = evolve_triplet(1.3)
        u12 = evolve_triplet(1.7)
        np.testing.assert_allclose(u1 @ u2, u12, atol=1e-11)

    def test_identity_at_state_period(self):
        # J t = m pi, forward and backward in time
        for m in (1, 2, 3, -1, -2):
            u = evolve_triplet(m * np.pi)
            np.testing.assert_allclose(u, np.eye(8), atol=1e-11)

    # 1e308 and -1e308 are finite, but the phase 4 J t overflows
    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 1e308, -1e308])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(DomainError):
            evolve_triplet(t)

    def test_largest_finite_phase_accepted(self):
        # |w| t = 4 * 4e307 stays finite
        u = evolve_triplet(4e307)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-12)

    # the phases are taken of 2 t and 4 t, exact in floats, so no error
    # grows with t; an eigenvalue off by one ulp drifts ~1e-9 by 4e7
    @pytest.mark.parametrize("t", [0.4, 123.4, 1e4, 1e6, 4e7])
    def test_unitary_at_any_time(self, t):
        u = evolve_triplet(t)
        assert np.abs(u.conj().T @ u - np.eye(8)).max() <= 1e-15

    @pytest.mark.parametrize("t", [0.4, 123.4, 1e4, 1e6, 4e7])
    def test_one_parameter_group_at_any_time(self, t):
        s = 0.5     # s + t is exact
        np.testing.assert_allclose(evolve_triplet(s) @ evolve_triplet(t),
                                   evolve_triplet(s + t), atol=1e-12)

    def test_composite_time_zero(self):
        np.testing.assert_allclose(ring_pair(0.0), np.eye(64), atol=1e-13)

    def test_composite_dagger_is_reverse(self):
        u = ring_pair(0.8)
        ur = ring_pair(-0.8)
        np.testing.assert_allclose(u.conj().T, ur, atol=1e-12)

    def test_composite_period_restores_any_state(self):
        rng = np.random.default_rng(11)
        for m in (1, 2):
            u = ring_pair(m * np.pi)
            rho = composite_bell_product(rng)
            out = u @ rho @ u.conj().T
            np.testing.assert_allclose(out, rho, atol=1e-12)

    def test_excitation_conservation(self):
        # weight never crosses between sectors under evolution
        u = evolve_triplet(1.234)
        sectors = excitation_sectors()
        for na, ia in sectors.items():
            for nb, ib in sectors.items():
                if na != nb:
                    assert np.abs(u[np.ix_(ia, ib)]).max() < 1e-12

