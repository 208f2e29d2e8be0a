import numpy as np
import pytest

from xypurify import (
    DegenerateCouplingError,
    build_xy,
    evolve_composite,
    evolve_triplet,
    number_operator,
    random_bell_diagonal,
    permute,
    tensor,
)
from xypurify.xy import excitation_sectors


def composite_bell_product(rng):
    rho = tensor(tensor(random_bell_diagonal(rng, (1, 4)),
                        random_bell_diagonal(rng, (2, 5))),
                 random_bell_diagonal(rng, (3, 6)))
    return permute(rho, (1, 2, 3, 4, 5, 6))


class TestHamiltonian:
    def test_zero_coupling_rejected(self):
        with pytest.raises(DegenerateCouplingError):
            build_xy(0.0)

    def test_hermitian(self):
        h = build_xy(1.3).matrix
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)

    def test_single_excitation_block(self):
        # oracle: the block is 2J times the triangle adjacency matrix,
        # whose spectrum is {2, -1, -1} by direct diagonalization
        adjacency = np.ones((3, 3)) - np.eye(3)
        adj_eigs = np.sort(np.linalg.eigvalsh(adjacency))
        np.testing.assert_allclose(adj_eigs, [-1, -1, 2], atol=1e-12)

        j = 0.7
        h = build_xy(j).matrix
        idx = excitation_sectors()[1]
        block = h[np.ix_(idx, idx)]
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(block)),
                                   2 * j * adj_eigs, atol=1e-12)

    def test_full_spectrum(self):
        j = 1.0
        eigs = np.sort(np.linalg.eigvalsh(build_xy(j).matrix))
        np.testing.assert_allclose(eigs, [-2, -2, -2, -2, 0, 0, 4, 4], atol=1e-12)

    def test_trapped_states(self):
        h = build_xy(2.0).matrix
        e000 = np.zeros(8)
        e000[0] = 1.0
        eee = np.zeros(8)
        eee[7] = 1.0
        assert np.abs(h @ e000).max() < 1e-14
        assert np.abs(h @ eee).max() < 1e-14

    def test_linearity_in_coupling(self):
        np.testing.assert_allclose(build_xy(-1.7).matrix, -build_xy(1.7).matrix,
                                   atol=1e-14)

    def test_commutes_with_number_operator(self):
        h = build_xy(1.0).matrix
        n = number_operator()
        assert np.abs(h @ n - n @ h).max() < 1e-13

    def test_block_diagonal_over_sectors(self):
        h = build_xy(1.0).matrix
        sectors = excitation_sectors()
        for na, ia in sectors.items():
            for nb, ib in sectors.items():
                if na != nb:
                    assert np.abs(h[np.ix_(ia, ib)]).max() < 1e-15

    def test_particle_hole_symmetric_sectors(self):
        h = build_xy(1.0).matrix
        s = excitation_sectors()
        e1 = np.sort(np.linalg.eigvalsh(h[np.ix_(s[1], s[1])]))
        e2 = np.sort(np.linalg.eigvalsh(h[np.ix_(s[2], s[2])]))
        np.testing.assert_allclose(e1, e2, atol=1e-12)


class TestEvolution:
    def test_time_zero_is_identity(self):
        u = evolve_triplet(build_xy(1.0), 0.0)
        np.testing.assert_allclose(u.matrix, np.eye(8), atol=1e-14)

    def test_unitary(self):
        u = evolve_triplet(build_xy(0.9), 2.31).matrix
        np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-12)

    def test_one_parameter_group(self):
        h = build_xy(1.1)
        u1 = evolve_triplet(h, 0.4).matrix
        u2 = evolve_triplet(h, 1.3).matrix
        u12 = evolve_triplet(h, 1.7).matrix
        np.testing.assert_allclose(u1 @ u2, u12, atol=1e-11)

    def test_identity_at_state_period(self):
        for j in (1.0, -2.0):
            for m in (1, 2, 3):
                u = evolve_triplet(build_xy(j), m * np.pi / abs(j)).matrix
                np.testing.assert_allclose(u, np.eye(8), atol=1e-11)

    def test_composite_time_zero(self):
        u = evolve_composite(build_xy(1.0), 0.0)
        np.testing.assert_allclose(u.matrix, np.eye(64), atol=1e-13)

    def test_composite_dagger_is_reverse(self):
        h = build_xy(1.0)
        u = evolve_composite(h, 0.8).matrix
        ur = evolve_composite(h, -0.8).matrix
        np.testing.assert_allclose(u.conj().T, ur, atol=1e-12)

    def test_composite_period_restores_any_state(self):
        rng = np.random.default_rng(11)
        h = build_xy(1.0)
        for m in (1, 2):
            u = evolve_composite(h, m * np.pi).matrix
            rho = composite_bell_product(rng)
            out = u @ rho.matrix @ u.conj().T
            np.testing.assert_allclose(out, rho.matrix, atol=1e-12)

    def test_excitation_conservation(self):
        # weight never crosses between sectors under evolution
        h = build_xy(1.0)
        u = evolve_triplet(h, 1.234).matrix
        sectors = excitation_sectors()
        for na, ia in sectors.items():
            for nb, ib in sectors.items():
                if na != nb:
                    assert np.abs(u[np.ix_(ia, ib)]).max() < 1e-12

