import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xypurify import (
    BelowThresholdWarning,
    DensityMatrix,
    DomainError,
    ShapeError,
    StateValidationError,
    bell_decompose,
    computational_pair,
    fidelity,
    random_bell_diagonal,
    werner,
    werner_weights,
)
from xypurify.states import BELL_ORDER, BELL_PROJECTORS

from oracle import six_qubit_state, stored_pair, to_slot_order

bell_weights = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4)


def bell_diagonal(weights):
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    mat = sum(wi * BELL_PROJECTORS[k] for wi, k in zip(w, BELL_ORDER))
    return DensityMatrix(mat)


class TestBellProjectors:
    def test_idempotent_trace_one(self):
        for name in BELL_ORDER:
            p = BELL_PROJECTORS[name]
            np.testing.assert_allclose(p @ p, p, atol=1e-15)
            assert abs(np.trace(p) - 1.0) < 1e-15

    def test_mutually_orthogonal(self):
        for a in BELL_ORDER:
            for b in BELL_ORDER:
                if a != b:
                    prod = BELL_PROJECTORS[a] @ BELL_PROJECTORS[b]
                    assert np.abs(prod).max() < 1e-15

    def test_sum_to_identity_exactly(self):
        total = sum(BELL_PROJECTORS[k] for k in BELL_ORDER)
        np.testing.assert_array_equal(total, np.eye(4))

    def test_read_only(self):
        with pytest.raises(ValueError):
            BELL_PROJECTORS["phi_plus"][0, 0] = 0.0


class TestWerner:
    def test_f_one_is_pure_target(self):
        np.testing.assert_allclose(werner(1.0).matrix,
                                   BELL_PROJECTORS["phi_plus"], atol=1e-15)

    def test_f_quarter_is_maximally_mixed(self):
        with pytest.warns(BelowThresholdWarning):
            rho = werner(0.25)
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-15)

    def test_fidelity_equals_f(self):
        assert fidelity(werner(0.6)) == pytest.approx(0.6, abs=1e-14)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            werner(1.2)
        with pytest.raises(DomainError):
            werner(-0.1)

    def test_below_threshold_warns(self):
        with pytest.warns(BelowThresholdWarning):
            werner(0.5)

    @settings(max_examples=50)
    @given(f=st.floats(0.500001, 1.0))
    def test_invariants_and_diagonality(self, f):
        rho = werner(f)  # above threshold: no warning noise under hypothesis
        dec = bell_decompose(rho)
        assert dec.off_diagonal_norm == 0.0
        assert dec.weights["phi_plus"] == pytest.approx(f, abs=1e-12)


class TestWernerWeights:
    # the one definition of the Werner Bell weights, against the matrix's own
    @pytest.mark.parametrize("f", [0.0, 0.25, 0.5, 0.6, 0.75, 0.9, 1.0])
    def test_equal_bell_decomposition_of_werner(self, f):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BelowThresholdWarning)
            rho = werner(f)
        weights = bell_decompose(rho).weights
        np.testing.assert_allclose(werner_weights(f),
                                   [weights[k] for k in BELL_ORDER], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("f", [np.nan, -0.1, 1.1])
    def test_out_of_range_rejected(self, f):
        with pytest.raises(DomainError, match="must lie in"):
            werner_weights(f)


class TestFidelity:
    def test_orthogonal_bell_state(self):
        rho = DensityMatrix(BELL_PROJECTORS["phi_minus"])
        assert fidelity(rho) == pytest.approx(0.0, abs=1e-15)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert fidelity(rho) == pytest.approx(0.25, abs=1e-15)

    def test_werner_075(self):
        assert fidelity(werner(0.75)) == pytest.approx(0.75, abs=1e-14)

    def test_dimension_mismatch(self):
        big = DensityMatrix(np.kron(werner(0.8).matrix, werner(0.9).matrix))
        with pytest.raises(ShapeError):
            fidelity(big)

    @settings(max_examples=100)
    @given(p=st.floats(0.0, 1.0), wa=bell_weights, wb=bell_weights)
    def test_linearity(self, p, wa, wb):
        a, b = bell_diagonal(wa), bell_diagonal(wb)
        mix = DensityMatrix(p * a.matrix + (1 - p) * b.matrix)
        lhs = fidelity(mix)
        rhs = p * fidelity(a) + (1 - p) * fidelity(b)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestTensorAndPartialTrace:
    """Products and partial traces on plain arrays, as the six-qubit oracle takes them."""

    def test_trace_preserved(self):
        prod = DensityMatrix(np.kron(werner(0.7).matrix, werner(0.9).matrix))
        assert prod.dim == 16
        assert np.trace(prod.matrix) == pytest.approx(1.0, abs=1e-13)

    def test_three_pair_composite(self):
        pair, stored = werner(0.7).matrix, werner(0.9).matrix
        rho = DensityMatrix(six_qubit_state(pair, pair, stored))
        assert rho.dim == 64

    def test_identity_halves(self):
        half = DensityMatrix(np.eye(2) / 2)
        np.testing.assert_allclose(np.kron(half.matrix, half.matrix), np.eye(4) / 4,
                                   atol=1e-15)

    def test_bell_marginal_is_maximally_mixed(self):
        # trace out the second qubit of phi+
        red = np.trace(werner(1.0).matrix.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        np.testing.assert_allclose(red, np.eye(2) / 2, atol=1e-14)

    def test_product_recovery(self):
        stored = werner(0.9).matrix
        rho = six_qubit_state(werner(0.7).matrix, werner(0.8).matrix, stored)
        np.testing.assert_allclose(stored_pair(rho), stored, atol=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(wa=bell_weights, wb=bell_weights)
    def test_roundtrip_random_bell_diagonal(self, wa, wb):
        a, b = bell_diagonal(wa), bell_diagonal(wb)
        back = stored_pair(six_qubit_state(b.matrix, b.matrix, a.matrix))
        np.testing.assert_allclose(back, a.matrix, atol=1e-9)


class TestPermute:
    """The oracle's move from Kronecker order (1, 4, 2, 5, 3, 6) to slots 1..6."""

    def test_roundtrip(self):
        # the move is the basis permutation P that reads the bits of a
        # Kronecker-order index in slot order; P^T undoes it
        order = (1, 4, 2, 5, 3, 6)
        perm = np.zeros((64, 64))
        for k in range(64):
            bits = dict(zip(order, format(k, "06b")))
            perm[int("".join(bits[s] for s in range(1, 7)), 2), k] = 1.0
        rng = np.random.default_rng(2)
        rho = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        moved = to_slot_order(rho)
        np.testing.assert_array_equal(moved, perm @ rho @ perm.T)
        np.testing.assert_array_equal(perm.T @ moved @ perm, rho)

    def test_reorder_matches_reconstruction(self):
        # distinguishable diagonal factors pin the slot bookkeeping
        site = {s: np.diag([s / 10.0, 1.0 - s / 10.0]) for s in range(1, 7)}
        rho = six_qubit_state(np.kron(site[1], site[4]), np.kron(site[2], site[5]),
                              np.kron(site[3], site[6]))
        expect = site[1]
        for s in range(2, 7):
            expect = np.kron(expect, site[s])
        np.testing.assert_allclose(rho, expect, atol=1e-15)


class TestBellDecompose:
    def test_werner_08(self):
        dec = bell_decompose(werner(0.8))
        assert dec.weights["phi_plus"] == pytest.approx(0.8, abs=1e-14)
        for k in ("phi_minus", "psi_plus", "psi_minus"):
            assert dec.weights[k] == pytest.approx(0.2 / 3, abs=1e-14)
        assert dec.off_diagonal_norm == 0.0

    def test_pure_target(self):
        dec = bell_decompose(werner(1.0))
        assert dec.weights["phi_plus"] == pytest.approx(1.0, abs=1e-14)
        assert dec.off_diagonal_norm < 1e-15

    def test_reconstruction(self):
        # the decomposition's matrix is the state in the Bell basis
        basis = np.array([[1, 1, 0, 0], [0, 0, 1, 1],
                          [0, 0, 1, -1], [1, -1, 0, 0]]) / np.sqrt(2.0)
        rng = np.random.default_rng(3)
        rho = random_bell_diagonal(rng)
        dec = bell_decompose(rho)
        np.testing.assert_allclose(basis @ dec.matrix @ basis.T, rho.matrix,
                                   atol=1e-12)

    def test_benchmark_call_ignores_labels(self):
        # the exact-pump workload passes labels=(3, 6); they change nothing
        a = random_bell_diagonal(np.random.default_rng(8), labels=(3, 6))
        b = random_bell_diagonal(np.random.default_rng(8))
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_coherent_superposition_has_off_diagonal(self):
        # (|phi+> + |phi->)/sqrt(2) = |00>
        dec = bell_decompose(computational_pair("00"))
        assert dec.off_diagonal_norm == pytest.approx(0.5, abs=1e-14)


class TestValidation:
    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(StateValidationError):
            DensityMatrix(m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(StateValidationError):
            DensityMatrix(np.eye(4) / 2)

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([0.6, 0.5, -0.05, -0.05])
        with pytest.raises(StateValidationError):
            DensityMatrix(m)

    def test_non_square_rejected(self):
        for shape in ((4,), (4, 2), (2, 2, 2)):
            with pytest.raises(ShapeError):
                DensityMatrix(np.full(shape, 0.25))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("where", ["all", "diagonal", "off-diagonal"])
    def test_non_finite_rejected(self, bad, where):
        # rejected before eigvalsh, with no RuntimeWarning (warnings are errors)
        m = np.eye(4, dtype=complex) / 4
        if where == "all":
            m[:] = bad
        elif where == "diagonal":
            m[2, 2] = bad
        else:
            m[0, 3] = m[3, 0] = bad
        with pytest.raises(StateValidationError, match="non-finite"):
            DensityMatrix(m)

    def test_matrix_is_immutable(self):
        rho = werner(0.8)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0
