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
    computational_pair,
    fidelity,
    random_bell_diagonal,
    werner,
    werner_weights,
)
from xypurify import states
from xypurify.states import BELL_ORDER, BELL_PROJECTORS, _bell_off_diagonal

from oracle import bell_matrix, bell_weights, six_qubit_state, stored_pair, to_slot_order

weight_lists = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4)


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
        assert _bell_off_diagonal(rho) == 0.0
        assert bell_weights(rho)["phi_plus"] == pytest.approx(f, abs=1e-12)


class TestWernerWeights:
    # the one definition of the Werner Bell weights, against the matrix's own
    @pytest.mark.parametrize("f", [0.0, 0.25, 0.5, 0.6, 0.75, 0.9, 1.0])
    def test_equal_bell_decomposition_of_werner(self, f):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BelowThresholdWarning)
            rho = werner(f)
        weights = bell_weights(rho)
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
    @given(p=st.floats(0.0, 1.0), wa=weight_lists, wb=weight_lists)
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
    @given(wa=weight_lists, wb=weight_lists)
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
        weights = bell_weights(werner(0.8))
        assert weights["phi_plus"] == pytest.approx(0.8, abs=1e-14)
        for k in ("phi_minus", "psi_plus", "psi_minus"):
            assert weights[k] == pytest.approx(0.2 / 3, abs=1e-14)
        assert _bell_off_diagonal(werner(0.8)) == 0.0

    def test_pure_target(self):
        assert bell_weights(werner(1.0))["phi_plus"] == pytest.approx(1.0, abs=1e-14)
        assert _bell_off_diagonal(werner(1.0)) < 1e-15

    def test_reconstruction(self):
        # the oracle's Bell-basis matrix, rotated back, is the state
        basis = np.array([[1, 1, 0, 0], [0, 0, 1, 1],
                          [0, 0, 1, -1], [1, -1, 0, 0]]) / np.sqrt(2.0)
        rng = np.random.default_rng(3)
        rho = random_bell_diagonal(rng)
        np.testing.assert_allclose(basis @ bell_matrix(rho) @ basis.T, rho.matrix,
                                   atol=1e-12)

    def test_benchmark_call_ignores_labels(self):
        # the exact-pump workload passes labels=(3, 6); they change nothing
        a = random_bell_diagonal(np.random.default_rng(8), labels=(3, 6))
        b = random_bell_diagonal(np.random.default_rng(8))
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_coherent_superposition_has_off_diagonal(self):
        # (|phi+> + |phi->)/sqrt(2) = |00>
        assert _bell_off_diagonal(computational_pair("00")) == pytest.approx(0.5, abs=1e-14)


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
        for shape in ((4,), (4, 2), (2, 2, 2), (0, 0)):
            with pytest.raises(ShapeError):
                DensityMatrix(np.full(shape, 0.25))

    def test_any_memory_layout_accepted(self):
        # a transposed or Fortran-ordered state is the same valid state
        rho = np.array([[0.5, 0.1 - 0.2j], [0.1 + 0.2j, 0.5]])
        for mat in (rho.T.conj(), np.asfortranarray(rho), werner(0.8).matrix.T):
            np.testing.assert_array_equal(DensityMatrix(mat).matrix, mat)

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

    # a Python int past the float range, in a list or an object array,
    # whose conversion to complex raised a bare OverflowError
    @pytest.mark.parametrize("entries", [
        [[10**400, 0], [0, 0]],
        [[1, 0], [0, -(2**1024)]],
        np.array([[0, 10**400], [10**400, 1]], dtype=object),
    ], ids=["list", "negative", "object-array"])
    def test_int_past_float_range_rejected(self, entries):
        with pytest.raises(StateValidationError, match="past the float range"):
            DensityMatrix(entries)

    # finite entries whose sums in the checks overflowed with a
    # RuntimeWarning (trace 1e308 + 1e308); a state's entries are at most 1
    @pytest.mark.parametrize("entries", [
        [[1e308, 0.0], [0.0, 1e308]],
        [[0.5, 1e308j], [-1e308j, 0.5]],
        [[0.5, np.nextafter(states.MAX_ENTRY, 3.0)], [0.0, 0.5]],
    ], ids=["diagonal", "imaginary", "past-bound"])
    def test_entry_above_bound_rejected(self, entries):
        with pytest.raises(StateValidationError, match="above 2$"):
            DensityMatrix(entries)

    def test_matrix_is_immutable(self):
        rho = werner(0.8)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0
