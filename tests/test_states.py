import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xypurify import (
    BelowThresholdWarning,
    DensityMatrix,
    DomainError,
    LabelError,
    ShapeError,
    StateValidationError,
    bell_decompose,
    bell_projector,
    computational_pair,
    fidelity,
    partial_trace,
    permute,
    random_bell_diagonal,
    tensor,
    werner,
)
from xypurify.states import BELL_ORDER, BELL_PROJECTORS

bell_weights = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4)


def bell_diagonal(weights, labels=(1, 2)):
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    mat = sum(wi * BELL_PROJECTORS[k] for wi, k in zip(w, BELL_ORDER))
    return DensityMatrix(mat, labels)


class TestBellProjectors:
    def test_idempotent_trace_one(self):
        for name in BELL_ORDER:
            p = bell_projector(name).matrix
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

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            bell_projector("sigma_plus")


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


class TestFidelity:
    def test_orthogonal_bell_state(self):
        rho = DensityMatrix(BELL_PROJECTORS["phi_minus"], (1, 2))
        assert fidelity(rho) == pytest.approx(0.0, abs=1e-15)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (1, 2))
        assert fidelity(rho) == pytest.approx(0.25, abs=1e-15)

    def test_werner_075(self):
        assert fidelity(werner(0.75)) == pytest.approx(0.75, abs=1e-14)

    def test_dimension_mismatch(self):
        big = tensor(werner(0.8, labels=(1, 2)), werner(0.9, labels=(3, 4)))
        with pytest.raises(ShapeError):
            fidelity(big)

    @settings(max_examples=100)
    @given(p=st.floats(0.0, 1.0), wa=bell_weights, wb=bell_weights)
    def test_linearity(self, p, wa, wb):
        a, b = bell_diagonal(wa), bell_diagonal(wb)
        mix = DensityMatrix(p * a.matrix + (1 - p) * b.matrix, (1, 2))
        lhs = fidelity(mix)
        rhs = p * fidelity(a) + (1 - p) * fidelity(b)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestTensorAndPartialTrace:
    def test_trace_preserved(self):
        prod = tensor(werner(0.7, labels=(1, 4)), werner(0.9, labels=(2, 5)))
        assert prod.dim == 16
        assert prod.labels == (1, 4, 2, 5)
        assert np.trace(prod.matrix) == pytest.approx(1.0, abs=1e-13)

    def test_three_pair_composite(self):
        rho = tensor(tensor(werner(0.7, labels=(1, 4)), werner(0.7, labels=(2, 5))),
                     werner(0.9, labels=(3, 6)))
        assert rho.dim == 64

    def test_label_collision(self):
        with pytest.raises(LabelError):
            tensor(werner(0.7, labels=(1, 2)), werner(0.9, labels=(2, 3)))

    def test_identity_halves(self):
        half = DensityMatrix(np.eye(2) / 2, ("x",))
        other = DensityMatrix(np.eye(2) / 2, ("y",))
        np.testing.assert_allclose(tensor(half, other).matrix, np.eye(4) / 4,
                                   atol=1e-15)

    def test_bell_marginal_is_maximally_mixed(self):
        rho = werner(1.0, labels=(1, 2))
        red = partial_trace(rho, keep={1})
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-14)

    def test_product_recovery(self):
        prod = tensor(werner(0.7, labels=(1, 4)), werner(0.9, labels=(2, 5)))
        back = partial_trace(prod, keep={1, 4})
        np.testing.assert_allclose(back.matrix, werner(0.7).matrix, atol=1e-13)
        assert back.labels == (1, 4)

    def test_empty_keep(self):
        with pytest.raises(DomainError):
            partial_trace(werner(0.7), keep=set())

    def test_unknown_label(self):
        with pytest.raises(LabelError):
            partial_trace(werner(0.7), keep={7})

    @settings(max_examples=100, deadline=None)
    @given(wa=bell_weights, wb=bell_weights)
    def test_roundtrip_random_bell_diagonal(self, wa, wb):
        a = bell_diagonal(wa, labels=("a1", "a2"))
        b = bell_diagonal(wb, labels=("b1", "b2"))
        back = partial_trace(tensor(a, b), keep={"a1", "a2"})
        np.testing.assert_allclose(back.matrix, a.matrix, atol=1e-9)


class TestPermute:
    def test_roundtrip(self):
        rho = tensor(werner(0.7, labels=(1, 4)), werner(0.9, labels=(2, 5)))
        moved = permute(rho, (1, 2, 4, 5))
        assert moved.labels == (1, 2, 4, 5)
        back = permute(moved, (1, 4, 2, 5))
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)

    def test_reorder_matches_reconstruction(self):
        # distinguishable diagonal factors pin the slot bookkeeping
        d1 = DensityMatrix(np.diag([1.0, 0.0]), ("p",))
        d2 = DensityMatrix(np.diag([0.0, 1.0]), ("q",))
        swapped = permute(tensor(d1, d2), ("q", "p"))
        np.testing.assert_allclose(swapped.matrix, tensor(d2, d1).matrix,
                                   atol=1e-15)

    def test_invalid_permutation(self):
        with pytest.raises(LabelError):
            permute(werner(0.7, labels=(1, 2)), (1, 3))


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
        rng = np.random.default_rng(3)
        rho = random_bell_diagonal(rng)
        dec = bell_decompose(rho)
        np.testing.assert_allclose(dec.reconstruct(), rho.matrix, atol=1e-12)

    def test_coherent_superposition_has_off_diagonal(self):
        # (|phi+> + |phi->)/sqrt(2) = |00>
        dec = bell_decompose(computational_pair("00"))
        assert dec.off_diagonal_norm == pytest.approx(0.5, abs=1e-14)


class TestValidation:
    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(StateValidationError):
            DensityMatrix(m, (1, 2))

    def test_wrong_trace_rejected(self):
        with pytest.raises(StateValidationError):
            DensityMatrix(np.eye(4) / 2, (1, 2))

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([0.6, 0.5, -0.05, -0.05])
        with pytest.raises(StateValidationError):
            DensityMatrix(m, (1, 2))

    def test_label_count_mismatch(self):
        with pytest.raises(ShapeError):
            DensityMatrix(np.eye(4) / 4, (1, 2, 3))

    def test_duplicate_labels(self):
        with pytest.raises(LabelError):
            DensityMatrix(np.eye(4) / 4, (1, 1))

    def test_matrix_is_immutable(self):
        rho = werner(0.8)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0
