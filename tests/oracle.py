"""Six-qubit reference states on plain arrays, independent of ``run_round``.

The round fixes every pairing by position: conveyed pairs on slots (1, 4)
and (2, 5), the stored pair on (3, 6).  Here the three pairs are joined
with ``np.kron`` in the order (1, 4, 2, 5, 3, 6) and moved to slot order
1..6 by an explicit transpose, not by ``run_round``'s ``einsum``.
"""
import numpy as np

# position of slots 1..6 in the Kronecker order (1, 4, 2, 5, 3, 6)
KRON_TO_SLOTS = (0, 2, 4, 1, 3, 5)
# the measured slots 1, 2, 4, 5, by position in slot order
MEASURED = (0, 1, 3, 4)


def to_slot_order(rho):
    """A 64x64 matrix in Kronecker order (1, 4, 2, 5, 3, 6), in slot order."""
    axes = list(KRON_TO_SLOTS)
    t = np.asarray(rho).reshape((2,) * 12)
    return t.transpose(axes + [a + 6 for a in axes]).reshape(64, 64)


def six_qubit_state(p14, p25, p36):
    """Pairs on slots (1, 4), (2, 5) and (3, 6), as one matrix over slots 1..6."""
    return to_slot_order(np.kron(np.kron(p14, p25), p36))


def stored_pair(rho6):
    """Reduced state of slots (3, 6): slots 1, 2, 4 and 5 traced out."""
    t = np.asarray(rho6).reshape((2,) * 12)
    for ax in sorted(MEASURED, reverse=True):
        # a row axis and its column axis, half the remaining axes further on
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    return t.reshape(4, 4)



def post_selected(rho6, bits):
    """Probability of ``bits`` on slots (1, 2, 4, 5), and the state of (3, 6) given it."""
    t = np.asarray(rho6).reshape((2,) * 12)
    index = [slice(None)] * 6
    for ax, bit in zip(MEASURED, bits):
        index[ax] = int(bit)
    block = t[tuple(index + index)].reshape(4, 4)
    prob = np.trace(block).real
    return prob, block / prob
