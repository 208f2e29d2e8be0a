"""Conventional CNOT-based purification round and its pumping variant.

The baseline gate sequence on two shared pairs (source kept, target
measured): single-qubit rotations (I + i X)/sqrt(2) on node-A qubits
and (I - i X)/sqrt(2) on node-B qubits, bilateral CNOTs with the
source qubits as controls, then a computational-basis measurement of
the target pair accepting equal outcomes {00, 11}.  For Werner x
Werner inputs the kept-pair fidelity is the rational map
:func:`closed_form_cnot`, with success probability (5 - 4f + 8f^2)/9.

With these rotations the round is the DEJMPS protocol (Deutsch et al.,
PRL 77, 2818, 1996).  A Bell-diagonal source with a Werner(f) target
stays Bell-diagonal, and its Bell weights follow the 4x4 map
``_dejmps_map`` in f.  Pumping with the baseline gate ("scheme C": the
stored pair the source, a fresh Werner(f) pair the target, every round)
iterates that map through the shared Bell-weight iterator of
:mod:`xypurify.pumping`; :func:`comparison_table` reads its two rounds
from it.  No circuit is simulated here; the
tests keep the four-qubit circuit as the oracle that the map, the sign
assignment of the rotations and :func:`closed_form_cnot` are checked
against (the mirrored sign assignment works equally well, the
same-sign ones do not).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .pumping import _bell_rounds
from .rounds import closed_form_general


def closed_form_cnot(f: float) -> float:
    """Kept-pair fidelity of the baseline round for Werner(f) x Werner(f)."""
    if not 0.0 <= f <= 1.0:
        raise DomainError(f"fidelity must lie in [0,1], got {f}")
    return (1.0 - 2.0 * f + 10.0 * f * f) / (5.0 - 4.0 * f + 8.0 * f * f)


def _dejmps_map(f: float) -> np.ndarray:
    """Bell-weight map of one baseline round with a Werner(f) target.

    A Bell-diagonal source with weights w (``BELL_ORDER``) leaves the
    round Bell-diagonal with unnormalised weights M @ w; their sum is
    the success probability, (5 - 4f + 8f^2)/9 on a Werner(f) source.
    """
    b = (1.0 - f) / 3.0
    return np.array([[f, 0.0, 0.0, b],
                     [b, 0.0, 0.0, f],
                     [0.0, b, b, 0.0],
                     [0.0, b, b, 0.0]])


@dataclass(frozen=True)
class ComparisonRow:
    """Equal-resource comparison at one fresh-pair fidelity."""

    f: float
    xy_one_round: float
    cnot_one_round: float
    scheme_c_two_rounds: float


def comparison_table(f_grid: Iterable[float]) -> list[ComparisonRow]:
    """Ring-exchange single round vs baseline round vs two pump rounds.

    The ring-exchange round beats the baseline on all of (1/2, 1), so no
    check guards the rows: xy - cnot = 21 (1 - f)(2f - 1)(2f + 1)(4f - 1)
    / ((8f^2 - 4f + 5)(128f^2 - 106f + 59)), whose quadratics have
    negative discriminants.  Next to 1/2 and 1 rounding may tie or swap them.
    """
    grid: Sequence[float] = list(f_grid)
    rows: list[ComparisonRow] = []
    for f in grid:
        if not 0.5 < f < 1.0:
            raise DomainError(f"grid value {f} outside (0.5, 1)")
        xy = closed_form_general(f, f).fidelity
        base = closed_form_cnot(f)
        _, (two, _) = islice(_bell_rounds(_dejmps_map(f), f), 2)
        rows.append(ComparisonRow(f=f, xy_one_round=xy, cnot_one_round=base,
                                  scheme_c_two_rounds=two))
    return rows
