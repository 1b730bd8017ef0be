"""Polynomial-matrix helpers that only the tests use.

No command scales a polynomial matrix or builds a zero one, so these live
with the tests rather than on :class:`sldstab.polymat.PolyMatrix`.
"""

import numpy as np

from sldstab.polymat import PolyMatrix


def scale(P: PolyMatrix, a) -> PolyMatrix:
    """``P`` times a real scalar or a scalar polynomial given by its
    ascending coefficients."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    c = np.zeros((len(a) + P.coeffs.shape[0] - 1,) + P.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # the trim rejects an overflow
        for i, ai in enumerate(a):
            c[i : i + P.coeffs.shape[0]] += ai * P.coeffs
    return PolyMatrix(c)


def zeros(rows: int, cols: int) -> PolyMatrix:
    return PolyMatrix(np.zeros((1, rows, cols)))
