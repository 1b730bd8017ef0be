"""Polynomial-matrix helpers that only the tests use.

No command scales a polynomial matrix, builds a zero one, divides one by
another or factors a storage kernel's decay form, so these live with the
tests rather than on :class:`sldstab.polymat.PolyMatrix`.
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


def polynomial_part(F: PolyMatrix, R: PolyMatrix) -> PolyMatrix:
    """Polynomial part ``N`` of ``F R^{-1} = N + S`` with ``S`` strictly
    proper: the reference division that ``canonical_rep`` and
    ``is_strictly_proper`` are checked against.

    Divides ``F U``, trimmed as one matrix, by ``R``'s column reduction
    ``R' = R U`` with column degrees ``d_j``.  One downward pass over the
    excess degrees ``k`` removes the coefficients ``C_k`` of ``xi^(k + d_j)``
    of every column ``j`` at once with the quotient term
    ``C_k R'_hc^{-1} xi^k``; the remainder left has column degrees below
    ``d_j``, so it is strictly proper over the column-reduced ``R'``
    (Kailath, *Linear Systems*, 1980, section 6.3).
    """
    if F.cols != R.rows:
        raise ValueError("dimension mismatch between F and R")
    red = R._reduction
    Rp, d = red.Rp, red.degrees
    hc_inv = np.linalg.inv(Rp.coeffs[list(d), :, np.arange(len(d))].T)
    rem = (F if Rp is R else F @ red.U).coeffs  # R' = R: U = I
    top = len(rem) - 1 - min(d)  # highest quotient degree
    if top < 0:
        return zeros(F.rows, R.cols)
    r, s, shift = Rp.coeffs, rem.copy(), [max(d) - dj for dj in d]  # rem is read-only
    if any(shift):  # move column j up by its shift: C_k is slice k + max(d)
        r, s = np.zeros(r.shape), np.zeros((len(rem) + max(shift),) + rem.shape[1:])
        for j, sh in enumerate(shift):
            r[sh:, :, j] = Rp.coeffs[: d[j] + 1, :, j]
            s[sh : sh + len(rem), :, j] = rem[:, :, j]
    q = np.empty((top + 1,) + rem.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(top, -1, -1):
            q[k] = s[k + max(d)] @ hc_inv
            s[k : k + len(r)] -= q[k] @ r
    return PolyMatrix(q)


def decay_factor(A: np.ndarray, K: np.ndarray, X: PolyMatrix) -> PolyMatrix:
    """``Q = Qbar X`` with ``Qbar^T Qbar`` the positive part of the decay form
    ``-(A^T K + K A)`` of a storage kernel ``K`` over the state map ``X``
    (``xi X = A X + B R``): the spectral factor of the boundary form that
    the dissipation equality pairs with ``K``."""
    D = -(A.T @ K + K @ A)
    lam, V = np.linalg.eigh(0.5 * (D + D.T))
    return PolyMatrix((np.sqrt(np.clip(lam, 0.0, None))[:, None] * V.T)[None]) @ X
