"""Minimal state maps, companion realizations and mode eigenstructure.

A minimal state map for an autonomous kernel behavior ``ker R(d/dt)`` is a
polynomial matrix ``X`` whose rows form a basis of the row vectors ``f`` with
``f R^{-1}`` strictly proper.  The induced realization satisfies
``xi X(xi) = A X(xi) + B R(xi)`` together with the output map ``w = C x``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .polymat import (
    MINUS_INF,
    Divisor,
    PolyMatrix,
    canonical_rep,
    column_degrees,
    column_reduce,
    poly_roots,
    unimodular_inverse,
    vstack,
)

REALIZE_TOL = 1e-9
STATE_BASIS_TOL = 1e-9
EIGVEC_TOL = 1e-8


def coefficient_matrix(M: PolyMatrix, grid: int) -> np.ndarray:
    """Stack coefficient slices horizontally: ``[M_0 ... M_{grid-1}]``."""
    d, r, c = M.coeffs.shape
    if d > grid:
        raise ValueError("grid too small for the matrix degree")
    out = np.zeros((r, grid * c))
    for i in range(d):
        out[:, i * c : (i + 1) * c] = M.coeffs[i]
    return out


def minimal_state_map(R: PolyMatrix | Divisor) -> PolyMatrix:
    """Deterministic minimal state map for ``ker R(d/dt)``.

    Column-reduce ``R`` to ``R' = R U`` with column degrees ``d_j``; the rows
    ``e_j xi^k`` (``k < d_j``) form a basis for ``R'`` and are mapped back
    through ``U^{-1}``, then normalized by the canonical representative.
    Rows are ordered by (column index, power ascending).
    """
    div = Divisor.of(R)
    Rp, U = column_reduce(div)
    degs = column_degrees(Rp)
    w = div.R.cols
    Uinv = unimodular_inverse(U)
    rows = []
    for j in range(w):
        dj = degs[j]
        if dj == MINUS_INF:
            raise ValueError("column-reduced matrix has a zero column")
        for k in range(int(dj)):
            c = np.zeros((k + 1, 1, w))
            c[k, 0, j] = 1.0
            rows.append(PolyMatrix(c) @ Uinv)
    n = int(round(div.det.degree))
    if len(rows) != n:
        raise ValueError(
            f"state-map construction produced {len(rows)} rows, expected {n}"
        )
    if n == 0:
        return PolyMatrix.zeros(0, w)
    return canonical_rep(vstack(rows), div)


def express_in_state_basis(
    G: PolyMatrix,
    R: PolyMatrix | Divisor,
    X: PolyMatrix,
    tol: float = STATE_BASIS_TOL,
) -> np.ndarray:
    """Solve ``G mod R = F X`` for the constant matrix F.

    Raises if ``G mod R`` is not in the row span of ``X`` within ``tol``.
    """
    Gc = canonical_rep(G, R)
    grid = max(Gc.coeffs.shape[0], X.coeffs.shape[0])
    Ga = coefficient_matrix(Gc, grid)
    Xa = coefficient_matrix(X, grid)
    F, *_ = np.linalg.lstsq(Xa.T, Ga.T, rcond=None)
    F = F.T
    resid = np.max(np.abs(F @ Xa - Ga)) if Ga.size else 0.0
    scale = max(1.0, np.max(np.abs(Ga)) if Ga.size else 0.0)
    if resid > tol * scale:
        raise ValueError(
            f"canonical representative not in the state-map row span "
            f"(residual {resid:.3e})"
        )
    return F


@dataclass(frozen=True)
class StateRealization:
    """Companion-style realization of ``ker R(d/dt)`` over a state map X.

    ``Rt``, ``Xa`` and ``Xb`` stack the coefficients of ``R``, ``X`` and
    ``xi X`` over one monomial grid, on which ``xi X = A X + B R`` reads
    ``Xb = A Xa + B Rt``.
    """

    R: PolyMatrix
    X: PolyMatrix
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Rt: np.ndarray
    Xa: np.ndarray
    Xb: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def w(self) -> int:
        return self.R.cols


def realize(
    R: PolyMatrix | Divisor, X: PolyMatrix, tol: float = REALIZE_TOL
) -> StateRealization:
    """Solve ``xi X = A X + B R`` and ``I_w mod R = C X`` by coefficient match.

    Raises if the residual exceeds ``tol`` (the given X is then not a valid
    state map for ``ker R``).
    """
    div = Divisor.of(R)
    R = div.R
    n, w = X.rows, R.cols
    L = int(R.degree) if R.degree != MINUS_INF else 0
    grid = max(L + 1, int(X.degree) + 2 if X.degree != MINUS_INF else 1)
    Xa = coefficient_matrix(X, grid)  # X(xi) over the monomial stack
    Xb = np.zeros_like(Xa)  # xi * X(xi)
    Xb[:, w:] = Xa[:, :-w]
    Rt = coefficient_matrix(R, grid)
    M = np.vstack([Xa, Rt])  # (n + w) x (grid*w)
    sol, *_ = np.linalg.lstsq(M.T, Xb.T, rcond=None)
    AB = sol.T
    A, B = AB[:, :n], AB[:, n:]
    scale = max(1.0, np.max(np.abs(Xa)), R.max_norm())
    resid = np.max(np.abs(AB @ M - Xb))
    if resid > tol * scale:
        raise ValueError(f"X is not a valid state map (residual {resid:.3e})")
    Ican = canonical_rep(PolyMatrix.identity(w), div)
    Ia = coefficient_matrix(Ican, grid)
    Csol, *_ = np.linalg.lstsq(Xa.T, Ia.T, rcond=None)
    C = Csol.T
    cres = np.max(np.abs(C @ Xa - Ia))
    if cres > tol * scale:
        raise ValueError(f"output map not expressible over X (residual {cres:.3e})")
    return StateRealization(R=R, X=X, A=A, B=B, C=C, Rt=Rt, Xa=Xa, Xb=Xb)


@dataclass(frozen=True)
class ModeEigenstructure:
    """Eigenpairs ``(lambda_i, w_i)`` of a mode and the matrix V of state
    directions ``X(lambda_i) w_i``."""

    eigenvalues: np.ndarray  # complex, length n
    directions: np.ndarray  # complex, w x n (kernel vectors of R(lambda))
    V: np.ndarray  # complex, n x n
    condition_number: float


def _cluster_roots(rts: np.ndarray, tol: float) -> list[tuple[complex, int]]:
    out: list[list] = []
    for r in sorted(rts, key=lambda z: (z.real, z.imag)):
        for grp in out:
            if abs(r - grp[0]) <= tol * max(1.0, abs(grp[0])):
                grp[1] += 1
                grp[0] = grp[0] + (r - grp[0]) / grp[1]
                break
        else:
            out.append([r, 1])
    return [(complex(g[0]), int(g[1])) for g in out]


def eigenstructure(
    R: PolyMatrix | Divisor, X: PolyMatrix, tol: float = 1e-6
) -> ModeEigenstructure:
    """Roots of ``det R`` with kernel directions and the V matrix.

    Requires the algebraic multiplicity of each root to equal
    ``dim ker R(lambda)``; defective modes are a hard error.  A library
    function for analysing a mode: the certificate search and its re-check do
    not call it, because their switch condition holds on the whole state
    space.
    """
    div = Divisor.of(R)
    R = div.R
    rts = poly_roots(div.det)
    n = len(rts)
    clusters = _cluster_roots(rts, tol)
    lams, dirs, vcols = [], [], []
    for lam, mult in clusters:
        if abs(lam.imag) < 1e-9 * max(1.0, abs(lam)):
            lam = complex(lam.real, 0.0)
        if lam.imag < 0:
            continue  # handled via conjugate closure below
        M = R(lam)
        # size of the terms summed in R(lam): rounding in the evaluation,
        # and in the root itself, is relative to it
        scale = sum(
            np.linalg.norm(Ri) * abs(lam) ** i for i, Ri in enumerate(R.coeffs)
        )
        u, s, vh = np.linalg.svd(M)
        null_dim = int(np.sum(s <= 1e-8 * scale))
        if null_dim < mult:
            raise ValueError(
                f"defective root {lam:.6g}: algebraic multiplicity {mult}, "
                f"kernel dimension {null_dim}; the mode has no eigenbasis"
            )
        W = vh[-mult:, :].conj().T  # w x mult, orthonormal kernel basis
        for i in range(mult):
            wv = W[:, i]
            wv = wv / np.linalg.norm(wv)
            # deterministic phase: largest entry real positive
            piv = np.argmax(np.abs(wv))
            wv = wv * np.exp(-1j * np.angle(wv[piv]))
            resid = np.linalg.norm(M @ wv)
            if resid > EIGVEC_TOL * scale:
                raise ValueError(f"kernel residual {resid:.3e} at root {lam:.6g}")
            lams.append(lam)
            dirs.append(wv)
            vcols.append(X(lam) @ wv)
            if lam.imag > 0:
                lams.append(np.conj(lam))
                dirs.append(np.conj(wv))
                vcols.append(X(np.conj(lam)) @ np.conj(wv))
    order = np.lexsort((np.array(lams).imag, np.array(lams).real))
    lams = np.array(lams)[order]
    dirs = np.array(dirs).T[:, order]
    V = np.array(vcols).T[:, order]
    if V.shape != (n, n):
        raise ValueError("eigenstructure assembly produced a non-square V")
    s = np.linalg.svd(V, compute_uv=False)
    if s[-1] <= 1e-10 * max(s[0], 1.0):
        raise ValueError("V matrix is singular beyond tolerance")
    return ModeEigenstructure(
        eigenvalues=lams,
        directions=dirs,
        V=V,
        condition_number=float(s[0] / s[-1]),
    )


def propagator(A: np.ndarray, dt: float) -> np.ndarray:
    """The step propagator ``exp(A dt)`` (scaling-and-squaring expm)."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    A = np.asarray(A, dtype=float)
    if dt == 0.0 or A.size == 0:
        return np.eye(A.shape[0])
    return scipy.linalg.expm(A * dt)


def expm_propagate(A: np.ndarray, x0: np.ndarray, dt: float) -> np.ndarray:
    """Exact propagation ``exp(A dt) x0``."""
    return propagator(A, dt) @ np.asarray(x0, dtype=float)
