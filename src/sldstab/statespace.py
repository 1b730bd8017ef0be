"""Minimal state maps, companion realizations and mode eigenstructure.

A minimal state map for an autonomous kernel behavior ``ker R(d/dt)`` is a
polynomial matrix ``X`` whose rows form a basis of the row vectors ``f`` with
``f R^{-1}`` strictly proper.  :func:`~sldstab.polymat.minimal_state_map`
reads it off the column reduction ``R U = R'`` that ``R`` keeps for all
work modulo it: the rows of ``U^{-1}`` shifted by powers of ``xi`` below
each column degree ``d_j`` of ``R'``, ``n = sum d_j = deg det R`` rows,
with no determinant formed; each is strictly proper over ``R``, so the map
is canonical by construction.
The induced realization satisfies ``xi X(xi) = A X(xi) + B R(xi)`` together
with the output map ``w = C x``.  Over the minimal state map all three are
read off the companion data ``(A_c, B_c, O)`` that the column reduction
returns (Kailath, *Linear Systems*, 1980, section 6.4): ``A = A_c``,
``B = B_c``, and any block ``G`` is ``F X`` modulo ``R`` with
``F = sum_i (G U)_i O A_c^i`` (:func:`~sldstab.polymat.state_coordinates`),
``C`` being the case ``G = I_w``.  No division and no least-squares solve
is made.  A given state map ``X`` enters through its coordinates ``T``
over the minimal one (``X = T X_min`` modulo ``R``), computed once per
mode: ``A = T A_c T^{-1}``, ``B = T B_c`` and ``F_X = F T^{-1}``.
:func:`realize` checks, on the coefficient stacks of
:meth:`PolyMatrix.stack`, that ``X`` is a minimal state map, with its
residual judged against the terms it sums, so the verdict does not depend
on the scale of ``X`` or ``R``; only a map it accepts is used, so no
block is ever solved over rows that do not span.  A verdict reads only
``A`` (its eigenvalues are the roots of ``det R``, which the Hurwitz test
reads), so ``C`` is left to its first use, which only simulation makes.
:func:`express_in_state_basis` writes any number of blocks ``G mod R`` over
a checked state map in one pass; ``C`` and the normal form go through it.
:func:`propagator` is the one matrix exponential of a mode's dynamics, for
an array of times in one ``expm`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .polymat import MINUS_INF, PolyMatrix, minimal_state_map, state_coordinates

REALIZE_TOL = 1e-9
EIGVEC_TOL = 1e-8
ROOT_CLUSTER_TOL = 1e-6  # relative distance at which eigenstructure merges roots


def express_in_state_basis(
    blocks: list[PolyMatrix], R: PolyMatrix, T_inv: np.ndarray | None = None
) -> list[np.ndarray]:
    """Solve ``G = F X`` modulo ``R`` for the constant matrix ``F`` of each block ``G``.

    :func:`state_coordinates` reads ``F`` for the whole stack off the
    column reduction, over ``R``'s minimal state map ``X_min``; over another
    state map ``X``, whose coordinates ``T`` (``X = T X_min`` modulo ``R``)
    :func:`realize` has checked and inverted (:attr:`StateRealization.T_inv`),
    ``F = F_min T^{-1}``.  No division and no least-squares solve is made.
    """
    F = state_coordinates(blocks, R)
    if T_inv is not None:
        F = F @ T_inv
    bounds = np.cumsum([0] + [b.rows for b in blocks])
    return [F[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


@dataclass(frozen=True)
class StateRealization:
    """Companion-style realization ``xi X = A X + B R`` of ``ker R(d/dt)``
    over a state map X.

    ``T_inv`` holds the minimal state map's coordinates over X (``X_min =
    T_inv X`` modulo ``R``), None when X is that map.  The output map
    :attr:`C` is computed on first use.
    """

    R: PolyMatrix
    X: PolyMatrix
    A: np.ndarray
    B: np.ndarray
    T_inv: np.ndarray | None

    @cached_property
    def C(self) -> np.ndarray:
        """Output map ``w = C x``, from ``I_w = C X`` modulo ``R``; computed
        on first use, since only simulation reads it."""
        (C,) = express_in_state_basis([PolyMatrix.identity(self.w)], self.R, self.T_inv)
        return C

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def w(self) -> int:
        return self.R.cols


def realize(R: PolyMatrix, X: PolyMatrix | None = None) -> StateRealization:
    """The realization ``xi X = A X + B R`` over the state map X.

    X defaults to :func:`minimal_state_map`, over which ``A = A_c`` and
    ``B = B_c`` are read off ``R``'s column reduction
    (:func:`~sldstab.polymat.column_reduce`): ``xi Psi = A_c Psi + B_c R'``
    times ``U^{-1}``.  A given X enters through its coordinates
    ``T = F(X)`` (:func:`state_coordinates`), inverted once:
    ``A = T A_c T^{-1}``, ``B = T B_c``.

    Raises unless X is a minimal state map for ``ker R``: X must have
    ``n = deg det R`` rows, the sum of the column degrees of ``R``'s column
    reduction, ``T`` must be nonsingular within ``REALIZE_TOL`` relative to
    its own scale, and the residual of ``xi X = A X + B R`` must not exceed
    ``REALIZE_TOL`` times the largest of its terms.  It is taken on the
    coefficient stacks ``Xb = A Xa + B Rt`` of ``xi X``, ``X`` and ``R``
    over one monomial grid.  These three checks suffice.  With
    ``xi X = A X + B R``, the constant rows ``a`` with ``a X = p R`` for a
    polynomial row ``p`` form an ``A``-invariant space
    (``a A X = (xi p - a B) R``); an eigenvector ``a A = lambda a`` in it
    gives ``(xi - lambda) p = a B``, so ``p = 0`` and ``a X = 0``, which
    independent rows exclude.  The rows of X are then independent modulo
    ``R``, and ``n`` of them span all ``G mod R``, ``I_w mod R`` among them.
    The residual also rejects an X whose rows are not strictly proper over
    ``R``.  The output map ``C`` is left to its first use
    (:attr:`StateRealization.C`).
    """
    red = R._reduction  # raises if R is not square or is singular
    if X is None:
        X, T_inv, A, B = minimal_state_map(R), None, red.Ac, red.Bc
    else:
        n, N = X.rows, sum(red.degrees)
        if n != N:
            raise ValueError(f"X is not a minimal state map: {n} rows for deg det R = {N}")
        T = state_coordinates([X], R)
        sv = np.linalg.svd(T, compute_uv=False)  # empty for a state of dimension 0
        if sv.size and sv[-1] <= REALIZE_TOL * sv[0]:
            raise ValueError(
                "X is not a minimal state map: its rows are linearly dependent "
                f"(cond T = {np.linalg.cond(T):.3e})"
            )
        T_inv = np.linalg.inv(T)
        A, B = T @ red.Ac @ T_inv, T @ red.Bc
    L = int(R.degree)  # R is not zero: it has a column reduction
    grid = max(L + 1, int(X.degree) + 2 if X.degree != MINUS_INF else 1)
    Xa = X.stack(grid)  # X(xi) over the monomial stack
    Xb = np.zeros_like(Xa)  # xi * X(xi): Xa shifted one block right, grid >= deg X + 2
    Xb[:, X.cols :] = Xa[:, : -X.cols]
    Rt = R.stack(grid)
    # relative to the size of the terms the residual sums, so that the
    # verdict does not depend on the scale of X or of R
    scale = max(
        np.abs(Xb).max(initial=0.0),
        (np.abs(A) @ np.abs(Xa)).max(initial=0.0),
        (np.abs(B) @ np.abs(Rt)).max(initial=0.0),
    )
    resid = np.abs(Xb - A @ Xa - B @ Rt).max(initial=0.0)
    if resid > REALIZE_TOL * scale:
        raise ValueError(f"X is not a valid state map (residual {resid:.3e})")
    return StateRealization(R=R, X=X, A=A, B=B, T_inv=T_inv)


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


def eigenstructure(R: PolyMatrix, X: PolyMatrix) -> ModeEigenstructure:
    """Roots of ``det R`` with kernel directions and the V matrix.

    Requires the algebraic multiplicity of each root to equal
    ``dim ker R(lambda)``; defective modes are a hard error.  A library
    function for analysing a mode: the certificate search and its re-check do
    not call it, because their switch condition holds on the whole state
    space.
    """
    rts = R.det_roots
    n = len(rts)
    clusters = _cluster_roots(rts, ROOT_CLUSTER_TOL)
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


def propagator(A: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The propagators ``exp(A t_i)`` for a 1-D array of times ``ts``: the
    ``(len(ts), n, n)`` stack from one scaling-and-squaring ``expm`` call."""
    A = np.asarray(A, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise ValueError("dt must be nonnegative")
    if ts.size == 0 or A.size == 0:
        return np.broadcast_to(np.eye(A.shape[0]), ts.shape + A.shape).copy()
    import scipy.linalg  # only simulation takes an exponential

    return scipy.linalg.expm(A * ts[:, None, None])
