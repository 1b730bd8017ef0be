"""Positive-realness route to stability of two-mode switched systems.

For a pair of kernel representations with ``R2 R1^{-1}`` strictly proper, the
state space of mode 2 nests inside that of mode 1.  The *standard* gluing
conditions transport states through that nesting, and strict positive realness
of ``R2 R1^{-1}`` then yields a multiple Lyapunov function algebraically: a
spectral factor ``Q`` of the boundary form gives the storage function

    Psi_1 = (R1(z)^T R2(e) + R2(z)^T R1(e) - Q(z)^T Q(e)) / (z + e)

for mode 1, and ``Psi_2 = Psi_1 mod R2`` for mode 2.  Over mode 1's
realization ``xi X1 = A1 X1 + B1 R1``, with ``R2 = H X1``, ``Q = Qbar X1`` and
``Psi_1 = X1(z)^T K1 X1(e)``, the division is the dissipation equality
``A1^T K1 + K1 A1 = -Qbar^T Qbar``, ``B1^T K1 = H`` (Rantzer, *Syst. Control
Lett.* 28, 1996), one Lyapunov solve.  ``Psi_2`` is ``K2 = L21^T K1 L21``,
``L21 = col(I, Pi)`` the 2 -> 1 re-initialisation map, so the 2 -> 1 switch
condition holds with equality.  ``Pi`` (``X1' = Pi X2`` modulo ``R2``) is
read off ``R2``'s column reduction (:func:`~sldstab.polymat.state_coordinates`),
and the feed-through ``K = lim xi X1' R1^{-1}`` is ``B1`` on the ``X1'`` rows
(Kailath, *Linear Systems*, 1980, section 6.4).  ``X1 = col(X2, X1')`` takes
``X1'`` from the rows of ``R1``'s own minimal state map: those that a pivoted
QR of ``X2``'s state coordinates modulo ``R1`` leaves out.  Conversely the
storage certificate yields the completion ``M = I``, with ``M R2 R1^{-1}``
SPR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .mlf import MlfCertificate, make_certificate
from .model import SldsModel, check_mode, modes_hurwitz
from .polymat import (
    HURWITZ_TOL,
    NonFiniteError,
    PolyMatrix,
    canonical_rep,
    is_strictly_proper,
    state_coordinates,
    vstack,
)
from .sdp import LmiProblem
from .statespace import express_in_state_basis, minimal_state_map

FACTOR_TOL = 1e-8
AXIS_TOL = 1e-7


@dataclass(frozen=True)
class SpectralFactor:
    """Polynomial factor with ``Q(-xi)^T Q(xi)`` equal to a given boundary form."""

    Q: PolyMatrix


@dataclass(frozen=True)
class StandardSlds:
    """Two-mode system with nested state maps and standard gluing."""

    R1: PolyMatrix
    R2: PolyMatrix
    X1: PolyMatrix  # col(X2, X1p), minimal state map of mode 1
    X2: PolyMatrix  # minimal state map of mode 2
    X1p: PolyMatrix  # extra mode-1 state rows
    Pi: np.ndarray  # X1p mod R2 = Pi X2
    K: np.ndarray  # lim xi X1p R1^{-1}: B of mode 1's realization on the X1p rows
    model: SldsModel

    @property
    def n1(self) -> int:
        return self.X1.rows

    @property
    def n2(self) -> int:
        return self.X2.rows

    @cached_property
    def boundary(self) -> PolyMatrix:
        """The boundary form ``para_hermitian_boundary(R2, R1)``."""
        return para_hermitian_boundary(self.R2, self.R1)

    @cached_property
    def spr(self) -> tuple[bool, dict]:
        """``is_strictly_positive_real(R2, R1)``, read off :attr:`boundary`."""
        return _spr_verdict(self.R2, self.R1, self.boundary)

    @cached_property
    def supply(self) -> tuple[np.ndarray, np.ndarray]:
        """``(Qbar, H)`` with ``Q = Qbar X1`` and ``R2 = H X1`` modulo ``R1``,
        ``Q`` the spectral factor of :attr:`boundary` over :attr:`X1`."""
        Q = spectral_factorize(self.boundary, self.R1, self.X1).Q
        T_inv = self.model.realizations[0].T_inv
        return tuple(express_in_state_basis([Q, self.R2], self.R1, T_inv))


# ---------------------------------------------------------------------------
# strict positive realness


def para_hermitian_boundary(N: PolyMatrix, D: PolyMatrix) -> PolyMatrix:
    """The boundary polynomial ``D(-xi)^T N(xi) + N(-xi)^T D(xi)``.

    Evaluated at ``xi = j omega`` it equals ``G(-j w)^T + G(j w)`` scaled by
    ``D(-j w)^T (.) D(j w)``, so its positivity on the axis is the SPR
    boundary condition for ``G = N D^{-1}``.
    """
    return (D.subs_neg().T @ N) + (N.subs_neg().T @ D)


def _uncancelled_rhp_poles(N: PolyMatrix, D: PolyMatrix) -> list[complex]:
    """The poles of ``N D^{-1}`` in the closed right half-plane.

    Over ``D``'s column reduction, ``N = F X`` modulo ``D`` for the minimal
    state map ``X`` (``F = state_coordinates([N], D)``), and
    ``xi X = A_c X + B_c D``, so ``N D^{-1} = poly + F (xi I - A_c)^{-1} B_c``
    with ``(A_c, B_c)`` controllable.  Its poles are the eigenvalues of the
    observable part of ``(A_c, F)``.  Those with real part above
    ``-HURWITZ_TOL`` are read off the ordered real Schur form
    ``A_c = Z T Z^T``, whose leading block ``T_11`` acts on the closed right
    half-plane's invariant subspace: the observable part of
    ``(T_11, F Z_1)`` takes one rank decision, on its observability matrix
    with blocks ``F Z_1 (T_11 / |T_11|)^i / |F|``, each at most 1.
    """
    if not np.any(D.det_roots.real > -HURWITZ_TOL):
        return []
    T, Z, k = scipy.linalg.schur(D._reduction.Ac, sort=lambda re, im: re > -HURWITZ_TOL)
    F, A = state_coordinates([N], D), T[:k, :k]
    step = A / (np.linalg.norm(A, 2) or 1.0)
    obs = np.vstack([F @ Z[:, :k] @ np.linalg.matrix_power(step, i) for i in range(k)])
    _, s, vt = np.linalg.svd(obs / (np.linalg.norm(F, 2) or 1.0))
    W = vt[: int(np.sum(s > 1e-8))]  # rows span the observable part
    return list(np.linalg.eigvals(W @ A @ W.T).astype(complex))


def is_strictly_positive_real(N: PolyMatrix, D: PolyMatrix) -> tuple[bool, dict]:
    """SPR test for ``G = N D^{-1}`` with a witness on failure.

    Checks analyticity in the closed right half-plane (uncancelled poles)
    and strict positivity of the boundary polynomial at ``omega = 0``
    together with absence of imaginary-axis roots of its determinant.
    """
    if D.rows != D.cols:
        raise ValueError("D must be square")
    try:
        D._reduction
    except NonFiniteError:
        raise
    except ValueError as exc:
        raise ValueError(f"D: {exc}") from None
    return _spr_verdict(N, D, para_hermitian_boundary(N, D))


def _spr_verdict(N: PolyMatrix, D: PolyMatrix, P: PolyMatrix) -> tuple[bool, dict]:
    """``is_strictly_positive_real`` given the boundary form ``P`` of (N, D).

    The roots of ``det P`` are :attr:`PolyMatrix.det_roots`, the
    eigenvalues of ``P``'s column reduction, ``sum d_j`` of them: no
    rounding-level leading coefficient of a determinant adds a far-out root.
    """
    poles = _uncancelled_rhp_poles(N, D)
    if poles:
        return False, {"reason": "pole in closed right half-plane", "pole": poles[0]}
    P0 = 0.5 * (P(0.0) + P(0.0).T)
    lam0 = np.linalg.eigvalsh(P0)
    if lam0[0] <= AXIS_TOL * P.max_norm():  # relative: (c R1, c R2) gives c^2 P
        return False, {"reason": "boundary form not positive definite", "omega": 0.0}
    try:
        rts = P.det_roots
    except NonFiniteError:
        raise
    except ValueError:  # the column reduction of a singular P reduces a column to zero
        return False, {"reason": "boundary determinant identically zero", "omega": None}
    for r in rts:
        if abs(r.real) <= AXIS_TOL * max(1.0, abs(r)):
            return False, {
                "reason": "boundary form singular on the imaginary axis",
                "omega": float(r.imag),
            }
    return True, {}


# ---------------------------------------------------------------------------
# spectral factorization


def _scalar_factor(P: PolyMatrix, R1: PolyMatrix) -> PolyMatrix:
    """Root-splitting factorization of an even ``1 x 1`` ``P`` with entry
    ``p(xi) = q(-xi)q(xi)``.

    From each ``{lam, -lam}`` root pair of :attr:`PolyMatrix.det_roots`,
    picks the root keeping ``col(R1(lam), q(lam))`` full rank; ties break
    toward the left half-plane.
    """
    if P.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    p = P.coeffs[:, 0, 0]
    deg = int(P.degree)
    if deg % 2 != 0:
        raise ValueError("boundary polynomial has odd degree")
    m = deg // 2
    lead = p[-1] * (-1.0) ** m
    if lead <= 0:
        raise ValueError("boundary polynomial is indefinite (negative at infinity)")
    if m == 0:
        if p[0] <= 0:
            raise ValueError("boundary polynomial is indefinite")
        return PolyMatrix.from_entries([[np.sqrt(p[0])]])
    rts = list(P.det_roots)
    zero_tol = 1e-7 * max(1.0, R1.coeffs[-1, 0, 0])
    chosen = []
    while rts:
        r = rts.pop(0)
        # mate is the (approximate) mirror -r
        dists = [abs(r + s) for s in rts]
        j = int(np.argmin(dists))
        if dists[j] > 1e-6 * max(1.0, abs(r)):
            raise ValueError("roots do not come in +/- pairs (not para-even)")
        mate = rts.pop(j)
        pick, other = (r, mate) if r.real < mate.real else (mate, r)
        # avoid a common zero of R1 and q: rank col(R1(lam), q(lam)) = w
        if abs(R1(pick)[0, 0]) <= zero_tol and abs(R1(other)[0, 0]) > zero_tol:
            pick = other
        chosen.append(pick)
    qm = np.sqrt(lead)
    coeffs = qm * np.poly(chosen)[::-1]  # ascending
    if np.max(np.abs(coeffs.imag)) > 1e-7 * max(1.0, np.max(np.abs(coeffs))):
        raise ValueError("root selection produced a non-real factor")
    return PolyMatrix(coeffs.real[:, None, None])


def _gram_factor(P: PolyMatrix, R1: PolyMatrix, X1: PolyMatrix) -> PolyMatrix:
    """Matrix spectral factor ``Q = Qbar X1`` over a mode-1 state map.

    With ``X1 = sum_i X_i xi^i`` a minimal state map of ``R1``, searches a PSD
    Gram matrix ``G = Qbar^T Qbar`` (``n1 x n1``) with
    ``sum_{i+j=k} (-1)^i X_i^T G X_j = P_k`` for every ``k``, then factors it.
    The rows of ``Q`` are combinations of state rows, so ``Q R1^{-1}`` is
    strictly proper; ``Q`` has ``rank G`` rows and is returned as its
    canonical representative modulo ``R1``, which drops the rounding-level
    polynomial part the product ``Qbar X1`` can leave.  This is the
    Gram-matrix method (Choi, Lam & Reznick 1995) over a state basis.
    """
    X = X1.coeffs
    dx = X.shape[0] - 1
    Pc = np.zeros((max(2 * dx + 1, P.coeffs.shape[0]),) + P.shape)
    Pc[: P.coeffs.shape[0]] = P.coeffs
    prob = LmiProblem()
    prob.add_symmetric("G", X1.rows)
    prob.add_constraint("psd", lambda v: v["G"], "psd", 0.0)

    def match(k):
        # G may carry a leading stack axis; X_i^T G X_j broadcasts over it
        lo, hi = max(0, k - dx), min(k, dx)
        return lambda v: sum(
            ((-1.0) ** i * X[i].T @ v["G"] @ X[k - i] for i in range(lo, hi + 1)),
            -Pc[k],
        )

    for k in range(Pc.shape[0]):
        prob.add_constraint(f"coef_{k}", match(k), "zero", 0.0)
    report = prob.solve(1e-9 * max(1.0, P.max_norm()), budget=20_000)
    if not report.feasible:
        raise ValueError("boundary form admits no PSD Gram matrix (indefinite?)")
    lam, U = np.linalg.eigh(report.values["G"])
    keep = lam > 1e-10 * max(1.0, lam[-1])
    Qbar = np.sqrt(lam[keep])[:, None] * U[:, keep].T
    return canonical_rep(PolyMatrix(Qbar[None]) @ X1, R1)


def spectral_factorize(
    P: PolyMatrix, R1: PolyMatrix, X1: PolyMatrix | None = None
) -> SpectralFactor:
    """Factor a para-Hermitian boundary form as ``P(xi) = Q(-xi)^T Q(xi)``.

    ``Q R1^{-1}`` is strictly proper, as the storage function of mode 1
    needs.  A scalar ``P`` is split at its roots into a one-row ``Q``; for
    ``w >= 2`` one Gram LMI over the mode-1 state map ``X1`` (derived from
    ``R1`` when not given) gives ``rank G`` rows.  An indefinite ``P`` has
    no factor (``|Q(j w)|^2 >= 0``) and is rejected.
    """
    if P.rows != P.cols or R1.shape != P.shape:
        raise ValueError("boundary form and R1 must be square of equal size")
    if P.cols == 1:
        Q = _scalar_factor(P, R1)
    else:
        Q = _gram_factor(P, R1, minimal_state_map(R1) if X1 is None else X1)
    resid = ((Q.subs_neg().T @ Q) - P).max_norm()
    if resid > FACTOR_TOL * P.max_norm():
        raise ValueError(f"spectral factorization residual {resid:.3e}")
    return SpectralFactor(Q=Q)


# ---------------------------------------------------------------------------
# standard SLDS construction


def build_standard_slds(R1: PolyMatrix, R2: PolyMatrix) -> StandardSlds:
    """Nested state maps, Pi and the standard gluing pairs for (R1, R2)."""
    if R1.shape != R2.shape or R1.rows != R1.cols:
        raise ValueError("R1 and R2 must be square with equal sizes")
    w = R1.cols
    for k, R in enumerate((R1, R2), start=1):
        check_mode(k, R)
    if not is_strictly_proper(R2, R1):
        raise ValueError(
            "R2 R1^{-1} is not strictly proper; the biproper case is out of scope"
        )
    X2, Xc = minimal_state_map(R2), minimal_state_map(R1)
    n1, n2 = Xc.rows, X2.rows
    if n1 - n2 != w:
        raise ValueError(
            f"state-dimension gap n1-n2 = {n1 - n2} differs from w = {w}; "
            "the input pair does not admit a standard construction"
        )
    # X2 = S Xc modulo R1 (Xc is state_coordinates' basis); extend X2 by the
    # rows of Xc that a pivoted QR of S leaves out
    S = state_coordinates([X2], R1)
    r, piv = scipy.linalg.qr(S, mode="r", pivoting=True)
    d = np.abs(np.diag(r))
    if d[-1] <= 1e-10 * d[0]:  # relative, as the feed-through test below
        raise ValueError(
            "mode 2's state map X2 is rank-deficient in mode 1's state coordinates"
        )
    X1p = vstack([Xc.row(i) for i in sorted(piv[n2:])])
    X1 = vstack([X2, X1p])
    Pi = state_coordinates([X1p], R2)  # X2 is R2's minimal state map
    PiX2 = PolyMatrix(Pi[None, :, :]) @ X2
    gluing = {
        (2, 1): (vstack([X2, PiX2]), X1),
        (1, 2): (X2, X2),
    }
    model = SldsModel(modes=[R1, R2], gluing=gluing, state_maps=[X1, X2])
    # feed-through K = lim xi X1p R1^{-1}: xi X1 = A1 X1 + B1 R1 with
    # X1 R1^{-1} strictly proper, so K is B1 on the X1p rows
    K = model.realizations[0].B[n2:]
    sv = np.linalg.svd(K, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:  # relative: K of (c R1, c R2) is K / c
        raise ValueError("feed-through matrix K is singular")
    return StandardSlds(
        R1=R1, R2=R2, X1=X1, X2=X2, X1p=X1p, Pi=Pi, K=K, model=model
    )


# ---------------------------------------------------------------------------
# storage-function MLF (algebraic route)


def _check_dissipation(s: StandardSlds, K1: np.ndarray) -> None:
    """Raise unless ``A1^T K1 + K1 A1 = -Qbar^T Qbar`` and ``B1^T K1 = H`` hold
    within ``FACTOR_TOL`` of the terms each sums.  Together they make
    ``Qbar X1`` a strictly proper factor of the boundary form and give
    ``Psi_12 = -Pi^T Psi_22`` (``B1 = col(0, K)``, ``H_2 = -H_p Pi``).  A
    factor with no rows leaves ``K1 = 0``, which misses ``H`` by all of it."""
    A, B = s.model.realizations[0].A, s.model.realizations[0].B
    Qbar, H = s.supply
    gap = 0.0
    for resid, terms in (
        (A.T @ K1 + K1 @ A + Qbar.T @ Qbar,
         (abs(A.T) @ abs(K1), abs(K1) @ abs(A), abs(Qbar.T) @ abs(Qbar))),
        (B.T @ K1 - H, (abs(B.T) @ abs(K1), abs(H))),
    ):
        r = np.abs(resid).max(initial=0.0)
        if r > 0.0:  # then some term is nonzero
            gap = max(gap, r / max(t.max(initial=0.0) for t in terms))
    if gap > FACTOR_TOL:
        raise ValueError(f"storage kernel fails the dissipation equality ({gap:.1e})")


def mlf_from_positive_real(s: StandardSlds) -> MlfCertificate:
    """Storage-function MLF for a standard SLDS with SPR ``R2 R1^{-1}``."""
    if not all(modes_hurwitz(s.model)):
        raise ValueError("both modes must be Hurwitz")
    ok, witness = s.spr
    if not ok:
        raise ValueError(f"R2 R1^-1 is not strictly positive real: {witness}")
    Qbar, _ = s.supply
    K1 = scipy.linalg.solve_lyapunov(s.model.realizations[0].A.T, -Qbar.T @ Qbar)
    K1 = 0.5 * (K1 + K1.T)
    _check_dissipation(s, K1)
    L = s.model.reinits[(2, 1)].L
    K2 = L.T @ K1 @ L
    K2 = 0.5 * (K2 + K2.T)
    return make_certificate(s.model, "posreal", [K1, K2], solver={"iterations": 0, "budget": 0})


# ---------------------------------------------------------------------------
# positive-real completion


def positive_real_completion(s: StandardSlds, cert: MlfCertificate) -> PolyMatrix:
    """Completion ``M`` with ``M R2 R1^{-1}`` strictly positive real: ``M = I``.

    The closed form ``M = H_p P`` (``H_p`` the ``X1'`` block of ``H``, ``P``
    the polynomial part of ``X1' R2^{-1}``) is ``I`` for every standard pair:

    - ``X1' = P R2 + Pi X2`` exactly;
    - ``R2 = H X1`` exactly, because ``R2 R1^{-1}`` is strictly proper;
    - so ``(I - H_p P) R2 = (H_2 + H_p Pi) X2``: the left side is a polynomial
      multiple of ``R2`` and the right side is strictly proper against it, so
      both are 0.

    ``M R2 R1^{-1}`` is then ``R2 R1^{-1}``, whose SPR verdict is
    :attr:`StandardSlds.spr`.  The certificate's ``K1`` must pass the
    dissipation equality.
    """
    # hypothesis: R2 R1^-1 is SPR, so the dissipation rate has full rank on the axis
    ok, witness = s.spr
    if not ok:
        raise ValueError(f"the completion hypothesis fails: {witness}")
    _check_dissipation(s, np.asarray(cert.kernels[0], dtype=float))
    return PolyMatrix.identity(s.R2.rows)
