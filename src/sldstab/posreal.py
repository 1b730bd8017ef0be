"""Positive-realness route to stability of two-mode switched systems.

For a pair of kernel representations with ``R2 R1^{-1}`` strictly proper, the
state space of mode 2 nests inside that of mode 1.  The *standard* gluing
conditions transport states through that nesting, and strict positive realness
of ``R2 R1^{-1}`` then yields a multiple Lyapunov function algebraically: a
spectral factor ``Q`` of the boundary form gives the storage function

    Psi_1 = (R1(z)^T R2(e) + R2(z)^T R1(e) - Q(z)^T Q(e)) / (z + e)

for mode 1, and ``Psi_2 = Psi_1 mod R2`` for mode 2.  In state coordinates
``Psi_1 = X1(z)^T K1 X1(e)``, and ``Psi_2`` is ``K2 = L21^T K1 L21`` with
``L21 = col(I, Pi)`` the 2 -> 1 re-initialisation map, so the 2 -> 1 switch
condition holds with equality.  Conversely a valid MLF of this structure
produces a strictly positive-real completion ``M`` with ``M R2 R1^{-1}`` SPR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mlf import MlfCertificate, make_certificate
from .model import SldsModel, check_mode
from .polymat import (
    HURWITZ_TOL,
    MINUS_INF,
    Poly,
    PolyMatrix,
    determinant,
    is_hurwitz,
    is_strictly_proper,
    poly_roots,
    polynomial_part,
    vstack,
)
from .qdf import (
    divide_by_zeta_plus_eta,
    qdf_derivative,
    sandwich,
    to_canonical,
    two_var_from_pair,
    two_var_product,
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
    K: np.ndarray  # lim xi X1p R1^{-1} (constant feed-through)
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
    def spectral_factor(self) -> PolyMatrix:
        """``Q`` with ``Q(-xi)^T Q(xi)`` equal to :attr:`boundary`."""
        return spectral_factorize(self.boundary, self.R1).Q


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
    """Closed-right-half-plane roots of det D surviving gcd reduction."""
    rts = poly_roots(D.det)
    bad = [r for r in rts if r.real > -HURWITZ_TOL]
    if not bad:
        return []
    G = N @ D.adj
    poles = []
    # multiplicity of each candidate in det D
    for lam in bad:
        mult = sum(1 for r in rts if abs(r - lam) <= 1e-7 * max(1.0, abs(lam)))
        cancelled = True
        for i in range(G.rows):
            for j in range(G.cols):
                e = G.entry(i, j)
                if e.is_zero():
                    continue
                hits = sum(
                    1
                    for r in poly_roots(e)
                    if abs(r - lam) <= 1e-6 * max(1.0, abs(lam))
                )
                if hits < mult:
                    cancelled = False
        if not cancelled:
            poles.append(lam)
    return poles


def is_strictly_positive_real(N: PolyMatrix, D: PolyMatrix) -> tuple[bool, dict]:
    """SPR test for ``G = N D^{-1}`` with a witness on failure.

    Checks analyticity in the closed right half-plane (uncancelled poles)
    and strict positivity of the boundary polynomial at ``omega = 0``
    together with absence of imaginary-axis roots of its determinant.
    """
    if D.rows != D.cols:
        raise ValueError("D must be square")
    try:
        D.det
    except ValueError:
        raise ValueError("D is singular") from None
    return _spr_verdict(N, D, para_hermitian_boundary(N, D))


def _spr_verdict(N: PolyMatrix, D: PolyMatrix, P: PolyMatrix) -> tuple[bool, dict]:
    """``is_strictly_positive_real`` given the boundary form ``P`` of (N, D)."""
    poles = _uncancelled_rhp_poles(N, D)
    if poles:
        return False, {"reason": "pole in closed right half-plane", "pole": poles[0]}
    P0 = 0.5 * (P(0.0) + P(0.0).T)
    lam0 = np.linalg.eigvalsh(P0)
    scale = max(1.0, P.max_norm())
    if lam0[0] <= AXIS_TOL * scale:
        return False, {"reason": "boundary form not positive definite", "omega": 0.0}
    detP = determinant(P)
    if detP.is_zero():
        return False, {"reason": "boundary determinant identically zero", "omega": None}
    if detP.degree > 0:
        for r in poly_roots(detP):
            if abs(r.real) <= AXIS_TOL * max(1.0, abs(r)):
                return False, {
                    "reason": "boundary form singular on the imaginary axis",
                    "omega": float(r.imag),
                }
    return True, {}


# ---------------------------------------------------------------------------
# spectral factorization


def _scalar_factor(p: Poly, R1: PolyMatrix) -> PolyMatrix:
    """Root-splitting factorization of an even scalar ``p(xi) = q(-xi)q(xi)``.

    From each ``{lam, -lam}`` root pair, picks the root keeping
    ``col(R1(lam), q(lam))`` full rank; ties break toward the left half-plane.
    """
    if p.degree == MINUS_INF:
        raise ValueError("cannot factor the zero polynomial")
    deg = int(p.degree)
    if deg % 2 != 0:
        raise ValueError("boundary polynomial has odd degree")
    m = deg // 2
    lead = p.coeffs[-1] * (-1.0) ** m
    if lead <= 0:
        raise ValueError("boundary polynomial is indefinite (negative at infinity)")
    if m == 0:
        if p.coeffs[0] <= 0:
            raise ValueError("boundary polynomial is indefinite")
        return PolyMatrix.from_entries([[Poly([np.sqrt(p.coeffs[0])])]])
    rts = list(poly_roots(p))
    d1 = R1.det
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
        if abs(d1(pick)) <= 1e-7 * max(1.0, d1.coeffs[-1]) and abs(
            d1(other)
        ) > 1e-7 * max(1.0, d1.coeffs[-1]):
            pick = other
        chosen.append(pick)
    qm = np.sqrt(lead)
    coeffs = qm * np.poly(chosen)[::-1]  # ascending
    if np.max(np.abs(coeffs.imag)) > 1e-7 * max(1.0, np.max(np.abs(coeffs))):
        raise ValueError("root selection produced a non-real factor")
    return PolyMatrix(coeffs.real[:, None, None])


def _gram_factor(P: PolyMatrix, R1: PolyMatrix) -> PolyMatrix:
    """Matrix spectral factor ``Q = Qbar X1`` over the mode-1 state map.

    With ``X1 = minimal_state_map(R1) = sum_i X_i xi^i``, searches a PSD Gram
    matrix ``G = Qbar^T Qbar`` (``n1 x n1``) with
    ``sum_{i+j=k} (-1)^i X_i^T G X_j = P_k`` for every ``k``, then factors it.
    The rows of ``Q`` are combinations of state rows, so ``Q R1^{-1}`` is
    strictly proper by construction; ``Q`` has ``rank G`` rows.  This is the
    Gram-matrix method (Choi, Lam & Reznick 1995) in the state basis of the
    QDF calculus (Willems & Trentelman, SIAM J. Control Optim. 36(5), 1998).
    """
    X1 = minimal_state_map(R1)
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
    return PolyMatrix(Qbar[None]) @ X1


def spectral_factorize(P: PolyMatrix, R1: PolyMatrix) -> SpectralFactor:
    """Factor a para-Hermitian boundary form as ``P(xi) = Q(-xi)^T Q(xi)``.

    ``Q R1^{-1}`` is strictly proper, as the storage function of mode 1
    needs.  A scalar ``P`` is split at its roots into a one-row ``Q``; for
    ``w >= 2`` one Gram LMI over the mode-1 state map gives ``rank G`` rows.
    An indefinite ``P`` has no factor (``|Q(j w)|^2 >= 0``) and is rejected.
    """
    if P.rows != P.cols or R1.shape != P.shape:
        raise ValueError("boundary form and R1 must be square of equal size")
    if P.cols == 1:
        Q = _scalar_factor(P.entry(0, 0), R1)
    else:
        Q = _gram_factor(P, R1)
    resid = ((Q.subs_neg().T @ Q) - P).max_norm()
    if resid > FACTOR_TOL * max(1.0, P.max_norm()):
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
    n1 = int(R1.det.degree)
    n2 = int(R2.det.degree)
    if n1 - n2 != w:
        raise ValueError(
            f"state-dimension gap n1-n2 = {n1 - n2} differs from w = {w}; "
            "the input pair does not admit a standard construction"
        )
    X2 = minimal_state_map(R2)
    if not is_strictly_proper(X2, R1):
        raise ValueError("mode-2 state rows are not states of mode 1")
    # extend X2 to a minimal state map of mode 1 with rows from its own map
    Xc = minimal_state_map(R1)
    grid = int(max(Xc.degree, X2.degree, 0)) + 1
    base = X2.stack(grid)
    picked = []
    rank = np.linalg.matrix_rank(base)
    stack = base
    for i in range(Xc.rows):
        cand = Xc.row(i).stack(grid)
        trial = np.vstack([stack, cand])
        r = np.linalg.matrix_rank(trial)
        if r > rank:
            rank = r
            stack = trial
            picked.append(Xc.row(i))
        if rank == n1:
            break
    if len(picked) != n1 - n2:
        raise ValueError("failed to extend the mode-2 state basis to mode 1")
    X1p = vstack(picked)
    X1 = vstack([X2, X1p])
    (Pi,) = express_in_state_basis([X1p], R2, X2)
    # constant feed-through K = lim xi X1p R1^{-1}
    xi = Poly([0.0, 1.0])
    Kmat = polynomial_part(X1p.scale(xi), R1)
    if Kmat.degree > 0:
        raise ValueError("xi X1' R1^{-1} is not proper")
    K = Kmat.coeffs[0]
    if abs(np.linalg.det(K)) <= 1e-10:
        raise ValueError("feed-through matrix K is singular")
    PiX2 = PolyMatrix(Pi[None, :, :]) @ X2
    gluing = {
        (2, 1): (vstack([X2, PiX2]), X1),
        (1, 2): (X2, X2),
    }
    model = SldsModel(modes=[R1, R2], gluing=gluing, state_maps=[X1, X2])
    return StandardSlds(
        R1=R1, R2=R2, X1=X1, X2=X2, X1p=X1p, Pi=Pi, K=K, model=model
    )


# ---------------------------------------------------------------------------
# storage-function MLF (algebraic route)


def mlf_from_positive_real(s: StandardSlds) -> MlfCertificate:
    """Storage-function MLF for a standard SLDS with SPR ``R2 R1^{-1}``."""
    if not is_hurwitz(s.R1) or not is_hurwitz(s.R2):
        raise ValueError("both modes must be Hurwitz")
    ok, witness = s.spr
    if not ok:
        raise ValueError(f"R2 R1^-1 is not strictly positive real: {witness}")
    Q = s.spectral_factor
    if not is_strictly_proper(Q, s.R1):
        raise ValueError("spectral factor Q R1^{-1} is not strictly proper")
    phi = two_var_from_pair(s.R1, s.R2)
    psi1 = divide_by_zeta_plus_eta(phi - two_var_product(Q, Q))
    K1 = to_canonical(psi1, s.X1)
    L = s.model.reinits[(2, 1)].L
    K2 = L.T @ K1 @ L
    K2 = 0.5 * (K2 + K2.T)
    n2 = s.n2
    # structural identity of the storage kernel: Psi_12 = -Pi^T Psi_22
    P12 = K1[:n2, n2:]
    P22 = K1[n2:, n2:]
    berr = np.max(np.abs(P12 + s.Pi.T @ P22))
    if berr > 1e-7 * max(1.0, np.max(np.abs(K1))):
        raise ValueError(f"storage kernel violates the block structure ({berr:.3e})")
    return make_certificate(
        s.model, "posreal", [K1, K2], solver={"iterations": 0, "budget": 0}
    )


# ---------------------------------------------------------------------------
# positive-real completion


def positive_real_completion(s: StandardSlds, cert: MlfCertificate) -> PolyMatrix:
    """Completion ``M`` with ``M R2 R1^{-1}`` strictly positive real.

    Uses the closed form ``M = K^T Psi_22 P`` where ``P`` is the polynomial
    part of ``X1' R2^{-1}``; validated by reconstructing the dissipation
    identity and re-running the SPR check on ``M R2 R1^{-1}``.
    """
    K1 = np.asarray(cert.kernels[0], dtype=float)
    n2 = s.n2
    P22 = K1[n2:, n2:]
    # hypothesis: R2 R1^-1 is SPR, so the dissipation rate has full rank on the axis
    ok, witness = s.spr
    if not ok:
        raise ValueError(f"the completion hypothesis fails: {witness}")
    Ppoly = polynomial_part(s.X1p, s.R2)
    Mconst = s.K.T @ P22
    M = PolyMatrix(Mconst[None, :, :]) @ Ppoly
    # reconstruct (z+e)Psi1 = -Q^T Q + V(z)^T R1(e) + R1(z)^T V(e), V = M R2
    Q = s.spectral_factor
    V = M @ s.R2
    lhs = qdf_derivative(sandwich(s.X1, K1))
    rhs = two_var_from_pair(V, s.R1) - two_var_product(Q, Q)
    resid = (lhs - rhs).max_norm()
    if resid > 1e-7 * max(1.0, lhs.max_norm()):
        raise ValueError(f"completion identity residual {resid:.3e}")
    if not check_completion(M, s.R2, s.R1):
        raise ValueError("computed M fails the SPR completion check")
    return M


def check_completion(M: PolyMatrix, R2: PolyMatrix, R1: PolyMatrix) -> bool:
    """True iff ``M R2 R1^{-1}`` is strictly positive real."""
    ok, _ = is_strictly_positive_real(M @ R2, R1)
    return ok
