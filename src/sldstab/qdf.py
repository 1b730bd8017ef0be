"""Two-variable polynomial matrices and quadratic differential forms: the
tests' reference for the storage function, which no command calls (the
positive-real route works in mode 1's state coordinates).  A symmetric two-variable polynomial matrix ``Phi(z, e) = sum Phi_hk z^h e^k``
is stored as a square grid of real ``w x w`` coefficient blocks.  Its
quadratic differential form acts on a trajectory through the stack of
derivatives ``w, w', w'', ...``.

Read flat (:meth:`TwoVarForm.flat`), the grid is the coefficient matrix of
Willems and Trentelman: ``Phi(z, e) = Z^T flat E`` with ``Z, E`` the monomial
stacks.  A product form ``M(z)^T S N(e)`` is therefore ``Ma^T S Na`` over the
one-variable coefficient stacks ``Ma = M.stack(g)``, ``Na = N.stack(g)`` of
:meth:`PolyMatrix.stack`, and every form here is built that way.
"""

from __future__ import annotations

import numpy as np

from .polymat import PolyMatrix, canonical_rep

CANONICAL_RESIDUAL_TOL = 1e-9
DIVIDE_TOL = 1e-9  # remainder of divide_by_zeta_plus_eta, relative to the form


class TwoVarForm:
    """Symmetric two-variable polynomial matrix.

    ``blocks[h, k]`` is the ``w x w`` real matrix multiplying ``z^h e^k``.
    Symmetry ``Phi_hk = Phi_kh^T`` is enforced by symmetrization at
    construction.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        b = np.asarray(blocks, dtype=float)
        if b.ndim != 4:
            raise ValueError("expected blocks of shape (m, m, w, w)")
        if b.shape[0] != b.shape[1] or b.shape[2] != b.shape[3]:
            raise ValueError("block grid and blocks must be square")
        b = 0.5 * (b + np.transpose(b, (1, 0, 3, 2)))
        # trim trailing all-zero grid rows/columns
        m = b.shape[0]
        while m > 1 and not np.any(b[m - 1, :, :, :]) and not np.any(b[:, m - 1, :, :]):
            m -= 1
        self.blocks = b[:m, :m].copy()

    @classmethod
    def from_flat(cls, flat: np.ndarray, w: int) -> "TwoVarForm":
        """Inverse of :meth:`flat`: unflatten a ``w(m) x w(m)`` matrix."""
        n = flat.shape[0] // w
        b = np.asarray(flat, dtype=float).reshape(n, w, n, w)
        return cls(b.transpose(0, 2, 1, 3))

    @property
    def w(self) -> int:
        return self.blocks.shape[2]

    @property
    def grid(self) -> int:
        """Number of powers present per variable (degree + 1)."""
        return self.blocks.shape[0]

    def flat(self, grid: int | None = None) -> np.ndarray:
        """Flattened symmetric coefficient matrix in the monomial-stack basis.

        Row-block h / column-block k holds ``Phi_hk``; optionally zero-padded
        to a larger grid.
        """
        m = self.grid if grid is None else grid
        if m < self.grid:
            raise ValueError("grid smaller than the form's degree")
        return self.pad(m).transpose(0, 2, 1, 3).reshape(m * self.w, m * self.w)

    def pad(self, grid: int) -> np.ndarray:
        b = np.zeros((grid, grid, self.w, self.w))
        b[: self.grid, : self.grid] = self.blocks
        return b

    def __add__(self, other: "TwoVarForm") -> "TwoVarForm":
        if self.w != other.w:
            raise ValueError("variable-count mismatch")
        m = max(self.grid, other.grid)
        return TwoVarForm(self.pad(m) + other.pad(m))

    def __neg__(self):
        return TwoVarForm(-self.blocks)

    def __sub__(self, other):
        return self + (-other)

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.blocks)))

    def __repr__(self):
        return f"TwoVarForm(w={self.w}, grid={self.grid})"


def sandwich(X: PolyMatrix, K: np.ndarray) -> TwoVarForm:
    """The form ``X(z)^T K X(e)`` for a polynomial matrix X and constant K."""
    Xa = X.stack()
    return TwoVarForm.from_flat(Xa.T @ K @ Xa, X.cols)


def two_var_product(M: PolyMatrix, N: PolyMatrix, signs: np.ndarray | None = None) -> TwoVarForm:
    """The form ``M(z)^T S N(e)`` with optional diagonal sign matrix S."""
    g = max(M.coeffs.shape[0], N.coeffs.shape[0])
    S = np.eye(M.rows) if signs is None else np.diag(signs)
    return TwoVarForm.from_flat(M.stack(g).T @ S @ N.stack(g), M.cols)


def qdf_derivative(psi: TwoVarForm) -> TwoVarForm:
    """The coefficient form of ``d/dt Q_psi``, i.e. ``(z + e) psi``."""
    m = psi.grid + 1
    b = np.zeros((m, m, psi.w, psi.w))
    b[1:, : psi.grid] += psi.blocks  # z * psi
    b[: psi.grid, 1:] += psi.blocks  # e * psi
    return TwoVarForm(b)


def _factor_flat(psi: TwoVarForm) -> tuple[PolyMatrix, np.ndarray]:
    """Rank-revealing symmetric factorization ``psi = M(z)^T S M(e)``.

    Eigendecomposition of the flattened coefficient matrix; ``M`` collects the
    scaled eigenvector rows as a polynomial matrix, ``S`` the eigenvalue signs.
    """
    flat = psi.flat()
    lam, U = np.linalg.eigh(flat)
    scale = np.max(np.abs(lam)) if lam.size else 0.0
    keep = np.abs(lam) > 1e-12 * max(scale, 1.0)
    lam, U = lam[keep], U[:, keep]
    rowsc = np.sqrt(np.abs(lam))[:, None] * U.T  # r x (grid*w)
    return PolyMatrix.from_stack(rowsc, psi.w), np.sign(lam)


def qdf_mod(phi: TwoVarForm, R: PolyMatrix) -> TwoVarForm:
    """R-canonical representative of a two-variable form.

    Factors ``phi = M(z)^T S M(e)``, reduces ``M`` modulo ``R`` row-wise and
    re-multiplies.
    """
    if R.cols != phi.w:
        raise ValueError("variable-count mismatch between form and R")
    M, signs = _factor_flat(phi)
    if M.rows == 0:
        return TwoVarForm(np.zeros((1, 1, phi.w, phi.w)))
    Mred = canonical_rep(M, R)
    return two_var_product(Mred, Mred, signs)


def to_canonical(psi: TwoVarForm, X: PolyMatrix) -> np.ndarray:
    """Symmetric kernel ``K`` writing an R-canonical form as ``X(z)^T K X(e)``.

    The inverse of :func:`sandwich` over the same stack ``Xa = X.stack(g)``:
    solves ``Xa^T K Xa = psi.flat(g)`` by least squares and rejects if the
    reconstruction residual exceeds the canonical tolerance, which signals
    that ``psi`` is not expressible over the given state map.
    """
    if X.cols != psi.w:
        raise ValueError("variable-count mismatch between form and state map")
    grid = max(psi.grid, X.coeffs.shape[0])
    Xa = X.stack(grid)
    target = psi.flat(grid)
    Xp = np.linalg.pinv(Xa)
    K = Xp.T @ target @ Xp
    K = 0.5 * (K + K.T)
    resid = np.max(np.abs(Xa.T @ K @ Xa - target))
    scale = max(1.0, psi.max_norm())
    if resid > CANONICAL_RESIDUAL_TOL * scale:
        raise ValueError(
            f"form is not expressible over the state map (residual {resid:.3e})"
        )
    return K


def eval_along_trajectory(psi: TwoVarForm, derivs) -> float:
    """Value of the QDF at one time instant.

    ``derivs`` stacks the trajectory value and its derivatives row-wise:
    ``derivs[j]`` is the j-th derivative, a vector of length w.
    """
    D = np.asarray(derivs, dtype=float)
    if D.ndim == 1:
        D = D[None, :]
    if D.shape[1] != psi.w:
        raise ValueError(f"trajectory has {D.shape[1]} variables, form has {psi.w}")
    if D.shape[0] < psi.grid:
        raise ValueError(
            f"need {psi.grid} derivative levels, got {D.shape[0]}"
        )
    d = D[: psi.grid].reshape(-1)
    return float(d @ psi.flat() @ d)


def divide_by_zeta_plus_eta(phi: TwoVarForm) -> TwoVarForm:
    """Exact division ``psi = phi / (z + e)`` on the coefficient grid.

    Back-substitution along anti-diagonals; raises if the remainder exceeds
    ``DIVIDE_TOL`` times the coefficient scale.
    """
    m = phi.grid
    w = phi.w
    if m < 2:
        if phi.max_norm() == 0.0:
            return TwoVarForm(np.zeros((1, 1, w, w)))
        raise ValueError("form is not divisible by (zeta + eta)")
    p = m - 1
    B = phi.pad(m)
    psi = np.zeros((p, p, w, w))
    # phi_hk = psi_{h-1,k} + psi_{h,k-1}; sweep k ascending, h descending.
    for k in range(p):
        for h in range(p - 1, -1, -1):
            acc = B[h + 1, k].copy()
            if k > 0:
                acc -= psi[h + 1, k - 1] if h + 1 < p else 0.0
            psi[h, k] = acc
    out = TwoVarForm(psi)
    resid = (qdf_derivative(out) - phi).max_norm()
    if resid > DIVIDE_TOL * max(1.0, phi.max_norm()):
        raise ValueError(f"form is not divisible by (zeta + eta) (residual {resid:.3e})")
    return out


def two_var_from_pair(A: PolyMatrix, B: PolyMatrix) -> TwoVarForm:
    """The symmetric form ``A(z)^T B(e) + B(z)^T A(e)``."""
    g = max(A.coeffs.shape[0], B.coeffs.shape[0])
    Aa, Ba = A.stack(g), B.stack(g)
    return TwoVarForm.from_flat(Aa.T @ Ba + Ba.T @ Aa, A.cols)
