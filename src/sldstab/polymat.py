"""Real polynomial matrices in one variable ``xi``; a scalar polynomial is a
``1 x 1`` matrix.

Coefficients are stored ascending (index i holds the coefficient of
``xi**i``) in double precision.  Every matrix is trimmed against a global
relative tolerance and treated as immutable; every operation returns a new
object.  A non-finite coefficient, such as an overflowed product or sum, is
an error (:class:`NonFiniteError`), not a trimmed zero.  A :class:`PolyMatrix`
keeps its coefficients read-only, so the column reduction ``R U = R'`` it
caches never goes stale.  Everything modulo ``R`` is read off that one
reduction, and the package divides no polynomial matrix by another:
:func:`is_strictly_proper` compares the column degrees of ``N U`` with those
of ``R'``, :func:`minimal_state_map` is the rows of ``U^{-1}`` shifted below
them, and the companion data of ``R'`` give the state coordinates of any row
block (:func:`state_coordinates`) and so its :func:`canonical_rep`.  A
nonzero scalar is column reduced as it stands, so its reduction is closed
form: ``R' = R``, ``U`` the identity that every such matrix shares, and
``R'_hc^{-1}`` the reciprocal of its leading coefficient.  The
``A_c`` of ``R'`` has the roots of ``det R`` as its eigenvalues
(:attr:`PolyMatrix.det_roots`).  The Leibniz :func:`determinant`,
a ``1 x 1`` matrix, and :func:`poly_roots` of one are references for the
tests; no command calls them.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

# Relative trimming tolerance for coefficient arrays.  Kept well below the
# smallest genuine coefficient ratios seen in physically scaled models
# (circuit determinants legitimately span ~10 decades) while still above
# double-precision cancellation noise.
TRIM_TOL = 1e-13
# Absolute tolerance on real parts for the Hurwitz tests.
HURWITZ_TOL = 1e-9
# Steps after which column_reduce gives up: each step lowers a column degree.
COLUMN_REDUCE_MAX_ITER = 200

MINUS_INF = float("-inf")


class NonFiniteError(ValueError):
    """A coefficient is infinite or NaN, as when a product overflows."""


def _coeff_list(e) -> list:
    if isinstance(e, list):
        return e
    return np.atleast_1d(np.asarray(e, dtype=float)).tolist()


def _stack_entries(grid) -> np.ndarray:
    """Coefficient stack ``(degree + 1, rows, cols)`` of a nested entry list,
    filled by one ``np.array`` call over the zero-padded entries."""
    rows, cols = len(grid), len(grid[0])
    if any(len(row) != cols for row in grid):
        raise ValueError("polynomial matrix rows differ in length")
    entries = [_coeff_list(e) for row in grid for e in row]
    deg = max(map(len, entries))
    flat = np.array([e + [0.0] * (deg - len(e)) for e in entries], dtype=float)
    return flat.reshape(rows, cols, deg).transpose(2, 0, 1)


class _Reduction(NamedTuple):
    """``R U = R'``: ``R'``, ``U``, ``U^{-1}``, ``R'``'s column degrees and
    the companion data ``A_c``, ``B_c``, ``O`` of ``R'`` (:func:`column_reduce`)."""

    Rp: "PolyMatrix"
    U: "PolyMatrix"
    Uinv: "PolyMatrix"
    degrees: tuple[int, ...]
    Ac: np.ndarray
    Bc: np.ndarray
    O: np.ndarray


class PolyMatrix:
    """A rectangular matrix with real polynomial entries; a ``1 x 1`` matrix
    is the package's scalar polynomial (:meth:`entry`, :func:`determinant`).

    Internally a single float array ``coeffs`` of shape
    ``(degree + 1, rows, cols)``; slice ``coeffs[i]`` is the constant matrix
    multiplying ``xi**i``.  :meth:`stack` lays the same coefficients side by
    side, ``[M_0 ... M_{g-1}]``, the one layout in which state maps, kernels
    and two-variable forms are matched coefficient by coefficient;
    :meth:`from_stack` reads it back.

    All work modulo a square ``R`` reads its column reduction
    ``R U = R'`` (:func:`column_reduce`), which is computed at first use and
    kept on the matrix, so a matrix reduced many times (a model's mode) pays
    for it once; so are the roots of ``det R`` (:attr:`det_roots`), the
    eigenvalues of its ``A_c``.  ``coeffs`` is read-only, so neither can go
    stale.
    """

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim == 2:
            c = c[None, :, :]
        if c.ndim != 3:
            raise ValueError("expected array of shape (deg+1, rows, cols)")
        # one pass: |c|, its maximum per degree and overall; the trailing
        # degrees at most TRIM_TOL * scale are cut, the rest masked
        a = np.abs(c)
        top = a.max(axis=(1, 2), initial=0.0)
        scale = top.max(initial=0.0)
        if not math.isfinite(scale):
            raise NonFiniteError(f"non-finite coefficient (largest |c| = {scale})")
        cut = TRIM_TOL * scale
        end = len(top)
        for t in reversed(top.tolist()):
            if t > cut:
                break
            end -= 1
        out = np.zeros((max(end, 1),) + c.shape[1:])
        np.copyto(out[:end], c[:end], where=a[:end] > cut)
        out.flags.writeable = False
        self.coeffs = out

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_entries(cls, grid) -> "PolyMatrix":
        """Build from a nested list of entries, each a list of ascending
        coefficients or a scalar.

        The entries are stacked untrimmed; the matrix-wide trim of ``__init__``
        zeroes every coefficient a per-entry trim would drop.
        """
        return cls(_stack_entries(grid))

    @classmethod
    def from_stack(cls, stack: np.ndarray, cols: int) -> "PolyMatrix":
        """Inverse of :meth:`stack`: read ``[M_0 ... M_{g-1}]`` with ``cols``
        columns per coefficient block."""
        s = np.asarray(stack, dtype=float)
        rows = s.shape[0]
        return cls(s.reshape(rows, s.shape[1] // cols, cols).transpose(1, 0, 2))

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls(np.eye(n)[None, :, :])

    # -- basic queries ----------------------------------------------------

    @property
    def rows(self) -> int:
        return self.coeffs.shape[1]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def degree(self) -> float:
        if self.is_zero():
            return MINUS_INF
        return float(self.coeffs.shape[0] - 1)

    def is_zero(self) -> bool:
        return self.coeffs.shape[0] == 1 and not np.any(self.coeffs)

    @cached_property
    def det_roots(self) -> np.ndarray:
        """The roots of ``det R``, read-only: the eigenvalues of ``A_c``, since
        ``det R' = det H det(xi I - A_c)`` for the column-reduced
        ``R' = R U = H diag(xi^d_j) + L_c Psi`` (Kailath, *Linear Systems*,
        1980, sections 6.3-6.4).  Raises as :func:`column_reduce` does."""
        r = np.linalg.eigvals(self._reduction.Ac).astype(complex)
        r.flags.writeable = False
        return r

    @cached_property
    def _reduction(self) -> "_Reduction":
        """:func:`column_reduce` of this matrix; raises if it is not square or is singular."""
        return column_reduce(self)

    def entry(self, i: int, j: int) -> "PolyMatrix":
        """Entry ``(i, j)`` as a ``1 x 1`` matrix, the scalar polynomial."""
        return PolyMatrix(self.coeffs[:, i : i + 1, j : j + 1])

    def stack(self, grid: int | None = None) -> np.ndarray:
        """Coefficient stack ``[M_0 ... M_{grid-1}]``, ``rows x grid*cols``.

        ``grid`` defaults to degree + 1; a larger grid pads with zero blocks.
        """
        d, r, c = self.coeffs.shape
        g = d if grid is None else grid
        if d > g:
            raise ValueError("grid too small for the matrix degree")
        out = np.zeros((r, g * c))
        out[:, : d * c] = self.coeffs.transpose(1, 0, 2).reshape(r, d * c)
        return out

    def __call__(self, x):
        """Evaluate at a (possibly complex) scalar; returns a dense matrix."""
        acc = np.asarray(self.coeffs[-1], dtype=np.result_type(x, float)).copy()
        for k in range(self.coeffs.shape[0] - 2, -1, -1):
            acc = acc * x + self.coeffs[k]
        return acc

    # -- arithmetic -------------------------------------------------------

    def _check_same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"dimension mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_same_shape(other)
        n = max(self.coeffs.shape[0], other.coeffs.shape[0])
        c = np.zeros((n,) + self.shape)
        c[: self.coeffs.shape[0]] += self.coeffs
        with np.errstate(over="ignore", invalid="ignore"):  # the trim rejects an overflow
            c[: other.coeffs.shape[0]] += other.coeffs
        return PolyMatrix(c)

    def __neg__(self):
        return PolyMatrix(-self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
        return PolyMatrix(_matmul(self.coeffs, other.coeffs))

    @property
    def T(self) -> "PolyMatrix":
        return PolyMatrix(np.transpose(self.coeffs, (0, 2, 1)))

    def subs_neg(self) -> "PolyMatrix":
        """Substitute xi -> -xi."""
        c = self.coeffs.copy()
        c[1::2] *= -1.0
        return PolyMatrix(c)

    def row(self, i: int) -> "PolyMatrix":
        return PolyMatrix(self.coeffs[:, i : i + 1, :])

    def max_norm(self) -> float:
        return float(np.abs(self.coeffs).max())

    def __repr__(self):
        return f"PolyMatrix(shape={self.shape}, degree={self.degree})"


def vstack(mats: list[PolyMatrix]) -> PolyMatrix:
    return PolyMatrix(_stack_rows(mats))


def _stack_rows(mats) -> np.ndarray:
    """Untrimmed coefficient array of the matrices stacked row-wise."""
    cols = mats[0].cols
    deg = max(m.coeffs.shape[0] for m in mats)
    rows = sum(m.rows for m in mats)
    c = np.zeros((deg, rows, cols))
    at = 0
    for m in mats:
        c[: m.coeffs.shape[0], at : at + m.rows, :] = m.coeffs
        at += m.rows
    return c


# ---------------------------------------------------------------------------
# coefficient-array kernels
#
# These act on raw coefficient arrays and trim nothing: determinant trims
# only the result it returns.


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two ``(degree + 1, rows, cols)`` stacks, one pass per left degree; an
    overflow leaves a non-finite coefficient for the caller's trim to reject."""
    c = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1], b.shape[2]))
    with np.errstate(over="ignore", invalid="ignore"):
        for i, ai in enumerate(a):
            c[i : i + b.shape[0]] += ai @ b
    return c


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of polynomials along the last axis, broadcast over the others."""
    db = b.shape[-1]
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    c = np.zeros(shape + (a.shape[-1] + db - 1,))
    for i in range(a.shape[-1]):
        c[..., i : i + db] += a[..., i : i + 1] * b
    return c


@cache
def _permutations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every permutation of ``range(n)`` as a row, and its sign."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    i, j = np.triu_indices(n, 1)
    signs = np.where(np.sum(perms[:, i] > perms[:, j], axis=1) % 2, -1.0, 1.0)
    perms.flags.writeable = signs.flags.writeable = False  # shared by every call
    return perms, signs


def _leibniz(c: np.ndarray) -> np.ndarray:
    """Determinants of a batch ``(..., n, n, D)`` of polynomial matrices.

    The Leibniz sum over all ``n!`` permutations: for each, the product of
    its ``n`` entries along the last (coefficient) axis, then one signed sum.
    Returns ``(..., n * (D - 1) + 1)`` ascending coefficients.  An overflow
    leaves an infinite or NaN coefficient, which the caller's trim rejects
    (:class:`NonFiniteError`).
    """
    n = c.shape[-2]
    perms, signs = _permutations(n)
    factors = c[..., np.arange(n), perms, :]  # (..., n!, n, D)
    prod = factors[..., 0, :]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n):
            prod = _polymul(prod, factors[..., i, :])
        return signs @ prod


# ---------------------------------------------------------------------------
# determinant


def determinant(R: PolyMatrix) -> PolyMatrix:
    """Exact polynomial determinant, a ``1 x 1`` matrix, by the Leibniz sum
    over permutations.

    The cost grows as ``n!`` in the size ``n``.  The tests compare the
    column reduction's degrees and roots against it; no command calls it.
    """
    if R.rows != R.cols:
        raise ValueError("determinant requires a square matrix")
    return PolyMatrix(_leibniz(R.coeffs.transpose(1, 2, 0))[:, None, None])


def poly_roots(p: PolyMatrix) -> np.ndarray:
    """All complex roots with multiplicity of the ``1 x 1`` polynomial ``p``,
    via balanced companion eigenvalues.

    Conjugate pairing is enforced: roots whose imaginary parts fail to cancel
    within ``1e-8 * |root|`` of their mirror are symmetrized.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined root set")
    if p.degree == 0:
        return np.array([], dtype=complex)
    r = np.roots(p.coeffs[::-1, 0, 0]).astype(complex)
    # Symmetrize against the conjugate multiset.
    r = r[np.lexsort((r.imag, r.real))]
    conj = np.conj(r)
    conj = conj[np.lexsort((conj.imag, conj.real))]
    r = 0.5 * (r + conj)
    r.imag[np.abs(r.imag) < 1e-8 * np.maximum(np.abs(r), 1.0)] = 0.0
    return r


# ---------------------------------------------------------------------------
# column reduction


def column_degrees(R: PolyMatrix) -> list[float]:
    """The degree ``d_j`` of each column; ``-inf`` for a zero column."""
    nz = np.abs(R.coeffs).max(axis=1) > 0  # (degree + 1, cols)
    return np.where(nz.any(axis=0), len(nz) - 1 - nz[::-1].argmax(axis=0), MINUS_INF).tolist()


def _companion(r: np.ndarray, d: tuple[int, ...], hc_inv: np.ndarray) -> tuple:
    """``(A_c, B_c, O)`` of a column-reduced ``R' = H diag(xi^d_j) + L_c Psi``
    with coefficients ``r`` and ``H^{-1} = hc_inv``.

    ``Psi`` has the rows ``xi^k e_j`` (``k < d_j``), ordered by column, then
    power.  Dividing ``R'`` by ``H`` gives
    ``xi^d_j e_j = (H^{-1})_j R' - (H^{-1} L_c)_j Psi``, so
    ``xi Psi = A_c Psi + B_c R'``: ``A_c`` shifts along each chain and ends
    chain ``j`` with the row ``-(H^{-1} L_c)_j``, and ``B_c`` ends it with
    ``(H^{-1})_j``.  ``I = O Psi`` modulo ``R'``: row ``j`` of ``O`` is
    ``e_(j,0)``, or ``-(H^{-1} L_c)_j`` when ``d_j = 0`` (Kailath, *Linear
    Systems*, 1980, section 6.4).
    """
    w, n = len(d), sum(d)
    lower = np.empty((w, n))  # L_c: column (j, k) is column j's coefficient of xi^k
    at = 0
    for j, dj in enumerate(d):
        lower[:, at : at + dj] = r[:dj, :, j].T
        at += dj
    hl = hc_inv @ lower
    Ac, Bc, O = np.eye(n, k=1), np.zeros((n, w)), -hl
    at = 0
    for j, dj in enumerate(d):
        if dj:  # chain j holds the states at, ..., at + dj - 1
            at += dj
            Ac[at - 1], Bc[at - 1] = -hl[j], hc_inv[j]
            O[j] = 0.0
            O[j, at - dj] = 1.0
    return Ac, Bc, O


def state_coordinates(blocks: Sequence[PolyMatrix], R: PolyMatrix) -> np.ndarray:
    """The constant ``F`` with ``G = F Psi U^{-1}`` modulo ``R`` for the
    blocks ``G`` stacked by rows, over ``R``'s column reduction ``R U = R'``.

    ``G U = F Psi`` modulo ``R' = R U``, and ``xi^i I = O A_c^i Psi`` modulo
    ``R'`` (:func:`_companion`), so ``F = sum_i (G U)_i O A_c^i``: one
    product with ``U`` and one with the stacked ``O A_c^i``, no division.
    ``Psi U^{-1}`` is :func:`minimal_state_map`.  No block is trimmed
    against another.
    """
    if any(b.cols != R.rows for b in blocks):
        raise ValueError("dimension mismatch between F and R")
    red = R._reduction
    f = _stack_rows(blocks)
    fu = f if red.Rp is R else _matmul(f, red.U.coeffs)  # R' = R: U = I
    powers = np.empty((len(fu),) + red.O.shape)
    powers[0] = red.O
    for i in range(1, len(fu)):
        powers[i] = powers[i - 1] @ red.Ac
    g, rows, w = fu.shape
    return fu.transpose(1, 0, 2).reshape(rows, g * w) @ powers.reshape(g * w, -1)


@cache
def _identity(n: int) -> PolyMatrix:
    """The ``n x n`` identity, shared as ``U = U^{-1}`` by every matrix that
    is column reduced as it stands; its ``coeffs`` are read-only."""
    return PolyMatrix.identity(n)


def _reduced(
    Rp: PolyMatrix, d: tuple[int, ...], hc_inv: np.ndarray, U=None, Uinv=None
) -> _Reduction:
    """The :class:`_Reduction` of the column-reduced ``R'`` with column
    degrees ``d`` and ``R'_hc^{-1} = hc_inv``; ``U`` and ``U^{-1}`` are
    coefficient stacks, or None for :func:`_identity`.  An ``hc_inv`` that
    leaves double precision is a :class:`NonFiniteError`."""
    if U is None:
        U = Uinv = _identity(len(d))
    else:
        U, Uinv = PolyMatrix(U), PolyMatrix(Uinv)
    if not np.isfinite(hc_inv).all():
        raise NonFiniteError(
            "the leading column matrix has no inverse in double precision; "
            "rescale the mode"
        )
    return _Reduction(Rp, U, Uinv, d, *_companion(Rp.coeffs, d, hc_inv))


def column_reduce(R: PolyMatrix) -> _Reduction:
    """Column reduction ``R' = R U`` with ``U`` unimodular; returns
    ``(R', U, U^{-1}, d, A_c, B_c, O)``, ``d`` the column degrees of ``R'``
    and the last three its companion data (:func:`_companion`), formed with
    ``R'_hc^{-1}``, the inverse of its leading column matrix.

    A nonzero scalar ``r`` of degree ``d`` is column reduced as it stands:
    the trim keeps its leading coefficient ``r_d``, so ``R' = R``,
    ``d = (d,)``, ``R'_hc^{-1} = [1 / r_d]`` and no step or factorization
    is taken.  Every matrix that is column reduced as it stands, of any size,
    shares one cached identity as ``U = U^{-1}``.

    A larger ``R`` repeatedly cancels the highest-column-degree coefficient
    matrix ``G`` along a null direction ``v`` until it becomes nonsingular:
    column ``j*`` becomes ``sum_j v_j xi^(d_j* - d_j) column_j``.  Each
    column carries the size ``s_j`` of the terms it sums: its largest
    coefficient in ``R``, and ``sum_j |v_j| s_j`` over the columns a step
    combines.  A column takes part when its term ``|v_j| s_j`` is not
    negligible against the largest, a measure that does not change when a
    column is scaled, and its ``v_j`` survives the trim of ``E``; ``j*`` is
    the participating column of highest degree, so the pivot ``v_j*`` is
    never zero.  The new column is trimmed against its own ``s_j*``, not
    against the matrix, whose largest coefficient shrinks as the reduction
    cancels: a coefficient within ``1e-11 s_j*`` is rounding left by this
    sum or by the sums it was built from, and leading coefficients within
    ``1e-8 s_j*``, the tolerance at which a term stops taking part, are what
    the declared cancellation leaves.  Both are zeroed, so every step lowers
    a column degree.  ``U`` is the product of these steps ``E``, and
    ``U^{-1}`` that of their closed form inverses, which map column ``j*``
    to ``(e_j* - sum_{j != j*} v_j xi^(d_j* - d_j) e_j) / v_j*``.  A column
    that reduces to zero shows that ``R`` is singular, an error; so is a
    leading column matrix whose inverse leaves double precision
    (:class:`NonFiniteError`).
    """
    if R.rows != R.cols:
        raise ValueError("column reduction requires a square matrix")
    if R.cols == 1:  # a nonzero scalar is column reduced as it stands
        if R.is_zero():
            raise ValueError("matrix is singular (a column reduces to zero)")
        lead = float(R.coeffs[-1, 0, 0])  # nonzero: the trim keeps it
        return _reduced(R, (len(R.coeffs) - 1,), np.array([[1.0 / lead]]))
    n, Rp = R.cols, R
    U = Uinv = None  # the identity until the first step
    size = np.abs(R.coeffs).max(axis=(0, 1))  # s_j, the size of column j's terms
    for _ in range(COLUMN_REDUCE_MAX_ITER):
        degs = np.array(column_degrees(Rp))
        if degs.min() == MINUS_INF:
            raise ValueError("matrix is singular (a column reduces to zero)")
        G = Rp.coeffs[degs.astype(int), :, np.arange(n)].T  # leading column matrix
        _, s, vt = np.linalg.svd(G)  # one SVD: the reducedness test and a null direction
        if s[-1] > 1e-10 * s[0]:  # relative: a column of small scale is not a null one
            d = tuple(int(dj) for dj in degs)
            return _reduced(Rp, d, np.linalg.inv(G), U, Uinv)
        v = vt[-1]
        # E = I with column j* set to sum_j v_j xi^shift_j e_j, trimmed as
        # PolyMatrix(E) would be: its largest entry is 1 (a step has n > 1,
        # so a diagonal 1 remains, and |v_j| <= 1), and each v_j at most
        # TRIM_TOL is dropped
        kept = np.abs(v) > TRIM_TOL
        term = np.abs(v) * size
        active = np.flatnonzero(kept & (term > 1e-8 * term.max()))
        jstar = active[np.argmax(degs[active])]
        shift = (degs[jstar] - degs).astype(int)
        keep = np.flatnonzero(kept & (shift >= 0))
        e = np.zeros((shift[keep].max() + 1, n, n))
        e[0] = np.eye(n)
        e[0, jstar, jstar] = 0.0
        e[shift[keep], keep, jstar] = v[keep]
        einv = e.copy()
        pivot = einv[0, jstar, jstar]
        einv[:, :, jstar] /= -pivot
        einv[0, jstar, jstar] = 1.0 / pivot
        rp = _matmul(Rp.coeffs, e)
        size[jstar] = term[keep].sum()
        col = rp[:, :, jstar]  # the new column, a view
        col[np.abs(col) <= 1e-11 * size[jstar]] = 0.0
        above = np.flatnonzero(np.abs(col).max(axis=1) > 1e-8 * size[jstar])
        col[above[-1] + 1 if above.size else 0 :] = 0.0
        Rp = PolyMatrix(rp)
        # I E = E and E^{-1} I = E^{-1} exactly, so the first step multiplies nothing
        U = e if U is None else _matmul(U, e)
        Uinv = einv if Uinv is None else _matmul(einv, Uinv)
    raise ValueError(
        f"column reduction did not terminate in {COLUMN_REDUCE_MAX_ITER} steps"
    )


# ---------------------------------------------------------------------------
# modulo a nonsingular R, off its column reduction


def minimal_state_map(R: PolyMatrix) -> PolyMatrix:
    """Deterministic minimal state map for ``ker R(d/dt)``.

    Column-reduce ``R`` to ``R' = R U`` with column degrees ``d_j``; the rows
    ``e_j xi^k`` (``k < d_j``) form a basis for ``R'`` and are mapped back
    through ``U^{-1}`` (row ``j`` of ``U^{-1}`` shifted by ``k``).  Rows are
    ordered by (column index, power ascending); there are ``sum d_j`` of them.

    The map is canonical by construction: ``R'`` is column reduced, so
    ``xi^k e_j R'^{-1}`` is strictly proper for ``k < d_j`` (Kailath,
    *Linear Systems*, 1980, section 6.3), and
    ``xi^k e_j U^{-1} R^{-1} = xi^k e_j R'^{-1}``: each row already is its
    own canonical representative modulo ``R``.
    """
    red = R._reduction  # raises if R is not square or is singular
    u = red.Uinv.coeffs
    rows = np.zeros((u.shape[0] + max(red.degrees) - 1, sum(red.degrees), R.cols))
    at = 0
    for j, dj in enumerate(red.degrees):
        for k in range(dj):
            rows[k : k + u.shape[0], at] = u[:, j]
            at += 1
    return PolyMatrix(rows)


def is_strictly_proper(N: PolyMatrix, D: PolyMatrix) -> bool:
    """True iff every entry of ``N D^{-1}`` is strictly proper.

    Over ``D``'s column reduction ``D U = D'`` with column degrees ``d_j``,
    ``N D^{-1} = N U D'^{-1}`` is strictly proper iff each column ``j`` of
    ``N U`` has degree below ``d_j`` (Kailath, *Linear Systems*, 1980,
    section 6.3).  ``N U`` is trimmed as one matrix; no division is made.
    """
    if N.cols != D.rows:
        raise ValueError("dimension mismatch between F and R")
    red = D._reduction
    nu = N if red.Rp is D else N @ red.U  # D' = D: U = I
    return all(c < d for c, d in zip(column_degrees(nu), red.degrees))


def canonical_rep(F: PolyMatrix, R: PolyMatrix) -> PolyMatrix:
    """Canonical representative of ``F`` modulo ``R``: the ``G`` with
    ``G R^{-1}`` strictly proper and ``F - G`` a multiple ``N R``.

    ``F`` itself when it is strictly proper over ``R``; otherwise
    ``F_X X_min``, with ``X_min`` the minimal state map of ``R`` and ``F_X``
    the state coordinates of ``F`` over it (:func:`state_coordinates`),
    both read off the column reduction.
    """
    if is_strictly_proper(F, R):
        return F
    return PolyMatrix(state_coordinates([F], R)[None]) @ minimal_state_map(R)


# ---------------------------------------------------------------------------
# JSON wire format: entries[row][col] = ascending coefficient list
#
# The readers of every file format check each field's JSON type, and each
# object's required keys, with the helpers below, so a wrong-typed field or
# a missing key is a ValueError that names it.


def json_object(value, what: str, keys: Sequence[str] = ()) -> dict:
    """A JSON object that has each of ``keys``; a missing key is named."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    for key in keys:
        if key not in value:
            raise ValueError(f"{what} missing key '{key}'")
    return value


def json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def json_float(value, what: str) -> float:
    """A JSON number; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def json_int(value, what: str) -> int:
    """A JSON integer, such as a mode index; ``2.0`` is one, ``2.7`` is not."""
    if not json_float(value, what).is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON in one write (``json.dump`` writes once
    per token)."""
    text = json.dumps(doc, indent=2)
    with open(path, "w") as fh:
        fh.write(text)


def polymatrix_to_json(M: PolyMatrix) -> list:
    return [[M.entry(i, j).coeffs[:, 0, 0].tolist() for j in range(M.cols)] for i in range(M.rows)]


def polymatrix_from_json(data) -> PolyMatrix:
    """Read the wire format; rejects coefficients that are not JSON numbers
    (:func:`json_float`) or not finite."""
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ValueError("polynomial matrix must be a list of rows of entries")
    if not data or not data[0]:
        raise ValueError("empty polynomial matrix")
    types = {type(v) for row in data for e in row for v in (e if isinstance(e, list) else (e,))}
    if not types <= {float, int}:
        # name the first bad coefficient
        for i, row in enumerate(data, start=1):
            for j, e in enumerate(row, start=1):
                for v in e if isinstance(e, list) else (e,):
                    json_float(v, f"coefficient of entry ({i},{j})")
    c = _stack_entries(data)
    if not np.isfinite(c).all():
        bad = np.argwhere(~np.isfinite(c))
        where = ", ".join(
            f"{c[p, i, j]} at entry ({i + 1},{j + 1}) power {p}" for p, i, j in bad
        )
        raise ValueError(f"non-finite coefficient: {where}")
    return PolyMatrix(c)
