"""Univariate real polynomials and polynomial matrices.

Coefficients are stored ascending (index i holds the coefficient of
``xi**i``) in double precision.  All values are trimmed against a global
relative tolerance and treated as immutable; every operation returns a new
object.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

# Relative trimming tolerance for coefficient arrays.  Kept well below the
# smallest genuine coefficient ratios seen in physically scaled models
# (circuit determinants legitimately span ~10 decades) while still above
# double-precision cancellation noise.
TRIM_TOL = 1e-13
# Absolute tolerance on real parts for the Hurwitz test.
HURWITZ_TOL = 1e-9

MINUS_INF = float("-inf")


def _trim(c: np.ndarray, tol: float = TRIM_TOL) -> np.ndarray:
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.size == 0:
        return np.zeros(1)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.zeros(1)
    nz = np.nonzero(np.abs(c) > tol * scale)[0]
    if nz.size == 0:
        return np.zeros(1)
    return c[: nz[-1] + 1].copy()


class Poly:
    """A real univariate polynomial with ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if isinstance(coeffs, Poly):
            coeffs = coeffs.coeffs
        self.coeffs = _trim(coeffs)

    @property
    def degree(self) -> float:
        """Degree; ``-inf`` for the zero polynomial."""
        if self.is_zero():
            return MINUS_INF
        return float(len(self.coeffs) - 1)

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    def __add__(self, other):
        other = as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        c = np.zeros(n)
        c[: len(self.coeffs)] += self.coeffs
        c[: len(other.coeffs)] += other.coeffs
        return Poly(c)

    __radd__ = __add__

    def __neg__(self):
        return Poly(-self.coeffs)

    def __sub__(self, other):
        return self + (-as_poly(other))

    def __rsub__(self, other):
        return as_poly(other) + (-self)

    def __mul__(self, other):
        other = as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly([0.0])
        return Poly(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __call__(self, x):
        # Horner evaluation; works for real, complex and array arguments.
        acc = 0.0 * np.asarray(x) + self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        other = as_poly(other)
        return np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def shift(self, k: int) -> "Poly":
        """Multiply by xi**k."""
        if self.is_zero():
            return Poly([0.0])
        return Poly(np.concatenate([np.zeros(k), self.coeffs]))

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def as_poly(p) -> Poly:
    if isinstance(p, Poly):
        return p
    if np.isscalar(p):
        return Poly([float(p)])
    return Poly(p)


def poly_roots(p: Poly) -> np.ndarray:
    """All complex roots with multiplicity, via balanced companion eigenvalues.

    Conjugate pairing is enforced: roots whose imaginary parts fail to cancel
    within ``1e-8 * |root|`` of their mirror are symmetrized.
    """
    p = as_poly(p)
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined root set")
    if p.degree == 0:
        return np.array([], dtype=complex)
    r = np.roots(p.coeffs[::-1]).astype(complex)
    # Symmetrize against the conjugate multiset.
    order = np.lexsort((r.imag, r.real))
    r = r[order]
    conj = np.conj(r)
    conj = conj[np.lexsort((conj.imag, conj.real))]
    r = 0.5 * (r + conj)
    r.imag[np.abs(r.imag) < 1e-8 * np.maximum(np.abs(r), 1.0)] = 0.0
    return r


def _stack_entries(grid) -> np.ndarray:
    """Coefficient stack ``(degree + 1, rows, cols)`` of a nested entry list."""
    rows, cols = len(grid), len(grid[0])
    if any(len(row) != cols for row in grid):
        raise ValueError("polynomial matrix rows differ in length")
    entries = [
        [p.coeffs if isinstance(p, Poly) else np.atleast_1d(np.asarray(p, dtype=float))
         for p in row]
        for row in grid
    ]
    deg = max(len(e) for row in entries for e in row)
    c = np.zeros((deg, rows, cols))
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            c[: len(e), i, j] = e
    return c


class PolyMatrix:
    """A rectangular matrix with :class:`Poly` entries.

    Internally a single float array ``coeffs`` of shape
    ``(degree + 1, rows, cols)``; slice ``coeffs[i]`` is the constant matrix
    multiplying ``xi**i``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim == 2:
            c = c[None, :, :]
        if c.ndim != 3:
            raise ValueError("expected array of shape (deg+1, rows, cols)")
        scale = np.max(np.abs(c)) if c.size else 0.0
        if scale == 0.0:
            c = np.zeros((1,) + c.shape[1:])
        else:
            keep = np.nonzero(np.abs(c).max(axis=(1, 2)) > TRIM_TOL * scale)[0]
            last = keep[-1] if keep.size else 0
            c = c[: last + 1].copy()
            c[np.abs(c) <= TRIM_TOL * scale] = 0.0
        self.coeffs = c

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_entries(cls, grid) -> "PolyMatrix":
        """Build from a nested list of Poly / coefficient-list / scalar entries.

        The entries are stacked untrimmed; the matrix-wide trim of ``__init__``
        zeroes every coefficient a per-entry trim would drop.
        """
        return cls(_stack_entries(grid))

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls(np.eye(n)[None, :, :])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "PolyMatrix":
        return cls(np.zeros((1, rows, cols)))

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

    def entry(self, i: int, j: int) -> Poly:
        return Poly(self.coeffs[:, i, j])

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
        c[: other.coeffs.shape[0]] += other.coeffs
        return PolyMatrix(c)

    def __neg__(self):
        return PolyMatrix(-self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
        da, db = self.coeffs.shape[0], other.coeffs.shape[0]
        c = np.zeros((da + db - 1, self.rows, other.cols))
        for i in range(da):
            for j in range(db):
                c[i + j] += self.coeffs[i] @ other.coeffs[j]
        return PolyMatrix(c)

    def scale(self, a) -> "PolyMatrix":
        """Multiply by a real scalar or a scalar :class:`Poly`."""
        a = as_poly(a)
        da = len(a.coeffs)
        c = np.zeros((da + self.coeffs.shape[0] - 1,) + self.shape)
        for i, ai in enumerate(a.coeffs):
            c[i : i + self.coeffs.shape[0]] += ai * self.coeffs
        return PolyMatrix(c)

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
        return float(np.max(np.abs(self.coeffs)))

    def __repr__(self):
        return f"PolyMatrix(shape={self.shape}, degree={self.degree})"


def vstack(mats: list[PolyMatrix]) -> PolyMatrix:
    cols = mats[0].cols
    deg = max(m.coeffs.shape[0] for m in mats)
    rows = sum(m.rows for m in mats)
    c = np.zeros((deg, rows, cols))
    at = 0
    for m in mats:
        c[: m.coeffs.shape[0], at : at + m.rows, :] = m.coeffs
        at += m.rows
    return PolyMatrix(c)


# ---------------------------------------------------------------------------
# determinant / adjugate


def _det_cofactor(c: PolyMatrix) -> Poly:
    n = c.rows
    if n == 1:
        return c.entry(0, 0)
    if n == 2:
        return c.entry(0, 0) * c.entry(1, 1) - c.entry(0, 1) * c.entry(1, 0)
    total = Poly([0.0])
    for j in range(n):
        e = c.entry(0, j)
        if e.is_zero():
            continue
        minor = np.delete(c.coeffs[:, 1:, :], j, axis=2)
        sub = _det_cofactor(PolyMatrix(minor))
        term = e * sub
        total = total + term if j % 2 == 0 else total - term
    return total


def _interp_nodes(num: int, scale: float) -> np.ndarray:
    # Chebyshev nodes scaled to the coefficient magnitude of the input.
    k = np.arange(num)
    return scale * np.cos((2 * k + 1) * np.pi / (2 * num))


def _fit_poly(xs: np.ndarray, ys: np.ndarray) -> Poly:
    V = np.vander(xs, len(xs), increasing=True)
    return Poly(np.linalg.solve(V, ys))


def determinant(R: PolyMatrix) -> Poly:
    """Exact polynomial determinant.

    Cofactor expansion up to size 4; evaluation-interpolation at scaled
    Chebyshev nodes above that.
    """
    if R.rows != R.cols:
        raise ValueError("determinant requires a square matrix")
    n = R.rows
    if n <= 4:
        return _det_cofactor(R)
    dmax = int(n * max(R.degree, 0)) + 1
    scale = max(1.0, R.max_norm())
    xs = _interp_nodes(dmax, scale)
    ys = np.array([np.linalg.det(R(x)) for x in xs])
    return _fit_poly(xs, ys)


def adjugate(R: PolyMatrix) -> PolyMatrix:
    """Adjugate matrix, satisfying ``R @ adj(R) = det(R) * I``."""
    if R.rows != R.cols:
        raise ValueError("adjugate requires a square matrix")
    n = R.rows
    if n == 1:
        return PolyMatrix.identity(1)
    if n <= 4:
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = np.delete(np.delete(R.coeffs, i, axis=1), j, axis=2)
                cof = _det_cofactor(PolyMatrix(minor))
                if (i + j) % 2 == 1:
                    cof = -cof
                out[j][i] = cof  # transpose of the cofactor matrix
        return PolyMatrix.from_entries(out)
    dmax = int((n - 1) * max(R.degree, 0)) + 1
    scale = max(1.0, R.max_norm())
    xs = _interp_nodes(dmax, scale)
    samples = []
    for x in xs:
        M = R(x)
        samples.append(np.linalg.det(M) * np.linalg.inv(M))
    samples = np.array(samples)
    out = [[_fit_poly(xs, samples[:, i, j]) for j in range(n)] for i in range(n)]
    return PolyMatrix.from_entries(out)


def roots(p: Poly) -> np.ndarray:
    return poly_roots(p)


def is_hurwitz(R: PolyMatrix | Divisor, tol: float = HURWITZ_TOL) -> bool:
    """True iff every root of ``det R`` has real part below ``-tol``."""
    d = Divisor.of(R).det
    if d.degree == 0:
        return True
    return bool(np.all(poly_roots(d).real < -tol))


# ---------------------------------------------------------------------------
# division modulo a nonsingular R


class Divisor:
    """A nonsingular square ``R`` with its ``det R`` and ``adj R``.

    Every division modulo ``R`` divides ``F adj(R)`` by ``det R``.  A divisor
    holds both, so a matrix reduced many times (a model's mode) pays for them
    once: ``det R`` when it is built (the singularity check), ``adj R`` at the
    first division.  The functions that reduce modulo ``R`` take a divisor or
    a plain matrix; for a plain matrix they build a divisor for that call.
    """

    def __init__(self, R: PolyMatrix):
        if R.rows != R.cols:
            raise ValueError("expected a square matrix")
        self.R = R
        self.det = determinant(R)
        if self.det.is_zero():
            raise ValueError("matrix is singular (det identically zero)")

    @cached_property
    def adj(self) -> PolyMatrix:
        return adjugate(self.R)

    @classmethod
    def of(cls, R: PolyMatrix | Divisor) -> Divisor:
        """``R`` itself if it is a divisor, else a new divisor of ``R``."""
        return R if isinstance(R, Divisor) else cls(R)


def polynomial_part(F: PolyMatrix, R: PolyMatrix | Divisor) -> PolyMatrix:
    """Polynomial part ``N`` of ``F R^{-1} = N + S`` with ``S`` strictly proper.

    One long division of the coefficient stack of ``F adj(R)`` by ``det R``,
    all entries at once, one step per quotient degree.
    """
    div = Divisor.of(R)
    if F.cols != div.R.rows:
        raise ValueError("dimension mismatch between F and R")
    d = div.det.coeffs
    m = len(d) - 1
    rem = (F @ div.adj).coeffs.copy()
    if rem.shape[0] <= m:
        return PolyMatrix.zeros(F.rows, div.R.cols)
    q = np.zeros((rem.shape[0] - m,) + rem.shape[1:])
    for k in range(q.shape[0] - 1, -1, -1):
        q[k] = rem[k + m] / d[m]
        rem[k : k + m + 1] -= d[:, None, None] * q[k]
    return PolyMatrix(q)


def canonical_rep(F: PolyMatrix, R: PolyMatrix | Divisor) -> PolyMatrix:
    """Canonical representative of ``F`` modulo ``R``.

    Returns ``G' = S R`` where ``S`` is the strictly proper part of
    ``F R^{-1}``; equivalently ``F - N R`` with ``N`` the polynomial part.
    """
    div = Divisor.of(R)
    return F - (polynomial_part(F, div) @ div.R)


def is_strictly_proper(N: PolyMatrix, D: PolyMatrix | Divisor) -> bool:
    """True iff every entry of ``N D^{-1}`` is strictly proper."""
    return polynomial_part(N, D).is_zero()


# ---------------------------------------------------------------------------
# column reduction


def column_degrees(R: PolyMatrix) -> list[float]:
    degs = []
    for j in range(R.cols):
        col = R.coeffs[:, :, j]
        nz = np.nonzero(np.abs(col).max(axis=1) > 0)[0]
        degs.append(MINUS_INF if nz.size == 0 else float(nz[-1]))
    return degs


def leading_column_matrix(R: PolyMatrix) -> np.ndarray:
    degs = column_degrees(R)
    G = np.zeros(R.shape)
    for j, dj in enumerate(degs):
        if dj == MINUS_INF:
            continue
        G[:, j] = R.coeffs[int(dj), :, j]
    return G


def column_reduce(
    R: PolyMatrix | Divisor, max_iter: int = 200
) -> tuple[PolyMatrix, PolyMatrix]:
    """Column reduction ``R' = R U`` with ``U`` unimodular.

    Repeatedly cancels the highest-column-degree coefficient matrix along a
    null direction until it becomes nonsingular.
    """
    R = Divisor.of(R).R  # raises if R is singular
    n = R.cols
    Rp = R
    U = PolyMatrix.identity(n)
    for _ in range(max_iter):
        G = leading_column_matrix(Rp)
        s = np.linalg.svd(G, compute_uv=False)
        if s[-1] > 1e-10 * max(s[0], 1.0):
            return Rp, U
        v = np.linalg.svd(G)[2][-1]
        degs = column_degrees(Rp)
        active = [j for j in range(n) if abs(v[j]) > 1e-8]
        jstar = max(active, key=lambda j: degs[j])
        # column jstar <- sum_j v_j xi^(d_jstar - d_j) column_j
        op = [[Poly([1.0]) if i == j else Poly([0.0]) for j in range(n)] for i in range(n)]
        for j in range(n):
            if j == jstar:
                op[j][jstar] = Poly([v[j]])
            elif abs(v[j]) > 0:
                op[j][jstar] = Poly([v[j]]).shift(int(degs[jstar] - degs[j]))
        E = PolyMatrix.from_entries(op)
        Rp = Rp @ E
        U = U @ E
    raise RuntimeError("column reduction failed to terminate")


def unimodular_inverse(U: PolyMatrix) -> PolyMatrix:
    """Polynomial inverse of a unimodular matrix."""
    d = determinant(U)
    if d.degree != 0:
        raise ValueError("matrix is not unimodular (nonconstant determinant)")
    return adjugate(U).scale(1.0 / d.coeffs[0])


# ---------------------------------------------------------------------------
# JSON wire format: entries[row][col] = ascending coefficient list


def polymatrix_to_json(M: PolyMatrix) -> list:
    return [[list(map(float, M.entry(i, j).coeffs)) for j in range(M.cols)] for i in range(M.rows)]


def polymatrix_from_json(data) -> PolyMatrix:
    """Read the wire format; rejects coefficients that are not finite."""
    if not data or not data[0]:
        raise ValueError("empty polynomial matrix")
    c = _stack_entries(data)
    bad = np.argwhere(~np.isfinite(c))
    if bad.size:
        where = ", ".join(
            f"{c[p, i, j]} at entry ({i + 1},{j + 1}) power {p}" for p, i, j in bad
        )
        raise ValueError(f"non-finite coefficient: {where}")
    return PolyMatrix(c)
