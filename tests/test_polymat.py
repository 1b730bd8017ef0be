import json
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sldstab.polymat import (
    Divisor,
    Poly,
    PolyMatrix,
    adjugate,
    as_poly,
    canonical_rep,
    column_degrees,
    column_reduce,
    determinant,
    is_hurwitz,
    is_strictly_proper,
    polymatrix_from_json,
    polymatrix_to_json,
    polynomial_part,
    roots,
    unimodular_inverse,
    vstack,
)

xi = sympy.symbols("xi")


def _to_sympy(M: PolyMatrix) -> sympy.Matrix:
    out = sympy.zeros(M.rows, M.cols)
    for i in range(M.rows):
        for j in range(M.cols):
            c = M.entry(i, j).coeffs
            out[i, j] = sum(sympy.Float(v) * xi**k for k, v in enumerate(c))
    return out


def _random_polymatrix(rng, n, deg):
    return PolyMatrix(rng.integers(-4, 5, size=(deg + 1, n, n)).astype(float))


class TestPoly:
    def test_eval_and_degree(self):
        p = Poly([2.0, 3.0, 1.0])  # 2 + 3 xi + xi^2
        assert p.degree == 2
        assert p(0.0) == pytest.approx(2.0)
        assert p(-1.0) == pytest.approx(0.0)
        assert p(2.0) == pytest.approx(12.0)

    def test_divmod(self):
        # (xi^2 + 3 xi + 2) / (xi + 1) = xi + 2 with zero remainder
        num = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        den = PolyMatrix.from_entries([[[1.0, 1.0]]])
        q = polynomial_part(num, den)
        assert np.allclose(q.entry(0, 0).coeffs, [2.0, 1.0])
        assert canonical_rep(num, den).is_zero()

    def test_roots(self):
        r = roots(Poly([2.0, 3.0, 1.0]))
        assert np.allclose(sorted(r.real), [-2.0, -1.0])


class TestDeterminant:
    def test_degree_two_plant(self):
        # det [[xi-1, -1], [-3xi-1, -xi]] = -(xi+1)^2
        R = PolyMatrix.from_entries(
            [[[-1.0, 1.0], [-1.0]], [[-1.0, -3.0], [0.0, -1.0]]]
        )
        d = determinant(R)
        assert d.degree == 2
        assert np.allclose(d.coeffs, [-1.0, -2.0, -1.0])

    @pytest.mark.parametrize("n,deg", [(2, 2), (3, 1), (4, 2), (5, 1)])
    def test_matches_symbolic(self, n, deg):
        rng = np.random.default_rng(17 * n + deg)
        R = _random_polymatrix(rng, n, deg)
        ours = determinant(R)
        ref = sympy.Poly(_to_sympy(R).det(), xi).all_coeffs()[::-1]
        ref = np.array([float(v) for v in ref])
        got = ours.coeffs[: len(ref)]
        assert np.allclose(got, ref, atol=1e-6 * max(1.0, np.abs(ref).max()))

    def test_adjugate_identity(self):
        rng = np.random.default_rng(3)
        R = _random_polymatrix(rng, 3, 1)
        prod = R @ adjugate(R)
        d = determinant(R)
        for i in range(3):
            for j in range(3):
                e = prod.entry(i, j)
                if i == j:
                    assert np.allclose(
                        e.coeffs[: d.coeffs.size], d.coeffs, atol=1e-8
                    )
                else:
                    assert e.is_zero() or np.abs(e.coeffs).max() < 1e-8


class TestHurwitz:
    def test_stable(self):
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        assert is_hurwitz(R)

    def test_root_at_plus_one(self):
        R = PolyMatrix.from_entries([[[-1.0, 1.0]]])
        assert not is_hurwitz(R)

    def test_imaginary_axis(self):
        # xi^2 + 1 has roots on the axis
        R = PolyMatrix.from_entries([[[1.0, 0.0, 1.0]]])
        assert not is_hurwitz(R)


class TestCanonicalRep:
    @pytest.mark.parametrize("seed", range(20))
    def test_reconstruction_and_idempotence(self, seed):
        """F = N R + (F mod R) with the remainder strictly proper, 10 cases per seed."""
        rng = np.random.default_rng(seed)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            R = _random_polymatrix(rng, n, int(rng.integers(1, 3)))
            if abs(determinant(R).coeffs[-1]) < 1e-9:
                continue
            F = PolyMatrix(
                rng.integers(-3, 4, size=(3, int(rng.integers(1, 3)), n)).astype(float)
            )
            C = canonical_rep(F, R)
            N = polynomial_part(F, R)
            recon = (N @ R) + C
            assert (recon - F).max_norm() < 1e-7 * max(1.0, F.max_norm())
            # remainder is strictly proper against R
            assert is_strictly_proper(C, R)
            # idempotence
            CC = canonical_rep(C, R)
            assert (CC - C).max_norm() < 1e-7 * max(1.0, C.max_norm())

    def test_row_already_reduced(self):
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        F = PolyMatrix.from_entries([[[0.0, 1.0]]])  # xi, strictly proper
        C = canonical_rep(F, R)
        assert (C - F).max_norm() < 1e-12

    def test_degree_drop(self):
        # xi^2 mod (xi^2+3xi+2) = -3xi - 2
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        F = PolyMatrix.from_entries([[[0.0, 0.0, 1.0]]])
        C = canonical_rep(F, R)
        assert np.allclose(C.entry(0, 0).coeffs, [-2.0, -3.0])


def _to_exact(M: PolyMatrix) -> sympy.Matrix:
    return sympy.Matrix(M.rows, M.cols, lambda i, j: sympy.Poly(
        [sympy.Rational(c) for c in M.entry(i, j).coeffs[::-1]], xi
    ).as_expr())


def _sympy_polynomial_part(F: PolyMatrix, R: PolyMatrix) -> sympy.Matrix:
    """Entrywise quotient of ``F R^{-1}`` after exact cancellation."""
    Rs = _to_exact(R)
    G = _to_exact(F) * Rs.adjugate()
    d = sympy.Poly(Rs.det(), xi)
    out = sympy.zeros(G.rows, G.cols)
    for i in range(G.rows):
        for j in range(G.cols):
            num = sympy.Poly(G[i, j], xi)
            g = num.gcd(d)
            out[i, j] = num.exquo(g).quo(d.exquo(g)).as_expr()
    return out


class TestPolynomialPartReference:
    """``polynomial_part`` and ``is_strictly_proper`` against sympy."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_integer_pairs(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for _ in range(4):
            n = int(rng.integers(1, 4))
            R = _random_polymatrix(rng, n, int(rng.integers(1, 3)))
            if abs(determinant(R).coeffs[-1]) < 1e-9:
                continue
            F = PolyMatrix(
                rng.integers(-3, 4, size=(int(rng.integers(1, 5)), 2, n)).astype(float)
            )
            ref = _sympy_polynomial_part(F, R)
            N = polynomial_part(F, R)
            scale = max(1.0, F.max_norm())
            for i in range(F.rows):
                for j in range(n):
                    want = [float(c) for c in sympy.Poly(ref[i, j], xi).all_coeffs()[::-1]]
                    got = np.zeros(max(len(want), N.coeffs.shape[0]))
                    got[: N.coeffs.shape[0]] = N.coeffs[:, i, j]
                    got[: len(want)] -= want
                    assert np.abs(got).max() <= 1e-9 * scale
            assert is_strictly_proper(F, R) == (ref == sympy.zeros(F.rows, n))
            # the exact remainder F - N R is strictly proper against R
            rem = sympy.expand(_to_exact(F) - ref * _to_exact(R))
            C = PolyMatrix.from_entries([
                [[float(c) for c in sympy.Poly(rem[i, j], xi).all_coeffs()[::-1]]
                 for j in range(n)]
                for i in range(F.rows)
            ])
            assert is_strictly_proper(C, R)

    @pytest.mark.parametrize(
        "num, den, strict",
        [
            ([1.0, 1.0], [2.0, 3.0, 1.0], True),  # (xi+1) / ((xi+1)(xi+2))
            ([1.0, 0.0, 1.0], [2.0, 3.0, 1.0], False),  # proper, not strictly
            ([0.0], [2.0, 3.0, 1.0], True),
            ([2.0, 3.0, 1.0], [1.0, 1.0], False),  # polynomial xi + 2
        ],
    )
    def test_scalar_verdicts(self, num, den, strict):
        N = PolyMatrix.from_entries([[num]])
        D = PolyMatrix.from_entries([[den]])
        ref = _sympy_polynomial_part(N, D)[0, 0]
        assert (ref == 0) == strict
        assert is_strictly_proper(N, D) == strict
        got = polynomial_part(N, D).entry(0, 0).coeffs
        want = [float(c) for c in sympy.Poly(ref, xi).all_coeffs()[::-1]]
        assert np.allclose(got, want, atol=1e-12)


class TestColumnReduction:
    def test_reduces(self):
        R = PolyMatrix.from_entries(
            [[[1.0, 1.0], [1.0, 1.0]], [[1.0], [0.0]]]
        )
        Rred, U = column_reduce(R)
        lead = np.sum(np.array(column_degrees(Rred)))
        assert lead <= determinant(R).degree + 1  # proper column degrees

    def test_unimodular_inverse(self):
        U = PolyMatrix.from_entries([[[1.0], [0.0, 1.0]], [[0.0], [1.0]]])
        V = unimodular_inverse(U)
        prod = U @ V
        eye = PolyMatrix.identity(2)
        assert (prod - eye).max_norm() < 1e-9


class TestStrictlyProper:
    def test_common_factor_cancellation(self):
        # (xi+1) / ((xi+1)(xi+2)) is strictly proper after cancellation
        N = PolyMatrix.from_entries([[[1.0, 1.0]]])
        D = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        assert is_strictly_proper(N, D)

    def test_biproper(self):
        N = PolyMatrix.from_entries([[[1.0, 0.0, 1.0]]])
        D = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        assert not is_strictly_proper(N, D)


class TestJson:
    def test_round_trip(self):
        R = PolyMatrix.from_entries([[[0.0], [1.0, 1.0]], [[1.0], [-1.0]]])
        doc = json.loads(json.dumps(polymatrix_to_json(R)))
        back = polymatrix_from_json(doc)
        assert (R - back).max_norm() == 0.0


MODELS = Path(__file__).resolve().parents[1] / "models"


def _per_entry_from_entries(grid) -> PolyMatrix:
    """The build with one trimmed ``Poly`` per entry, stacked afterwards."""
    polys = [[as_poly(e) for e in row] for row in grid]
    deg = max(len(p.coeffs) for row in polys for p in row)
    c = np.zeros((deg, len(grid), len(grid[0])))
    for i, row in enumerate(polys):
        for j, p in enumerate(row):
            c[: len(p.coeffs), i, j] = p.coeffs
    return PolyMatrix(c)


def _corpus_grids():
    """Every polynomial matrix of the bundled corpus, as its JSON entry grid."""
    for path in sorted(MODELS.glob("*.json")):
        doc = json.loads(path.read_text())
        if isinstance(doc, list):
            yield doc
        elif "modes" in doc:
            yield from doc["modes"]
            for glue in doc["gluing"]:
                yield glue["g_minus"]
                yield glue["g_plus"]
            yield from doc.get("state_maps", [])


@st.composite
def _entry(draw):
    """A coefficient list, ``Poly`` or scalar, some with tiny trailing terms."""
    coeffs = draw(st.lists(
        st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=4,
    ))
    peak = max(abs(c) for c in coeffs)
    tail = draw(st.lists(
        st.sampled_from([0.0, -0.0, 1e-16, 9e-14, 1e-13, 1.1e-13, -2e-13, 1e-12]),
        max_size=3,
    ))
    coeffs = coeffs + [t * peak for t in tail]
    kind = draw(st.sampled_from(["list", "poly", "scalar"]))
    if kind == "poly":
        return Poly(coeffs)
    return coeffs[0] if kind == "scalar" else coeffs


@st.composite
def _entry_grid(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return [[draw(_entry()) for _ in range(cols)] for _ in range(rows)]


class TestFromEntries:
    """One stacked build equals the per-entry ``Poly`` build bit for bit."""

    def test_corpus(self):
        grids = list(_corpus_grids())
        assert len(grids) > 40
        for grid in grids:
            want = _per_entry_from_entries(grid).coeffs
            for got in (PolyMatrix.from_entries(grid), polymatrix_from_json(grid)):
                assert got.coeffs.shape == want.shape
                assert got.coeffs.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_entry_grid())
    def test_mixed_entries(self, grid):
        want = _per_entry_from_entries(grid).coeffs
        got = PolyMatrix.from_entries(grid).coeffs
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="rows differ"):
            polymatrix_from_json([[[1.0], [2.0]], [[1.0]]])


def test_vstack():
    A = PolyMatrix.identity(2)
    B = PolyMatrix.from_entries([[[0.0, 1.0], [0.0]]])
    M = vstack([A, B])
    assert M.shape == (3, 2)
    assert np.allclose(M.entry(2, 0).coeffs, [0.0, 1.0])


def _per_call_polynomial_part(F: PolyMatrix, R: PolyMatrix) -> PolyMatrix:
    """The division with ``det R`` and ``adj R`` computed for this call only."""
    d = determinant(R).coeffs
    m = len(d) - 1
    rem = (F @ adjugate(R)).coeffs.copy()
    if rem.shape[0] <= m:
        return PolyMatrix.zeros(F.rows, R.cols)
    q = np.zeros((rem.shape[0] - m,) + rem.shape[1:])
    for k in range(q.shape[0] - 1, -1, -1):
        q[k] = rem[k + m] / d[m]
        rem[k : k + m + 1] -= d[:, None, None] * q[k]
    return PolyMatrix(q)


@st.composite
def _integer_polymatrix(draw, rows, cols, max_degree):
    deg = draw(st.integers(0, max_degree))
    size = (deg + 1) * rows * cols
    c = draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
    return PolyMatrix(np.array(c, dtype=float).reshape(deg + 1, rows, cols))


@st.composite
def _division_case(draw):
    """A square ``R`` (n = 1..3) and one to three ``F`` with n columns."""
    n = draw(st.integers(1, 3))
    R = draw(_integer_polymatrix(n, n, 2))
    Fs = draw(
        st.lists(
            st.integers(1, 3).flatmap(lambda r: _integer_polymatrix(r, n, 4)),
            min_size=1,
            max_size=3,
        )
    )
    return R, Fs


class TestDivisor:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_division_case())
    def test_shared_divisor_matches_per_call_division(self, case):
        # one divisor serves every F, bit for bit as a division of its own
        R, Fs = case
        assume(not determinant(R).is_zero())
        div = Divisor(R)
        for F in Fs:
            N = _per_call_polynomial_part(F, R)
            assert np.array_equal(polynomial_part(F, div).coeffs, N.coeffs)
            want = (F - N @ R).coeffs
            assert np.array_equal(canonical_rep(F, div).coeffs, want)
            assert np.array_equal(canonical_rep(F, R).coeffs, want)

    def test_singular_matrix_rejected(self):
        R = PolyMatrix.from_entries([[[1.0], [1.0]], [[1.0], [1.0]]])
        with pytest.raises(ValueError, match="singular"):
            Divisor(R)

    def test_of_passes_a_divisor_through(self):
        div = Divisor(PolyMatrix.from_entries([[[2.0, 1.0]]]))
        assert Divisor.of(div) is div
        assert Divisor.of(div.R) is not div
