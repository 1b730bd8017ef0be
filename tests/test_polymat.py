import json
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sldstab import polymat
from sldstab.polymat import (
    TRIM_TOL,
    NonFiniteError,
    PolyMatrix,
    canonical_rep,
    column_degrees,
    column_reduce,
    determinant,
    is_strictly_proper,
    polymatrix_from_json,
    polymatrix_to_json,
    poly_roots,
    vstack,
)
from sldstab.cli import main
from sldstab.model import SldsModel, check_mode, modes_hurwitz
from sldstab.posreal import para_hermitian_boundary
from sldstab.statespace import minimal_state_map, realize

import polytools
from modeltools import MODELS, ModuleProxy
from polytools import polynomial_part

xi = sympy.symbols("xi")


def _to_sympy(M: PolyMatrix) -> sympy.Matrix:
    out = sympy.zeros(M.rows, M.cols)
    for i in range(M.rows):
        for j in range(M.cols):
            c = M.entry(i, j).coeffs[:, 0, 0]
            out[i, j] = sum(sympy.Float(v) * xi**k for k, v in enumerate(c))
    return out


def _random_polymatrix(rng, n, deg):
    return PolyMatrix(rng.integers(-4, 5, size=(deg + 1, n, n)).astype(float))


class TestPoly:
    def test_eval_and_degree(self):
        p = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])  # 2 + 3 xi + xi^2
        assert p.degree == 2
        assert p(0.0)[0, 0] == pytest.approx(2.0)
        assert p(-1.0)[0, 0] == pytest.approx(0.0)
        assert p(2.0)[0, 0] == pytest.approx(12.0)

    def test_divmod(self):
        # (xi^2 + 3 xi + 2) / (xi + 1) = xi + 2 with zero remainder
        num = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        den = PolyMatrix.from_entries([[[1.0, 1.0]]])
        q = polynomial_part(num, den)
        assert np.allclose(q.entry(0, 0).coeffs[:, 0, 0], [2.0, 1.0])
        assert canonical_rep(num, den).is_zero()

    def test_roots(self):
        r = poly_roots(PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]]))
        assert np.allclose(sorted(r.real), [-2.0, -1.0])


class TestDeterminant:
    def test_degree_two_plant(self):
        # det [[xi-1, -1], [-3xi-1, -xi]] = -(xi+1)^2
        R = PolyMatrix.from_entries(
            [[[-1.0, 1.0], [-1.0]], [[-1.0, -3.0], [0.0, -1.0]]]
        )
        d = determinant(R)
        assert d.degree == 2
        assert np.allclose(d.coeffs[:, 0, 0], [-1.0, -2.0, -1.0])

    @pytest.mark.parametrize("n,deg", [(2, 2), (3, 1), (4, 2), (5, 1), (5, 2), (6, 1)])
    def test_matches_symbolic(self, n, deg):
        rng = np.random.default_rng(17 * n + deg)
        R = _random_polymatrix(rng, n, deg)
        ours = determinant(R)
        ref = sympy.Poly(_to_sympy(R).det(), xi).all_coeffs()[::-1]
        ref = np.array([float(v) for v in ref])
        got = ours.coeffs[: len(ref), 0, 0]
        assert np.allclose(got, ref, atol=1e-6 * max(1.0, np.abs(ref).max()))


def _exact_coeffs(expr) -> list[float]:
    return [float(c) for c in sympy.Poly(expr, xi).all_coeffs()[::-1]]


@st.composite
def _integer_square(draw):
    n = draw(st.integers(1, 4))
    deg = draw(st.integers(0, 3))
    vals = draw(st.lists(st.integers(-4, 4), min_size=(deg + 1) * n * n,
                         max_size=(deg + 1) * n * n))
    return PolyMatrix(np.array(vals, dtype=float).reshape(deg + 1, n, n))


def _assert_unimodular_reduction(R, Rred, U, Uinv, tol):
    """``R U = R'``, ``R' U^{-1} = R``, ``U U^{-1} = I`` and ``det U^{-1}``
    is a nonzero constant, all within ``tol`` relative to the matrix scale."""
    assert (R @ U - Rred).max_norm() <= tol * max(1.0, Rred.max_norm())
    assert (Rred @ Uinv - R).max_norm() <= tol * max(1.0, R.max_norm())
    assert (U @ Uinv - PolyMatrix.identity(R.rows)).max_norm() <= tol * max(
        1.0, U.max_norm() * Uinv.max_norm()
    )
    d = determinant(Uinv).coeffs[:, 0, 0]
    assert d[0] != 0.0
    assert np.all(np.abs(d[1:]) <= tol * abs(d[0]))


class TestLeibnizKernels:
    """The batched Leibniz determinant, the tests' reference, against sympy,
    exactly."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_integer_square())
    def test_matches_sympy(self, R):
        exact = _to_exact(R)
        d = determinant(R)
        assert d.coeffs[:, 0, 0].tolist() == _exact_coeffs(exact.det())
        if not d.is_zero():
            _assert_unimodular_reduction(R, *column_reduce(R)[:3], tol=1e-12)


def _hurwitz_on_a(entries) -> bool:
    """The Hurwitz verdict of a one-mode model, read off ``eig(A)``, after
    checking that ``eig(A)`` are the roots of ``det R``."""
    R = PolyMatrix.from_entries(entries)
    model = SldsModel(modes=[R], gluing={})
    got = np.sort_complex(np.linalg.eigvals(model.realizations[0].A))
    want = np.sort_complex(poly_roots(determinant(R)))
    assert np.allclose(got, want, atol=1e-9)
    (verdict,) = modes_hurwitz(model)
    return verdict


class TestHurwitz:
    def test_stable(self):
        assert _hurwitz_on_a([[[2.0, 3.0, 1.0]]])

    def test_root_at_plus_one(self):
        assert not _hurwitz_on_a([[[-1.0, 1.0]]])

    def test_imaginary_axis(self):
        # xi^2 + 1 has roots on the axis
        assert not _hurwitz_on_a([[[1.0, 0.0, 1.0]]])


def _family_mode() -> PolyMatrix:
    """``T (I + 1.5 xi e_1 e_2^T)(xi I - A)``: the kernel representation
    ``xi I - A`` times a unimodular factor of degree 1, so ``U`` has degree 1."""
    A = np.array([[-1.0, 2.0], [-3.0, -4.0]])
    T = np.array([[1.2, -0.4], [0.3, 1.7]])
    E1 = np.array([[0.0, 1.5], [0.0, 0.0]])
    return PolyMatrix(np.stack([-T @ A, T - T @ E1 @ A, T @ E1]))


class TestCanonicalRep:
    def test_zero_quotient_leaves_f(self, monkeypatch):
        # deg F + deg U < min_j d_j: the quotient is zero, and F is its own
        # representative, bit for bit what F - N R gives, and no state
        # coordinates are read; at the bound, by the degree of F or of U,
        # the quotient is not zero, and the call reads F's state
        # coordinates once
        A = np.array([[-1.0, 2.0], [-3.0, -4.0]])
        R = PolyMatrix(np.stack([-A, np.eye(2)]))  # column reduced: U = I, d = (1, 1)
        F = PolyMatrix(np.array([[[0.3, -1.2], [2.0, 0.5]]]))
        F1 = PolyMatrix(np.array([[[0.3, -1.2]], [[0.0, 0.7]]]))  # degree 1
        calls = []
        coords = polymat.state_coordinates
        monkeypatch.setattr(polymat, "state_coordinates", lambda *a: calls.append(a) or coords(*a))
        full = F - polynomial_part(F, R) @ R
        assert np.array_equal(canonical_rep(F, R).coeffs, full.coeffs)
        assert np.array_equal(canonical_rep(F, R).coeffs, F.coeffs)
        assert np.array_equal(canonical_rep(F.row(1), R).coeffs, full.row(1).coeffs)
        assert calls == []
        for G, S in ((F1, R), (F, _family_mode())):
            calls.clear()
            rep = canonical_rep(G, S)
            assert len(calls) == 1
            recon = polynomial_part(G, S) @ S + rep
            assert (recon - G).max_norm() <= 1e-12 * G.max_norm()
            assert is_strictly_proper(rep, S)

    @pytest.mark.parametrize("seed", range(20))
    def test_reconstruction_and_idempotence(self, seed):
        """F = N R + (F mod R) with the remainder strictly proper, 10 cases per seed."""
        rng = np.random.default_rng(seed)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            R = _random_polymatrix(rng, n, int(rng.integers(1, 3)))
            if abs(determinant(R).coeffs[-1, 0, 0]) < 1e-9:
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
        assert np.allclose(C.entry(0, 0).coeffs[:, 0, 0], [-2.0, -3.0])


def _to_exact(M: PolyMatrix) -> sympy.Matrix:
    return sympy.Matrix(M.rows, M.cols, lambda i, j: sympy.Poly(
        [sympy.Rational(c) for c in M.entry(i, j).coeffs[::-1, 0, 0]], xi
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
            if abs(determinant(R).coeffs[-1, 0, 0]) < 1e-9:
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
        got = polynomial_part(N, D).entry(0, 0).coeffs[:, 0, 0]
        want = [float(c) for c in sympy.Poly(ref, xi).all_coeffs()[::-1]]
        assert np.allclose(got, want, atol=1e-12)


@st.composite
def _coupled_pair(draw):
    """Integer ``(diag(r1_i) V, diag(r2_i) V)`` with ``w = 1..3``, entries of
    degree at most 4 and ``V`` unit upper triangular of degree at most 1."""
    w = draw(st.integers(1, 3))
    coeffs = st.lists(st.integers(-9, 9), min_size=1, max_size=5)
    diags = [[draw(coeffs) for _ in range(w)] for _ in range(2)]
    V = [[[1] if i == j else (draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
                              if i < j else [0]) for j in range(w)] for i in range(w)]
    V = PolyMatrix.from_entries(V)
    return tuple(
        PolyMatrix.from_entries([[d[i] if i == j else [0] for j in range(w)] for i in range(w)]) @ V
        for d in diags
    )


class TestColumnReduction:
    def test_reduces(self):
        R = PolyMatrix.from_entries(
            [[[1.0, 1.0], [1.0, 1.0]], [[1.0], [0.0]]]
        )
        Rred, *_ = column_reduce(R)
        lead = np.sum(np.array(column_degrees(Rred)))
        assert lead <= determinant(R).degree + 1  # proper column degrees

    def test_inverse_from_reduction_steps(self):
        # R = (I + 2 xi e_1 e_2^T)(I + xi^2 e_2 e_1^T)(xi I - A): four steps
        T1 = PolyMatrix.from_entries([[[1.0], [0.0, 2.0]], [[0.0], [1.0]]])
        T2 = PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0, 0.0, 1.0], [1.0]]])
        S = PolyMatrix.from_entries([[[1.0, 1.0], [0.0]], [[-1.0], [2.0, 1.0]]])
        R = T1 @ T2 @ S
        Rred, U, Uinv, *_ = column_reduce(R)
        assert U.degree > 0 and Uinv.degree > 0
        assert column_degrees(Rred) == [1.0, 1.0]
        _assert_unimodular_reduction(R, Rred, U, Uinv, tol=1e-12)

    def test_columns_of_very_different_scale(self):
        # the null vector (1e-9, -1) of the leading matrix: both columns take
        # part, and column 0 (degree 2) is the one replaced
        R = PolyMatrix.from_entries(
            [[[3e9, 0.0, 1e9], [0.0, 1.0]], [[0.0, 0.0, 1e9], [1.0, 1.0]]]
        )
        Rred, U, Uinv, *_ = column_reduce(R)
        assert column_degrees(Rred) == [1.0, 1.0]  # sum = deg det R
        _assert_unimodular_reduction(R, Rred, U, Uinv, tol=1e-12)

    def test_one_svd_per_step(self, monkeypatch):
        # R = T (I + 1.5 xi e_1 e_2^T)(xi I - A), a mode of the benchmark's
        # family, takes one reduction step; each step, the last included,
        # takes one SVD of the leading column matrix
        R = _family_mode()
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(k) or svd(*a, **k))
        Rred, U, Uinv, d, *_ = column_reduce(R)
        assert len(calls) == 2
        assert U.degree == 1 and d == (1, 1)
        _assert_unimodular_reduction(R, Rred, U, Uinv, tol=1e-12)

    def test_no_termination_is_a_value_error(self, monkeypatch):
        monkeypatch.setattr(polymat, "COLUMN_REDUCE_MAX_ITER", 0)
        R = PolyMatrix.from_entries([[[1.0, 1.0], [1.0, 1.0]], [[1.0], [0.0]]])
        with pytest.raises(ValueError, match="did not terminate in 0 steps"):
            column_reduce(R)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_coupled_pair(), st.booleans())
    def test_degrees_and_roots_of_coupled_products(self, pair, boundary):
        # R = diag(r1_i) V, or the boundary form of (diag(r2_i) V, R): the
        # column degrees sum to deg det R, exactly, and each eigenvalue of
        # A_c is a root of det R up to rounding of the terms R(lam) sums
        R1, R2 = pair
        R = para_hermitian_boundary(R2, R1) if boundary else R1
        exact = sympy.Poly(_to_exact(R).det(method="berkowitz"), xi)
        assume(not exact.is_zero)
        with np.errstate(all="raise"):
            red = column_reduce(R)
            roots = np.linalg.eigvals(red.Ac)
        assert sum(red.degrees) == exact.degree()
        for lam in roots:
            terms = sum(np.linalg.norm(Ri, 2) * abs(lam) ** i for i, Ri in enumerate(R.coeffs))
            assert np.linalg.svd(R(lam), compute_uv=False)[-1] <= 1e-8 * terms


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
    """The build with each entry trimmed on its own, stacked afterwards."""
    polys = [[_poly_trim_reference(e) for e in row] for row in grid]
    deg = max(len(p) for row in polys for p in row)
    c = np.zeros((deg, len(grid), len(grid[0])))
    for i, row in enumerate(polys):
        for j, p in enumerate(row):
            c[: len(p), i, j] = p
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
    """A coefficient list or scalar, some lists with tiny trailing terms."""
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
    return coeffs[0] if draw(st.booleans()) else coeffs


@st.composite
def _entry_grid(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return [[draw(_entry()) for _ in range(cols)] for _ in range(rows)]


class TestFromEntries:
    """One stacked build equals the per-entry trimmed build bit for bit."""

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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_entry_grid())
    def test_json_reader_fills_one_array(self, grid):
        # the wire format of the same grid, with int-valued coefficients as ints
        def wire(e):
            if isinstance(e, float):
                return e
            return [int(v) if v.is_integer() and v != 0.0 else v for v in e]

        doc = [[wire(e) for e in row] for row in grid]
        want = _per_entry_from_entries(grid).coeffs
        got = polymatrix_from_json(doc).coeffs
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_bad_coefficient_named_before_ragged_rows(self):
        with pytest.raises(ValueError, match=r"entry \(2,1\) must be a number, got 'x'"):
            polymatrix_from_json([[[1.0], [2.0]], [["x"]]])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="rows differ"):
            polymatrix_from_json([[[1.0], [2.0]], [[1.0]]])


class TestStack:
    @pytest.mark.parametrize("rows,cols,deg", [(1, 1, 0), (2, 3, 2), (3, 2, 1), (0, 2, 0)])
    def test_blocks_side_by_side(self, rows, cols, deg):
        rng = np.random.default_rng(rows + 10 * cols + 100 * deg)
        M = PolyMatrix(rng.standard_normal((deg + 1, rows, cols)))
        g = M.coeffs.shape[0]
        blocks = [M.coeffs[i] for i in range(g)]
        assert np.array_equal(M.stack(), np.hstack(blocks))
        padded = M.stack(g + 2)
        assert np.array_equal(padded, np.hstack(blocks + [np.zeros((rows, cols))] * 2))
        back = PolyMatrix.from_stack(padded, cols)
        assert back.coeffs.tobytes() == M.coeffs.tobytes()

    def test_grid_below_degree_rejected(self):
        M = PolyMatrix.from_entries([[[1.0, 2.0, 3.0]]])
        with pytest.raises(ValueError, match="grid too small"):
            M.stack(2)


def test_vstack():
    A = PolyMatrix.identity(2)
    B = PolyMatrix.from_entries([[[0.0, 1.0], [0.0]]])
    M = vstack([A, B])
    assert M.shape == (3, 2)
    assert np.allclose(M.entry(2, 0).coeffs[:, 0, 0], [0.0, 1.0])


def _exact_adjugate(R: PolyMatrix) -> PolyMatrix:
    """``adj R`` by sympy, exactly, for integer ``R``."""
    adj = _to_exact(R).adjugate()
    return PolyMatrix.from_entries(
        [[_exact_coeffs(adj[i, j]) for j in range(R.cols)] for i in range(R.rows)]
    )


def _per_call_polynomial_part(F: PolyMatrix, R: PolyMatrix) -> PolyMatrix:
    """The division with ``det R`` and ``adj R`` computed for this call only."""
    d = determinant(R).coeffs[:, 0, 0]
    m = len(d) - 1
    rem = (F @ _exact_adjugate(R)).coeffs.copy()
    if rem.shape[0] <= m:
        return polytools.zeros(F.rows, R.cols)
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


# the reference division and the column-reduced one round differently
REFERENCE_DIVISION_TOL = 1e-12


def _padded_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest difference of two coefficient stacks, the shorter zero-padded."""
    g = max(a.shape[0], b.shape[0])
    out = np.zeros((g,) + a.shape[1:])
    out[: a.shape[0]] += a
    out[: b.shape[0]] -= b
    return float(np.abs(out).max())


class TestDivisionData:
    """A matrix computes its column reduction once; all work modulo it,
    and the tests' reference division, reuses it."""

    R_ENTRIES = [[[2.0, 3.0, 1.0], [1.0]], [[0.0, 1.0], [1.0, 1.0]]]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_division_case())
    def test_reused_matrix_matches_a_fresh_one(self, case):
        # one R serves every F, bit for bit as a fresh copy of R, and agrees
        # with the det/adj reference division to REFERENCE_DIVISION_TOL; the
        # strict-properness verdict is the reference's, and the
        # representative is strictly proper
        R, Fs = case
        assume(not determinant(R).is_zero())
        for F in Fs:
            N = _per_call_polynomial_part(F, R)
            want = (F - N @ R).coeffs
            got = polynomial_part(F, R).coeffs
            rep = canonical_rep(F, R).coeffs
            fresh = PolyMatrix(R.coeffs)  # has no reduction yet
            assert np.array_equal(polynomial_part(F, fresh).coeffs, got)
            assert np.array_equal(canonical_rep(F, fresh).coeffs, rep)
            assert _padded_gap(got, N.coeffs) <= REFERENCE_DIVISION_TOL * max(1.0, N.max_norm())
            scale = max(1.0, F.max_norm(), np.abs(want).max())
            assert _padded_gap(rep, want) <= REFERENCE_DIVISION_TOL * scale
            assert is_strictly_proper(F, R) == N.is_zero()
            assert is_strictly_proper(canonical_rep(F, R), R)

    def test_each_matrix_column_reduces_once(self, monkeypatch):
        seen = {"column_reduce": [], "determinant": [], "poly_roots": []}
        for name, args in seen.items():
            orig = getattr(polymat, name)

            def counted(M, *rest, orig=orig, args=args):
                args.append(M)
                return orig(M, *rest)

            monkeypatch.setattr(polymat, name, counted)
        R = PolyMatrix.from_entries(self.R_ENTRIES)
        F = PolyMatrix.from_entries([[[0.0, 0.0, 1.0], [1.0]]])
        polynomial_part(F, R)
        canonical_rep(polytools.scale(F, 2.0), R)
        is_strictly_proper(F, R)
        realize(R, minimal_state_map(R))
        modes_hurwitz(SldsModel(modes=[R], gluing={}))
        assert len(seen["column_reduce"]) == 1 and seen["column_reduce"][0] is R
        assert seen["determinant"] == seen["poly_roots"] == []

    @pytest.mark.parametrize(
        "entries, match",
        [
            ([[[1.0], [1.0]], [[1.0], [1.0]]], "singular"),
            ([[[1.0, 1.0], [0.0], [1.0]], [[0.0], [1.0, 1.0], [2.0]]], "square"),
        ],
        ids=["singular", "non-square"],
    )
    @pytest.mark.parametrize(
        "entry_point",
        [
            lambda R: polynomial_part(PolyMatrix.identity(R.rows), R),
            lambda R: canonical_rep(PolyMatrix.identity(R.rows), R),
            lambda R: is_strictly_proper(PolyMatrix.identity(R.rows), R),
            column_reduce,
            minimal_state_map,
            lambda R: realize(R, PolyMatrix.identity(R.cols)),
            lambda R: modes_hurwitz(SldsModel(modes=[R], gluing={})),
        ],
        ids=[
            "polynomial_part", "canonical_rep", "is_strictly_proper", "column_reduce",
            "minimal_state_map", "realize", "modes_hurwitz",
        ],
    )
    def test_singular_or_non_square_rejected(self, entries, match, entry_point):
        with pytest.raises(ValueError, match=match):
            entry_point(PolyMatrix.from_entries(entries))

    def test_coefficients_are_read_only(self):
        R = PolyMatrix.from_entries(self.R_ENTRIES)
        assert len(R.det_roots) == 3
        with pytest.raises(ValueError, match="read-only"):
            R.coeffs[0, 0, 0] = 5.0


def _matrix_trim_reference(c):
    """Reference: the three-pass ``PolyMatrix`` trim that the one-pass trim
    replaced (finite input)."""
    c = np.asarray(c, dtype=float)
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        return np.zeros((1,) + c.shape[1:])
    keep = np.nonzero(np.abs(c).max(axis=(1, 2)) > TRIM_TOL * scale)[0]
    last = keep[-1] if keep.size else 0
    c = c[: last + 1].copy()
    c[np.abs(c) <= TRIM_TOL * scale] = 0.0
    return c


def _poly_trim_reference(c):
    """Reference: one entry trimmed on its own, trailing terms at most
    ``TRIM_TOL`` of its largest cut (finite input)."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if c.size == 0:
        return np.zeros(1)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.zeros(1)
    nz = np.nonzero(np.abs(c) > TRIM_TOL * scale)[0]
    if nz.size == 0:
        return np.zeros(1)
    return c[: nz[-1] + 1].copy()


# entry kinds, as factors of the stack's largest magnitude ``peak``; "cut"
# is ``TRIM_TOL * peak`` itself, "above" and "below" its float neighbours
_SMALL_KINDS = ["zero", "negzero", "tiny", "cut", "above", "below"]


@st.composite
def _trim_stack(draw):
    """A coefficient stack with exact zeros, ``-0.0``, entries at and beside
    the trim threshold and trailing degrees of only such entries; some are
    empty, all zero, or a transposed (non-contiguous) view."""
    deg, rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    peak = draw(st.sampled_from([0.0, 1e-300, 1e-8, 1.0, 3.7, 1e8, 1e300]))
    tail = draw(st.integers(0, deg))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cut = TRIM_TOL * peak
    value = {
        "zero": lambda: 0.0,
        "negzero": lambda: -0.0,
        "tiny": lambda: peak * 1e-16 * rng.choice([-1.0, 1.0]),
        "cut": lambda: cut * rng.choice([-1.0, 1.0]),
        "above": lambda: np.nextafter(cut, np.inf) * rng.choice([-1.0, 1.0]),
        "below": lambda: np.nextafter(cut, 0.0) * rng.choice([-1.0, 1.0]),
        "normal": lambda: peak * rng.uniform(-1.0, 1.0),
    }
    c = np.zeros((deg, rows, cols))
    for k in range(deg):
        kinds = _SMALL_KINDS + (["normal"] if k < deg - tail else [])
        for i in range(rows):
            for j in range(cols):
                c[k, i, j] = value[draw(st.sampled_from(kinds))]()
    if deg - tail > 0 and rows and cols:
        c[draw(st.integers(0, deg - tail - 1)), rng.integers(rows), rng.integers(cols)] = (
            peak * rng.choice([-1.0, 1.0])
        )
    if draw(st.booleans()):
        c = c.transpose(0, 2, 1)
    return c


class TestOnePassTrim:
    """The ``PolyMatrix`` trim equals its reference copy bit for bit, sign of
    zero included; a non-finite coefficient is an error."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(_trim_stack())
    def test_matches_reference(self, c):
        got = PolyMatrix(c).coeffs
        want = _matrix_trim_reference(c)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and not got.flags.writeable

    @pytest.mark.parametrize("shape", [(0, 2, 2), (3, 0, 2), (2, 2, 0), (0, 0, 0)])
    def test_empty_stack_is_zero(self, shape):
        got = PolyMatrix(np.zeros(shape)).coeffs
        assert got.shape == (1,) + shape[1:]
        assert got.tobytes() == _matrix_trim_reference(np.zeros(shape)).tobytes()

    @pytest.mark.parametrize(
        "coeffs", [[1.0, 2.0, np.inf], [1.0, np.nan, 3.0], [-np.inf], [np.nan, 0.0]]
    )
    def test_non_finite_coefficient_rejected(self, coeffs):
        with pytest.raises(NonFiniteError, match="non-finite"):
            PolyMatrix(np.array(coeffs)[:, None, None])

    def test_determinant_overflow_rejected(self):
        # det = 1e320 (xi + 1)(xi + 2) overflows; the error is not "singular"
        R = PolyMatrix.from_entries([[[1e160, 1e160], [0.0]], [[0.0], [2e160, 1e160]]])
        with pytest.raises(NonFiniteError):
            determinant(R)
        assert determinant(polytools.scale(R, 1e-150)).degree == 2


class TestDetRoots:
    """``det_roots`` are the eigenvalues of the column reduction's ``A_c``,
    computed once and read-only."""

    def test_kept_and_read_only(self):
        R = PolyMatrix.from_entries(TestDivisionData.R_ENTRIES)
        r = R.det_roots
        assert R.det_roots is r
        assert r.tobytes() == np.linalg.eigvals(R._reduction.Ac).astype(complex).tobytes()
        want = np.sort_complex(poly_roots(determinant(R)))
        assert np.allclose(np.sort_complex(r), want, atol=1e-12)
        with pytest.raises(ValueError, match="read-only"):
            r[0] = 0.0

    def test_hurwitz_computes_no_roots(self, monkeypatch):
        # the Hurwitz test reads eig(A); det_roots, read twice, reuses the
        # one column reduction and forms no polynomial root set
        calls = {"column_reduce": [], "poly_roots": []}
        for name, args in calls.items():
            orig = getattr(polymat, name)
            monkeypatch.setattr(polymat, name, lambda M, o=orig, a=args: a.append(M) or o(M))
        R = PolyMatrix.from_entries(TestDivisionData.R_ENTRIES)
        assert modes_hurwitz(SldsModel(modes=[R], gluing={})) == [True]
        assert R.det_roots is R.det_roots
        assert calls == {"column_reduce": [R], "poly_roots": []}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_integer_polymatrix(1, 1, 4), st.floats(1e-6, 1e6))
    def test_one_by_one_det_is_its_entry(self, P, scale):
        # a 1 x 1 matrix is column reduced: A_c is the companion matrix of
        # its entry, whose last row holds the entry's monic coefficients
        P = polytools.scale(P, scale)
        assume(not P.is_zero())
        c = P.entry(0, 0).coeffs[:, 0, 0]
        red = P._reduction
        assert red.degrees == (len(c) - 1,) and len(P.det_roots) == len(c) - 1
        if len(c) > 1:
            assert np.allclose(-red.Ac[-1] * c[-1], c[:-1], rtol=1e-15, atol=0.0)


@st.composite
def _scalar(draw):
    """Ascending coefficients of a scalar of degree 0..10 at a scale
    ``10^-100 .. 10^100``; its leading coefficient is at least a tenth of
    the scale, so the trim keeps it."""
    d = draw(st.integers(0, 10))
    lower = draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))
    lead = draw(st.floats(0.1, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return np.array(lower + [lead]) * 10.0 ** draw(st.integers(-100, 100))


class TestScalarReduction:
    """A nonzero scalar is column reduced as it stands: its reduction is
    closed form, equals the first chain of the matrix loop's, and factors
    nothing."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_scalar())
    def test_closed_form_is_the_loop_chain(self, c):
        R = PolyMatrix(c[:, None, None])
        r = R.coeffs[:, 0, 0]
        d = len(r) - 1
        red = column_reduce(R)
        assert red.Rp is R and red.degrees == (d,)
        assert red.U is red.Uinv and np.array_equal(red.U.coeffs, np.ones((1, 1, 1)))
        # xi Psi = A_c Psi + B_c R on the stacks, Psi the rows xi^k (k < d)
        psi = np.eye(d, d + 1)
        rhs = red.Ac @ psi + red.Bc @ r[None, :]
        terms = np.abs(red.Ac) @ psi + np.abs(red.Bc) @ np.abs(r)[None, :]
        assert np.all(np.abs(np.eye(d, d + 1, k=1) - rhs) <= 4e-16 * terms)
        # diag(r, r_d) runs the loop; its second column, a constant at the
        # leading coefficient's scale, adds no state
        G = np.zeros((d + 1, 2, 2))
        G[:, 0, 0], G[0, 1, 1] = r, r[-1]
        loop = column_reduce(PolyMatrix(G))
        assert loop.degrees == (d, 0)
        # every matrix reduced as it stands shares one identity per size
        assert red.U is column_reduce(PolyMatrix(np.ones((1, 1, 1)))).U
        assert loop.U is loop.Uinv is column_reduce(PolyMatrix(np.eye(2))).U
        np.testing.assert_array_equal(red.Ac, loop.Ac)
        np.testing.assert_array_equal(red.Bc, loop.Bc[:, :1])
        np.testing.assert_array_equal(red.O, loop.O[:1])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_scalar())
    def test_det_roots_are_the_roots(self, c):
        R = PolyMatrix(c[:, None, None])
        ref = np.roots(R.coeffs[::-1, 0, 0])
        big = max(1.0, np.abs(ref).max(initial=0.0))
        # a multiple root splits by eps^(1/m) either way: only separated ones compare
        gaps = np.abs(ref[:, None] - ref[None, :]) + np.diag(np.full(len(ref), np.inf))
        assume(gaps.min(initial=np.inf) > 1e-3 * big)
        got = R.det_roots
        assert len(got) == len(ref)
        for a, b in ((got, ref), (ref, got)):
            near = np.abs(a[:, None] - b[None, :]).min(axis=1, initial=np.inf)
            assert np.all(near <= 1e-8 * big)

    def test_zero_scalar_is_singular(self):
        with pytest.raises(ValueError, match=r"^matrix is singular \(a column reduces to zero\)$"):
            column_reduce(PolyMatrix(np.zeros((1, 1, 1))))

    def test_constant_has_no_state(self):
        R = PolyMatrix.from_entries([[[3.0]]])
        red = column_reduce(R)
        assert red.degrees == (0,) and R.det_roots.shape == (0,)
        assert (red.Ac.shape, red.Bc.shape, red.O.shape) == ((0, 0), (0, 1), (1, 0))
        with pytest.raises(ValueError, match="mode 1 has constant det R"):
            check_mode(1, R)

    @pytest.mark.parametrize("c", [[5e-324], [1e-310, 5e-320]])
    def test_subnormal_leading_coefficient(self, c):
        # 1 / r_d overflows: a NonFiniteError, and no RuntimeWarning
        with pytest.raises(NonFiniteError, match="^the leading column matrix has no inverse"):
            column_reduce(PolyMatrix(np.array(c)[:, None, None]))

    def test_takes_no_svd_or_inv(self, monkeypatch, tmp_path):
        # every reduction of the scalar positive-real route is closed form;
        # a 2 x 2 mode still runs the loop through the counted functions
        calls = []

        def counted(name):
            fn = getattr(np.linalg, name)
            return lambda *a, **k: calls.append(name) or fn(*a, **k)

        linalg = ModuleProxy(np.linalg, svd=counted("svd"), inv=counted("inv"))
        monkeypatch.setattr(polymat, "np", ModuleProxy(np, linalg=linalg))
        r1, r2 = (str(MODELS / f"standard_scalar_{r}.json") for r in ("r1", "r2"))
        for action in ("sprcheck", "mlf", "complete"):
            assert main(["posreal", action, "--r1", r1, "--r2", r2]) == 0
        assert calls == []
        column_reduce(_family_mode())
        assert calls == ["svd", "svd", "inv"]
