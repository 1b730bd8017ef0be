import numpy as np
import pytest

from sldstab.polymat import PolyMatrix
from sldstab.qdf import (
    TwoVarForm,
    divide_by_zeta_plus_eta,
    eval_along_trajectory,
    qdf_derivative,
    qdf_mod,
    sandwich,
    to_canonical,
    two_var_from_pair,
    two_var_product,
)


def _scalar_form(coeffs_2d):
    """Scalar two-variable form from a (m, m) coefficient grid."""
    a = np.asarray(coeffs_2d, dtype=float)
    return TwoVarForm(a[:, :, None, None])


class TestConstruction:
    def test_symmetrization(self):
        b = np.zeros((2, 2, 1, 1))
        b[0, 1, 0, 0] = 2.0
        psi = TwoVarForm(b)
        assert psi.blocks[0, 1, 0, 0] == pytest.approx(1.0)
        assert psi.blocks[1, 0, 0, 0] == pytest.approx(1.0)

    def test_trailing_zero_trim(self):
        b = np.zeros((3, 3, 1, 1))
        b[0, 0, 0, 0] = 1.0
        assert TwoVarForm(b).grid == 1

    def test_flat_round_trip(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((2, 2, 2, 2))
        psi = TwoVarForm(b)
        back = TwoVarForm.from_flat(psi.flat(), 2)
        assert np.allclose(psi.blocks, back.blocks)


class TestSandwich:
    def test_scalar_state_pair(self):
        # X = col(1, xi), K = [[11,3],[3,1]] -> psi = 11 + 3(z+e) + z*e
        X = PolyMatrix.from_entries([[[1.0]], [[0.0, 1.0]]])
        K = np.array([[11.0, 3.0], [3.0, 1.0]])
        psi = sandwich(X, K)
        expect = np.array([[11.0, 3.0], [3.0, 1.0]])
        assert np.allclose(psi.blocks[:, :, 0, 0], expect)

    def test_pair_form(self):
        # Y^T R + R^T Y for scalars Y = 3 + e, R = 2 + 3e + e^2
        Y = PolyMatrix.from_entries([[[3.0, 1.0]]])
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        phi = two_var_from_pair(Y, R)
        # phi(z, e) = Y(z)R(e) + R(z)Y(e)
        for z, e in [(0.5, -1.2), (2.0, 3.0)]:
            val = sum(
                phi.blocks[h, k, 0, 0] * z**h * e**k
                for h in range(phi.grid)
                for k in range(phi.grid)
            )
            expect = (3 + z) * (2 + 3 * e + e * e) + (2 + 3 * z + z * z) * (3 + e)
            assert val == pytest.approx(expect)


class TestDerivative:
    def test_matches_finite_differences(self):
        """d/dt of the QDF value along an exponential trajectory, 1e-6 tol."""
        X = PolyMatrix.from_entries([[[1.0]], [[0.0, 1.0]]])
        K = np.array([[11.0, 3.0], [3.0, 1.0]])
        psi = sandwich(X, K)
        dpsi = qdf_derivative(psi)

        lam = -1.3

        def derivs(t, depth):
            # w(t) = exp(lam t); j-th derivative = lam^j exp(lam t)
            return np.array([[lam**j * np.exp(lam * t)] for j in range(depth)])

        t0 = 0.37
        v = lambda t: eval_along_trajectory(psi, derivs(t, psi.grid))
        analytic = eval_along_trajectory(dpsi, derivs(t0, dpsi.grid))
        h = 1e-6
        numeric = (v(t0 + h) - v(t0 - h)) / (2 * h)
        assert analytic == pytest.approx(numeric, rel=1e-6)

    def test_shift_structure(self):
        psi = _scalar_form([[1.0]])
        d = qdf_derivative(psi)
        assert np.allclose(d.blocks[:, :, 0, 0], [[0.0, 1.0], [1.0, 0.0]])


class TestDivision:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((3, 3, 2, 2))
        psi = TwoVarForm(b)
        phi = qdf_derivative(psi)
        back = divide_by_zeta_plus_eta(phi)
        g = max(back.grid, psi.grid)
        assert np.allclose(back.pad(g), psi.pad(g))

    def test_not_divisible(self):
        with pytest.raises(ValueError):
            divide_by_zeta_plus_eta(_scalar_form([[1.0]]))

    def test_known_quotient(self):
        # (z+e) * (11 + 3z + 3e + z e) expanded then divided back
        psi = _scalar_form([[11.0, 3.0], [3.0, 1.0]])
        back = divide_by_zeta_plus_eta(qdf_derivative(psi))
        assert np.allclose(back.blocks[:, :, 0, 0], [[11.0, 3.0], [3.0, 1.0]])


class TestCanonical:
    def test_round_trip(self):
        X = PolyMatrix.from_entries([[[1.0]], [[0.0, 1.0]]])
        K = np.array([[11.0, 3.0], [3.0, 1.0]])
        psi = sandwich(X, K)
        assert np.allclose(to_canonical(psi, X), K)

    def test_rejects_inexpressible(self):
        X = PolyMatrix.from_entries([[[1.0]]])  # only the constant row
        psi = _scalar_form([[0.0, 0.0], [0.0, 1.0]])  # z*e needs the xi row
        with pytest.raises(ValueError):
            to_canonical(psi, X)

    def test_qdf_mod_reduces_degree(self):
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        # z^2 e^2 reduces modulo R to a grid-2 form
        psi = TwoVarForm(np.zeros((3, 3, 1, 1)) + 0.0)
        b = np.zeros((3, 3, 1, 1))
        b[2, 2, 0, 0] = 1.0
        psi = TwoVarForm(b)
        red = qdf_mod(psi, R)
        assert red.grid <= 2
        # and evaluation agrees at roots of det R (on-behavior equality)
        for lam in (-1.0, -2.0):
            val = sum(
                red.blocks[h, k, 0, 0] * lam**h * lam**k
                for h in range(red.grid)
                for k in range(red.grid)
            )
            assert val == pytest.approx(lam**4, rel=1e-8)


def _blockwise(A: PolyMatrix, S: np.ndarray, B: PolyMatrix) -> np.ndarray:
    """Reference ``A(z)^T S B(e)`` one coefficient block pair at a time."""
    g = max(A.coeffs.shape[0], B.coeffs.shape[0])
    b = np.zeros((g, g, A.cols, B.cols))
    for h in range(A.coeffs.shape[0]):
        for k in range(B.coeffs.shape[0]):
            b[h, k] = A.coeffs[h].T @ S @ B.coeffs[k]
    return b


class TestStackProducts:
    """The forms built from coefficient stacks match block-by-block loops."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_blockwise_reference(self, seed):
        rng = np.random.default_rng(seed)
        w, r = 2, 3
        M = PolyMatrix(rng.standard_normal((3, r, w)))
        N = PolyMatrix(rng.standard_normal((2, r, w)))
        K = rng.standard_normal((r, r))
        K = K + K.T
        signs = np.array([1.0, -1.0, 1.0])
        cases = [
            (sandwich(M, K), _blockwise(M, K, M)),
            (two_var_product(M, N, signs), _blockwise(M, np.diag(signs), N)),
            (
                two_var_from_pair(M, N),
                _blockwise(M, np.eye(r), N)
                + _blockwise(N, np.eye(r), M),
            ),
        ]
        for form, ref in cases:
            want = TwoVarForm(ref)
            assert form.blocks.shape == want.blocks.shape
            assert np.allclose(form.blocks, want.blocks, rtol=1e-14, atol=1e-14)

    def test_trajectory_value_matches_blockwise_sum(self):
        rng = np.random.default_rng(9)
        psi = TwoVarForm(rng.standard_normal((3, 3, 2, 2)))
        D = rng.standard_normal((4, 2))  # one derivative level more than needed
        want = sum(
            D[h] @ psi.blocks[h, k] @ D[k] for h in range(3) for k in range(3)
        )
        assert eval_along_trajectory(psi, D) == pytest.approx(want, rel=1e-14)


class TestProduct:
    def test_signed_product(self):
        M = PolyMatrix.from_entries([[[1.0]], [[0.0, 1.0]]])
        phi = two_var_product(M, M, signs=np.array([1.0, -1.0]))
        # psi(z,e) = 1*1 - z*e
        assert np.allclose(phi.blocks[:, :, 0, 0], [[1.0, 0.0], [0.0, -1.0]])
