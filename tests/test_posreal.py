import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sldstab import posreal, qdf, statespace
from sldstab.cli import main
from sldstab.fixtures import standard_scalar_pair
from sldstab.mlf import certificate_to_json, find_mlf, make_certificate, verify_mlf
from sldstab.model import normal_form
from sldstab.polymat import PolyMatrix, is_strictly_proper, polymatrix_from_json
from sldstab.posreal import (
    build_standard_slds,
    check_completion,
    is_strictly_positive_real,
    mlf_from_positive_real,
    para_hermitian_boundary,
    positive_real_completion,
    spectral_factorize,
)
from sldstab.qdf import qdf_mod, sandwich, to_canonical

MODELS = Path(__file__).resolve().parents[1] / "models"

# interlacing poles and zeros that sit close together
CLUSTERED = [
    ([6.0, 7.0, 9.5], [6.5, 7.5]),
    ([3.5, 4.5, 7.0, 10.0], [4.0, 5.5, 9.5]),
    ([1.5, 3.5, 7.0, 8.5], [2.0, 6.5, 7.5]),
]


def _scalar(coeffs):
    return PolyMatrix.from_entries([[list(coeffs)]])


def _from_roots(poles, zeros):
    """Scalar pair ``(R1, R2)`` with ``R1(-p) = 0`` and ``R2(-z) = 0``."""
    return tuple(
        PolyMatrix(np.poly(-np.asarray(r, dtype=float))[::-1, None, None])
        for r in (poles, zeros)
    )


class TestSprTest:
    def test_scalar_pair_is_spr(self):
        R1, R2 = standard_scalar_pair()
        ok, _ = is_strictly_positive_real(R2, R1)
        assert ok

    def test_right_half_plane_pole(self):
        ok, witness = is_strictly_positive_real(_scalar([1.0]), _scalar([-1.0, 1.0]))
        assert not ok
        assert "pole" in witness["reason"]

    def test_cancelled_pole_is_ignored(self):
        # (xi-1) / ((xi-1)(xi+2)): the unstable pole cancels
        ok, _ = is_strictly_positive_real(
            _scalar([-1.0, 1.0]), _scalar([-2.0, 1.0, 1.0])
        )
        assert ok

    def test_negative_boundary(self):
        ok, witness = is_strictly_positive_real(_scalar([-1.0]), _scalar([1.0, 1.0]))
        assert not ok
        assert "positive" in witness["reason"]

    def test_axis_zero_of_boundary(self):
        # G = xi / (xi + 1): boundary is 2 xi^2 -> vanishes at omega = 0
        ok, witness = is_strictly_positive_real(
            _scalar([0.0, 1.0]), _scalar([1.0, 1.0])
        )
        assert not ok

    def test_boundary_polynomial_value(self):
        R1, R2 = standard_scalar_pair()
        P = para_hermitian_boundary(R2, R1)
        assert np.allclose(P.coeffs.ravel(), [12.0])


# R1 = diag(xi + 1, xi^2 + 3 xi + 2): a w = 2 mode with three states
R1_W2 = PolyMatrix.from_entries([[[1.0, 1.0], [0.0]], [[0.0], [2.0, 3.0, 1.0]]])


def _interlacing(n):
    """Seeded scalar pair of degree ``n`` with ``p1 < z1 < ... < z_{n-1} < p_n``."""
    v = np.sort(np.random.default_rng(n).uniform(0.2, 20.0, 2 * n - 1))
    return _from_roots(v[0::2], v[1::2])


class TestSpectralFactorization:
    def test_constant(self):
        Q = spectral_factorize(_scalar([12.0]), _scalar([2.0, 3.0, 1.0])).Q
        assert Q.coeffs.ravel() == pytest.approx([2.0 * np.sqrt(3.0)])

    def test_degree_two(self):
        # 4 - 4 xi^2 = (2 - 2 xi)(2 + 2 xi) = Q(-xi) Q(xi)
        Q = spectral_factorize(_scalar([4.0, 0.0, -4.0]), _scalar([6.0, 5.0, 1.0])).Q
        P = Q.subs_neg().T @ Q
        assert np.allclose(P.coeffs.ravel()[:3], [4.0, 0.0, -4.0])

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="indefinite"):
            spectral_factorize(_scalar([-1.0]), _scalar([1.0, 1.0]))

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            spectral_factorize(_scalar([0.0, 4.0]), _scalar([2.0, 3.0, 1.0]))

    @pytest.mark.parametrize("degree", [None, 2, 3, 4, 5])
    def test_scalar_factor_has_one_row(self, degree):
        # a scalar factor is one polynomial q with q(-xi) q(xi) = P
        R1, R2 = standard_scalar_pair() if degree is None else _interlacing(degree)
        P = para_hermitian_boundary(R2, R1)
        Q = spectral_factorize(P, R1).Q
        assert Q.rows == 1
        resid = ((Q.subs_neg().T @ Q) - P).max_norm()
        assert resid <= posreal.FACTOR_TOL * max(1.0, P.max_norm())

    def test_two_by_two_gram_route(self):
        P = PolyMatrix.from_entries(
            [[[2.0], [0.0]], [[0.0], [2.0, 0.0, -2.0]]]
        )
        Q = spectral_factorize(P, R1_W2).Q
        resid = ((Q.subs_neg().T @ Q) - P).max_norm()
        assert resid < 1e-7 * P.max_norm()
        assert is_strictly_proper(Q, R1_W2)

    def test_three_by_three_gram_route(self):
        # diagonal entries r1 | r2: (xi+1)(xi+4) | 2(xi+2),
        # (xi+0.5)(xi+3) | xi+1, (xi+2)(xi+5) | xi+3; V couples the columns
        r1 = [[4.0, 5.0, 1.0], [1.5, 3.5, 1.0], [10.0, 7.0, 1.0]]
        r2 = [[4.0, 2.0], [1.0, 1.0], [3.0, 1.0]]
        V = PolyMatrix.from_entries(
            [[[1.0], [0.7, 1.3], [0.0]], [[0.0], [1.0], [0.0, 0.5]], [[0.0], [0.0], [1.0]]]
        )
        R1, R2 = (
            PolyMatrix.from_entries(
                [[r[i] if i == j else [0.0] for j in range(3)] for i in range(3)]
            ) @ V
            for r in (r1, r2)
        )
        P = para_hermitian_boundary(R2, R1)
        Q = spectral_factorize(P, R1).Q
        resid = ((Q.subs_neg().T @ Q) - P).max_norm()
        assert resid <= posreal.FACTOR_TOL * max(1.0, P.max_norm())
        assert is_strictly_proper(Q, R1)

    def test_indefinite_matrix_form_rejected(self):
        P = PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0], [-1.0]]])
        with pytest.raises(ValueError):
            spectral_factorize(P, R1_W2)


class TestStandardConstruction:
    def test_gluing_normal_form_exact_for_widely_spread_roots(self):
        # G+ of 2 -> 1 is X1 itself, so its normal form is exactly I.  The
        # Horner form F = sum_i G_i C A^i over the realization moves it by
        # 2.3e-9 on this pair, enough to fail switch_2_1; the division does not.
        R1 = _scalar(np.poly(-np.array([0.5, 3.0, 17.0, 95.0]))[::-1])
        R2 = _scalar(np.poly(-np.array([1.2, 7.0, 40.0]))[::-1])
        f_plus = normal_form(build_standard_slds(R1, R2).model)[(2, 1)].f_plus
        assert f_plus.shape == (4, 4)
        assert np.max(np.abs(f_plus - np.eye(4))) <= 1e-12

    def test_scalar_pair(self):
        R1, R2 = standard_scalar_pair()
        s = build_standard_slds(R1, R2)
        assert np.allclose(s.Pi, [[-3.0]])
        assert np.allclose(s.K, [[1.0]])
        assert (s.n1, s.n2) == (2, 1)
        # state maps are nested: first rows of X1 are exactly X2
        assert np.allclose(s.X1.entry(0, 0).coeffs, s.X2.entry(0, 0).coeffs)
        assert sorted(s.model.gluing) == [(1, 2), (2, 1)]

    def test_biproper_pair_rejected(self):
        R1, _ = standard_scalar_pair()
        with pytest.raises(ValueError, match="proper"):
            build_standard_slds(R1, R1)


class TestStorageCertificate:
    def test_known_kernels(self):
        R1, R2 = standard_scalar_pair()
        s = build_standard_slds(R1, R2)
        cert = mlf_from_positive_real(s)
        assert cert.route == "posreal"
        assert cert.feasible
        assert np.allclose(cert.kernels[0], [[11.0, 3.0], [3.0, 1.0]], atol=1e-8)
        assert np.allclose(cert.kernels[1], [[2.0]], atol=1e-8)

    def test_block_identity(self):
        # storage kernel satisfies Psi_12 = -Pi^T Psi_22
        R1, R2 = standard_scalar_pair()
        s = build_standard_slds(R1, R2)
        K1 = np.asarray(mlf_from_positive_real(s).kernels[0])
        n2 = s.n2
        assert np.allclose(K1[:n2, n2:], -s.Pi.T @ K1[n2:, n2:], atol=1e-8)

    @pytest.mark.parametrize("roots", [None] + CLUSTERED)
    def test_k2_is_psi1_mod_r2(self, roots):
        # the certificate's K2 = L21^T K1 L21 is Psi_1 mod R2 read over X2
        R1, R2 = standard_scalar_pair() if roots is None else _from_roots(*roots)
        s = build_standard_slds(R1, R2)
        K1, K2 = mlf_from_positive_real(s).kernels
        K2_qdf = to_canonical(qdf_mod(sandwich(s.X1, K1), R2), s.X2)
        assert np.max(np.abs(K2_qdf - K2)) <= 1e-7 * np.max(np.abs(K1))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 20), min_size=7, max_size=7, unique=True))
    def test_interlacing_half_integer_pairs_certify(self, grid):
        # magnitudes p1 < z1 < p2 < z2 < p3 < z3 < p4 on the grid 0.5, ..., 10
        v = np.sort(grid) / 2.0
        s = build_standard_slds(*_from_roots(v[0::2], v[1::2]))
        cert = mlf_from_positive_real(s)
        assert cert.feasible, cert.margins

    @pytest.mark.parametrize("roots", [None] + CLUSTERED)
    def test_certificate_is_made_by_make_certificate(self, roots):
        R1, R2 = standard_scalar_pair() if roots is None else _from_roots(*roots)
        s = build_standard_slds(R1, R2)
        cert = mlf_from_positive_real(s)
        again = make_certificate(
            s.model, "posreal", cert.kernels, solver={"iterations": 0, "budget": 0}
        )
        assert json.dumps(certificate_to_json(again)) == json.dumps(
            certificate_to_json(cert)
        )

    def test_verifies_and_lmi_cross_check(self):
        R1, R2 = standard_scalar_pair()
        s = build_standard_slds(R1, R2)
        cert = mlf_from_positive_real(s)
        ok, _ = verify_mlf(s.model, cert)
        assert ok
        lmi = find_mlf(s.model)
        assert lmi.feasible


class TestCompletion:
    def test_scalar_completion(self):
        R1, R2 = standard_scalar_pair()
        s = build_standard_slds(R1, R2)
        cert = mlf_from_positive_real(s)
        M = positive_real_completion(s, cert)
        assert np.allclose(M.coeffs.ravel(), [1.0], atol=1e-8)
        assert check_completion(M, R2, R1)

    def test_check_completion_rejects_bad_m(self):
        R1, R2 = standard_scalar_pair()
        assert not check_completion(_scalar([-1.0]), R2, R1)


def test_complete_derives_each_object_once(tmp_path, monkeypatch, capsys):
    calls = {"spectral_factorize": [], "para_hermitian_boundary": [], "qdf_mod": []}
    for mod, name in (
        (posreal, "spectral_factorize"),
        (posreal, "para_hermitian_boundary"),
        (qdf, "qdf_mod"),
    ):
        def counted(*args, _f=getattr(mod, name), _name=name):
            calls[_name].append(args)
            return _f(*args)

        monkeypatch.setattr(mod, name, counted)
    r1, r2 = MODELS / "standard_scalar_r1.json", MODELS / "standard_scalar_r2.json"
    out = tmp_path / "completion.json"
    assert main(["posreal", "complete", "--r1", str(r1), "--r2", str(r2),
                 "--out", str(out)]) == 0
    R1, R2 = standard_scalar_pair()
    M = polymatrix_from_json(json.loads(out.read_text()))
    assert len(calls["spectral_factorize"]) == 1
    assert len(calls["qdf_mod"]) == 0
    # one boundary form for (R2, R1), one inside check_completion for (M R2, R1)
    (n_a, d_a), (n_b, d_b) = calls["para_hermitian_boundary"]
    assert np.array_equal(n_a.coeffs, R2.coeffs)
    assert np.allclose(n_b.coeffs, (M @ R2).coeffs)
    assert np.array_equal(d_a.coeffs, R1.coeffs)
    assert np.array_equal(d_b.coeffs, R1.coeffs)


def test_mlf_realizes_each_mode_once(tmp_path, monkeypatch):
    # the standard model's construction is the one check of X1
    calls = []
    orig = statespace.realize

    def counted(*args):
        calls.append(args)
        return orig(*args)

    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("sldstab"):
            if getattr(mod, "realize", None) is orig:
                monkeypatch.setattr(mod, "realize", counted)
    r1, r2 = MODELS / "standard_scalar_r1.json", MODELS / "standard_scalar_r2.json"
    out = tmp_path / "cert.json"
    assert main(["posreal", "mlf", "--r1", str(r1), "--r2", str(r2),
                 "--out", str(out)]) == 0
    assert len(calls) == 2
