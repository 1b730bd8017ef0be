import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sldstab import posreal, qdf, statespace
from sldstab.cli import main
from sldstab.fixtures import standard_scalar_pair
from sldstab.mlf import certificate_to_json, find_mlf, make_certificate, verify_mlf
from sldstab.model import normal_form
from sldstab.polymat import (
    PolyMatrix,
    column_reduce,
    is_strictly_proper,
    polymatrix_from_json,
    polymatrix_to_json,
)
from sldstab.posreal import (
    build_standard_slds,
    is_strictly_positive_real,
    mlf_from_positive_real,
    para_hermitian_boundary,
    positive_real_completion,
    spectral_factorize,
)
from sldstab.qdf import (
    divide_by_zeta_plus_eta,
    qdf_mod,
    sandwich,
    to_canonical,
    two_var_from_pair,
    two_var_product,
)

import polytools
from polytools import polynomial_part

MODELS = Path(__file__).resolve().parents[1] / "models"
XI = sympy.symbols("xi")

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


# N D^{-1} = diag(1 / (xi+2), 1 / ((xi-2)(xi+3))) with N = diag(xi-1, 1) V and
# D = diag((xi-1)(xi+2), (xi-2)(xi+3)) V: of det D's right half-plane roots
# 1 and 2, the pole at 1 cancels
W2_V = PolyMatrix.from_entries([[[1.0], [0.5, 1.0]], [[0.0], [1.0]]])
W2_POLES = (
    PolyMatrix.from_entries([[[-1.0, 1.0], [0.0]], [[0.0], [1.0]]]) @ W2_V,
    PolyMatrix.from_entries([[[-2.0, 1.0, 1.0], [0.0]], [[0.0], [-6.0, 1.0, 1.0]]]) @ W2_V,
)


class TestSprTest:
    def test_scalar_pair_is_spr(self):
        R1, R2 = standard_scalar_pair()
        ok, _ = is_strictly_positive_real(R2, R1)
        assert ok

    def test_right_half_plane_pole(self):
        # 1 / (xi-1); (xi-1) / ((xi-1)^2 (xi+2)), where one of the two poles
        # at 1 cancels; and W2_POLES' pair, whose pole at 1 cancels and whose
        # pole at 2 does not
        for N, D, pole in [
            (_scalar([1.0]), _scalar([-1.0, 1.0]), 1.0),
            (_scalar([-1.0, 1.0]), _scalar([2.0, -3.0, 0.0, 1.0]), 1.0),
            (*W2_POLES, 2.0),
        ]:
            ok, witness = is_strictly_positive_real(N, D)
            assert not ok
            assert "pole" in witness["reason"]
            assert witness["pole"] == pytest.approx(pole, abs=1e-9)

    def test_cancelled_pole_is_ignored(self):
        # (xi-1) / ((xi-1)(xi+2)): the unstable pole cancels; so do both of
        # W2_POLES' once N's second row is (xi - 2) times the same V
        N2 = PolyMatrix.from_entries([[[-1.0, 1.0], [0.0]], [[0.0], [-2.0, 1.0]]]) @ W2_V
        for N, D in [(_scalar([-1.0, 1.0]), _scalar([-2.0, 1.0, 1.0])), (N2, W2_POLES[1])]:
            ok, witness = is_strictly_positive_real(N, D)
            assert ok, witness

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


def _relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _standard_pairs():
    """``(name, (R1, R2))``: the bundled pair, the spread pair, the clustered
    pairs, 90 seeded ``gen.spr_pair`` pairs of degree 2 to 5 and the 4 matrix
    pairs of ``tests/test_cli.py``."""
    from test_cli import MATRIX_PAIRS
    from test_statespace import _generators

    yield "bundled", standard_scalar_pair()
    yield "spread", _from_roots([0.5, 3.0, 17.0, 95.0], [1.2, 7.0, 40.0])
    for i, roots in enumerate(CLUSTERED):
        yield f"clustered {i}", _from_roots(*roots)
    gen, rng = _generators(), np.random.default_rng(41)
    for i in range(90):
        yield f"spr_pair {i}", tuple(_scalar(r) for r in gen.spr_pair(rng, 2 + i % 4))
    for name, pair in sorted(MATRIX_PAIRS.items()):
        yield name, pair()


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

    def test_feed_through_test_is_relative(self):
        # R1 = 1e6 diag((xi+1)(xi+2), (xi+1)(xi+4)), R2 = 1e6 diag(xi+3, xi+2):
        # the regular K = 1e-6 I has det 1e-12, so only a relative test passes it
        R1 = PolyMatrix.from_entries([[[2e6, 3e6, 1e6], [0.0]], [[0.0], [4e6, 5e6, 1e6]]])
        R2 = PolyMatrix.from_entries([[[3e6, 1e6], [0.0]], [[0.0], [2e6, 1e6]]])
        s = build_standard_slds(R1, R2)
        assert np.allclose(s.K, 1e-6 * np.eye(2), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("c", [1.0, 1e-3, 1e3, 1e6])
    def test_k_and_pi_match_the_division_oracle(self, c):
        # K is B1 on the X1' rows and Pi is read off R2's column reduction;
        # both agree with the division they replaced: K the polynomial part
        # of xi X1' R1^{-1}, Pi the least-squares fit of X1' mod R2 over X2
        n = 0
        for name, (R1, R2) in _standard_pairs():
            s = build_standard_slds(polytools.scale(R1, c), polytools.scale(R2, c))
            K = polynomial_part(polytools.scale(s.X1p, [0.0, 1.0]), s.R1)
            assert K.degree <= 0, name
            assert _relative_gap(s.K, K.coeffs[0]) <= 1e-12, name
            rep = s.X1p - polynomial_part(s.X1p, s.R2) @ s.R2
            grid = max(rep.coeffs.shape[0], s.X2.coeffs.shape[0])
            Pi = np.linalg.lstsq(s.X2.stack(grid).T, rep.stack(grid).T, rcond=None)[0].T
            assert _relative_gap(s.Pi, Pi) <= 1e-12, name
            n += 1
        assert n == 1 + 1 + len(CLUSTERED) + 90 + 4

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

    def test_storage_kernel_matches_the_qdf_division(self):
        # the Lyapunov solve gives the kernel that the two-variable division
        # (R1(z)^T R2(e) + R2(z)^T R1(e) - Q(z)^T Q(e)) / (z + e) writes over X1
        n = 0
        for name, (R1, R2) in _standard_pairs():
            s = build_standard_slds(R1, R2)
            K1 = mlf_from_positive_real(s).kernels[0]
            Q = spectral_factorize(s.boundary, R1, s.X1).Q
            psi1 = divide_by_zeta_plus_eta(two_var_from_pair(R1, R2) - two_var_product(Q, Q))
            assert _relative_gap(K1, to_canonical(psi1, s.X1)) <= 1e-9, name
            n += 1
        assert n == 1 + 1 + len(CLUSTERED) + 90 + 4

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
        assert is_strictly_positive_real(M @ R2, R1)[0]

    def test_check_completion_rejects_bad_m(self):
        # M = -1 turns the SPR R2 R1^{-1} into -R2 R1^{-1}, which is not SPR
        R1, R2 = standard_scalar_pair()
        assert not is_strictly_positive_real(-R2, R1)[0]

    def test_complete_returns_the_identity(self):
        # positive_real_completion returns I exactly; the closed form
        # M = H_p P, P the polynomial part of X1' R2^{-1}, is I to rounding
        n = 0
        for name, (R1, R2) in _standard_pairs():
            s = build_standard_slds(R1, R2)
            M = positive_real_completion(s, mlf_from_positive_real(s))
            assert np.array_equal(M.coeffs, np.eye(R1.rows)[None]), name
            _, H = s.supply
            closed = PolyMatrix(H[None, :, s.n2 :]) @ polynomial_part(s.X1p, R2)
            assert (closed - PolyMatrix.identity(R1.rows)).max_norm() <= 1e-12, name
            n += 1
        assert n == 1 + 1 + len(CLUSTERED) + 90 + 4


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
    # one boundary form, for (R2, R1): the completion M = I builds none
    ((n_a, d_a),) = calls["para_hermitian_boundary"]
    assert np.array_equal(n_a.coeffs, R2.coeffs)
    assert np.array_equal((M @ R2).coeffs, R2.coeffs)
    assert np.array_equal(d_a.coeffs, R1.coeffs)


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


VCOUPLED = json.loads((Path(__file__).parent / "data" / "vcoupled_w3_pair.json").read_text())


class TestVCoupledW3Pair:
    """The ``V``-coupled ``w = 3`` pair of ``tests/data/vcoupled_w3_pair.json``,
    whose boundary forms are far from column reduced: column degrees 7, 8
    and 8 for ``deg det P = 10``."""

    @staticmethod
    def _pair():
        return tuple(polymatrix_from_json(VCOUPLED[k]) for k in ("r1", "r2"))

    def test_is_draw_21_of_the_census(self):
        # tests/census_w3.py rebuilds the pair from its description
        from census_w3 import vcoupled_w3_draws

        *_, draw = vcoupled_w3_draws(np.random.default_rng(7), 22)
        for key in ("r1_diag", "r2_diag"):
            assert [list(map(float, r)) for r in draw[key]] == VCOUPLED[key]
        for key in ("V", "r1", "r2"):
            M = draw[key]
            grid = [[list(map(float, M.coeffs[:, i, j])) for j in range(M.cols)] for i in range(M.rows)]
            assert grid == VCOUPLED[key], key

    def test_complete_exits_0(self, tmp_path, capsys):
        # the completion M = I builds no boundary form of its own; a check of
        # P' = boundary(M R2, R1) with M = I up to rounding once failed here,
        # at a root omega = -6.4e5 of the Leibniz det P' (its leading
        # coefficient -2.3e-9 against 1.3e4)
        paths = []
        for k in ("r1", "r2"):
            paths.append(tmp_path / f"{k}.json")
            paths[-1].write_text(json.dumps(VCOUPLED[k]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["posreal", "complete", "--r1", str(paths[0]), "--r2", str(paths[1])]) == 0
        assert capsys.readouterr().err == ""

    def test_boundary_form_mode_is_not_singular(self, tmp_path, capsys):
        # P is nonsingular (sigma_min P(j) = 3.2), yet its column reduction
        # divided by a zero pivot and reduced a column to zero; as a mode it
        # is not Hurwitz, since its roots come in pairs +-lam
        R1, R2 = self._pair()
        P = para_hermitian_boundary(R2, R1)
        assert np.linalg.svd(P(1j), compute_uv=False)[-1] > 1.0
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"variables": 3, "modes": [polymatrix_to_json(P)], "gluing": []}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", str(path)]) == 1
        out, err = capsys.readouterr()
        assert "singular" not in out + err
        assert "not Hurwitz" in out

    def test_boundary_form_degree_is_exact(self):
        # sum d_j of the float P's reduction is deg det P of the exact
        # P built from the pair's exact factors diag(r_i) and V
        R1, R2 = self._pair()
        red = column_reduce(para_hermitian_boundary(R2, R1))

        def exact(entries):
            return [sum(sympy.Rational(c) * XI**k for k, c in enumerate(e)) for e in entries]

        V = sympy.Matrix([exact(row) for row in VCOUPLED["V"]])
        R1e, R2e = (sympy.diag(*exact(VCOUPLED[k])) * V for k in ("r1_diag", "r2_diag"))
        Pe = R1e.subs(XI, -XI).T * R2e + R2e.subs(XI, -XI).T * R1e
        degree = sympy.Poly(Pe.det(method="berkowitz"), XI).degree()
        assert sum(red.degrees) == degree == 10


@pytest.mark.parametrize("seed, k", [(11, 4), (11, 55), (7, 46), (7, 19)])
def test_census_pair_certifies_and_completes(tmp_path, seed, k):
    """``tests/census_w3.py`` pairs: each certifies, its certificate verifies
    and ``complete`` writes ``I``.  A rank test on raw coefficient stacks
    failed to extend pair 46's and pair 4's ``X2``, and extended pair 55's by
    a row dependent to 1e-12.  Pair 19 passed it; with ``X1'`` from an
    orthonormal complement, its closed-form ``M`` was ``I`` only to 4e-11,
    and a second SPR test on the boundary form of ``M R2`` rejected it."""
    from census_w3 import vcoupled_w3_draws

    *_, draw = vcoupled_w3_draws(np.random.default_rng(seed), k + 1)
    pair = []
    for key in ("r1", "r2"):
        pair += [f"--{key}", str(tmp_path / f"{key}.json")]
        (tmp_path / f"{key}.json").write_text(json.dumps(polymatrix_to_json(draw[key])))
    cert, M = tmp_path / "cert.json", tmp_path / "m.json"
    assert main(["posreal", "mlf", *pair, "--out", str(cert)]) == 0
    assert main(["check", str(tmp_path / "cert_model.json"), "--verify-only", str(cert)]) == 0
    assert main(["posreal", "complete", *pair, "--out", str(M)]) == 0
    assert polymatrix_from_json(json.loads(M.read_text())).coeffs.tolist() == [np.eye(3).tolist()]
