import copy
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from sldstab.cli import main
from sldstab.fixtures import concond, elcirc, exmath, source_converter
from sldstab.mlf import (
    EPS_REL,
    assemble_ple_lmi,
    certificate_from_json,
    certificate_to_json,
    find_mlf,
    make_certificate,
    problem_scale,
    scan_canonical_family,
    verify_mlf,
)
from sldstab.model import load_model
from sldstab.polymat import PolyMatrix
from sldstab.qdf import qdf_derivative, qdf_mod, sandwich, two_var_from_pair
from sldstab.statespace import minimal_state_map

DATA = Path(__file__).resolve().parent / "data"
MODELS = Path(__file__).resolve().parents[1] / "models"


class TestCircuit:
    def test_certifies(self):
        cert = find_mlf(elcirc())
        assert cert.feasible
        ok, margins = verify_mlf(elcirc(), cert)
        assert ok
        assert min(margins.values()) >= cert.epsilon / 2

    def test_known_kernels_verify(self):
        # V_k = 0.5 x_k^2 works for both modes of the switched RC pair
        model = elcirc()
        cert = make_certificate(model, "lmi", [[[0.5]], [[0.5]]])
        ok, margins = verify_mlf(model, cert)
        assert ok
        # capacitor paralleling dumps energy: large slack on the 2 -> 1 jump
        assert margins["switch_2_1"] > 0.3


class TestConverter:
    def test_both_routes_certify(self):
        model = source_converter(4)
        cert = find_mlf(model)
        assert cert.feasible, cert.route
        ok, _ = verify_mlf(model, cert)
        assert ok, cert.route

    def test_published_kernels_verify(self):
        model = source_converter(4)
        K12 = np.array([[0.00123, -0.00002], [-0.00002, 0.00112]])
        K34 = np.zeros((3, 3))
        K34[:2, :2] = K12
        K34[2, 2] = 0.00121
        for route in ("exact", "conservative"):
            cert = make_certificate(model, route, [K12, K12, K34, K34])
            ok, margins = verify_mlf(model, cert)
            assert ok, route
            assert min(margins.values()) >= cert.epsilon / 2

    def test_six_mode_certifies(self):
        cert = find_mlf(source_converter(6))
        assert cert.feasible


class TestLyapunovOnce:
    def test_one_solve_per_mode(self, monkeypatch):
        # the scale of eps and the warm start come from one solve per mode
        model = source_converter(6)
        calls = []
        solve = scipy.linalg.solve_lyapunov
        monkeypatch.setattr(
            scipy.linalg, "solve_lyapunov", lambda *a: calls.append(a) or solve(*a)
        )
        cert = find_mlf(model)
        assert cert.feasible
        assert len(calls) == model.n_modes


class TestDefectiveMode:
    def test_exact_route_rejects(self, capsys):
        # the search needs no eigenvectors, so a defective root does not stop
        # it: --route exact runs the one search, which finds no certificate
        assert main(["check", str(MODELS / "concond.json"), "--route", "exact"]) == 2
        out = capsys.readouterr().out
        assert "defective" not in out
        assert "route lmi: feasible=False" in out

    def test_conservative_route_reports_no_certificate(self):
        cert = find_mlf(concond())
        assert not cert.feasible
        # honest failure: margins are reported, not clamped
        assert min(cert.margins.values()) < 0


class TestExactRouteFamilyDraw:
    def test_certified_within_small_budget(self):
        # common-Lyapunov family draw (w = 2, 4 modes, ill-conditioned
        # unimodular factors) on which a search over K and free Y with the
        # ple cones ran 3,000 Newton steps without a certificate
        model = load_model(DATA / "family_stall.json")
        cert = find_mlf(model, budget=200)
        assert cert.feasible
        ok, _ = verify_mlf(model, cert)
        assert ok


class TestCertificateContract:
    @pytest.mark.parametrize("round_trip", [False, True])
    def test_multipliers_and_ple_margins(self, round_trip):
        model = source_converter(4)
        cert = find_mlf(model)
        assert cert.feasible
        if round_trip:
            # the contract survives the certificate file
            cert = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
        for real, K, Y in zip(model.realizations, cert.kernels, cert.multipliers):
            assert np.array_equal(Y, real.B.T @ K)
        doc = certificate_to_json(cert)
        for k, mode in enumerate(doc["modes"], start=1):
            assert mode["margins"][f"ple_{k}"] >= cert.epsilon / 2

    def test_perturbed_multiplier_rejected(self):
        model = source_converter(4)
        cert = find_mlf(model)
        for k in range(model.n_modes):
            bad = copy.deepcopy(cert)
            bad.multipliers[k] = 1.001 * bad.multipliers[k]
            ok, margins = verify_mlf(model, bad)
            assert not ok
            failing = [n for n, m in margins.items() if m < cert.epsilon / 2]
            assert failing == [f"ple_{k + 1}"]


class TestMakeCertificate:
    @pytest.mark.parametrize("name", ["elcirc", "source_converter_4mode"])
    def test_search_certificate_is_made_by_make_certificate(self, name):
        model = load_model(MODELS / f"{name}.json")
        cert = find_mlf(model)
        again = make_certificate(
            model,
            "lmi",
            cert.kernels,
            eps=cert.epsilon,
            solver={k: cert.solver[k] for k in ("iterations", "budget")},
        )
        # json.dumps compares key order too
        assert json.dumps(certificate_to_json(again)) == json.dumps(
            certificate_to_json(cert)
        )
        assert list(cert.solver) == ["feasible", "iterations", "budget"]

    def test_default_eps_and_solver(self):
        model = elcirc()
        cert = make_certificate(model, "lmi", [[[0.5]], [[0.5]]])
        assert cert.epsilon == EPS_REL * problem_scale(model)
        assert cert.solver == {"feasible": True}
        bad = make_certificate(model, "lmi", [[[0.5]], [[-0.5]]])
        assert bad.solver == {"feasible": False}
        assert bad.margins["pos_2"] < 0


class TestPleAssembly:
    def test_scalar_known_answer(self):
        # R = xi + 1, supply Q = sqrt(2): Kbar = 1, Ybar = 1
        R = PolyMatrix.from_entries([[[1.0, 1.0]]])
        X = minimal_state_map(R)
        prob = assemble_ple_lmi(R, X, [[np.sqrt(2.0)]])
        margins = prob.verify(
            {"K": np.array([[1.0]]), "Y": np.array([[1.0]])}, eps=1e-9
        )
        assert margins["ple"] > 0

    def test_degree_two_known_answer(self):
        # R = xi^2 + 3 xi + 2 with Q = 2 sqrt(3) on the first state row
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        X = minimal_state_map(R)
        prob = assemble_ple_lmi(
            R, X, [[2.0 * np.sqrt(3.0), 0.0]], require_positive=True, eps=1e-9
        )
        K = np.array([[11.0, 3.0], [3.0, 1.0]])
        Y = np.array([[3.0, 1.0]])
        margins = prob.verify({"K": K, "Y": Y}, eps=1e-9)
        assert all(m > 0 for m in margins.values())

    def test_zero_supply_forces_zero_kernel(self):
        R = PolyMatrix.from_entries([[[1.0, 1.0]]])
        X = minimal_state_map(R)
        rep = assemble_ple_lmi(R, X, [[0.0]]).solve(eps=1e-9)
        assert rep.feasible
        assert np.allclose(rep.values["K"], 0.0, atol=1e-8)

    def test_wrong_supply_width_rejected(self):
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        X = minimal_state_map(R)
        with pytest.raises(ValueError):
            assemble_ple_lmi(R, X, [[1.0, 0.0, 0.0]])


class TestDecayFormInvariant:
    @pytest.mark.parametrize("build", [elcirc, lambda: source_converter(4)])
    def test_two_variable_identity(self, build):
        """(z+e) X'KX - (YX)'R - R'(YX) == X'Fbar X modulo R, Y = B'K."""
        model = build()
        cert = find_mlf(model)
        assert cert.feasible
        for real, K, F in zip(model.realizations, cert.kernels, cert.fbars):
            Y = real.B.T @ np.asarray(K)
            YX = PolyMatrix(Y[None]) @ real.X
            lhs = qdf_mod(
                qdf_derivative(sandwich(real.X, K))
                - two_var_from_pair(YX, real.R),
                real.R,
            )
            rhs = qdf_mod(sandwich(real.X, np.asarray(F)), real.R)
            g = max(lhs.grid, rhs.grid)
            scale = max(1.0, float(np.max(np.abs(rhs.pad(g)))))
            assert np.max(np.abs(lhs.pad(g) - rhs.pad(g))) < 1e-8 * scale


class TestFamilyScan:
    def test_report_is_self_consistent(self):
        report = scan_canonical_family(exmath())
        assert report["consistent"]
        assert report["scan_feasible"] == report["lmi_feasible"]
        # every grid point names its binding condition group
        assert all(
            r["binding"] in ("positivity", "decay", "switch")
            for r in report["results"]
        )
        # the ple conditions are checked and count as decay
        for r in report["results"]:
            m = r["margins"]
            assert {"ple_1", "ple_2"} <= set(m)
            assert r["group_margins"]["decay"] == min(
                v for name, v in m.items() if name.startswith(("decay_", "ple_"))
            )

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            scan_canonical_family(source_converter(4))
        with pytest.raises(ValueError):
            scan_canonical_family(concond())


class TestJson:
    def test_round_trip(self):
        model = elcirc()
        cert = find_mlf(model)
        back = certificate_from_json(certificate_to_json(cert))
        assert back.route == cert.route
        for a, b in zip(cert.kernels, back.kernels):
            assert np.allclose(a, b)
        for a, b in zip(cert.fbars, back.fbars):
            assert np.allclose(a, b)
        ok, _ = verify_mlf(model, back)
        assert ok

    def test_rejects_asymmetric_kernel(self):
        cert = find_mlf(elcirc())
        doc = certificate_to_json(cert)
        doc["modes"][0]["K"] = [[1.0, 2.0], [0.0, 1.0]]
        with pytest.raises(ValueError):
            certificate_from_json(doc)
