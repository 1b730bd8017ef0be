import json
from pathlib import Path

import numpy as np
import pytest

from sldstab.cli import main
from sldstab.fixtures import unstable_mode
from sldstab.model import SldsModel, model_to_json
from sldstab.polymat import PolyMatrix, polymatrix_to_json

ROOT = Path(__file__).resolve().parents[1]
MODELS = ROOT / "models"

ELCIRC = str(MODELS / "elcirc.json")
CONCOND = str(MODELS / "concond.json")
R1 = str(MODELS / "standard_scalar_r1.json")
R2 = str(MODELS / "standard_scalar_r2.json")
SIGNAL = str(MODELS / "elcirc_periodic.json")
CONVERTER4 = str(MODELS / "source_converter_4mode.json")
DATA = Path(__file__).resolve().parent / "data"


class TestCheck:
    def test_certifies_circuit(self, capsys):
        assert main(["check", ELCIRC]) == 0
        out = capsys.readouterr().out
        assert "certified stable" in out

    def test_verify_only_round_trip(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main(["check", ELCIRC, "--out", str(cert)]) == 0
        capsys.readouterr()
        assert main(["check", ELCIRC, "--verify-only", str(cert)]) == 0
        first = capsys.readouterr().out
        assert main(["check", ELCIRC, "--verify-only", str(cert)]) == 0
        second = capsys.readouterr().out
        # verification is deterministic: byte-identical margin report
        assert first == second
        assert "certificate verifies" in first

    def test_no_certificate_is_not_instability(self, capsys):
        assert main(["check", CONCOND]) == 2
        out = capsys.readouterr().out
        assert "does NOT prove instability" in out

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad)]) == 1

    def test_unstable_mode_diagnosed(self, tmp_path, capsys):
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(model_to_json(unstable_mode())))
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "not Hurwitz" in out

    def test_ill_posed_transition_named(self, tmp_path, capsys):
        R = PolyMatrix.from_entries([[[1.0, 1.0]]])
        zero = PolyMatrix.from_entries([[[0.0]]])
        one = PolyMatrix.identity(1)
        model = SldsModel(modes=[R, R], gluing={(1, 2): (one, zero)})
        path = tmp_path / "illposed.json"
        path.write_text(json.dumps(model_to_json(model)))
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "1->2" in out and "not well-posed" in out

    def test_verify_only_free_multipliers(self, capsys):
        # certificate from a search that solved for Y_k as free variables,
        # so Y_k differs from B_k^T K_k; the ple_k re-check still accepts it
        cert = str(DATA / "converter4_free_multipliers.cert.json")
        assert main(["check", CONVERTER4, "--verify-only", cert]) == 0
        assert "certificate verifies" in capsys.readouterr().out

    def test_unknown_tolerance_key(self, tmp_path, capsys):
        tol = tmp_path / "tol.json"
        tol.write_text(json.dumps({"epsilon": 1e-7}))
        assert main(["check", ELCIRC, "--tolerances", str(tol)]) == 1
        assert "unknown tolerance" in capsys.readouterr().err


class TestSimulate:
    def test_audited_run(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main(["check", ELCIRC, "--out", str(cert)]) == 0
        trace = tmp_path / "trace.csv"
        rc = main([
            "simulate", ELCIRC, "--signal", SIGNAL, "--x0", "1.0",
            "--t-end", "8.0", "--dt", "0.05", "--cert", str(cert),
            "--out", str(trace),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "audit: ok=True" in out
        assert trace.exists()
        assert (tmp_path / "trace.csv.events.json").exists()

    def test_corrupt_certificate_fails_audit(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main(["check", ELCIRC, "--out", str(cert)]) == 0
        doc = json.loads(cert.read_text())
        doc["modes"][1]["K"] = [[10.0 * doc["modes"][1]["K"][0][0]]]
        bad = tmp_path / "bad_cert.json"
        bad.write_text(json.dumps(doc))
        rc = main([
            "simulate", ELCIRC, "--signal", SIGNAL, "--x0", "1.0",
            "--t-end", "8.0", "--dt", "0.05", "--cert", str(bad),
        ])
        assert rc == 3
        assert "audit: ok=False" in capsys.readouterr().out

    def test_missing_transition_named(self, tmp_path, capsys):
        doc = json.loads(Path(ELCIRC).read_text())
        doc["gluing"] = [
            g for g in doc["gluing"] if (g["from"], g["to"]) != (2, 1)
        ]
        model = tmp_path / "one_way.json"
        model.write_text(json.dumps(doc))
        sig = tmp_path / "sig.json"
        sig.write_text(json.dumps({"initial_mode": 2, "events": [[0.5, 1]]}))
        rc = main([
            "simulate", str(model), "--signal", str(sig), "--x0", "1.0",
            "--t-end", "1.0", "--dt", "0.1",
        ])
        assert rc == 1
        assert "2->1" in capsys.readouterr().err


class TestPosreal:
    def test_sprcheck(self, capsys):
        assert main(["posreal", "sprcheck", "--r1", R1, "--r2", R2]) == 0
        assert "True" in capsys.readouterr().out

    def test_sprcheck_failure(self, tmp_path, capsys):
        # a non-Hurwitz denominator gives an uncancelled right-half-plane pole
        bad = tmp_path / "r1_bad.json"
        bad.write_text(json.dumps(polymatrix_to_json(
            PolyMatrix.from_entries([[[-1.0, 1.0]]])
        )))
        assert main(["posreal", "sprcheck", "--r1", str(bad), "--r2", R2]) == 2

    def test_mlf_and_completion(self, tmp_path, capsys):
        cert = tmp_path / "spr_cert.json"
        assert main(["posreal", "mlf", "--r1", R1, "--r2", R2,
                     "--out", str(cert)]) == 0
        model_path = tmp_path / "spr_cert_model.json"
        assert model_path.exists()
        capsys.readouterr()
        # emitted model re-certifies through the generic LMI route
        assert main(["check", str(model_path)]) == 0
        assert main(["posreal", "complete", "--r1", R1, "--r2", R2]) == 0

    def test_mlf_with_widely_spread_roots(self, tmp_path, capsys):
        # |r(lambda)| at the computed root -95 is rounding noise far above
        # 1e-8 in absolute terms; the kernel test must be relative
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for path, roots in ((r1, [0.5, 3.0, 17.0, 95.0]), (r2, [1.2, 7.0, 40.0])):
            coeffs = np.poly(-np.asarray(roots))[::-1]
            path.write_text(json.dumps([[list(map(float, coeffs))]]))
        assert main(["posreal", "sprcheck", "--r1", str(r1), "--r2", str(r2)]) == 0
        cert = tmp_path / "cert.json"
        assert main(["posreal", "mlf", "--r1", str(r1), "--r2", str(r2),
                     "--out", str(cert)]) == 0
        model_path = str(tmp_path / "cert_model.json")
        assert main(["check", model_path, "--verify-only", str(cert)]) == 0

    def test_unverified_certificate_not_written(self, tmp_path, capsys):
        # closely clustered roots: the storage kernel's switch margin falls
        # below -eps, so neither action may report success or write a file
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for path, roots in ((r1, [3.5, 4.5, 7.0, 10.0]), (r2, [4.0, 5.5, 9.5])):
            coeffs = np.poly(-np.asarray(roots))[::-1]
            path.write_text(json.dumps([[list(map(float, coeffs))]]))
        io_args = ["--r1", str(r1), "--r2", str(r2)]
        assert main(["posreal", "sprcheck"] + io_args) == 0
        for action in ("mlf", "complete"):
            out = tmp_path / f"{action}.json"
            capsys.readouterr()
            assert main(["posreal", action] + io_args + ["--out", str(out)]) == 2
            assert "certificate FAILS verification" in capsys.readouterr().out
            assert not out.exists()
        assert not (tmp_path / "mlf_model.json").exists()


def test_standard_model_emission(tmp_path):
    out = tmp_path / "std.json"
    assert main(["standard", "--r1", R1, "--r2", R2, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["modes"]) == 2
