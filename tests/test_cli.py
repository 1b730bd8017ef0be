import json
from pathlib import Path

import numpy as np
import pytest

from sldstab import posreal as pr
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

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--eps", "nan"),
            ("--eps", "inf"),
            ("--eps", "0"),
            ("--eps", "-1"),
            ("--budget", "-5"),
            ("--budget", "0"),
        ],
    )
    def test_bad_search_flag_exits_1(self, capsys, flag, value):
        assert main(["check", ELCIRC, flag, value]) == 1
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "no certificate" not in captured.out

    @pytest.mark.parametrize(
        "key, value", [("eps", "Infinity"), ("eps", "NaN"), ("eps", "0"), ("budget", "Infinity")]
    )
    def test_bad_tolerance_file_exits_1(self, tmp_path, capsys, key, value):
        tol = tmp_path / "tol.json"
        tol.write_text(f'{{"{key}": {value}}}')
        assert main(["check", ELCIRC, "--tolerances", str(tol)]) == 1
        assert f"tolerance '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.5", "5.0", "true"])
    def test_non_integer_tolerance_budget_exits_1(self, tmp_path, capsys, value):
        # int() would truncate 0.5 to a zero budget and exit 2 "no certificate"
        tol = tmp_path / "tol.json"
        tol.write_text(f'{{"budget": {value}}}')
        assert main(["check", CONVERTER4, "--tolerances", str(tol)]) == 1
        captured = capsys.readouterr()
        assert "tolerance 'budget'" in captured.err
        assert "no certificate" not in captured.out

    def test_integer_tolerance_budget_accepted(self, tmp_path):
        tol = tmp_path / "tol.json"
        tol.write_text('{"budget": 500}')
        assert main(["check", ELCIRC, "--tolerances", str(tol)]) == 0

    def test_audit_rel_tolerance_rejected(self, tmp_path, capsys):
        # no code reads audit_rel; accepting it would pretend it has an effect
        tol = tmp_path / "tol.json"
        tol.write_text('{"audit_rel": 1e-6}')
        assert main(["check", ELCIRC, "--tolerances", str(tol)]) == 1
        assert "unknown tolerance keys: ['audit_rel']" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--x0=nan", "--t-end", "1", "--dt", "0.1"], "x0"),
            (["--x0", "1.0", "--t-end", "inf", "--dt", "0.1"], "t_end"),
            (["--x0", "1.0", "--t-end", "1", "--dt", "nan"], "sample_dt"),
        ],
    )
    def test_non_finite_input_exits_1(self, tmp_path, capsys, flags, name):
        cert = tmp_path / "cert.json"
        assert main(["check", ELCIRC, "--out", str(cert)]) == 0
        capsys.readouterr()
        rc = main(["simulate", ELCIRC, "--signal", SIGNAL, *flags,
                   "--cert", str(cert)])
        assert rc == 1
        captured = capsys.readouterr()
        assert name in captured.err
        assert "audit" not in captured.out

    def test_event_at_time_zero_exits_1(self, tmp_path, capsys):
        sig = tmp_path / "sig.json"
        sig.write_text(json.dumps({"initial_mode": 1, "events": [[0.0, 2], [0.5, 1]]}))
        rc = main([
            "simulate", ELCIRC, "--signal", str(sig), "--x0", "1.0",
            "--t-end", "1.0", "--dt", "0.1",
        ])
        assert rc == 1
        assert "event times must be positive" in capsys.readouterr().err


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
        pairs = [
            # |r(lambda)| at the computed root -95 is rounding noise far above
            # 1e-8 in absolute terms; the kernel test must be relative
            ([0.5, 3.0, 17.0, 95.0], [1.2, 7.0, 40.0]),
            # closely clustered roots: a K2 computed apart from K1 missed the
            # 2 -> 1 switch equality by more than eps
            ([6.0, 7.0, 9.5], [6.5, 7.5]),
            ([3.5, 4.5, 7.0, 10.0], [4.0, 5.5, 9.5]),
            ([1.5, 3.5, 7.0, 8.5], [2.0, 6.5, 7.5]),
        ]
        for i, (poles, zeros) in enumerate(pairs):
            r1, r2 = tmp_path / f"r1_{i}.json", tmp_path / f"r2_{i}.json"
            for path, roots in ((r1, poles), (r2, zeros)):
                coeffs = np.poly(-np.asarray(roots))[::-1]
                path.write_text(json.dumps([[list(map(float, coeffs))]]))
            io_args = ["--r1", str(r1), "--r2", str(r2)]
            assert main(["posreal", "sprcheck"] + io_args) == 0, poles
            cert = tmp_path / f"cert_{i}.json"
            assert main(["posreal", "mlf"] + io_args + ["--out", str(cert)]) == 0, poles
            model_path = str(tmp_path / f"cert_{i}_model.json")
            assert main(["check", model_path, "--verify-only", str(cert)]) == 0, poles

    def test_unverified_certificate_not_written(self, tmp_path, capsys, monkeypatch):
        # a negated storage kernel keeps its block structure but is not
        # positive, so neither action may report success or write a file
        to_canonical = pr.to_canonical
        monkeypatch.setattr(pr, "to_canonical", lambda *a: -to_canonical(*a))
        io_args = ["--r1", R1, "--r2", R2]
        assert main(["posreal", "sprcheck"] + io_args) == 0
        for action in ("mlf", "complete"):
            out = tmp_path / f"{action}.json"
            capsys.readouterr()
            assert main(["posreal", action] + io_args + ["--out", str(out)]) == 2
            assert "certificate FAILS verification" in capsys.readouterr().out
            assert not out.exists()
        assert not (tmp_path / "mlf_model.json").exists()


CORPUS = [
    "concond",
    "elcirc",
    "exmath",
    "source_converter_4mode",
    "source_converter_6mode",
]


@pytest.mark.parametrize("route", ["exact", "conservative", "all"])
@pytest.mark.parametrize("name", CORPUS)
def test_corpus_verdicts(tmp_path, capsys, name, route):
    """Exit codes on the corpus, and every written certificate re-verifies."""
    model = str(MODELS / f"{name}.json")
    cert = tmp_path / "cert.json"
    rc = main(["check", model, "--route", route, "--out", str(cert)])
    if name == "concond":
        assert rc == 2
        assert not cert.exists()
        return
    assert rc == 0
    capsys.readouterr()
    assert main(["check", model, "--verify-only", str(cert)]) == 0
    assert "certificate verifies" in capsys.readouterr().out


@pytest.mark.parametrize("name", CORPUS[1:])
def test_route_values_write_one_certificate(tmp_path, name):
    """--route exact|conservative|all run the one search: same bytes, route "lmi"."""
    model = str(MODELS / f"{name}.json")
    written = []
    for route in ("exact", "conservative", "all"):
        cert = tmp_path / f"{route}.json"
        assert main(["check", model, "--route", route, "--out", str(cert)]) == 0
        written.append(cert.read_bytes())
    assert written[0] == written[1] == written[2]
    assert json.loads(written[0])["route"] == "lmi"


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("where", ["mode", "gluing", "pair"])
def test_non_finite_coefficient_exits_1(tmp_path, capsys, where, value):
    """A non-finite coefficient is named, not read as zero or as singularity."""
    number = float(value.replace("Infinity", "inf"))
    if where == "pair":
        r1 = json.loads(Path(R1).read_text())
        r1[0][0][0] = number
        path = tmp_path / "r1.json"
        path.write_text(json.dumps(r1))
        argv = ["posreal", "sprcheck", "--r1", str(path), "--r2", R2]
        location = "--r1"
    else:
        doc = json.loads(Path(ELCIRC).read_text())
        if where == "mode":
            doc["modes"][0][0][1] = [number, 1.0]
            location = "mode 1"
        else:
            # read as zero, this entry made an unstable system certifiable
            glue = next(g for g in doc["gluing"] if (g["from"], g["to"]) == (2, 1))
            glue["g_minus"][0][1] = [number, 1.0]
            location = "gluing 2->1 g_minus"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        argv = ["check", str(path)]
    assert value in path.read_text()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert location in err
    assert f"non-finite coefficient: {number} at entry (1,{2 if where != 'pair' else 1})" in err


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the absolute eps bonus on switch conditions "
    "accepts K_k of about 1.6 eps",
)
def test_expanding_gluing_not_certified(tmp_path):
    """Two copies of w' = -w with w(t+) = 1.1 w(t-) at every switch are
    unstable under fast switching, so no --route value may certify them."""
    mode = [[[1.0, 1.0]]]
    gain = {"g_minus": [[[1.1]]], "g_plus": [[[1.0]]]}
    doc = {
        "variables": 1,
        "modes": [mode, mode],
        "gluing": [dict(gain, **{"from": 1, "to": 2}), dict(gain, **{"from": 2, "to": 1})],
    }
    path = tmp_path / "expanding.json"
    path.write_text(json.dumps(doc))
    for route in ("exact", "conservative", "all"):
        assert main(["check", str(path), "--route", route]) == 2, route


def test_standard_model_emission(tmp_path):
    out = tmp_path / "std.json"
    assert main(["standard", "--r1", R1, "--r2", R2, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["modes"]) == 2
