import argparse
import ast
import copy
import json
import re
import tracemalloc
import warnings
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from sldstab import polymat
from sldstab import posreal as pr
from sldstab.cli import build_parser, main
from sldstab.mlf import certificate_to_json, find_mlf
from sldstab.model import SldsModel, load_model, model_to_json
from sldstab.polymat import PolyMatrix, polymatrix_to_json
from sldstab.sdp import LmiProblem

import polytools
from modeltools import corpus_model, inconsistent_gluing, unstable_mode

ROOT = Path(__file__).resolve().parents[1]
MODELS = ROOT / "models"

ELCIRC = str(MODELS / "elcirc.json")
CONCOND = str(MODELS / "concond.json")
R1 = str(MODELS / "standard_scalar_r1.json")
R2 = str(MODELS / "standard_scalar_r2.json")
SIGNAL = str(MODELS / "elcirc_periodic.json")
CONVERTER4 = str(MODELS / "source_converter_4mode.json")
DATA = Path(__file__).resolve().parent / "data"

BAD_SEARCH_FLAGS = [
    ("--eps", "nan"),
    ("--eps", "inf"),
    ("--eps", "0"),
    ("--eps", "-1"),
    ("--budget", "-5"),
    ("--budget", "0"),
]


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

    def test_columns_of_very_different_scale(self, tmp_path, capsys):
        # [[1e9 xi^2 + 3e9, xi], [1e9 xi^2, xi + 1]], det 1e9 (xi^2 + 3 xi + 3),
        # is Hurwitz; its leading matrix has the unit null vector (1e-9, -1),
        # on which an absolute test once left column 1 out of the reduction
        R = PolyMatrix.from_entries(
            [[[3e9, 0.0, 1e9], [0.0, 1.0]], [[0.0, 0.0, 1e9], [1.0, 1.0]]]
        )
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(model_to_json(SldsModel(modes=[R], gluing={}))))
        assert main(["check", str(path)]) in (0, 2)
        assert capsys.readouterr().err == ""

    def test_constant_det_mode_rejected(self, tmp_path, capsys):
        # a mode with constant det R has no state; it is named, not a crash
        path = tmp_path / "stateless.json"
        path.write_text(json.dumps(
            {"variables": 1, "modes": [[[[1.0, 1.0]]], [[[3.0]]]], "gluing": []}
        ))
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "mode 2" in err and "constant det R" in err
        assert "zero-size" not in err

    @pytest.mark.parametrize(
        "name, entry, value, constraint",
        [
            ("elcirc", (1, 0, 1, 0), 1e214, "switch_1_2"),
            ("exmath", (0, 0, 1, 0), 1e180, "switch_2_1"),
        ],
    )
    def test_overflowing_lmi_data_exit_1(self, tmp_path, capsys, name, entry, value, constraint):
        # the model loads, but L^T K L overflows: the search must not run its
        # Newton loop on NaN cones and answer "no certificate"
        doc = json.loads((MODELS / f"{name}.json").read_text())
        i, j, k, d = entry
        doc["state_maps"][i][j][k][d] = value
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert f"error: constraint '{constraint}' has a non-finite coefficient" in captured.err
        assert "no certificate" not in captured.out

    def test_verify_only_free_multipliers(self, capsys):
        # certificate from a search that solved for Y_k as free variables,
        # so its stored Y_k differ from B_k^T K_k; a certificate is its K_k,
        # so the stored Y_k are ignored and the K_k verify
        cert = str(DATA / "converter4_free_multipliers.cert.json")
        assert main(["check", CONVERTER4, "--verify-only", cert]) == 0
        assert "certificate verifies" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", BAD_SEARCH_FLAGS)
    def test_bad_search_flag_exits_1(self, capsys, flag, value):
        assert main(["check", ELCIRC, flag, value]) == 1
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "no certificate" not in captured.out

    @pytest.mark.parametrize("flag, value", BAD_SEARCH_FLAGS)
    def test_bad_search_flag_with_verify_only_exits_1(self, capsys, flag, value):
        # the flags are checked before the certificate is read, whatever the
        # route: this certificate verifies under valid flags
        cert = str(DATA / "converter4_free_multipliers.cert.json")
        assert main(["check", CONVERTER4, "--verify-only", cert, flag, value]) == 1
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""


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

    @pytest.mark.parametrize("x0", ["-1,0.5", "-.5,-2e-1"])
    def test_negative_x0_is_a_value(self, tmp_path, x0):
        # argparse alone reads a word such as "-1,0.5" as an option
        signal = str(MODELS / "converter_cycle.json")
        common = ["simulate", CONVERTER4, "--signal", signal,
                  "--t-end", "0.002", "--dt", "1e-4"]
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert main([*common, "--x0", x0, "--out", str(spaced)]) == 0
        assert main([*common, f"--x0={x0}", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

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

    def test_impossible_sample_count_exits_1(self, capsys):
        # 1e15 grid samples: refused from the count, before any allocation
        tracemalloc.start()
        try:
            rc = main([
                "simulate", ELCIRC, "--signal", SIGNAL, "--x0", "1.0",
                "--t-end", "1e6", "--dt", "1e-9",
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert "1e+15 grid samples" in capsys.readouterr().err
        assert peak < 20e6

    @pytest.mark.parametrize("c", [1.0, 1e-6, 1e-12])
    def test_growing_mlf_fails_the_audit_at_any_kernel_scale(self, tmp_path, capsys, c):
        # mode xi - 0.1 grows V = c x^2 by 22 % over t in [0, 1]: a small c
        # must not pass the audit
        model, sig, cert = (tmp_path / f"{n}.json" for n in ("model", "sig", "cert"))
        model.write_text(json.dumps(model_to_json(unstable_mode(0.1))))
        sig.write_text(json.dumps({"initial_mode": 1, "events": []}))
        cert.write_text(json.dumps({"route": "lmi", "epsilon": 1e-7, "modes": [{"K": [[c]]}]}))
        rc = main(["simulate", str(model), "--signal", str(sig), "--x0", "1.0",
                   "--t-end", "1.0", "--dt", "0.1", "--cert", str(cert)])
        assert rc == 3
        assert "audit: ok=False" in capsys.readouterr().out

    @pytest.mark.parametrize("x0", ["1.0", "1e-6", "1e-9"])
    def test_inconsistent_switch_exits_1_at_any_state_scale(self, tmp_path, capsys, x0):
        # gluing demands w_minus = 0 at the switch; a generic state violates it
        model, sig = tmp_path / "model.json", tmp_path / "sig.json"
        model.write_text(json.dumps(model_to_json(inconsistent_gluing())))
        sig.write_text(json.dumps({"initial_mode": 1, "events": [[0.5, 2]]}))
        rc = main(["simulate", str(model), "--signal", str(sig), "--x0", x0,
                   "--t-end", "1.0", "--dt", "0.1"])
        assert rc == 1
        assert "inconsistent transition" in capsys.readouterr().out


def _cut_to_one_mode(doc):
    doc["modes"] = doc["modes"][:1]
    return "mode 2 has no K"


def _extra_mode(doc):
    doc["modes"].append(doc["modes"][0])
    return "mode 3 is not in the model"


def _two_by_two_kernel(doc):
    m = doc["modes"][1]
    m["K"] = [[m["K"][0][0], 0.0], [0.0, m["K"][0][0]]]
    return "mode 2: K is 2x2, the mode has state dimension 1"


@pytest.mark.parametrize("edit", [_cut_to_one_mode, _extra_mode, _two_by_two_kernel])
@pytest.mark.parametrize("command", ["check", "simulate"])
def test_certificate_not_fitting_model_exits_1(tmp_path, capsys, command, edit):
    cert = tmp_path / "cert.json"
    assert main(["check", ELCIRC, "--out", str(cert)]) == 0
    capsys.readouterr()
    doc = json.loads(cert.read_text())
    message = edit(doc)
    cert.write_text(json.dumps(doc))
    if command == "check":
        argv = ["check", ELCIRC, "--verify-only", str(cert)]
    else:
        argv = ["simulate", ELCIRC, "--signal", SIGNAL, "--x0", "1.0",
                "--t-end", "7", "--dt", "0.05", "--cert", str(cert)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "verif" not in captured.out and "audit" not in captured.out


def _diagonal_pair(entries):
    """``(R1, R2)`` with diagonal entries ``(r1, r2)`` (ascending coefficients)."""
    w = len(entries)
    return tuple(
        PolyMatrix.from_entries(
            [[entries[i][side] if i == j else [0.0] for j in range(w)] for i in range(w)]
        )
        for side in (0, 1)
    )


# r1 | r2 per diagonal entry: (xi+1)(xi+4) | 2(xi+2), (xi+0.5)(xi+3) | xi+1,
# and for w = 3 also (xi+2)(xi+5) | xi+3
_W2 = [([4.0, 5.0, 1.0], [4.0, 2.0]), ([1.5, 3.5, 1.0], [1.0, 1.0])]
_W3 = _W2 + [([10.0, 7.0, 1.0], [3.0, 1.0])]
# unimodular V = [[1, 0.7 + 1.3 xi], [0, 1]] couples the columns and leaves
# R2 R1^{-1} unchanged
_V = PolyMatrix.from_entries([[[1.0], [0.7, 1.3]], [[0.0], [1.0]]])
# a V-coupled w = 2 pair from a seeded sweep: over X1 = minimal_state_map(R1)
# the product Qbar X1 of a Gram factor left a polynomial part of 1.5e-11 in
# Q R1^{-1} (against |Q| = 13) unless the factor was reduced modulo R1
_ROUNDING_W2 = (
    [[[1.2430986702219466, 10.59934142524174, 19.573726505865007, 9.278166500244826, 1.0],
      [1.050178159999025, 7.173625562439224, 1.3521965757858734, -20.201591680804608,
       -12.446397235419425, -1.4325248415306766]],
     [[0.0], [0.6401332093860964, 3.672695790054054, 1.0]]],
    [[[1.3228084974806416, 6.958014739637397, 6.561595915503429, 1.279202555905632],
      [1.1175175609087136, 3.9832218552679715, -4.424248376205412, -8.318970182356606,
       -1.8324894386843518]],
     [[0.0], [1.2770002244351997, 1.7017564446825346]]],
)
MATRIX_PAIRS = {
    "diagonal_w2": lambda: _diagonal_pair(_W2),
    "coupled_w2": lambda: tuple(R @ _V for R in _diagonal_pair(_W2)),
    "diagonal_w3": lambda: _diagonal_pair(_W3),
    "rounding_w2": lambda: tuple(PolyMatrix.from_entries(R) for R in _ROUNDING_W2),
}


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
        # (xi + 1) / (xi^2 - 1) keeps the pole at 1; the witness shows it as a
        # plain Python complex, not a numpy repr
        for name, R in (("r1_pole", [[[-1.0, 0.0, 1.0]]]), ("r2_pole", [[[1.0, 1.0]]])):
            (tmp_path / f"{name}.json").write_text(json.dumps(R))
        capsys.readouterr()
        assert main(["posreal", "sprcheck", "--r1", str(tmp_path / "r1_pole.json"),
                     "--r2", str(tmp_path / "r2_pole.json")]) == 2
        (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("witness: ")]
        assert "np." not in line
        witness = ast.literal_eval(line.removeprefix("witness: "))
        assert witness["reason"] == "pole in closed right half-plane"
        assert type(witness["pole"]) is complex
        assert witness["pole"] == pytest.approx(1.0, abs=1e-9)

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

    def test_constant_r2_rejected(self, tmp_path, capsys):
        # r2 = 3 gives mode 2 no state: sprcheck still answers, the
        # construction names the mode
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        r1.write_text(json.dumps([[[2.0, 1.0]]]))
        r2.write_text(json.dumps([[[3.0]]]))
        io_args = ["--r1", str(r1), "--r2", str(r2)]
        assert main(["posreal", "sprcheck"] + io_args) == 0
        for action in ("mlf", "complete"):
            capsys.readouterr()
            assert main(["posreal", action] + io_args) == 1
            err = capsys.readouterr().err
            assert "mode 2" in err and "constant det R" in err
            assert "zero-size" not in err

    @pytest.mark.parametrize("c", [1e-8, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e8])
    def test_scaled_pair_keeps_its_verdict(self, tmp_path, capsys, c):
        # (c R1, c R2) has the same R2 R1^{-1}, so the SPR verdict must not
        # depend on c; the storage certificate follows up to c = 1e3 (beyond
        # it the certificate's own margins are absolute, ROADMAP item 1)
        io_args = []
        for flag, path in (("--r1", R1), ("--r2", R2)):
            scaled = tmp_path / Path(path).name
            doc = json.loads(Path(path).read_text())
            scaled.write_text(json.dumps([[[c * v for v in e] for e in row] for row in doc]))
            io_args += [flag, str(scaled)]
        assert main(["posreal", "sprcheck"] + io_args) == 0
        if c <= 1e3:
            assert main(["posreal", "mlf"] + io_args) == 0
            assert main(["posreal", "complete"] + io_args) == 0

    @pytest.mark.parametrize("name", sorted(MATRIX_PAIRS))
    def test_matrix_pairs(self, tmp_path, capsys, name):
        # a matrix pair is factored over the mode-1 state map: Q R1^{-1} is
        # strictly proper, so mlf and complete succeed for every w >= 2
        R1p, R2p = MATRIX_PAIRS[name]()
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        r1.write_text(json.dumps(polymatrix_to_json(R1p)))
        r2.write_text(json.dumps(polymatrix_to_json(R2p)))
        io_args = ["--r1", str(r1), "--r2", str(r2)]
        cert = tmp_path / "cert.json"
        assert main(["posreal", "sprcheck"] + io_args) == 0
        assert main(["posreal", "mlf"] + io_args + ["--out", str(cert)]) == 0
        comp = tmp_path / "comp.json"
        assert main(["posreal", "complete"] + io_args + ["--out", str(comp)]) == 0
        assert comp.exists()
        capsys.readouterr()
        model_path = str(tmp_path / "cert_model.json")
        assert main(["check", model_path, "--verify-only", str(cert)]) == 0
        assert "certificate verifies" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(MATRIX_PAIRS))
    def test_kyp_decay_terms_are_the_decay_form(self, monkeypatch, name):
        # the declared decay of the storage LMI, at its answer, is
        # A1^T K1 + K1 A1 of the returned K1 (at the unit scale of the LMI)
        solved = []
        solve = LmiProblem.solve

        def recorded_solve(self, *args, **kwargs):
            report = solve(self, *args, **kwargs)
            solved.append((self, report))
            return report

        monkeypatch.setattr(LmiProblem, "solve", recorded_solve)
        s = pr.build_standard_slds(*MATRIX_PAIRS[name]())
        K1, _ = pr._kyp_storage(s)
        (prob, report), = solved
        A = s.model.realizations[0].A
        K1 = K1 / np.abs(np.linalg.solve(s.K.T, s.supply[1])).max()
        got = prob.constraints[0].expr(report.values)
        terms = np.abs(A.T) @ np.abs(K1) + np.abs(K1) @ np.abs(A)
        assert np.abs(got - (A.T @ K1 + K1 @ A)).max() <= 1e-12 * terms.max()

    @staticmethod
    def _scaled_pair(tmp_path, name, c):
        """``--r1``/``--r2`` arguments of ``MATRIX_PAIRS[name]`` times ``c``."""
        io_args = []
        for flag, R in zip(("--r1", "--r2"), MATRIX_PAIRS[name]()):
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(json.dumps(polymatrix_to_json(polytools.scale(R, c))))
            io_args += [flag, str(path)]
        return io_args

    @pytest.mark.parametrize(
        "name, c",
        [
            ("coupled_w2", 1e3),
            ("coupled_w2", 1e6),
            ("rounding_w2", 1e6),
            ("coupled_w2", 1e-6),
            ("coupled_w2", 1e-8),
            ("diagonal_w3", 1e-8),
            ("rounding_w2", 1e-6),
        ],
    )
    def test_scaled_matrix_pair_keeps_s_finite(self, tmp_path, capsys, name, c):
        # a Gram LMI on the boundary form's coefficients once took a
        # line-search trial off the barrier's domain with s < 0 and doubled s
        # until it overflowed; scaled down, its rank cut left K1 = 0.  The
        # KYP LMI sees B1 and H at unit max-norm, so up to c = 1e3 it
        # certifies and the certificate verifies.  At 1e6 its kernel fails
        # verify_mlf on the certificate's absolute eps (ROADMAP item 1)
        io_args = self._scaled_pair(tmp_path, name, c)
        cert = tmp_path / "cert.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                code = main(["posreal", "mlf"] + io_args + ["--out", str(cert)])
        out = capsys.readouterr().out
        if c > 1e3:
            assert code == 2
            assert "certificate FAILS verification" in out
            assert not cert.exists()
        else:
            assert code == 0
            model_path = str(tmp_path / "cert_model.json")
            assert main(["check", model_path, "--verify-only", str(cert)]) == 0

    @pytest.mark.parametrize("c", [1e-8, 1e-6, 1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("name", sorted(MATRIX_PAIRS))
    def test_scaled_matrix_pair_keeps_its_verdict(self, tmp_path, capsys, name, c):
        # (c R1, c R2) poses the same KYP LMI at the same tolerance: every
        # action succeeds and the certificate verifies on its written model
        io_args = self._scaled_pair(tmp_path, name, c)
        cert = tmp_path / "cert.json"
        assert main(["posreal", "sprcheck"] + io_args) == 0
        assert main(["posreal", "mlf"] + io_args + ["--out", str(cert)]) == 0
        assert main(["posreal", "complete"] + io_args) == 0
        model_path = str(tmp_path / "cert_model.json")
        assert main(["check", model_path, "--verify-only", str(cert)]) == 0

    @pytest.mark.parametrize("name", sorted(MATRIX_PAIRS))
    def test_factor_over_derived_state_map_is_strictly_proper(self, name):
        # Q = Qbar X1, read off the decay form of the KYP kernel over the
        # standard construction's X1, factors P and Q R1^{-1} is strictly proper
        R1p, R2p = MATRIX_PAIRS[name]()
        s = pr.build_standard_slds(R1p, R2p)
        K1 = pr.mlf_from_positive_real(s).kernels[0]
        Q = polytools.decay_factor(s.model.realizations[0].A, K1, s.X1)
        P = pr.para_hermitian_boundary(R2p, R1p)
        assert ((Q.subs_neg().T @ Q) - P).max_norm() <= pr.FACTOR_TOL * P.max_norm()
        assert pr.is_strictly_proper(Q, R1p)

    def test_complete_derives_each_state_map_once(self, tmp_path, monkeypatch):
        # one map per mode: the KYP LMI reads the standard model's realization
        calls = []
        orig = pr.minimal_state_map
        monkeypatch.setattr(
            pr, "minimal_state_map", lambda R: calls.append(R) or orig(R)
        )
        R1p, R2p = MATRIX_PAIRS["coupled_w2"]()
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        r1.write_text(json.dumps(polymatrix_to_json(R1p)))
        r2.write_text(json.dumps(polymatrix_to_json(R2p)))
        assert main(["posreal", "complete", "--r1", str(r1), "--r2", str(r2)]) == 0
        assert [R.coeffs.tobytes() for R in calls] == [
            R2p.coeffs.tobytes(),
            R1p.coeffs.tobytes(),
        ]

    def test_unverified_certificate_not_written(self, tmp_path, capsys, monkeypatch):
        # negated storage kernels keep their block structure but are not
        # positive, so neither action may report success or write a file
        make_certificate = pr.make_certificate
        monkeypatch.setattr(
            pr, "make_certificate", lambda m, r, ks, **kw: make_certificate(m, r, [-K for K in ks], **kw)
        )
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


def test_determinant_past_double_precision_certifies(tmp_path, capsys):
    """A mode whose ``det R`` leaves double precision, here
    ``det R = 1e320 (xi + 1)(xi + 2)``, is no error: no command forms the
    determinant, and the column reduction's ``R'_hc^{-1}`` is finite."""
    R = [[[1e160, 1e160], [0.0]], [[0.0], [2e160, 1e160]]]
    eye = [[[1.0], [0.0]], [[0.0], [1.0]]]
    doc = {
        "variables": 2,
        "modes": [R, R],
        "gluing": [
            {"from": k, "to": l, "g_minus": eye, "g_plus": eye} for k, l in ((1, 2), (2, 1))
        ],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().err == ""


def _modes_scaled(name: str, k: int, tmp_path) -> str:
    """The corpus model ``name`` with every mode matrix scaled by ``2**k``,
    exactly, and its gluing pairs and state maps as they are."""
    doc = json.loads((MODELS / f"{name}.json").read_text())
    doc["modes"] = [[[[c * 2.0**k for c in e] for e in row] for row in R] for R in doc["modes"]]
    path = tmp_path / f"{name}_{k}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", CORPUS)
def test_mode_scale_keeps_the_certificate(tmp_path, capsys, name):
    """``ker 2^k R = ker R``: from ``2^-600`` to ``2^1000``, where ``det R``
    leaves double precision, every mode scaled by ``2^k`` gives the exit code
    and the certificate bytes of the model as it is."""
    cert = tmp_path / "cert.json"
    rc = main(["check", str(MODELS / f"{name}.json"), "--out", str(cert)])
    assert rc == (2 if name == "concond" else 0)
    for k in (-600, -200, -20, 20, 200, 600, 1000):
        scaled = tmp_path / f"cert_{k}.json"
        assert main(["check", _modes_scaled(name, k, tmp_path), "--out", str(scaled)]) == rc, k
        assert scaled.exists() == (rc == 0)
        if rc == 0:
            assert scaled.read_bytes() == cert.read_bytes(), k


@pytest.mark.parametrize("name", ["source_converter_4mode", "source_converter_6mode"])
def test_leading_inverse_past_double_precision_named(tmp_path, capsys, name):
    """At ``2^-1000`` the inverse of a converter mode's leading column matrix
    overflows: an error that names the mode, with no numpy warning before it."""
    path = _modes_scaled(name, -1000, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", path]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert re.match(r"error: mode \d+: the leading column matrix has no inverse", lines[0])


@pytest.mark.parametrize(
    "mode",
    [
        [[[0.0, 1.0], [0.0, 1.0]], [[1.0], [1.0]]],
        # (xi + 0.3, 0.6)^T (0.1, xi + 0.9): the Leibniz det R rounds to 1.4e-17 xi
        [[[0.03, 0.1], [0.27, 1.2, 1.0]], [[0.06], [0.54, 0.6]]],
    ],
    ids=["equal-columns", "rank-one-product"],
)
def test_singular_mode_named(tmp_path, capsys, mode):
    """A singular mode whose columns are not constant is named as singular:
    its column reduction reduces a column to zero."""
    good = [[[1.0, 1.0], [0.0]], [[0.0], [2.0, 1.0]]]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"variables": 2, "modes": [good, mode], "gluing": []}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mode 2: matrix is singular") and err.count("\n") == 1


def test_overflowing_pair_named(tmp_path, capsys):
    """An overflowing product, or sum of finite products, of the
    ``--r1``/``--r2`` pair is an error that names the inputs, with no numpy
    warning before it: at 1e154 each product of the boundary form is finite
    and their sum overflows."""
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for c in (1e160, 1e154):
        r1.write_text(json.dumps([[[c, c]]]))
        r2.write_text(json.dumps([[[c]]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["posreal", "sprcheck", "--r1", str(r1), "--r2", str(r2)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"--r1 {r1}" in lines[0] and "non-finite" in lines[0]


class TestRootsOncePerCommand:
    """A command reads each root set off a column reduction, once: ``slds
    check`` reads the eigenvalues of each ``A_k``, and the positive-real
    route reads ``PolyMatrix.det_roots``, the eigenvalues of a matrix's own
    ``A_c``.  No command forms a Leibniz determinant or a polynomial's root
    set."""

    @staticmethod
    def _count(monkeypatch):
        seen = {"column_reduce": [], "determinant": [], "poly_roots": []}
        for fn, args in seen.items():
            monkeypatch.setattr(
                polymat, fn, lambda M, *rest, orig=getattr(polymat, fn), args=args:
                args.append(M.coeffs.tobytes()) or orig(M, *rest)
            )
        return seen

    @pytest.mark.parametrize("name", CORPUS)
    def test_check_once_per_mode(self, monkeypatch, name):
        path = MODELS / f"{name}.json"
        n_modes = load_model(path).n_modes
        seen = self._count(monkeypatch)
        assert main(["check", str(path)]) in (0, 2)
        assert seen["determinant"] == seen["poly_roots"] == []
        assert len(seen["column_reduce"]) == n_modes

    @pytest.mark.parametrize("action, checks", [("mlf", 0), ("complete", 0)])
    def test_posreal_once_per_polynomial(self, monkeypatch, action, checks):
        seen = self._count(monkeypatch)
        assert main(["posreal", action, "--r1", R1, "--r2", R2]) == 0
        # R1 (whose reduction gives the poles of R2 R1^{-1}), R2 and the
        # boundary form P (the roots of det P), once each; complete returns
        # M = I, which needs no reduction of its own
        assert seen["determinant"] == seen["poly_roots"] == []
        reduced = seen["column_reduce"]
        assert len(set(reduced)) == len(reduced) == 3 + checks


def test_stalled_line_search_ends_the_search(tmp_path, capsys):
    """Draw 10 of ``gen.slds_member(default_rng(7), 3, 3)`` at ``R(10^3 xi)``:
    at ``t = 6.4e7`` the line search halves its step to 5.7e-14 without a
    decrease.  Taking that step anyway left ``x`` where it was, with a Newton
    decrement above 0.1, for the rest of the 50,000-step budget; a line
    search that decreases nothing now ends the centering, and the stall rule
    the search."""
    from test_statespace import _generators, _time_scaled

    rng = np.random.default_rng(7)
    *_, doc = (_generators().slds_member(rng, 3, 3)["model"] for _ in range(11))
    path = tmp_path / "draw10.json"
    path.write_text(json.dumps(_time_scaled(doc, 1e3)))
    assert main(["check", str(path)]) == 2
    steps = int(re.search(r"iterations (\d+)", capsys.readouterr().out).group(1))
    assert steps <= 150


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


def _zero_kernels(model_path):
    return [{"K": np.zeros((r.n, r.n)).tolist()} for r in load_model(model_path).realizations]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: a certificate's own 'route' label selects the "
    "semidefinite acceptance with the absolute eps bonus",
)
@pytest.mark.parametrize("name", ["concond", "source_converter_4mode"])
def test_zero_posreal_certificate_rejected(tmp_path, name):
    """K = 0 labelled "posreal" is no Lyapunov function of any model."""
    model_path = str(MODELS / f"{name}.json")
    modes = _zero_kernels(model_path)
    cert = tmp_path / "zero.json"
    cert.write_text(json.dumps({"route": "posreal", "epsilon": 1e-7, "modes": modes}))
    assert main(["check", model_path, "--verify-only", str(cert)]) == 2


@pytest.mark.parametrize(
    "epsilon, entry",
    [(0, None), (-1, None), (float("nan"), None), (float("inf"), None),
     (1e-7, float("nan")), (1e-7, float("inf"))],
    ids=["eps0", "eps-1", "epsNaN", "epsInf", "KNaN", "KInf"],
)
@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("name", CORPUS)
def test_certificate_not_finite_exits_1(tmp_path, capsys, name, command, epsilon, entry):
    """With eps = 0 the strict shifts vanish and K = 0 met every condition."""
    model_path = str(MODELS / f"{name}.json")
    modes = _zero_kernels(model_path)
    if entry is None:
        message = f"certificate epsilon must be positive and finite, got {float(epsilon)}"
    else:
        modes[-1]["K"][0][0] = entry
        message = f"mode {len(modes)}: kernel K has a non-finite entry: {entry} at entry (1,1)"
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"route": "lmi", "epsilon": epsilon, "modes": modes}))
    if command == "check":
        argv = ["check", model_path, "--verify-only", str(cert)]
    else:
        signal = tmp_path / "signal.json"
        signal.write_text(json.dumps({"initial_mode": 1, "events": []}))
        x0 = ",".join(["1.0"] * len(modes[0]["K"]))
        argv = ["simulate", model_path, "--signal", str(signal), "--x0", x0,
                "--t-end", "1", "--dt", "0.1", "--cert", str(cert)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "verif" not in captured.out and "audit" not in captured.out


def _set(path, value):
    """An edit that sets ``doc[path[0]][path[1]]... = value``."""

    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value

    return edit


def _replace(value):
    return lambda doc: value


def _delete(path):
    """An edit that deletes ``doc[path[0]][path[1]]...``."""

    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        del doc[last]

    return edit


# (file, edit of the valid document, words the error must contain)
WRONG_TYPED = {
    "model-gluing-int": ("model", _set(["gluing"], 5), "gluing must be a list"),
    "model-gluing-entry-int": ("model", _set(["gluing", 0], 5), "gluing entry 1"),
    "model-modes-int": ("model", _set(["modes"], 5), "modes must be a list"),
    "model-mode-int": ("model", _set(["modes", 0], 3), "mode 1"),
    "model-from-null": ("model", _set(["gluing", 0, "from"], None), "'from' must be a number"),
    "model-from-fraction": ("model", _set(["gluing", 0, "from"], 1.7), "'from' must be an integer"),
    "model-from-bool": ("model", _set(["gluing", 0, "to"], True), "'to' must be a number"),
    "model-variables-fraction": ("model", _set(["variables"], 2.5), "variables must be an integer"),
    "model-coefficient-object": ("model", _set(["modes", 1, 0, 1], {"a": 1}), "mode 2"),
    "model-not-object": ("model", _replace([1, 2]), "model file must be a JSON object"),
    "signal-list": ("signal", _replace([1, 2]), "signal file must be a JSON object"),
    "signal-events-int": ("signal", _set(["events"], 5), "events must be a list"),
    "signal-initial-null": ("signal", _set(["initial_mode"], None), "initial_mode must be a number"),
    "signal-event-mode-null": ("signal", _set(["events", 0, 1], None), "event 1 mode must be a number"),
    "signal-event-mode-fraction": ("signal", _set(["events", 0, 1], 2.7), "event 1 mode must be an integer"),
    "signal-event-int": ("signal", _set(["events", 0], 5), "event 1 must be a [time, mode] pair"),
    "cert-modes-int": ("cert", _set(["modes"], 5), "certificate modes must be a list"),
    "cert-modes-ints": ("cert", _set(["modes"], [5, 6]), "mode 1 must be a JSON object"),
    "cert-epsilon-null": ("cert", _set(["epsilon"], None), "certificate epsilon must be a number"),
    "cert-epsilon-list": ("cert", _set(["epsilon"], [1]), "certificate epsilon must be a number"),
    "cert-margins-int": ("cert", _set(["margins"], 5), "margins must be a JSON object"),
    "cert-solver-int": ("cert", _set(["solver"], 5), "solver must be a JSON object"),
    "cert-K-object": ("cert", _set(["modes", 0, "K"], [[{"a": 1}]]), "mode 1: kernel K"),
    "pair-int": ("r2", _replace(5), "--r2"),
    "model-coefficient-string": (
        "model", _set(["modes", 0, 0, 1, 1], "1.5"),
        "mode 1: coefficient of entry (1,2) must be a number, got '1.5'",
    ),
    "model-coefficient-bool": (
        "model", _set(["modes", 1, 0, 0, 0], True),
        "mode 2: coefficient of entry (1,1) must be a number, got True",
    ),
    "model-entry-bool": (
        "model", _set(["gluing", 0, "g_plus", 1, 1], False),
        "gluing 1->2 g_plus: coefficient of entry (2,2) must be a number",
    ),
    "model-coefficient-nested": (
        "model", _set(["modes", 0, 1, 0], [[1.0]]), "mode 1: coefficient of entry (2,1)",
    ),
    "pair-coefficient-string": (
        "r2", _set([0, 0, 1], "1"), "coefficient of entry (1,1) must be a number",
    ),
    "cert-K-string": (
        "cert", _set(["modes", 0, "K", 0, 0], "2"),
        "mode 1: kernel K entry (1,1) must be a number, got '2'",
    ),
    "cert-K-bool": (
        "cert", _set(["modes", 1, "K", 0, 0], True),
        "mode 2: kernel K entry (1,1) must be a number, got True",
    ),
    "cert-K-row-int": ("cert", _set(["modes", 0, "K", 0], 5), "mode 1: kernel K row 1"),
    "cert-K-int": ("cert", _set(["modes", 0, "K"], 5), "mode 1: kernel K must be a list"),
}


# (file, edit of the valid document, the error message): a key missing
# from a nested object names the key and the object
MISSING_KEY = {
    "signal-initial-mode": ("signal", _delete(["initial_mode"]),
                            "signal file missing key 'initial_mode'"),
    "model-from": ("model", _delete(["gluing", 1, "from"]), "gluing entry 2 missing key 'from'"),
    "model-to": ("model", _delete(["gluing", 0, "to"]), "gluing entry 1 missing key 'to'"),
    "model-g-minus": ("model", _delete(["gluing", 0, "g_minus"]),
                      "gluing entry 1 missing key 'g_minus'"),
    "model-g-plus": ("model", _delete(["gluing", 1, "g_plus"]),
                     "gluing entry 2 missing key 'g_plus'"),
    "cert-K": ("cert", _delete(["modes", 1, "K"]), "certificate mode 2 missing key 'K'"),
}


@cache
def _certificate(model_path):
    return certificate_to_json(find_mlf(load_model(model_path)))


def _run_edited(tmp_path, capsys, kind, edit):
    """Run the command that reads a ``kind`` file on the edited document;
    the exit code and stderr.  A ``cert`` is elcirc's certificate and a
    ``converter-cert`` the 4-mode converter's, each checked against its
    model with ``--verify-only``."""
    docs = {
        "model": lambda: json.loads(Path(ELCIRC).read_text()),
        "signal": lambda: {"initial_mode": 1, "events": [[0.5, 2], [1.0, 1]]},
        "cert": lambda: copy.deepcopy(_certificate(ELCIRC)),
        "converter-cert": lambda: copy.deepcopy(_certificate(CONVERTER4)),
        "r2": lambda: json.loads(Path(R2).read_text()),
    }
    doc = docs[kind]()
    edited = edit(doc)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc if edited is None else edited))
    argv = {
        "r2": ["posreal", "sprcheck", "--r1", R1, "--r2", str(path)],
        "cert": ["check", ELCIRC, "--verify-only", str(path)],
        "converter-cert": ["check", CONVERTER4, "--verify-only", str(path)],
        "model": ["check", str(path)],
        "signal": ["simulate", ELCIRC, "--signal", str(path), "--x0", "1.0",
                   "--t-end", "1.5", "--dt", "0.1"],
    }[kind]
    return main(argv), capsys.readouterr().err


@pytest.mark.parametrize("case", list(WRONG_TYPED), ids=list(WRONG_TYPED))
def test_wrong_typed_field_exits_1(tmp_path, capsys, case):
    """A wrong-typed JSON field is invalid input that the error names: no
    traceback, and no silent rounding of a mode index."""
    kind, edit, words = WRONG_TYPED[case]
    code, err = _run_edited(tmp_path, capsys, kind, edit)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert words in err


@pytest.mark.parametrize("case", list(MISSING_KEY), ids=list(MISSING_KEY))
def test_missing_key_exits_1(tmp_path, capsys, case):
    """A key missing from a signal, a gluing entry or a certificate mode is
    invalid input that the error names, with the entry it is missing from."""
    kind, edit, message = MISSING_KEY[case]
    code, err = _run_edited(tmp_path, capsys, kind, edit)
    assert code == 1
    assert err == f"error: {message}\n"


def _scaled_asymmetric(c):
    """Every ``K_k`` and ``epsilon`` times ``c``, then ``K_1`` skewed by
    ``+-0.3 max|K_1|`` at entries (1,2) and (2,1)."""

    def edit(doc):
        doc["epsilon"] *= c
        for mode in doc["modes"]:
            mode["K"] = (c * np.asarray(mode["K"])).tolist()
        K = doc["modes"][0]["K"]
        skew = 0.3 * np.abs(np.asarray(K)).max()
        K[0][1] += skew
        K[1][0] -= skew

    return edit


@pytest.mark.parametrize("c", [1.0, 1e-16])
def test_scaled_asymmetric_kernel_exits_1(tmp_path, capsys, c):
    """A kernel skewed by 30 % of its largest entry is not symmetric at any
    scale of the certificate: the reader's test has no absolute floor."""
    code, err = _run_edited(tmp_path, capsys, "converter-cert", _scaled_asymmetric(c))
    assert code == 1
    assert err == "error: mode 1: kernel K must be symmetric\n"


def test_partial_state_map_exits_1(tmp_path, capsys):
    """Two modes R = xi^2 + 3 xi + 2 with a one-row state map X = xi + 1
    (its realization residual is zero) glued by G = xi + 1, which lies in
    the span of X: the file is invalid input, not a certificate over a
    partial state."""
    R = [[[2.0, 3.0, 1.0]]]
    G = [[[1.0, 1.0]]]
    glue = [{"from": k, "to": l, "g_minus": G, "g_plus": G} for k, l in ((1, 2), (2, 1))]
    doc = {"variables": 1, "modes": [R, R], "gluing": glue, "state_maps": [G, G]}
    path, out = tmp_path / "partial.json", tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a minimal state map" in err
    assert not out.exists()


def test_standard_model_emission(tmp_path):
    out = tmp_path / "std.json"
    assert main(["standard", "--r1", R1, "--r2", R2, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["modes"]) == 2


def _readme_options() -> dict[str, set[str]]:
    """Options per subcommand in the README's "Command line" block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    usage: dict[str, set[str]] = {}
    command = None
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["slds"]:
            command = words[1]
            usage.setdefault(command, set())
        if command is not None:
            usage[command] |= set(re.findall(r"--[a-z][a-z0-9-]*", line))
    return usage


@pytest.mark.parametrize(
    "argv",
    [
        ["check", ELCIRC, "--bogus"],
        ["check"],
        ["check", ELCIRC, "--route", "fastest"],
        ["check", ELCIRC, "--budget", "many"],
        ["simulate", ELCIRC, "--signal", SIGNAL, "--t-end", "1", "--dt", "0.1"],
        ["frobnicate"],
    ],
    ids=["unknown-flag", "no-model", "bad-choice", "bad-type", "missing-required", "no-command"],
)
def test_usage_error_exits_1(capsys, argv):
    # exit code 2 means "no certificate"; a usage error is invalid input
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "slds" in capsys.readouterr().err


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_readme_usage_matches_parser():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {
            o
            for a in p._actions
            for o in a.option_strings
            if o.startswith("--") and o != "--help"
        }
        for name, p in sub.choices.items()
    }
    assert _readme_options() == options


def _readme_certificate_keys() -> tuple[set[str], set[str]]:
    """Top-level and per-mode keys in the README's "Certificate file" table."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Certificate file", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    top = {k for k in keys if "[]." not in k}
    per_mode = {k.split("[].", 1)[1] for k in keys if k.startswith("modes[].")}
    return top, per_mode


def test_readme_certificate_keys_match_writer():
    doc = certificate_to_json(find_mlf(corpus_model("elcirc")))
    top, per_mode = _readme_certificate_keys()
    assert top == set(doc)
    assert all(set(mode) == per_mode for mode in doc["modes"])


class _CountedWrites:
    """A text file opened for writing that records each ``write`` call."""

    def __init__(self, fh, calls):
        self._fh, self._calls = fh, calls

    def write(self, text):
        self._calls.append(text)
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_each_json_file_is_one_write(monkeypatch, tmp_path):
    """The certificate, model, events sidecar and completion files are each
    written by ``polymat.write_json`` with one ``write`` call, byte for byte
    what ``json.dump(doc, fh, indent=2)`` wrote one token at a time."""
    import io

    writes: dict[str, list] = {}

    def counted_open(path, mode="r", *args, **kw):
        fh = open(path, mode, *args, **kw)
        return _CountedWrites(fh, writes.setdefault(str(path), [])) if "w" in mode else fh

    monkeypatch.setattr(polymat, "open", counted_open, raising=False)
    elc = str(MODELS / "elcirc.json")
    out = {name: str(tmp_path / name) for name in ("cert.json", "spr.json", "comp.json", "t.csv")}
    assert main(["check", elc, "--out", out["cert.json"]]) == 0
    assert main(["posreal", "mlf", "--r1", R1, "--r2", R2, "--out", out["spr.json"]]) == 0
    assert main(["posreal", "complete", "--r1", R1, "--r2", R2, "--out", out["comp.json"]]) == 0
    assert main(["simulate", elc, "--signal", str(MODELS / "elcirc_periodic.json"),
                 "--x0", "1.0", "--t-end", "3", "--dt", "0.1", "--out", out["t.csv"]]) == 0
    files = {p: calls for p, calls in writes.items() if p.endswith(".json")}
    assert sorted(Path(p).name for p in files) == [
        "cert.json", "comp.json", "spr.json", "spr_model.json", "t.csv.events.json",
    ]
    for path, calls in files.items():
        text = Path(path).read_text()
        token_by_token = io.StringIO()
        json.dump(json.loads(text), token_by_token, indent=2)
        assert len(calls) == 1 and calls[0] == text == token_by_token.getvalue(), path
