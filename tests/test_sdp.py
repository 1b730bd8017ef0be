import time
from pathlib import Path

import numpy as np
import pytest

from sldstab.fixtures import source_converter
from sldstab.mlf import (
    EPS_REL,
    _warm_start,
    assemble_mlf_lmis,
    assemble_ple_lmi,
    problem_scale,
)
from sldstab.model import load_model
from sldstab.polymat import PolyMatrix
from sldstab.posreal import spectral_factorize
from sldstab.sdp import LmiProblem, accepts
from sldstab.statespace import minimal_state_map

MODELS = Path(__file__).resolve().parents[1] / "models"


def _lyapunov_problem(A, eps):
    """Find K > 0 with A^T K + K A < 0 for a Hurwitz A."""
    prob = LmiProblem()
    n = A.shape[0]
    prob.add_symmetric("K", n)
    prob.add_constraint("pos", lambda v: v["K"], "psd", shift=eps)
    prob.add_constraint(
        "decay", lambda v: A.T @ v["K"] + v["K"] @ A, "nsd", shift=eps
    )
    return prob


def _converter_search(model, strict):
    """The K-only search ``find_mlf`` runs, as a bare solve: (problem, eps, report)."""
    eps = EPS_REL * problem_scale(model)
    prob = assemble_mlf_lmis(model, eps, strict=strict)
    return prob, eps, prob.solve(eps, warm_start=_warm_start(model))


class TestFeasible:
    def test_scalar_lyapunov(self):
        A = np.array([[-1.0]])
        prob = _lyapunov_problem(A, 1e-7)
        rep = prob.solve(eps=1e-7)
        assert rep.feasible
        K = rep.values["K"]
        assert K[0, 0] > 0
        assert (A.T @ K + K @ A)[0, 0] < 0

    def test_coupled_blocks(self):
        # K1 - K2 == 0 forced through an equality; both must stay psd
        prob = LmiProblem()
        prob.add_symmetric("K1", 2)
        prob.add_symmetric("K2", 2)
        prob.add_constraint("eq", lambda v: v["K1"] - v["K2"], "zero")
        prob.add_constraint("p1", lambda v: v["K1"], "psd", shift=1e-6)
        A = np.array([[-2.0, 1.0], [0.0, -3.0]])
        prob.add_constraint(
            "d2", lambda v: A.T @ v["K2"] + v["K2"] @ A, "nsd", shift=1e-6
        )
        rep = prob.solve(eps=1e-6)
        assert rep.feasible
        assert np.allclose(rep.values["K1"], rep.values["K2"], atol=1e-8)

    def test_warm_start_accepted_immediately(self):
        A = np.array([[-1.0]])
        prob = _lyapunov_problem(A, 1e-7)
        rep = prob.solve(eps=1e-7, warm_start={"K": np.array([[1.0]])})
        assert rep.feasible
        assert rep.iterations == 0

    def test_rectangular_variable(self):
        prob = LmiProblem()
        prob.add_symmetric("K", 1)
        prob.add_matrix("Y", 1, 2)
        target = np.array([[3.0, -1.0]])
        prob.add_constraint(
            "fix", lambda v: np.eye(2) * (v["Y"] - target), "zero"
        )
        prob.add_constraint("pos", lambda v: v["K"], "psd", shift=1e-6)
        rep = prob.solve(eps=1e-6)
        assert rep.feasible
        assert np.allclose(rep.values["Y"], target, atol=1e-9)


def _contradictory_problem(n):
    """``K >= I`` and ``K <= -I``: no point comes within 1 of feasibility."""
    prob = LmiProblem()
    prob.add_symmetric("K", n)
    prob.add_constraint("up", lambda v: v["K"] - 1.0 * np.eye(n), "psd")
    prob.add_constraint("dn", lambda v: v["K"] + 1.0 * np.eye(n), "nsd")
    return prob


class TestInfeasible:
    def test_contradictory_cones(self):
        rep = _contradictory_problem(1).solve(eps=1e-8, budget=2000)
        assert not rep.feasible
        # the stall rule stops the search, not the budget
        assert rep.iterations < 500
        # the report still carries the worst margins honestly
        assert min(rep.margins.values()) < 0

    def test_unstable_lyapunov(self):
        A = np.array([[1.0]])  # not Hurwitz: no K > 0 can work
        prob = _lyapunov_problem(A, 1e-6)
        rep = prob.solve(eps=1e-6, budget=2000)
        assert not rep.feasible
        assert rep.iterations < 500

    def test_contradictory_matrix_cones_default_budget(self):
        start = time.process_time()
        rep = _contradictory_problem(2).solve(eps=1e-8)
        assert not rep.feasible
        assert rep.iterations < 500
        assert time.process_time() - start < 1.0


class TestDeterminism:
    def test_identical_runs(self):
        A = np.array([[-2.0, 1.0], [-1.0, -1.0]])
        r1 = _lyapunov_problem(A, 1e-7).solve(eps=1e-7)
        r2 = _lyapunov_problem(A, 1e-7).solve(eps=1e-7)
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.values["K"], r2.values["K"])

    @pytest.mark.parametrize("strict", [False, True])
    def test_identical_runs_with_several_block_sizes(self, strict):
        model = source_converter(6)
        r1, r2 = (_converter_search(model, strict)[2] for _ in range(2))
        assert r1.iterations == r2.iterations > 0
        for name in r1.values:
            assert r1.values[name].tobytes() == r2.values[name].tobytes()


class TestVerify:
    def test_margins_match_solution(self):
        A = np.array([[-2.0, 1.0], [-1.0, -1.0]])
        prob = _lyapunov_problem(A, 1e-7)
        rep = prob.solve(eps=1e-7)
        margins = prob.verify(rep.values, eps=1e-7)
        assert set(margins) == {"pos", "decay"}
        for name, m in margins.items():
            assert m == pytest.approx(rep.margins[name], abs=1e-12)
            assert m >= 0.5e-7

    @pytest.mark.parametrize("strict", [False, True])
    def test_report_margins_are_verify_margins(self, strict):
        # the 6-mode converter's cones come in several sizes, so the search
        # runs on more than one stacked group
        model = source_converter(6)
        prob, eps, rep = _converter_search(model, strict)
        assert rep.feasible and rep.iterations > 0
        margins = prob.verify(rep.values, eps)
        assert set(margins) == set(rep.margins)
        for name, m in margins.items():
            assert m == pytest.approx(rep.margins[name], abs=1e-12)
        assert min(margins.values()) >= eps / 2

    def test_verify_flags_violation(self):
        A = np.array([[-1.0]])
        prob = _lyapunov_problem(A, 1e-7)
        margins = prob.verify({"K": np.array([[-1.0]])}, eps=1e-7)
        assert margins["pos"] < 0

    def test_zero_sense_margin(self):
        prob = LmiProblem()
        prob.add_symmetric("K", 1)
        prob.add_constraint("eq", lambda v: v["K"] - np.eye(1), "zero")
        good = prob.verify({"K": np.array([[1.0]])}, eps=1e-9)
        bad = prob.verify({"K": np.array([[1.5]])}, eps=1e-9)
        assert good["eq"] > 0 > bad["eq"]


class TestAccepts:
    def test_boundary_margin(self):
        eps = 1e-7
        assert accepts({"a": 1.0, "b": eps / 2}, eps)
        assert not accepts({"a": 1.0, "b": np.nextafter(eps / 2, 0)}, eps)

    def test_empty_margin_set_accepted(self):
        assert accepts({}, 1e-7)

    def test_nan_margin_rejected(self):
        assert not accepts({"a": 1.0, "b": np.nan}, 1e-7)
        assert not accepts({"b": np.nan, "a": 1.0}, 1e-7)

    def test_report_flag_is_accepts_of_its_margins(self):
        A = np.array([[-2.0, 1.0], [-1.0, -1.0]])
        rep = _lyapunov_problem(A, 1e-7).solve(eps=1e-7)
        assert rep.feasible == accepts(rep.margins, 1e-7)
        assert rep.feasible


class TestValidation:
    def test_duplicate_variable(self):
        prob = LmiProblem()
        prob.add_symmetric("K", 2)
        with pytest.raises(ValueError):
            prob.add_matrix("K", 1, 1)

    def test_unknown_sense(self):
        prob = LmiProblem()
        with pytest.raises(ValueError):
            prob.add_constraint("c", lambda v: np.eye(1), "geq")

    def test_nonsquare_constraint(self):
        prob = LmiProblem()
        prob.add_matrix("Y", 1, 2)
        prob.add_constraint("c", lambda v: v["Y"], "psd")
        with pytest.raises(ValueError):
            prob.solve(eps=1e-8)


class TestNonSymmetricExpression:
    @pytest.mark.parametrize("capped", [False, True])
    def test_same_verdict_as_symmetrised_form(self, capped):
        # only the symmetric part of a cone's expression matters; with the
        # cap K <= I no K brings K + sym(N) c, c >= 3, above zero
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        reports = []
        for M in (N, 0.5 * (N + N.T)):
            prob = LmiProblem()
            prob.add_symmetric("K", 2)
            prob.add_matrix("c", 1, 1)
            prob.add_constraint(
                "pos", lambda v, M=M: v["K"] + M * v["c"], "psd", shift=1e-6
            )
            prob.add_constraint("lift", lambda v: v["c"] - 3.0, "psd")
            if capped:
                prob.add_constraint("cap", lambda v: v["K"] - np.eye(2), "nsd")
            reports.append(prob.solve(eps=1e-6))
        raw, sym = reports
        assert raw.feasible == sym.feasible == (not capped)
        assert raw.iterations == sym.iterations > 0


def _probed(prob: LmiProblem) -> list:
    """``(c0, A)`` per constraint by one closure call per basis vector."""
    npar = prob.n_params
    zero = prob._unpack(np.zeros(npar))
    out = []
    for c in prob.constraints:
        c0 = np.asarray(c.expr(zero), dtype=float).ravel()
        A = np.zeros((c0.size, npar))
        for i in range(npar):
            e = np.zeros(npar)
            e[i] = 1.0
            A[:, i] = np.asarray(c.expr(prob._unpack(e)), dtype=float).ravel() - c0
        out.append((c0, A))
    return out


def _assert_compiles_like_probing(prob: LmiProblem) -> None:
    compiled = prob._compile()
    assert len(compiled) == len(prob.constraints)
    for (c, c0, A, m), (p0, pA) in zip(compiled, _probed(prob)):
        assert c0.shape == p0.shape == (m * m,)
        assert A.shape == pA.shape
        scale = max(np.max(np.abs(pA), initial=0.0), np.max(np.abs(p0)), 1e-300)
        assert np.max(np.abs(c0 - p0)) <= 1e-14 * scale, c.name
        assert np.max(np.abs(A - pA), initial=0.0) <= 1e-14 * scale, c.name


class TestBatchedCompile:
    @pytest.mark.parametrize(
        "name, strict",
        [
            ("concond", True),
            ("elcirc", False),
            ("elcirc", True),
            ("exmath", False),
            ("exmath", True),
            ("source_converter_4mode", False),
            ("source_converter_4mode", True),
            ("source_converter_6mode", False),
            ("source_converter_6mode", True),
        ],
    )
    def test_corpus_lmis_match_probing(self, name, strict):
        model = load_model(MODELS / f"{name}.json")
        eps = EPS_REL * problem_scale(model)
        _assert_compiles_like_probing(assemble_mlf_lmis(model, eps, strict=strict))

    def test_posreal_gram_lmi_matches_probing(self, monkeypatch):
        problems = []
        solve = LmiProblem.solve
        monkeypatch.setattr(
            LmiProblem,
            "solve",
            lambda self, *a, **k: problems.append(self) or solve(self, *a, **k),
        )
        P = PolyMatrix.from_entries([[[2.0], [0.0]], [[0.0], [2.0, 0.0, -2.0]]])
        R1 = PolyMatrix.from_entries([[[1.0, 1.0], [0.0]], [[0.0], [2.0, 3.0, 1.0]]])
        spectral_factorize(P, R1)
        assert len(problems) == 1
        _assert_compiles_like_probing(problems[0])

    def test_ple_lmi_matches_probing(self):
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0], [1.0]], [[0.0], [1.0, 1.0]]])
        X = minimal_state_map(R)
        prob = assemble_ple_lmi(R, X, np.ones((1, X.rows)), require_positive=True)
        _assert_compiles_like_probing(prob)

    def test_non_broadcasting_expression_rejected(self):
        # v["c"][0, 0] picks one entry of the whole stack, not of each value
        prob = LmiProblem()
        prob.add_symmetric("K", 2)
        prob.add_matrix("c", 1, 1)
        prob.add_constraint("pos", lambda v: v["K"] + v["c"][0, 0], "psd", 1e-6)
        with pytest.raises(ValueError, match="'pos' is not affine"):
            prob.solve(eps=1e-6)
