import time

import numpy as np
import pytest

from sldstab.fixtures import source_converter
from sldstab.mlf import EPS_REL, _warm_start, assemble_mlf_lmis, problem_scale
from sldstab.sdp import LmiProblem


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


def _converter_search(model, conservative):
    """The K-only search ``find_mlf`` runs, as a bare solve: (problem, eps, report)."""
    eps = EPS_REL * problem_scale(model)
    prob = assemble_mlf_lmis(model, eps, conservative=conservative, multipliers=False)
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
            "fix", lambda v: np.diag((v["Y"] - target).ravel()), "zero"
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

    @pytest.mark.parametrize("conservative", [False, True])
    def test_identical_runs_with_several_block_sizes(self, conservative):
        model = source_converter(6)
        r1, r2 = (_converter_search(model, conservative)[2] for _ in range(2))
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

    @pytest.mark.parametrize("conservative", [False, True])
    def test_report_margins_are_verify_margins(self, conservative):
        # the 6-mode converter's cones come in several sizes, so the search
        # runs on more than one stacked group
        model = source_converter(6)
        prob, eps, rep = _converter_search(model, conservative)
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
                "pos", lambda v, M=M: v["K"] + M * v["c"][0, 0], "psd", shift=1e-6
            )
            prob.add_constraint("lift", lambda v: v["c"] - 3.0, "psd")
            if capped:
                prob.add_constraint("cap", lambda v: v["K"] - np.eye(2), "nsd")
            reports.append(prob.solve(eps=1e-6))
        raw, sym = reports
        assert raw.feasible == sym.feasible == (not capped)
        assert raw.iterations == sym.iterations > 0
