import time
from pathlib import Path

import numpy as np
import pytest

from sldstab.mlf import (
    EPS_REL,
    _warm_start,
    assemble_mlf_lmis,
    find_mlf,
    problem_scale,
    verify_mlf,
)
from sldstab.model import load_model
from sldstab.polymat import PolyMatrix
from sldstab.posreal import build_standard_slds, mlf_from_positive_real
from sldstab.sdp import LmiProblem, _ConeGroup, accepts

from modeltools import CORPUS, corpus_model

MODELS = Path(__file__).resolve().parents[1] / "models"


def _lyapunov_problem(A):
    """Find K > 0 with A^T K + K A < 0 for a Hurwitz A."""
    prob = LmiProblem()
    n = A.shape[0]
    prob.add_symmetric("K", n)
    prob.add_constraint("pos", [("K", None, None)], "psd", strict=True)
    prob.add_constraint("decay", [("K", A, None), ("K", None, A)], "nsd", strict=True)
    return prob


def _converter_search(model, strict):
    """The K-only search ``find_mlf`` runs, as a bare solve: (problem, eps, report)."""
    eps = EPS_REL * problem_scale(model)
    prob = assemble_mlf_lmis(model, strict=strict)
    return prob, eps, prob.solve(eps, warm_start=_warm_start(model))


class TestFeasible:
    def test_scalar_lyapunov(self):
        A = np.array([[-1.0]])
        prob = _lyapunov_problem(A)
        rep = prob.solve(eps=1e-7)
        assert rep.feasible
        K = rep.values["K"]
        assert K[0, 0] > 0
        assert (A.T @ K + K @ A)[0, 0] < 0

    def test_coupled_blocks(self):
        # K1 - K2 >= 0 and K2 - K1 >= 0 couple the blocks; both must stay psd.
        # A non-strict cone is accepted to eps / 2, so at eps = 1e-8 the
        # coupling holds to 5e-9
        prob = LmiProblem()
        prob.add_symmetric("K1", 2)
        prob.add_symmetric("K2", 2)
        minus = -np.eye(2)
        prob.add_constraint("ge", [("K1", None, None), ("K2", minus, None)], "psd")
        prob.add_constraint("le", [("K2", None, None), ("K1", minus, None)], "psd")
        prob.add_constraint("p1", [("K1", None, None)], "psd", strict=True)
        A = np.array([[-2.0, 1.0], [0.0, -3.0]])
        prob.add_constraint("d2", [("K2", A, None), ("K2", None, A)], "nsd", strict=True)
        rep = prob.solve(eps=1e-8)
        assert rep.feasible
        assert np.allclose(rep.values["K1"], rep.values["K2"], atol=1e-8)

    def test_warm_start_accepted_immediately(self):
        A = np.array([[-1.0]])
        prob = _lyapunov_problem(A)
        rep = prob.solve(eps=1e-7, warm_start={"K": np.array([[1.0]])})
        assert rep.feasible
        assert rep.iterations == 0


def _contradictory_problem(n):
    """``K >= I`` and ``K <= -I``: no point comes within 1 of feasibility."""
    prob = LmiProblem()
    prob.add_symmetric("K", n)
    prob.add_constraint("up", [("K", None, None)], "psd", const=-np.eye(n))
    prob.add_constraint("dn", [("K", None, None)], "nsd", const=np.eye(n))
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
        prob = _lyapunov_problem(A)
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
        r1 = _lyapunov_problem(A).solve(eps=1e-7)
        r2 = _lyapunov_problem(A).solve(eps=1e-7)
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.values["K"], r2.values["K"])

    @pytest.mark.parametrize("strict", [False, True])
    def test_identical_runs_with_several_block_sizes(self, strict):
        model = corpus_model("source_converter_6mode")
        r1, r2 = (_converter_search(model, strict)[2] for _ in range(2))
        assert r1.iterations == r2.iterations > 0
        for name in r1.values:
            assert r1.values[name].tobytes() == r2.values[name].tobytes()


class TestVerify:
    def test_margins_match_solution(self):
        A = np.array([[-2.0, 1.0], [-1.0, -1.0]])
        prob = _lyapunov_problem(A)
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
        model = corpus_model("source_converter_6mode")
        prob, eps, rep = _converter_search(model, strict)
        assert rep.feasible and rep.iterations > 0
        margins = prob.verify(rep.values, eps)
        assert set(margins) == set(rep.margins)
        for name, m in margins.items():
            assert m == pytest.approx(rep.margins[name], abs=1e-12)
        assert min(margins.values()) >= eps / 2

    def test_verify_flags_violation(self):
        A = np.array([[-1.0]])
        prob = _lyapunov_problem(A)
        margins = prob.verify({"K": np.array([[-1.0]])}, eps=1e-7)
        assert margins["pos"] < 0


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
        rep = _lyapunov_problem(A).solve(eps=1e-7)
        assert rep.feasible == accepts(rep.margins, 1e-7)
        assert rep.feasible


class TestValidation:
    def test_duplicate_variable(self):
        prob = LmiProblem()
        prob.add_symmetric("K", 2)
        with pytest.raises(ValueError):
            prob.add_symmetric("K", 1)

    def test_unknown_sense(self):
        # "zero" too: the solver has no equality constraints
        prob = LmiProblem()
        for sense in ("geq", "zero"):
            with pytest.raises(ValueError, match=f"unknown sense '{sense}'"):
                prob.add_constraint("c", [], sense, const=np.eye(1))

    def test_nonsquare_constraint(self):
        prob = LmiProblem()
        prob.add_symmetric("Y", 2)
        prob.add_constraint("c", [("Y", np.eye(2)[:, :1], None)], "psd")  # Y's first row
        with pytest.raises(ValueError):
            prob.solve(eps=1e-8)


class TestDeclaredTerms:
    @pytest.mark.parametrize("name", CORPUS)
    def test_mlf_terms_are_the_conditions(self, name):
        # at seeded symmetric kernels each declared condition is its matrix
        # expression, bit for bit
        model = corpus_model(name)
        prob = assemble_mlf_lmis(model)
        rng = np.random.default_rng(35)
        values = {}
        for k, real in enumerate(model.realizations, start=1):
            M = rng.standard_normal((real.n, real.n))
            values[f"K{k}"] = M + M.T
        want = {}
        for k, real in enumerate(model.realizations, start=1):
            K, A = values[f"K{k}"], real.A
            want[f"decay_{k}"] = A.T @ K + K @ A
            want[f"pos_{k}"] = K
        for (k, l), L in model.reinits.items():
            want[f"switch_{k}_{l}"] = values[f"K{k}"] - L.T @ values[f"K{l}"] @ L
        assert sorted(c.name for c in prob.constraints) == sorted(want)
        for c in prob.constraints:
            assert c.expr(values).tobytes() == want[c.name].tobytes(), c.name


class TestNonSymmetricExpression:
    @pytest.mark.parametrize("capped", [False, True])
    def test_same_verdict_as_symmetrised_form(self, capped):
        # only the symmetric part of a cone's expression matters; with the
        # cap K <= I no K brings K + sym(N) c, c >= 3, above zero.  The 1 x 1
        # c enters as u^T c v for the rank-one parts u^T v of N = e1^T e2 and
        # of sym(N)
        e1, e2 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        reports = []
        for parts in ([(e1, e2)], [(e1, 0.5 * e2), (e2, 0.5 * e1)]):
            prob = LmiProblem()
            prob.add_symmetric("K", 2)
            prob.add_symmetric("c", 1)
            terms = [("K", None, None)] + [("c", u, v) for u, v in parts]
            prob.add_constraint("pos", terms, "psd", strict=True)
            prob.add_constraint("lift", [("c", None, None)], "psd", const=[[-3.0]])
            if capped:
                prob.add_constraint("cap", [("K", None, None)], "nsd", const=-np.eye(2))
            reports.append(prob.solve(eps=1e-6))
        raw, sym = reports
        assert raw.feasible == sym.feasible == (not capped)
        assert raw.iterations == sym.iterations > 0


class TestEigenFactor:
    def test_barrier_terms_match_closed_forms(self):
        # gradient -tr(S^-1 B_j) and Hessian tr(S^-1 B_j S^-1 B_k), summed
        # over the stacked cones, from W = diag(lam)^(-1/2) V^T
        rng = np.random.default_rng(3)
        g, m, n = 4, 3, 5
        M = rng.standard_normal((g, m, m))
        S = M @ M.transpose(0, 2, 1) + 0.5 * np.eye(m)
        Bm = rng.standard_normal((g, m, m, n))
        Bm = Bm + Bm.transpose(0, 2, 1, 3)
        group = _ConeGroup(S, Bm.reshape(g, m * m, n))
        grad, rows = group.barrier_terms(*np.linalg.eigh(S))
        Si = np.linalg.inv(S)
        SiB = np.einsum("gab,gbcj->gacj", Si, Bm)
        want_grad = -np.einsum("gaaj->j", SiB)
        want_hess = np.einsum("gabj,gbak->jk", SiB, SiB)
        assert np.allclose(grad, want_grad, rtol=1e-12, atol=1e-12)
        assert np.allclose(rows.T @ rows, want_hess, rtol=1e-11, atol=1e-11)


class TestPhaseOneStart:
    """``t`` starts at ``max(1, sum_i tr S_i^{-1})``, centred along ``s``.

    ``concond`` (no certificate) and ``family_stall.json`` (certified) keep
    their verdicts under the tests of ``tests/test_mlf.py``.
    """

    @pytest.mark.parametrize("name", ["source_converter_4mode", "source_converter_6mode"])
    def test_converters_certify_in_few_steps(self, name):
        # from t = 1 the searches took 44 and 49 steps, the first ones only
        # growing s
        model = load_model(MODELS / f"{name}.json")
        cert = find_mlf(model)
        assert cert.feasible
        assert 0 < cert.solver["iterations"] <= 36
        ok, _ = verify_mlf(model, cert)
        assert ok


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
        _assert_compiles_like_probing(assemble_mlf_lmis(model, strict=strict))

    def test_posreal_kyp_lmi_matches_probing(self, monkeypatch):
        # the storage of a w = 2 pair is one KYP LMI in K1
        problems = []
        solve = LmiProblem.solve
        monkeypatch.setattr(
            LmiProblem,
            "solve",
            lambda self, *a, **k: problems.append(self) or solve(self, *a, **k),
        )
        R1 = PolyMatrix.from_entries([[[1.0, 1.0], [0.0]], [[0.0], [2.0, 3.0, 1.0]]])
        R2 = PolyMatrix.from_entries([[[1.0], [0.0]], [[0.0], [0.5, 0.5]]])
        s = build_standard_slds(R1, R2)
        assert mlf_from_positive_real(s).feasible
        assert len(problems) == 1
        # one cone in the leading n2 x n2 block: B1^T K1 = H fixes the rest
        assert problems[0].n_params == s.n2 * (s.n2 + 1) // 2
        assert [c.name for c in problems[0].constraints] == ["decay"]
        _assert_compiles_like_probing(problems[0])

    def test_first_bad_constraint_named(self):
        # of two constraints that are not square, the first is named
        prob = LmiProblem()
        prob.add_symmetric("K", 2)
        prob.add_symmetric("c", 1)
        prob.add_constraint("fine", [("K", None, None)], "psd")
        prob.add_constraint("wide", [("c", None, np.ones((1, 2)))], "psd")
        prob.add_constraint("tall", [("c", np.ones((1, 2)), None)], "psd")
        with pytest.raises(ValueError, match="'wide' is not square"):
            prob._compile()


class TestBatchedMargins:
    def test_one_eigvalsh_per_cone_shape(self, monkeypatch):
        # the 6-mode converter's 34 constraints come in two cone shapes; the
        # margins are those of one _margin call per constraint, in order
        model = load_model(MODELS / "source_converter_6mode.json")
        cert = find_mlf(model)
        eps = cert.epsilon
        prob = assemble_mlf_lmis(model)
        values = {f"K{k}": K for k, K in enumerate(cert.kernels, start=1)}
        want = {
            c.name: LmiProblem._margin(np.asarray(c.expr(values)), c.sense, c.strict, eps)
            for c in prob.constraints
        }
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        margins = prob.verify(values, eps)
        assert len(prob.constraints) == 34
        assert len(calls) == 2
        assert list(margins.items()) == list(want.items())

    def test_margins_equal_per_constraint_margins(self):
        # mixed sizes, senses and strictness, NaN and infinite entries and a
        # repeated name: values and key order are those of one _margin call
        # per constraint in order
        rng = np.random.default_rng(5)
        mats = {f"S{i}": rng.standard_normal((m, m)) for i, m in enumerate([2, 3, 1, 3, 2, 1])}
        mats["S0"][0, 0] = np.nan
        mats["S4"][0, 1] = np.nan
        mats["S1"][2, 2] = np.inf
        senses = ["psd", "nsd", "psd", "nsd", "psd", "nsd"]
        stricts = [False, True, True, False, False, False]
        names = ["a", "b", "d", "e", "f", "d"]
        prob = LmiProblem()
        for i, (name, sense, strict) in enumerate(zip(names, senses, stricts)):
            prob.add_constraint(name, [], sense, strict, const=mats[f"S{i}"])
        eps = 1e-6
        margins = prob.verify({}, eps)
        want = {}
        for c in prob.constraints:
            want[c.name] = LmiProblem._margin(c.expr({}), c.sense, c.strict, eps)
        assert list(margins) == list(want) == ["a", "b", "d", "e", "f"]
        assert np.array_equal(list(margins.values()), list(want.values()), equal_nan=True)
