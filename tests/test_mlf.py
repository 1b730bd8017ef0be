import importlib.util
import itertools
import json
import math
from functools import cache, partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sldstab import mlf
from sldstab.cli import main
from sldstab.mlf import (
    EPS_REL,
    SWITCH_GAP,
    _switch_scales,
    _unit_lyapunov,
    _warm_start,
    certificate_from_json,
    certificate_to_json,
    find_mlf,
    lyapunov,
    make_certificate,
    problem_scale,
    verify_mlf,
)
from sldstab.model import load_model, model_from_json
from sldstab.polymat import PolyMatrix
from sldstab.posreal import build_standard_slds
from sldstab.qdf import qdf_derivative, qdf_mod, sandwich, two_var_from_pair
from sldstab.sdp import LmiProblem
from sldstab.statespace import minimal_state_map

from modeltools import (
    CORPUS,
    corpus_model,
    count_factored,
    ple_residual,
    scan_canonical_family,
    standard_scalar_pair,
    unstable_mode,
)

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
LEGACY = DATA / "legacy"
MODELS = ROOT / "models"


class TestCircuit:
    def test_certifies(self):
        cert = find_mlf(corpus_model("elcirc"))
        assert cert.feasible
        ok, margins = verify_mlf(corpus_model("elcirc"), cert)
        assert ok
        assert min(margins.values()) >= cert.epsilon / 2

    def test_known_kernels_verify(self):
        # V_k = 0.5 x_k^2 works for both modes of the switched RC pair
        model = corpus_model("elcirc")
        cert = make_certificate(model, "lmi", [[[0.5]], [[0.5]]])
        ok, margins = verify_mlf(model, cert)
        assert ok
        # capacitor paralleling dumps energy: large slack on the 2 -> 1 jump
        assert margins["switch_2_1"] > 0.3


class TestConverter:
    def test_both_routes_certify(self):
        model = corpus_model("source_converter_4mode")
        cert = find_mlf(model)
        assert cert.feasible, cert.route
        ok, _ = verify_mlf(model, cert)
        assert ok, cert.route

    def test_published_kernels_verify(self):
        model = corpus_model("source_converter_4mode")
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
        cert = find_mlf(corpus_model("source_converter_6mode"))
        assert cert.feasible


class TestLyapunovOnce:
    def test_one_solve_per_mode(self, monkeypatch):
        # the scale of eps and the warm start come from one solve per mode,
        # in one batched solve per state dimension
        model = corpus_model("source_converter_6mode")
        factored = count_factored(monkeypatch, mlf, "solve")
        cert = find_mlf(model)
        assert cert.feasible
        assert sum(factored) == model.n_modes
        assert len(factored) == len({real.n for real in model.realizations})


def _check_lyapunov(A, Q, K):
    """``K`` solves ``A^T K + K A = Q`` to a residual of at most
    ``1e-12 (2 |A| |K| + |Q|)`` and agrees with scipy's Bartels-Stewart
    solve within 1e-9 relative (spectral norms)."""
    norm = partial(np.linalg.norm, ord=2)
    resid = norm(A.T @ K + K @ A - Q)
    assert resid <= 1e-12 * (2 * norm(A) * norm(K) + norm(Q))
    ref = scipy.linalg.solve_lyapunov(A.T, Q)
    assert norm(K - ref) <= 1e-9 * norm(ref)


class TestKroneckerLyapunov:
    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus_modes(self, name):
        # the stacked solve of _unit_lyapunov is each mode's lone solve, bit for bit
        model = corpus_model(name)
        for real, K in zip(model.realizations, _unit_lyapunov(model)):
            _check_lyapunov(real.A, -np.eye(real.n), K)
            assert np.array_equal(K, lyapunov(real.A, -np.eye(real.n)))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_hurwitz_stack(self, seed):
        # a stack of three Hurwitz A of one size n <= 8, spectral abscissa
        # at most -0.1, and a symmetric Q each
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        A = rng.uniform(-1.0, 1.0, (3, n, n))
        abscissa = np.linalg.eigvals(A).real.max(axis=-1)
        A -= (abscissa + rng.uniform(0.1, 2.0, 3))[:, None, None] * np.eye(n)
        G = rng.standard_normal((3, n, n))
        Q = -G @ G.transpose(0, 2, 1)
        K = lyapunov(A, Q)
        assert K.shape == (3, n, n)
        for i in range(3):
            _check_lyapunov(A[i], Q[i], K[i])


class TestDefectiveMode:
    def test_exact_route_rejects(self, capsys):
        # the search needs no eigenvectors, so a defective root does not stop
        # it: --route exact runs the one search, which finds no certificate
        assert main(["check", str(MODELS / "concond.json"), "--route", "exact"]) == 2
        out = capsys.readouterr().out
        assert "defective" not in out
        assert "route lmi: feasible=False" in out

    def test_conservative_route_reports_no_certificate(self):
        cert = find_mlf(corpus_model("concond"))
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


class TestLegacyCertificateFiles:
    """Files written when a certificate also stored ``Y_k = B_k^T K_k``,
    ``F_k = A_k^T K_k + K_k A_k``, per-mode margins and ``transitions``:
    those keys are ignored, and the ``K_k`` alone decide the verdict."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_same_verdict_as_kernels_alone(self, tmp_path, capsys, name):
        model = str(MODELS / f"{name}.json")
        legacy = LEGACY / f"{name}.cert.json"
        doc = json.loads(legacy.read_text())
        assert "transitions" in doc
        assert all({"K", "Y", "F", "margins"} <= set(mode) for mode in doc["modes"])
        stripped = tmp_path / "stripped.json"
        stripped.write_text(json.dumps({
            "route": doc["route"],
            "epsilon": doc["epsilon"],
            "modes": [{"K": mode["K"]} for mode in doc["modes"]],
        }))
        rc = main(["check", model, "--verify-only", str(legacy)])
        report = capsys.readouterr().out
        # the exit code each file got from the program that wrote it
        assert rc == (2 if name == "concond" else 0)
        assert main(["check", model, "--verify-only", str(stripped)]) == rc
        assert capsys.readouterr().out == report
        assert "ple_" not in report

    def test_scaled_multiplier_ignored(self, tmp_path, capsys):
        # Y_k = 1.001 B_k^T K_k once failed the ple_k re-check; a stored Y_k
        # is no evidence, since Y_k = B_k^T K_k is fixed by the K_k
        name = "source_converter_4mode"
        doc = json.loads((LEGACY / f"{name}.cert.json").read_text())
        for mode in doc["modes"]:
            mode["Y"] = (1.001 * np.asarray(mode["Y"])).tolist()
        scaled = tmp_path / "scaled.json"
        scaled.write_text(json.dumps(doc))
        assert main(["check", str(MODELS / f"{name}.json"), "--verify-only", str(scaled)]) == 0
        assert "certificate verifies" in capsys.readouterr().out


def _counted_find_mlf(model, monkeypatch):
    """``find_mlf(model)`` and how often it called ``assemble_mlf_lmis``,
    ``LmiProblem.verify`` and ``LmiProblem._compile``."""
    calls = {"assemble": 0, "verify": 0, "compile": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(mlf, "assemble_mlf_lmis", counted("assemble", mlf.assemble_mlf_lmis))
    monkeypatch.setattr(LmiProblem, "verify", counted("verify", LmiProblem.verify))
    monkeypatch.setattr(LmiProblem, "_compile", counted("compile", LmiProblem._compile))
    try:
        return find_mlf(model), calls
    finally:
        monkeypatch.undo()


class TestJudgedOnce:
    """``find_mlf`` builds one problem and judges each kernel set once: the
    start before anything is compiled, and the search's answer once more."""

    @pytest.mark.parametrize("name", ["concond", "source_converter_4mode", "source_converter_6mode"])
    def test_search_builds_one_problem(self, name, monkeypatch):
        model = corpus_model(name)
        cert, calls = _counted_find_mlf(model, monkeypatch)
        assert cert.solver["iterations"] > 0
        assert calls == {"assemble": 1, "verify": 2, "compile": 1}
        assert (cert.feasible, cert.margins) == verify_mlf(model, cert)

    @pytest.mark.parametrize("name", ["elcirc", "exmath"])
    def test_start_certificate_compiles_nothing(self, name, monkeypatch):
        model = corpus_model(name)
        cert, calls = _counted_find_mlf(model, monkeypatch)
        assert cert.feasible
        assert cert.solver["iterations"] == 0
        assert calls == {"assemble": 1, "verify": 1, "compile": 0}
        assert (cert.feasible, cert.margins) == verify_mlf(model, cert)


class TestMakeCertificate:
    @pytest.mark.parametrize("name", ["elcirc", "source_converter_4mode"])
    def test_search_certificate_is_made_by_make_certificate(self, name):
        # make_certificate of the search's kernels is the search's certificate
        model = load_model(MODELS / f"{name}.json")
        cert = find_mlf(model)
        again = make_certificate(
            model,
            "lmi",
            cert.kernels,
            solver={k: cert.solver[k] for k in ("iterations", "budget")},
        )
        # json.dumps compares key order too
        assert json.dumps(certificate_to_json(again)) == json.dumps(
            certificate_to_json(cert)
        )
        assert list(cert.solver) == ["feasible", "iterations", "budget"]

    def test_default_eps_and_solver(self):
        model = corpus_model("elcirc")
        cert = make_certificate(model, "lmi", [[[0.5]], [[0.5]]])
        assert cert.epsilon == EPS_REL * problem_scale(model)
        assert cert.solver == {"feasible": True}
        bad = make_certificate(model, "lmi", [[[0.5]], [[-0.5]]])
        assert bad.solver == {"feasible": False}
        assert bad.margins["pos_2"] < 0


class TestPleAssembly:
    """Known answers of the paper's polynomial Lyapunov equation, assembled
    on the coefficient stacks by the tests' residual oracle."""

    def test_scalar_known_answer(self):
        # R = xi + 1, supply Q = sqrt(2): Kbar = 1, Ybar = 1
        R = PolyMatrix.from_entries([[[1.0, 1.0]]])
        X = minimal_state_map(R)
        resid = ple_residual(R, X, [[np.sqrt(2.0)]], [[1.0]], [[1.0]])
        assert np.abs(resid).max() < 1e-9

    def test_degree_two_known_answer(self):
        # R = xi^2 + 3 xi + 2 with Q = 2 sqrt(3) on the first state row
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        X = minimal_state_map(R)
        K = np.array([[11.0, 3.0], [3.0, 1.0]])
        Y = np.array([[3.0, 1.0]])
        resid = ple_residual(R, X, [[2.0 * np.sqrt(3.0), 0.0]], K, Y)
        assert np.abs(resid).max() < 1e-9
        assert np.linalg.eigvalsh(K)[0] > 1e-9

    def test_wrong_supply_width_rejected(self):
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        X = minimal_state_map(R)
        with pytest.raises(ValueError):
            ple_residual(R, X, [[1.0, 0.0, 0.0]], np.eye(2), np.zeros((1, 2)))


def _posreal_standard_model():
    return build_standard_slds(*standard_scalar_pair()).model


@cache
def _generators():
    """The benchmark's seeded input generators (numpy only)."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _family_draw(seed):
    w, m = [(w, m) for w in (2, 3) for m in (2, 3, 4)][seed % 6]
    return model_from_json(_generators().slds_member(np.random.default_rng(seed), w, m)["model"])


def _assert_reinits_are_pinv(model):
    want = {
        key: (np.linalg.pinv(pair.f_plus) @ pair.f_minus).tobytes()
        for key, pair in model.normal_form_pairs.items()
    }
    assert {key: L.tobytes() for key, L in model.reinits.items()} == want


class TestReinitMapsArePinv:
    """``L`` from the model's one SVD of ``F+`` is ``pinv(F+) @ F-`` bit for bit."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus(self, name):
        _assert_reinits_are_pinv(load_model(MODELS / f"{name}.json"))

    @pytest.mark.parametrize("seed", range(50))
    def test_seeded_draws(self, seed):
        _assert_reinits_are_pinv(_family_draw(seed))


class TestDecayFormInvariant:
    """The paper's Lyapunov equation with ``Y = B^T K`` is the decay form.

    ``(zeta+eta) X^T K X - (YX)^T R - R^T (YX) == X^T F X`` with
    ``F = A^T K + K A``, coefficient for coefficient (it is ``xi X = A X +
    B R`` substituted), and so modulo R too.  Modulo R the multiplier terms
    vanish on their own, so only the exact identity pins ``Y``.  The
    identity is linear in ``K`` and holds for every symmetric ``K``, so a
    seeded random one per mode tests it.
    """

    @pytest.mark.parametrize(
        "build",
        [pytest.param(partial(corpus_model, name), id=name) for name in CORPUS]
        + [pytest.param(_posreal_standard_model, id="posreal_pair")]
        + [pytest.param(partial(_family_draw, seed), id=f"slds_member{seed}") for seed in range(20)],
    )
    def test_two_variable_identity(self, build):
        model = build()
        rng = np.random.default_rng(7)
        for real in model.realizations:
            M = rng.standard_normal((real.n, real.n))
            K = M + M.T
            Y = real.B.T @ K
            F = real.A.T @ K + K @ real.A
            multiplier = two_var_from_pair(PolyMatrix(Y[None]) @ real.X, real.R)
            lhs = qdf_derivative(sandwich(real.X, K)) - multiplier
            rhs = sandwich(real.X, F)
            g = max(lhs.grid, rhs.grid, multiplier.grid)
            scale = max(rhs.max_norm(), multiplier.max_norm())
            assert np.max(np.abs(lhs.pad(g) - rhs.pad(g))) < 1e-12 * scale
            lhs, rhs = qdf_mod(lhs, real.R), qdf_mod(rhs, real.R)
            g = max(lhs.grid, rhs.grid)
            scale = max(1.0, float(np.max(np.abs(rhs.pad(g)))))
            assert np.max(np.abs(lhs.pad(g) - rhs.pad(g))) < 1e-8 * scale


def _log_ratio(kernels, maps, k, l):
    """``log r_kl + gamma``, with ``r_kl`` the largest generalized eigenvalue
    of ``(L^T K_l L, K_k)``; minus infinity when ``r_kl`` is not positive."""
    L = maps[(k, l)]
    r = scipy.linalg.eigh(L.T @ kernels[l - 1] @ L, kernels[k - 1], eigvals_only=True)[-1]
    return math.log(r) + SWITCH_GAP if r > 0 else -math.inf


def _positive_cycles(kernels, maps):
    """Every simple cycle of the transition graph whose ``log r + gamma``
    weights sum above zero, found by walking all of them."""
    out = []
    modes = range(1, len(kernels) + 1)
    for size in range(2, len(kernels) + 1):
        for cycle in itertools.permutations(modes, size):
            if cycle[0] != min(cycle):
                continue  # each cycle once, from its least mode
            steps = list(zip(cycle, cycle[1:] + cycle[:1]))
            if all(step in maps for step in steps):
                if sum(_log_ratio(kernels, maps, k, l) for k, l in steps) > 0:
                    out.append(cycle)
    return out


def _unscaled(model):
    return [0.5 * (K + K.T) for K in _unit_lyapunov(model)]


class TestScaledStart:
    """The start scales each mode's unit-Lyapunov kernel by ``c_k`` so that
    every switch condition holds with a 10 % relative gap, when the
    transition graph's ``log r + gamma`` weights have no positive cycle."""

    @pytest.mark.parametrize("seed", range(30))
    def test_family_draw(self, seed, monkeypatch):
        # a draw whose graph admits the scaling is certified by its start:
        # no LMI compiled, no Newton step, and margins well above the eps
        # bonus; a draw that does not has a positive cycle
        model = _family_draw(seed)
        kernels, maps = _unscaled(model), model.reinits
        if _switch_scales(kernels, maps) is None:
            assert _positive_cycles(kernels, maps)
            return
        cert, calls = _counted_find_mlf(model, monkeypatch)
        assert cert.feasible
        assert cert.solver["iterations"] == 0
        assert calls == {"assemble": 1, "verify": 1, "compile": 0}
        assert (cert.feasible, cert.margins) == verify_mlf(model, cert)
        assert min(cert.margins.values()) >= 1e3 * cert.epsilon

    def test_most_family_draws_scale(self):
        scaled = [
            _switch_scales(_unscaled(m), m.reinits) is not None
            for m in map(_family_draw, range(30))
        ]
        assert sum(scaled) >= 20

    def test_elcirc_switch_headroom(self):
        # unscaled, switch_1_2 is an exact 0 and passes on the eps bonus alone
        cert = find_mlf(corpus_model("elcirc"))
        assert cert.solver["iterations"] == 0
        assert cert.margins["switch_1_2"] >= 1e5 * cert.epsilon

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(partial(corpus_model, name), id=name)
            for name in ("concond", "exmath", "source_converter_4mode", "source_converter_6mode")
        ]
        + [pytest.param(unstable_mode, id="unstable_mode")],
    )
    def test_unscaled_where_no_scaling_exists(self, build):
        # a positive cycle (L = I both ways between the converters' modes,
        # and between exmath's), or a kernel that is not positive definite
        # (a mode that is not Hurwitz): the start stays unscaled
        model = build()
        start = _warm_start(model)
        assert [start[f"K{k}"].tobytes() for k in range(1, model.n_modes + 1)] == [
            K.tobytes() for K in _unscaled(model)
        ]
        find_mlf(model)


def _random_graph(seed):
    """SPD kernels of 2-4 modes with state dimensions 1-3, and maps ``L`` on
    a random set of transitions."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 5))
    dims = rng.integers(1, 4, m)
    kernels = []
    for n in dims:
        M = rng.standard_normal((n, n))
        kernels.append(M @ M.T + 0.1 * np.eye(n))
    maps = {}
    for k, l in itertools.permutations(range(1, m + 1), 2):
        if rng.random() < 0.6:
            gain = 10.0 ** rng.uniform(-1.5, 0.5)
            maps[(k, l)] = gain * rng.standard_normal((dims[l - 1], dims[k - 1]))
    return kernels, maps


class TestSwitchScalesProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_gap_or_positive_cycle(self, seed):
        kernels, maps = _random_graph(seed)
        scales = _switch_scales(kernels, maps)
        if scales is None:
            assert _positive_cycles(kernels, maps)
            return
        assert scales.min() == 1.0
        gap = 1.0 - math.exp(-SWITCH_GAP)
        for (k, l), L in maps.items():
            Kk, Kl = scales[k - 1] * kernels[k - 1], scales[l - 1] * L.T @ kernels[l - 1] @ L
            lam = np.linalg.eigvalsh(Kk - Kl)[0]
            rounding = 1e-12 * (np.abs(Kk).max() + np.abs(Kl).max())
            assert lam >= gap * np.linalg.eigvalsh(Kk)[0] - rounding


class TestFamilyScan:
    def test_report_is_self_consistent(self):
        report = scan_canonical_family(corpus_model("exmath"))
        assert report["consistent"]
        assert report["scan_feasible"] == report["lmi_feasible"]
        # every grid point names its binding condition group
        assert all(
            r["binding"] in ("positivity", "decay", "switch")
            for r in report["results"]
        )
        for r in report["results"]:
            m = r["margins"]
            assert set(m) == {"decay_1", "pos_1", "decay_2", "pos_2", "switch_1_2", "switch_2_1"}
            assert r["group_margins"]["decay"] == min(m["decay_1"], m["decay_2"])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            scan_canonical_family(corpus_model("source_converter_4mode"))
        with pytest.raises(ValueError):
            scan_canonical_family(corpus_model("concond"))


class TestJson:
    def test_round_trip(self):
        model = corpus_model("elcirc")
        cert = find_mlf(model)
        back = certificate_from_json(certificate_to_json(cert))
        assert back.route == cert.route
        for a, b in zip(cert.kernels, back.kernels):
            assert np.allclose(a, b)
        ok, _ = verify_mlf(model, back)
        assert ok

    @pytest.mark.parametrize("c", [1.0, 1e-8, 1e-16])
    def test_rejects_asymmetric_kernel(self, c):
        # the symmetry test is relative to the kernel's own scale
        cert = find_mlf(corpus_model("elcirc"))
        doc = certificate_to_json(cert)
        doc["epsilon"] *= c
        doc["modes"][0]["K"] = [[c, 2.0 * c], [0.0, c]]
        with pytest.raises(ValueError, match="mode 1: kernel K must be symmetric"):
            certificate_from_json(doc)
