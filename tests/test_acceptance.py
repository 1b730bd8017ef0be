"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS line on
success (run with ``pytest -s`` to see them); timing limits are asserted
inside the tests themselves.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from sldstab.cli import main
from sldstab.mlf import find_mlf, make_certificate, verify_mlf
from sldstab.model import SldsModel, is_well_posed, load_model
from sldstab.polymat import (
    PolyMatrix,
    canonical_rep,
    determinant,
    is_strictly_proper,
    poly_roots,
)
from sldstab.posreal import (
    build_standard_slds,
    is_strictly_positive_real,
    mlf_from_positive_real,
    para_hermitian_boundary,
    positive_real_completion,
    spectral_factorize,
)
from sldstab.qdf import eval_along_trajectory, qdf_derivative, sandwich
from sldstab.sim import SwitchingSignal, audit_mlf, simulate
from sldstab.statespace import minimal_state_map, realize

from modeltools import (
    CORPUS,
    corpus_model,
    derivative_stack,
    ple_residual,
    scan_canonical_family,
    trace_states,
)
from polytools import polynomial_part

MODELS = Path(__file__).resolve().parents[1] / "models"


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS: {detail}")


def _random_hurwitz_scalar(rng, deg):
    p = np.array([1.0])
    for _ in range(deg % 2):
        p = np.convolve(p, [1.0, rng.uniform(0.2, 5.0)])
    for _ in range(deg // 2):
        a = rng.uniform(0.2, 4.0)
        b = rng.uniform(0.0, 6.0)
        p = np.convolve(p, [1.0, 2 * a, a * a + b * b])
    return PolyMatrix(p[::-1][:, None, None])


def test_criterion_1_converter_reproduction():
    """4-mode DC-DC converter: frequencies, V1, certificate, published kernels."""
    t0 = time.perf_counter()
    model = load_model(MODELS / "source_converter_4mode.json")

    # (a) characteristic frequencies, 0.1% relative
    published = {
        1: [-5000.0, -100.0],
        2: [-2550.0 + 9695.2j, -2550.0 - 9695.2j],
        3: [-2600.0 + 9707.7j, -2600.0 - 9707.7j, -100.0],
        4: [-2575.0 + 13933.0j, -2575.0 - 13933.0j, -149.94],
    }
    for k, want in published.items():
        got = np.linalg.eigvals(model.realizations[k - 1].A)
        for lam in want:
            err = np.min(np.abs(got - lam)) / abs(lam)
            assert err < 1e-3, f"mode {k}: {lam} missed by {err:.2e}"

    # (b) V1 = [[0,1],[1,0]] up to column sign
    from sldstab.statespace import eigenstructure

    V1 = np.real_if_close(eigenstructure(model.modes[0], model.state_maps[0]).V)
    want = np.array([[0.0, 1.0], [1.0, 0.0]])
    for j in range(2):
        col = V1[:, j] / np.max(np.abs(V1[:, j]))
        assert np.allclose(np.abs(col), want[:, j], atol=1e-9)

    # (c) feasible certificate found and re-verified
    cert = find_mlf(model)
    assert cert.feasible
    ok, _ = verify_mlf(model, cert)
    assert ok

    # (d) published truncated kernels verify with margins >= -1e-4
    K12 = np.array([[0.00123, -0.00002], [-0.00002, 0.00112]])
    K34 = np.zeros((3, 3))
    K34[:2, :2] = K12
    K34[2, 2] = 0.00121
    pub = make_certificate(model, "lmi", [K12, K12, K34, K34])
    _, margins = verify_mlf(model, pub)
    assert min(margins.values()) >= -1e-4

    # 6-mode extension lives entirely in a model file (same code path)
    model6 = load_model(MODELS / "source_converter_6mode.json")
    assert model6.n_modes == 6
    cert6 = find_mlf(model6)
    assert cert6.feasible
    # the published 6-mode solution uses its own kernel set
    K12b = np.array([[0.00127, -0.00002], [-0.00002, 0.00126]])
    K34b = np.zeros((3, 3))
    K34b[:2, :2] = K12b
    K34b[2, 2] = 0.00131
    K56 = np.zeros((3, 3))
    K56[:2, :2] = K12b
    K56[2, 2] = 0.00382
    pub6 = make_certificate(model6, "lmi", [K12b, K12b, K34b, K34b, K56, K56])
    _, margins6 = verify_mlf(model6, pub6)
    assert min(margins6.values()) >= -1e-4

    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(1, f"converter frequencies/V1/certificates reproduced in {dt:.1f}s")


def test_criterion_2_circuit_certified_and_audited():
    """Switched RC circuit: certificate, published MLF, 100 audited signals."""
    t0 = time.perf_counter()
    assert main(["check", str(MODELS / "elcirc.json")]) == 0

    model = corpus_model("elcirc")
    # published MLF: V_k = w_2^2 in both modes (state x = w_2, kernel 1)
    cert = make_certificate(model, "lmi", [[[1.0]], [[1.0]]])
    ok, _ = verify_mlf(model, cert)
    assert ok

    rng = np.random.default_rng(42)
    for trial in range(100):
        n_ev = int(rng.integers(1, 8))
        times = np.sort(rng.uniform(0.05, 4.0, size=n_ev))
        times += 1e-3 * np.arange(n_ev)  # enforce strict increase
        mode = int(rng.integers(1, 3))
        events, m = [], mode
        for t in times:
            m = 2 if m == 1 else 1
            events.append((float(t), m))
        sig = SwitchingSignal(mode, tuple(events))
        tr = simulate(
            model, sig, [float(rng.uniform(0.5, 2.0))], t_end=5.0,
            sample_dt=0.05, certificate=cert,
        )
        rep = audit_mlf(tr)
        assert rep["ok"], f"signal {trial}: {rep}"
        # strict decrease between samples inside modes (value is x^2 > 0)
        assert tr.values[-1] < tr.values[0]

    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(2, f"circuit certified; 100 random signals audited in {dt:.1f}s")


def test_criterion_3_standard_scalar_chain():
    """Positive-real route on (xi^2+3xi+2, xi+3), every stage in closed form."""
    t0 = time.perf_counter()
    R1 = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
    R2 = PolyMatrix.from_entries([[[3.0, 1.0]]])

    ok, _ = is_strictly_positive_real(R2, R1)
    assert ok
    P = para_hermitian_boundary(R2, R1)
    assert np.allclose(P.coeffs.ravel(), [12.0])
    spectral_factorize(P, R1)  # raises on failure

    s = build_standard_slds(R1, R2)
    cert = mlf_from_positive_real(s)
    assert cert.feasible
    assert np.allclose(cert.kernels[0], [[11.0, 3.0], [3.0, 1.0]], atol=1e-8)
    assert np.allclose(cert.kernels[1], [[2.0]], atol=1e-8)

    K1 = np.asarray(cert.kernels[0])
    n2 = s.n2
    assert np.allclose(K1[:n2, n2:], -s.Pi.T @ K1[n2:, n2:], atol=1e-10)

    M = positive_real_completion(s, cert)
    assert np.allclose(M.coeffs.ravel(), [1.0], atol=1e-8)
    assert is_strictly_positive_real(M @ R2, R1)[0]

    lmi = find_mlf(s.model)
    assert lmi.feasible

    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(3, f"scalar standard chain reproduced in {dt:.1f}s")


def test_criterion_4_property_suites():
    """Randomized identities: PLE residuals, canonical reps, eig/roots, sim."""
    rng = np.random.default_rng(2024)

    # (a) PLE residual <= 1e-9 over 50 random Hurwitz modes (scalar and 2x2)
    for trial in range(50):
        if trial % 2 == 0:
            R = _random_hurwitz_scalar(rng, int(rng.integers(1, 5)))
        else:
            d1 = _random_hurwitz_scalar(rng, int(rng.integers(1, 3)))
            d2 = _random_hurwitz_scalar(rng, int(rng.integers(1, 3)))
            D = np.zeros((max(d1.coeffs.shape[0], d2.coeffs.shape[0]), 2, 2))
            D[: d1.coeffs.shape[0], 0, 0] = d1.coeffs[:, 0, 0]
            D[: d2.coeffs.shape[0], 1, 1] = d2.coeffs[:, 0, 0]
            U = rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2)
            V = rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2)
            R = PolyMatrix(np.einsum("ab,kbc,cd->kad", U, D, V))
        X = minimal_state_map(R)
        real = realize(R, X)
        K = scipy.linalg.solve_lyapunov(real.A.T, -np.eye(real.n))
        Y = real.B.T @ K
        resid = ple_residual(R, X, np.eye(real.n), K, Y)
        # require residual <= 1e-9 * scale
        scale = max(1.0, float(np.max(np.abs(K))), R.max_norm() ** 2)
        assert np.abs(resid).max() <= 1e-9 * scale

    # (b) canonical_rep reconstruction + idempotence, 200 random pairs
    done = 0
    while done < 200:
        n = int(rng.integers(1, 4))
        R = PolyMatrix(
            rng.integers(-4, 5, size=(int(rng.integers(2, 4)), n, n)).astype(float)
        )
        if abs(determinant(R).coeffs[-1]) < 1e-9:
            continue
        F = PolyMatrix(
            rng.integers(-3, 4, size=(3, int(rng.integers(1, 3)), n)).astype(float)
        )
        C = canonical_rep(F, R)
        N = polynomial_part(F, R)
        assert ((N @ R) + C - F).max_norm() < 1e-7 * max(1.0, F.max_norm())
        assert is_strictly_proper(C, R)
        CC = canonical_rep(C, R)
        assert (CC - C).max_norm() < 1e-7 * max(1.0, C.max_norm())
        done += 1

    # (c) eigenvalues(A_k) = roots(det R_k) on every corpus model
    for name in CORPUS:
        model = corpus_model(name)
        for real in model.realizations:
            got = np.sort_complex(np.linalg.eigvals(real.A))
            want = np.sort_complex(poly_roots(determinant(real.R)))
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.allclose(got, want, atol=1e-6 * scale)

    # (d) simulator mode fidelity and gluing fidelity on switched corpus models
    for name in ("elcirc", "source_converter_4mode"):
        model = corpus_model(name)
        keys = sorted(model.gluing)
        tscale = 1.0 if name == "elcirc" else 1e-4
        # build an admissible alternating signal from the gluing graph
        m = keys[0][0]
        evs = []
        t = tscale
        for _ in range(3):
            nxt = next(l for (k, l) in keys if k == m)
            evs.append((t, nxt))
            m = nxt
            t += tscale
        sig = SwitchingSignal(keys[0][0], tuple(evs))
        x0 = np.ones(model.realizations[sig.initial_mode - 1].n)
        tr = simulate(model, sig, x0, t_end=5 * tscale, sample_dt=tscale / 10)
        assert not tr.truncated
        for ev in tr.events:
            scale = max(1.0, float(np.linalg.norm(ev["x_minus"])))
            assert ev["gluing_residual"] < 1e-8 * scale
        # mode fidelity: R(d/dt) w = 0 along each sampled state
        for m_act, x in zip(tr.modes, trace_states(tr)):
            real = model.realizations[m_act - 1]
            depth = real.R.coeffs.shape[0]
            stack = derivative_stack(model, int(m_act), x, depth)
            resid = np.einsum("kij,kj->i", real.R.coeffs, stack)
            scale = real.R.max_norm() * max(1.0, float(np.max(np.abs(stack))))
            assert np.max(np.abs(resid)) < 1e-4 * scale

    # (e) QDF derivative against finite differences
    X = PolyMatrix.from_entries([[[1.0]], [[0.0, 1.0]]])
    K = np.array([[11.0, 3.0], [3.0, 1.0]])
    psi = sandwich(X, K)
    dpsi = qdf_derivative(psi)
    lam = -0.8
    derivs = lambda t, depth: np.array(
        [[lam**j * np.exp(lam * t)] for j in range(depth)]
    )
    t0 = 0.21
    h = 1e-6
    numeric = (
        eval_along_trajectory(psi, derivs(t0 + h, psi.grid))
        - eval_along_trajectory(psi, derivs(t0 - h, psi.grid))
    ) / (2 * h)
    analytic = eval_along_trajectory(dpsi, derivs(t0, dpsi.grid))
    assert abs(analytic - numeric) <= 1e-6 * abs(numeric)

    _report(4, "PLE/canonical/eigen/simulation/QDF property suites hold")


def test_criterion_5_negative_controls(tmp_path, capsys):
    """Bad inputs are rejected with named diagnoses, not mis-certified."""
    # unstable mode: det R has a root at +1
    from sldstab.model import model_to_json

    R_bad = PolyMatrix.from_entries([[[-1.0, 1.0]]])
    good = PolyMatrix.from_entries([[[1.0, 1.0]]])
    I1 = PolyMatrix.identity(1)
    unstable = SldsModel(
        modes=[R_bad, good], gluing={(1, 2): (I1, I1), (2, 1): (I1, I1)}
    )
    p = tmp_path / "unstable.json"
    p.write_text(json.dumps(model_to_json(unstable)))
    assert main(["check", str(p)]) == 1
    assert "not Hurwitz" in capsys.readouterr().out

    # rank-deficient F+: named per transition
    zero = PolyMatrix.from_entries([[[0.0]]])
    ill = SldsModel(
        modes=[good, good],
        gluing={(1, 2): (I1, zero), (2, 1): (I1, I1)},
    )
    verdicts, ok = is_well_posed(ill)
    assert not ok
    assert verdicts[(1, 2)] is False and verdicts[(2, 1)] is True
    p2 = tmp_path / "illposed.json"
    p2.write_text(json.dumps(model_to_json(ill)))
    assert main(["check", str(p2)]) == 1
    assert "1->2" in capsys.readouterr().out

    # indefinite boundary form is rejected by the factorizer
    with pytest.raises(ValueError, match="indefinite"):
        spectral_factorize(PolyMatrix.from_entries([[[-1.0]]]), good)
    with pytest.raises(ValueError):
        spectral_factorize(
            PolyMatrix.from_entries([[[1.0, 0.0, 1.0]]]),
            PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]]),
        )

    _report(5, "unstable/ill-posed/indefinite inputs rejected with diagnoses")


def test_criterion_6_family_scan_self_consistency():
    """Averaging-gluing two-mode example: computed verdict, open question noted."""
    report = scan_canonical_family(corpus_model("exmath"))
    assert report["consistent"], "scan verdict disagrees with the LMI outcome"
    assert report["scan_feasible"] == report["lmi_feasible"]
    # full residuals present for every grid point
    for row in report["results"]:
        assert set(row["group_margins"]) == {"positivity", "decay", "switch"}
        assert row["binding"] in row["group_margins"]
    # the report cross-references the documented disagreement
    assert "open question" in report["note"].lower()
    _report(
        6,
        f"scan verdict feasible={report['scan_feasible']} matches LMI; "
        "open question cross-referenced",
    )
