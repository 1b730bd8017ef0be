"""Multiple Lyapunov functions for switched linear differential systems.

Per mode k the certificate is a quadratic differential form
``Q_k(w) = x^T Kbar_k x`` over the minimal state map, with a multiplier
``Ybar_k`` of the polynomial Lyapunov equation in coefficient-matrix form:

    Xb^T Kbar Xa + Xa^T Kbar Xb - Xa^T Ybar^T Rt - Rt^T Ybar Xa  <=  0     (ple)
    A^T Kbar + Kbar A                                            <= -eps I (decay)
    Kbar                                                         >=  eps I (pos)

where ``Rt = [R_0 ... R_L]`` stacks the coefficient matrices of the kernel
representation, ``Xa = [X_0 ... X_{L-1} 0]`` and ``Xb`` its one-block shift
(the coefficient form of ``xi X``).  At a transition k -> l with
re-initialisation map L the value must not increase, for every state the
gluing conditions admit:

    Kbar_k - L^T Kbar_l L  >=  0                                 (switch)

This is the only switch condition.  Imposing it along the mode-k
eigendirections instead, ``V_k^H (Kbar_k - L^T Kbar_l L) V_k >= 0`` with
``V_k`` square and invertible, is a congruence of the same matrix: by
Sylvester's law of inertia it has the same feasible set, measures
violations in other units and needs a non-defective mode.

The realization identity ``xi X = A X + B R`` reads ``Xb = A Xa + B Rt``, so
with ``Ybar = B^T Kbar`` the ple expression equals ``Xa^T (A^T Kbar + Kbar A)
Xa``, which the decay condition already bounds: the polynomial Lyapunov
equation read in state form.  The search therefore solves for the ``Kbar_k``
alone and stores ``Ybar_k = B_k^T Kbar_k``; ``verify_mlf`` rebuilds every
condition, ple included, from the stored ``Kbar_k`` and ``Ybar_k``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import SldsModel
from .sdp import DEFAULT_BUDGET, LmiProblem
from .statespace import realize

EPS_REL = 1e-7


@dataclass
class MlfCertificate:
    route: str  # "lmi" (the search) | "posreal"; any label but "posreal" is strict
    epsilon: float
    kernels: list[np.ndarray]  # Kbar per mode
    multipliers: list[np.ndarray]  # Ybar per mode
    margins: dict  # constraint name -> margin at the stored values
    solver: dict  # iterations, feasible flag, budget
    fbars: list | None = None  # A^T Kbar + Kbar A per mode

    @property
    def feasible(self) -> bool:
        return bool(self.solver.get("feasible", False))


def mode_decay_forms(model: SldsModel, kernels) -> list[np.ndarray]:
    """Closed-form decay matrices ``Fbar_k = A_k^T Kbar_k + Kbar_k A_k``."""
    out = []
    for real, K in zip(model.realizations, kernels):
        K = np.asarray(K, dtype=float)
        out.append(real.A.T @ K + K @ real.A)
    return out


def _unit_lyapunov(model: SldsModel) -> list[np.ndarray]:
    """Per-mode solutions of ``A^T K + K A = -I``, one solve per mode."""
    return [
        scipy.linalg.solve_lyapunov(real.A.T, -np.eye(real.n))
        for real in model.realizations
    ]


def problem_scale(model: SldsModel, solutions=None) -> float:
    """Natural magnitude of a Lyapunov certificate for the model.

    Uses the per-mode solutions of ``A^T K + K A = -I`` (``solutions``, when
    the caller has them); the LMI tolerance ``eps`` is relative to this.
    """
    if solutions is None:
        solutions = _unit_lyapunov(model)
    best = max((float(np.max(np.abs(K))) for K in solutions), default=0.0)
    return max(best, 1e-300)


def _warm_start(model: SldsModel, solutions=None) -> dict:
    """Per-mode Lyapunov solutions ``A^T K + K A = -I``, symmetrised."""
    if solutions is None:
        solutions = _unit_lyapunov(model)
    return {f"K{k}": 0.5 * (K + K.T) for k, K in enumerate(solutions, start=1)}


def assemble_ple_lmi(
    R, X, Qbar, require_positive: bool = False, eps: float = 0.0
) -> LmiProblem:
    """Single-mode polynomial Lyapunov equation with a fixed supply rate.

    Encodes, over the stacked coefficient matrices, the equality

        (zeta+eta) X(zeta)^T Kbar X(eta)
            = Y(zeta)^T R(eta) + R(zeta)^T Y(eta) - Q(zeta)^T Q(eta)

    with ``Q = Qbar X`` given and ``(Kbar, Ybar)`` unknown.  With
    ``require_positive`` an additional ``Kbar >= eps I`` constraint is added.
    """
    real = realize(R, X)
    Rt, Xa, Xb, w = real.Rt, real.Xa, real.Xb, real.w
    Qbar = np.atleast_2d(np.asarray(Qbar, dtype=float))
    if Qbar.shape[1] != real.n:
        raise ValueError(
            f"Qbar has {Qbar.shape[1]} columns, state dimension is {real.n}"
        )
    QX = Qbar @ Xa

    prob = LmiProblem()
    prob.add_symmetric("K", real.n)
    prob.add_matrix("Y", w, real.n)

    def ple(v):
        K, Y = v["K"], v["Y"]
        return (
            Xb.T @ K @ Xa
            + Xa.T @ K @ Xb
            - Xa.T @ Y.swapaxes(-1, -2) @ Rt
            - Rt.T @ Y @ Xa
            + QX.T @ QX
        )

    prob.add_constraint("ple", ple, "zero")
    if require_positive:
        prob.add_constraint("pos", lambda v: v["K"], "psd", eps)
    return prob


def assemble_mlf_lmis(
    model: SldsModel,
    eps: float,
    strict: bool = True,
    multipliers: bool = True,
) -> LmiProblem:
    """Build the feasibility problem for an MLF certificate.

    The switch conditions hold on the whole state space (module docstring).
    ``strict=False`` relaxes decay/positivity to the
    semidefinite sense, which is what storage-function certificates satisfy
    (their decay rate is a dissipation form with a nontrivial kernel).
    ``multipliers=False`` leaves out the ``Y_k`` variables and the ``ple_k``
    conditions, which ``Y_k = B_k^T K_k`` satisfies whenever ``decay_k``
    holds (module docstring): that is the problem the search solves.
    """
    prob = LmiProblem()
    shift = eps if strict else 0.0
    for k, real in enumerate(model.realizations, start=1):
        prob.add_symmetric(f"K{k}", real.n)

        def decay(v, A=real.A, k=k):
            K = v[f"K{k}"]
            return A.T @ K + K @ A

        def pos(v, k=k):
            return v[f"K{k}"]

        if multipliers:
            prob.add_matrix(f"Y{k}", real.w, real.n)

            def ple(v, Rt=real.Rt, Xa=real.Xa, Xb=real.Xb, k=k):
                K, Y = v[f"K{k}"], v[f"Y{k}"]
                YT = Y.swapaxes(-1, -2)
                return Xb.T @ K @ Xa + Xa.T @ K @ Xb - Xa.T @ YT @ Rt - Rt.T @ Y @ Xa

            prob.add_constraint(f"ple_{k}", ple, "nsd", 0.0)
        prob.add_constraint(f"decay_{k}", decay, "nsd", shift)
        prob.add_constraint(f"pos_{k}", pos, "psd", shift)
    for (k, l), rm in sorted(model.reinits.items()):

        def switch(v, L=rm.L, k=k, l=l):
            return v[f"K{k}"] - L.T @ v[f"K{l}"] @ L

        prob.add_constraint(f"switch_{k}_{l}", switch, "psd", 0.0)
    return prob


def find_mlf(
    model: SldsModel,
    eps: float | None = None,
    budget: int = DEFAULT_BUDGET,
) -> MlfCertificate:
    """Search for an MLF certificate; check ``.feasible`` on the result.

    The search solves for the ``K_k`` alone and sets ``Y_k = B_k^T K_k``.
    The stored margins, ``ple_k`` included, and the ``feasible`` flag are
    those of ``verify_mlf`` on the result.
    """
    solutions = _unit_lyapunov(model)
    if eps is None:
        eps = EPS_REL * problem_scale(model, solutions)
    prob = assemble_mlf_lmis(model, eps, multipliers=False)
    report = prob.solve(eps, budget=budget, warm_start=_warm_start(model, solutions))
    kernels = [report.values[f"K{k}"] for k in range(1, model.n_modes + 1)]
    cert = MlfCertificate(
        route="lmi",
        epsilon=eps,
        kernels=kernels,
        multipliers=[real.B.T @ K for real, K in zip(model.realizations, kernels)],
        margins={},
        solver={"feasible": False, "iterations": report.iterations, "budget": budget},
        fbars=mode_decay_forms(model, kernels),
    )
    cert.solver["feasible"], cert.margins = verify_mlf(model, cert)
    return cert


def verify_mlf(
    model: SldsModel, cert: MlfCertificate, eps: float | None = None
) -> tuple[bool, dict]:
    """Independent margin re-check of a certificate against a model.

    Rebuilds all constraints from scratch and evaluates them at the stored
    kernels; returns (all margins >= eps/2, margins).
    """
    if eps is None:
        eps = cert.epsilon
    prob = assemble_mlf_lmis(model, eps, strict=(cert.route != "posreal"))
    values = {}
    for k in range(1, model.n_modes + 1):
        values[f"K{k}"] = np.asarray(cert.kernels[k - 1], dtype=float)
        values[f"Y{k}"] = np.asarray(cert.multipliers[k - 1], dtype=float)
    margins = prob.verify(values, eps)
    ok = all(m >= eps / 2 for m in margins.values())
    return ok, margins


def scan_canonical_family(
    model: SldsModel, ratios=None, eps: float | None = None
) -> dict:
    """Scan the one-parameter candidate family of scalar-state models.

    For models whose modes all have McMillan degree 1 the canonical
    quadratic candidates are ``c_k x_k^2`` with ``c_k > 0``; after scale
    normalization (``c_1 = 1``) a two-mode model leaves a single free ratio.
    Each grid point is evaluated against the three certificate conditions —
    positivity on the mode, decay along the mode, and non-increase at
    switches — and the binding (worst-margin) condition is recorded.

    The scan verdict is cross-checked against the LMI search so that the
    report is self-consistent; see the README's "known discrepancies" note
    for the documented external disagreement on the averaging-gluing
    two-mode example.
    """
    if model.n_modes != 2:
        raise ValueError("family scan is implemented for two-mode models")
    if any(real.n != 1 for real in model.realizations):
        raise ValueError("family scan requires McMillan degree 1 in every mode")
    if eps is None:
        eps = EPS_REL * problem_scale(model)
    if ratios is None:
        ratios = np.geomspace(1e-3, 1e3, 121)
    prob = assemble_mlf_lmis(model, eps)
    groups = {"positivity": ("pos_",), "decay": ("decay_", "ple_"), "switch": ("switch_",)}
    results = []
    feasible_ratios = []
    for r in ratios:
        values = {}
        for k, real in enumerate(model.realizations, start=1):
            c = 1.0 if k == 1 else float(r)
            K = np.array([[c]])
            values[f"K{k}"] = K
            values[f"Y{k}"] = real.B.T @ K
        margins = prob.verify(values, eps)
        group_margins = {
            g: min(m for name, m in margins.items() if name.startswith(pre))
            for g, pre in groups.items()
        }
        binding = min(group_margins, key=group_margins.get)
        ok = all(m >= eps / 2 for m in margins.values())
        if ok:
            feasible_ratios.append(float(r))
        results.append(
            {
                "ratio": float(r),
                "margins": {k: float(v) for k, v in margins.items()},
                "group_margins": {k: float(v) for k, v in group_margins.items()},
                "binding": binding,
                "feasible": ok,
            }
        )
    cert = find_mlf(model)
    scan_feasible = bool(feasible_ratios)
    return {
        "family": "K_k = c_k (scalar states); c_1 normalized to 1",
        "epsilon": float(eps),
        "results": results,
        "feasible_ratios": feasible_ratios,
        "scan_feasible": scan_feasible,
        "lmi_feasible": cert.feasible,
        "consistent": scan_feasible == cert.feasible,
        "note": (
            "This verdict is computed, not asserted: external analyses of the "
            "averaging-gluing two-mode example report that no quadratic "
            "candidate works and the system is unstable, which disagrees with "
            "a direct reading of the mode equations used here.  See the "
            "documented open question in the README."
        ),
    }


# ---------------------------------------------------------------------------
# certificate JSON


def certificate_to_json(cert: MlfCertificate) -> dict:
    modes = []
    fbars = cert.fbars if cert.fbars is not None else [None] * len(cert.kernels)
    for k, (K, Y, F) in enumerate(zip(cert.kernels, cert.multipliers, fbars), start=1):
        entry = {"K": np.asarray(K).tolist(), "Y": np.asarray(Y).tolist()}
        if F is not None:
            entry["F"] = np.asarray(F).tolist()
        entry["margins"] = {
            name: float(m)
            for name, m in cert.margins.items()
            if name.endswith(f"_{k}") and not name.startswith("switch")
        }
        modes.append(entry)
    transitions = []
    for name, m in sorted(cert.margins.items()):
        if name.startswith("switch_"):
            _, k, l = name.split("_")
            transitions.append(
                {"from": int(k), "to": int(l), "switch_margin": float(m)}
            )
    return {
        "route": cert.route,
        "epsilon": cert.epsilon,
        "modes": modes,
        "transitions": transitions,
        "margins": {k: float(v) for k, v in cert.margins.items()},
        "solver": cert.solver,
    }


def certificate_from_json(doc: dict) -> MlfCertificate:
    for key in ("route", "epsilon", "modes"):
        if key not in doc:
            raise ValueError(f"certificate missing key '{key}'")
    kernels = [np.asarray(m["K"], dtype=float) for m in doc["modes"]]
    mults = [np.asarray(m["Y"], dtype=float) for m in doc["modes"]]
    fbars = None
    if all("F" in m for m in doc["modes"]):
        fbars = [np.asarray(m["F"], dtype=float) for m in doc["modes"]]
    for K, Y in zip(kernels, mults):
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError("kernel K must be square")
        if not np.allclose(K, K.T, atol=1e-12 * max(1.0, np.abs(K).max())):
            raise ValueError("kernel K must be symmetric")
        if Y.ndim != 2 or Y.shape[1] != K.shape[0]:
            raise ValueError("multiplier Y has incompatible shape")
    return MlfCertificate(
        route=str(doc["route"]),
        epsilon=float(doc["epsilon"]),
        kernels=kernels,
        multipliers=mults,
        margins={k: float(v) for k, v in doc.get("margins", {}).items()},
        solver=dict(doc.get("solver", {})),
        fbars=fbars,
    )


def save_certificate(cert: MlfCertificate, path) -> None:
    with open(path, "w") as fh:
        json.dump(certificate_to_json(cert), fh, indent=2)


def load_certificate(path) -> MlfCertificate:
    with open(path) as fh:
        return certificate_from_json(json.load(fh))
