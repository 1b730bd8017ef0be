"""Multiple Lyapunov functions for switched linear differential systems.

Per mode k the certificate is a quadratic differential form
``Q_k(w) = x^T Kbar_k x`` over the minimal state map ``x = X_k(d/dt) w``.
Over the realization ``xi X = A X + B R`` it must satisfy

    A^T Kbar + Kbar A    <= -eps I    (decay)
    Kbar                 >=  eps I    (pos)

and at a transition k -> l with re-initialisation map L it must not
increase, for every state the gluing conditions admit:

    Kbar_k - L^T Kbar_l L  >=  0      (switch)

This is the only switch condition.  Imposing it along the mode-k
eigendirections instead, ``V_k^H (Kbar_k - L^T Kbar_l L) V_k >= 0`` with
``V_k`` square and invertible, is a congruence of the same matrix: by
Sylvester's law of inertia it has the same feasible set, measures
violations in other units and needs a non-defective mode.

The paper's polynomial Lyapunov equation ``(zeta+eta) Psi = Y^T R + R^T Y
- Delta`` is the decay condition read in polynomial form: the realization
identity fixes the multiplier at ``Y(xi) = B^T Kbar X(xi)``, and then
``(zeta+eta) X^T Kbar X - Y^T R - R^T Y = X^T (A^T Kbar + Kbar A) X``.
So a certificate is its kernels ``Kbar_k`` alone: the search solves for
them, the file stores them, and ``verify_mlf`` rebuilds decay, positivity
and switch conditions from them.  The equation itself is assembled in one
place, :func:`assemble_ple_lmi`.

The search starts from the per-mode solutions ``K_k`` of ``A_k^T K_k +
K_k A_k = -I``, scaled by ``c_k`` over the transition graph so that every
switch condition holds with a relative gap (:func:`_switch_scales`).  Such
scales exist exactly when the graph's weights ``log r_kl + gamma`` have no
cycle of positive weight.  When the scaled start verifies, it is the
certificate (``iterations`` 0) and no LMI is built; otherwise the LMI
search runs from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import SldsModel
from .polymat import json_float, json_list, json_object
from .sdp import DEFAULT_BUDGET, LmiProblem, accepts
from .statespace import realize

EPS_REL = 1e-7
SCAN_RATIOS = np.geomspace(1e-3, 1e3, 121)  # c_2 / c_1 grid of scan_canonical_family
# gamma of the scaled start: c_k / c_l exceeds the least ratio r_kl by the
# factor exp(gamma) = 1.1, so each switch condition holds with a 10 % relative
# gap that rounding cannot close, not at the eps bonus.  It also makes every
# cycle with r = 1 on each transition (L = I both ways) positive: such models
# keep the unscaled start.
SWITCH_GAP = math.log(1.1)


@dataclass
class MlfCertificate:
    route: str  # "lmi" (the search) | "posreal"; any label but "posreal" is strict
    epsilon: float
    kernels: list[np.ndarray]  # Kbar per mode
    margins: dict  # constraint name -> margin at the stored kernels
    solver: dict  # iterations, feasible flag, budget

    @property
    def feasible(self) -> bool:
        return bool(self.solver.get("feasible", False))


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


def _switch_scales(kernels: list[np.ndarray], maps: dict) -> np.ndarray | None:
    """Scales ``c_k >= 1`` with ``c_k K_k - c_l L^T K_l L >= (1 - e^-gamma) c_k K_k``
    for every transition ``(k, l) -> L`` of ``maps`` (modes count from 1,
    ``gamma = SWITCH_GAP``), or ``None`` when no such scales exist.

    With ``r_kl = lambda_max(K_k^{-1/2} L^T K_l L K_k^{-1/2})`` the switch
    condition reads ``c_k / c_l >= e^gamma r_kl``, i.e. ``y_k >= y_l +
    log r_kl + gamma`` for ``y = log c``: a longest-path problem on the
    transition graph (Branicky, IEEE TAC 43(4), 1998), solved by
    Bellman-Ford from ``y = 0`` in at most ``m`` rounds.  A graph whose
    ``m``-th round still relaxes has a cycle of positive weight, and then
    no scales exist (Karp, Discrete Math. 23, 1978).  Neither do they when
    a ``K_k`` is not positive definite.
    """
    inv_factors = []  # C_k^-1 for K_k = C_k C_k^T
    for K in kernels:
        try:
            inv_factors.append(np.linalg.inv(np.linalg.cholesky(K)))
        except np.linalg.LinAlgError:
            return None
    edges = []
    for (k, l), L in sorted(maps.items()):
        W = inv_factors[k - 1] @ L.T
        W = W @ kernels[l - 1] @ W.T  # similar to K_k^-1 L^T K_l L
        r = float(np.max(np.linalg.eigvalsh(0.5 * (W + W.T)), initial=0.0))
        if r > 0.0:  # r = 0: the switch holds at every scale
            edges.append((k - 1, l - 1, math.log(r) + SWITCH_GAP))
    y = np.zeros(len(kernels))
    for _ in range(len(kernels)):
        changed = False
        for k, l, w in edges:
            if y[l] + w > y[k]:
                y[k] = y[l] + w
                changed = True
        if not changed:
            c = np.exp(y - y.min())
            return c if np.all(np.isfinite(c)) else None
    return None  # a positive cycle


def _warm_start(model: SldsModel, solutions=None) -> dict:
    """The start of the search: the per-mode Lyapunov solutions
    ``A^T K + K A = -I``, symmetrised and scaled by :func:`_switch_scales`.

    Scaled, the kernels decay along their modes and meet every switch
    condition with a relative gap of ``1 - e^-SWITCH_GAP``, so they are
    usually a certificate already.  Where no scales exist (a cycle of
    positive weight, or a ``K_k`` that is not positive definite) the
    kernels stay unscaled.
    """
    if solutions is None:
        solutions = _unit_lyapunov(model)
    kernels = [0.5 * (K + K.T) for K in solutions]
    scales = _switch_scales(kernels, {key: rm.L for key, rm in model.reinits.items()})
    if scales is not None:
        kernels = [c * K for c, K in zip(scales, kernels)]
    return {f"K{k}": K for k, K in enumerate(kernels, start=1)}


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


def assemble_mlf_lmis(model: SldsModel, eps: float, strict: bool = True) -> LmiProblem:
    """Build the feasibility problem for an MLF certificate in the ``K_k``.

    The switch conditions hold on the whole state space (module docstring).
    ``strict=False`` relaxes decay/positivity to the
    semidefinite sense, which is what storage-function certificates satisfy
    (their decay rate is a dissipation form with a nontrivial kernel).
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

        prob.add_constraint(f"decay_{k}", decay, "nsd", shift)
        prob.add_constraint(f"pos_{k}", pos, "psd", shift)
    for (k, l), rm in sorted(model.reinits.items()):

        def switch(v, L=rm.L, k=k, l=l):
            return v[f"K{k}"] - L.T @ v[f"K{l}"] @ L

        prob.add_constraint(f"switch_{k}_{l}", switch, "psd", 0.0)
    return prob


def make_certificate(
    model: SldsModel,
    route: str,
    kernels,
    eps: float | None = None,
    solver: dict | None = None,
) -> MlfCertificate:
    """The certificate of the kernels ``K_k``, judged by ``verify_mlf``.

    The margins and ``solver["feasible"]`` are those of ``verify_mlf``, and
    the other ``solver`` entries follow ``feasible`` in the order given.
    ``eps`` defaults to ``EPS_REL * problem_scale(model)``.
    """
    if eps is None:
        eps = EPS_REL * problem_scale(model)
    cert = MlfCertificate(
        route=route,
        epsilon=eps,
        kernels=[np.asarray(K, dtype=float) for K in kernels],
        margins={},
        solver={"feasible": False, **(solver or {})},
    )
    cert.solver["feasible"], cert.margins = verify_mlf(model, cert)
    return cert


def find_mlf(
    model: SldsModel,
    eps: float | None = None,
    budget: int = DEFAULT_BUDGET,
) -> MlfCertificate:
    """Search for an MLF certificate; check ``.feasible`` on the result.

    The start kernels (:func:`_warm_start`) go through
    :func:`make_certificate` first: when they verify, they are the
    certificate, with ``iterations`` 0, and no LMI is compiled.  Otherwise
    the LMI search runs from the same start.  :func:`make_certificate`
    takes the stored margins and the ``feasible`` flag from ``verify_mlf``.
    """
    solutions = _unit_lyapunov(model)
    if eps is None:
        eps = EPS_REL * problem_scale(model, solutions)
    start = _warm_start(model, solutions)
    names = [f"K{k}" for k in range(1, model.n_modes + 1)]
    solver = {"iterations": 0, "budget": budget}
    cert = make_certificate(model, "lmi", [start[n] for n in names], eps=eps, solver=solver)
    if cert.feasible:
        return cert
    report = assemble_mlf_lmis(model, eps).solve(eps, budget=budget, warm_start=start)
    solver = {"iterations": report.iterations, "budget": budget}
    kernels = [report.values[n] for n in names]
    return make_certificate(model, "lmi", kernels, eps=eps, solver=solver)


def check_fits(model: SldsModel, cert: MlfCertificate) -> None:
    """Raise ``ValueError`` unless the certificate has one ``K_k`` per mode,
    ``n_k x n_k`` for the mode's state dimension ``n_k``."""
    n_cert, n_model = len(cert.kernels), model.n_modes
    if n_cert != n_model:
        fault = "has no K" if n_cert < n_model else "is not in the model"
        raise ValueError(
            f"certificate has {n_cert} modes, the model has {n_model}: "
            f"mode {min(n_cert, n_model) + 1} {fault}"
        )
    for k, (real, K) in enumerate(zip(model.realizations, cert.kernels), start=1):
        if np.shape(K) != (real.n, real.n):
            raise ValueError(
                f"mode {k}: K is {'x'.join(map(str, np.shape(K)))}, "
                f"the mode has state dimension {real.n}"
            )


def verify_mlf(model: SldsModel, cert: MlfCertificate) -> tuple[bool, dict]:
    """Independent margin re-check of a certificate against a model.

    Rebuilds all constraints from scratch and evaluates them at the stored
    kernels with the certificate's ``epsilon``; returns
    (``sdp.accepts`` of the margins, margins).  A certificate that does not
    fit the model raises ``ValueError`` (:func:`check_fits`).
    """
    check_fits(model, cert)
    eps = cert.epsilon
    prob = assemble_mlf_lmis(model, eps, strict=(cert.route != "posreal"))
    values = {
        f"K{k}": np.asarray(K, dtype=float) for k, K in enumerate(cert.kernels, start=1)
    }
    margins = prob.verify(values, eps)
    return accepts(margins, eps), margins


def scan_canonical_family(model: SldsModel) -> dict:
    """Scan the one-parameter candidate family of scalar-state models.

    For models whose modes all have McMillan degree 1 the canonical
    quadratic candidates are ``c_k x_k^2`` with ``c_k > 0``; after scale
    normalization (``c_1 = 1``) a two-mode model leaves a single free ratio,
    scanned over ``SCAN_RATIOS`` with ``eps = EPS_REL * problem_scale``.
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
    eps = EPS_REL * problem_scale(model)
    prob = assemble_mlf_lmis(model, eps)
    groups = {"positivity": "pos_", "decay": "decay_", "switch": "switch_"}
    results = []
    feasible_ratios = []
    for r in SCAN_RATIOS:
        values = {"K1": np.array([[1.0]]), "K2": np.array([[float(r)]])}
        margins = prob.verify(values, eps)
        group_margins = {
            g: min(m for name, m in margins.items() if name.startswith(pre))
            for g, pre in groups.items()
        }
        binding = min(group_margins, key=group_margins.get)
        ok = accepts(margins, eps)
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
    return {
        "route": cert.route,
        "epsilon": cert.epsilon,
        "modes": [{"K": np.asarray(K).tolist()} for K in cert.kernels],
        "margins": {k: float(v) for k, v in cert.margins.items()},
        "solver": cert.solver,
    }


def certificate_from_json(doc: dict) -> MlfCertificate:
    """Read a certificate file; a missing or wrong-typed field is a
    ``ValueError`` that names it, and keys other than
    ``certificate_to_json``'s (the ``Y``, ``F``, per-mode margins and
    ``transitions`` of older files) are ignored.  Rejects an ``epsilon``
    that is not positive and finite and a ``K`` that is not a finite
    symmetric square matrix."""
    json_object(doc, "certificate file", ("route", "epsilon", "modes"))
    eps = json_float(doc["epsilon"], "certificate epsilon")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"certificate epsilon must be positive and finite, got {eps}")
    kernels = []
    for k, mode in enumerate(json_list(doc["modes"], "certificate modes"), start=1):
        mode = json_object(mode, f"certificate mode {k}", ("K",))
        rows = json_list(mode["K"], f"mode {k}: kernel K")
        for i, row in enumerate(rows, start=1):
            for j, v in enumerate(json_list(row, f"mode {k}: kernel K row {i}"), start=1):
                json_float(v, f"mode {k}: kernel K entry ({i},{j})")
        K = np.asarray(rows, dtype=float)
        if K.ndim != 2 or K.shape[0] != K.shape[1]:
            raise ValueError(f"mode {k}: kernel K must be square")
        bad = np.argwhere(~np.isfinite(K))
        if bad.size:
            where = ", ".join(f"{K[i, j]} at entry ({i + 1},{j + 1})" for i, j in bad)
            raise ValueError(f"mode {k}: kernel K has a non-finite entry: {where}")
        if not np.allclose(K, K.T, atol=1e-12 * max(1.0, np.abs(K).max())):
            raise ValueError(f"mode {k}: kernel K must be symmetric")
        kernels.append(K)
    return MlfCertificate(
        route=str(doc["route"]),
        epsilon=eps,
        kernels=kernels,
        margins={
            k: json_float(v, f"margin '{k}'")
            for k, v in json_object(doc.get("margins", {}), "margins").items()
        },
        solver=dict(json_object(doc.get("solver", {}), "solver")),
    )


def save_certificate(cert: MlfCertificate, path) -> None:
    text = json.dumps(certificate_to_json(cert), indent=2)
    with open(path, "w") as fh:
        fh.write(text)  # one write: json.dump writes once per token


def load_certificate(path) -> MlfCertificate:
    with open(path) as fh:
        return certificate_from_json(json.load(fh))
