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
and switch conditions from them.  The equation is never assembled: its
decay form is the condition that is solved and checked.

The search starts from the per-mode solutions ``K_k`` of ``A_k^T K_k +
K_k A_k = -I``, scaled by ``c_k`` over the transition graph so that every
switch condition holds with a relative gap (:func:`_switch_scales`).  Such
scales exist exactly when the graph's weights ``log r_kl + gamma`` have no
cycle of positive weight.  A start that verifies is the certificate
(``iterations`` 0, nothing compiled); otherwise the search runs from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import SldsModel, stacked_map
from .polymat import json_float, json_list, json_object, write_json
from .sdp import DEFAULT_BUDGET, LmiProblem, accepts

EPS_REL = 1e-7
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


def lyapunov(A: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The solutions ``K`` of ``A^T K + K A = Q`` for a stack ``A`` of shape
    ``(..., n, n)``, ``Q`` broadcasting against it.

    One batched LU solve of the Kronecker form ``(A^T (x) I + I (x) A^T)
    vec K = vec Q`` (row-major ``vec``), ``n^2`` unknowns per matrix.  It
    costs ``O(n^6)``, the order of one Newton step's Hessian for the same
    kernel in :meth:`~sldstab.sdp.LmiProblem.solve` (``n^2`` rows by about
    ``n^2 / 2`` parameters, squared), so no size needs another method.
    The solution is unique when no two eigenvalues of ``A`` sum to zero,
    which holds for a Hurwitz ``A``.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[-1]
    At, eye = np.swapaxes(A, -1, -2), np.eye(n)
    # op[..., i, j, p, q] = At[i, p] eye[j, q] + eye[i, p] At[j, q]
    op = At[..., :, None, :, None] * eye[:, None, :]
    op = op + eye[:, None, :, None] * At[..., None, :, None, :]
    lead = A.shape[:-2]
    # b as (..., n^2, 1): numpy >= 2 reads a (..., n^2) right side as one vector
    b = np.broadcast_to(Q, A.shape).reshape(*lead, n * n, 1)
    return np.linalg.solve(op.reshape(*lead, n * n, n * n), b).reshape(A.shape)


def _unit_lyapunov(model: SldsModel) -> list[np.ndarray]:
    """Per-mode solutions of ``A^T K + K A = -I``: one :func:`lyapunov`
    call per state dimension, on the stack of that dimension's ``A_k``, so
    each mode's equation is solved once."""
    return stacked_map(
        lambda A: lyapunov(A, -np.eye(A.shape[-1])),
        [real.A for real in model.realizations],
    )


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
    try:  # C_k^-1 for K_k = C_k C_k^T, one cholesky and inv per dimension
        inv_factors = stacked_map(lambda K: np.linalg.inv(np.linalg.cholesky(K)), kernels)
    except np.linalg.LinAlgError:
        return None

    def ratio(C_inv, L, K_l):  # max(0, lambda_max(C_k^-1 L^T K_l L C_k^-T)) per stacked edge
        W = C_inv @ L.transpose(0, 2, 1)
        W = W @ K_l @ W.transpose(0, 2, 1)  # similar to K_k^-1 L^T K_l L
        return np.linalg.eigvalsh(0.5 * (W + W.transpose(0, 2, 1))).max(axis=-1, initial=0.0)

    keys = sorted(maps)
    ratios = stacked_map(
        ratio,
        [inv_factors[k - 1] for k, _ in keys],
        [maps[key] for key in keys],
        [kernels[l - 1] for _, l in keys],
    )
    edges = [  # r <= 0: the switch holds at every scale
        (k - 1, l - 1, math.log(r) + SWITCH_GAP)
        for (k, l), r in zip(keys, ratios)
        if r > 0.0
    ]
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
    scales = _switch_scales(kernels, model.reinits)
    if scales is not None:
        kernels = [c * K for c, K in zip(scales, kernels)]
    return {f"K{k}": K for k, K in enumerate(kernels, start=1)}


def assemble_mlf_lmis(model: SldsModel, strict: bool = True) -> LmiProblem:
    """Build the feasibility problem for an MLF certificate in the ``K_k``.

    The switch conditions hold on the whole state space (module docstring).
    Decay and positivity hold with margin ``eps`` (the ``eps`` of ``solve`` and
    ``verify``); ``strict=False`` relaxes them to the semidefinite sense, which
    is what storage-function certificates satisfy (their decay rate is a
    dissipation form with a nontrivial kernel).
    """
    prob = LmiProblem()
    for k, real in enumerate(model.realizations, start=1):
        prob.add_symmetric(f"K{k}", real.n)
        K, A = f"K{k}", real.A
        prob.add_constraint(f"decay_{k}", [(K, A, None), (K, None, A)], "nsd", strict)
        prob.add_constraint(f"pos_{k}", [(K, None, None)], "psd", strict)
    for (k, l), L in sorted(model.reinits.items()):
        prob.add_constraint(
            f"switch_{k}_{l}", [(f"K{k}", None, None), (f"K{l}", -L, L)], "psd"
        )
    return prob


def make_certificate(
    model: SldsModel,
    route: str,
    kernels,
    solver: dict | None = None,
) -> MlfCertificate:
    """The certificate of given kernels ``K_k`` (positive-real route, demos),
    judged by ``verify_mlf`` at ``eps = EPS_REL * problem_scale(model)``: its
    margins and ``solver["feasible"]``, the other ``solver`` entries
    following ``feasible`` in the order given.
    """
    cert = MlfCertificate(
        route=route,
        epsilon=EPS_REL * problem_scale(model),
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

    One problem (:func:`assemble_mlf_lmis`), solved once from the scaled
    start (:func:`_warm_start`), so each kernel set is judged once: the
    margins and ``feasible`` flag are the solve report's, which evaluates
    the constraints that ``verify_mlf`` rebuilds.
    """
    solutions = _unit_lyapunov(model)
    if eps is None:
        eps = EPS_REL * problem_scale(model, solutions)
    start = _warm_start(model, solutions)
    report = assemble_mlf_lmis(model).solve(eps, budget=budget, warm_start=start)
    solver = {"feasible": report.feasible, "iterations": report.iterations, "budget": budget}
    kernels = [report.values[name] for name in start]
    return MlfCertificate("lmi", eps, kernels, report.margins, solver)


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
    prob = assemble_mlf_lmis(model, strict=(cert.route != "posreal"))
    values = {
        f"K{k}": np.asarray(K, dtype=float) for k, K in enumerate(cert.kernels, start=1)
    }
    margins = prob.verify(values, eps)
    return accepts(margins, eps), margins


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
    that is not positive and finite and a ``K`` that is not a finite square
    matrix with ``max|K - K^T| <= 1e-12 max|K|``, a test that does not
    depend on the scale of ``K``."""
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
        if np.abs(K - K.T).max(initial=0.0) > 1e-12 * np.abs(K).max(initial=0.0):
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
    write_json(path, certificate_to_json(cert))


def load_certificate(path) -> MlfCertificate:
    with open(path) as fh:
        return certificate_from_json(json.load(fh))
