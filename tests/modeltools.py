"""Model helpers that only the tests use.

No command differentiates a trajectory by its realization, needs an
anti-Hurwitz mode, lists a trace's states one by one, evaluates the
polynomial Lyapunov equation or scans a family of candidate kernels, so
these live with the tests rather than in :mod:`sldstab`.  The bundled
models are read from ``models/``, which ``scripts/generate_models.py``
writes.
"""

import json
import math
from pathlib import Path

import numpy as np

from sldstab.mlf import EPS_REL, assemble_mlf_lmis, find_mlf, problem_scale
from sldstab.model import SldsModel, load_model
from sldstab.polymat import MINUS_INF, PolyMatrix, polymatrix_from_json
from sldstab.sdp import accepts
from sldstab.sim import Trace
from sldstab.statespace import realize

MODELS = Path(__file__).resolve().parents[1] / "models"
CORPUS = ["concond", "elcirc", "exmath", "source_converter_4mode", "source_converter_6mode"]
SCAN_RATIOS = np.geomspace(1e-3, 1e3, 121)  # c_2 / c_1 grid of scan_canonical_family


class ModuleProxy:
    """A module stand-in: the given attributes, the rest from ``target``."""

    def __init__(self, target, **attrs):
        self._target = target
        self.__dict__.update(attrs)

    def __getattr__(self, name):
        return getattr(self._target, name)


def count_factored(monkeypatch, module, name: str, **linalg) -> list[int]:
    """Give ``module`` a numpy whose ``linalg.<name>`` records, per call,
    the number of matrices it factors (the product of the leading axes of
    its first argument: a stack counts each matrix), and return that
    record; ``linalg`` replaces further ``np.linalg`` attributes there."""
    counts = []
    fn = getattr(np.linalg, name)

    def counted(a, *args, **kw):
        counts.append(math.prod(np.shape(a)[:-2]))
        return fn(a, *args, **kw)

    proxy = ModuleProxy(np.linalg, **{name: counted}, **linalg)
    monkeypatch.setattr(module, "np", ModuleProxy(np, linalg=proxy))
    return counts


def corpus_model(name: str) -> SldsModel:
    """The bundled model ``models/<name>.json``."""
    return load_model(MODELS / f"{name}.json")


def standard_scalar_pair() -> tuple[PolyMatrix, PolyMatrix]:
    """The bundled scalar pair (R1, R2) = (xi^2+3xi+2, xi+3) of the
    positive-real route."""
    return tuple(
        polymatrix_from_json(json.loads((MODELS / f"standard_scalar_{r}.json").read_text()))
        for r in ("r1", "r2")
    )


def trace_states(trace: Trace) -> list:
    """One state vector per sample: row views of the trace's blocks."""
    return [x for X in trace.blocks for x in X]


def derivative_stack(model: SldsModel, mode: int, x: np.ndarray, depth: int) -> np.ndarray:
    """Rows ``d^j w / dt^j = C A^j x`` for ``j = 0 .. depth-1``."""
    real = model.realizations[mode - 1]
    out = np.zeros((depth, real.w))
    xj = np.asarray(x, dtype=float)
    for j in range(depth):
        out[j] = real.C @ xj
        xj = real.A @ xj
    return out


def unstable_mode(rate: float = 1.0) -> SldsModel:
    """Single anti-Hurwitz mode ``d/dt - rate``, used as a negative control."""
    return SldsModel(modes=[PolyMatrix.from_entries([[[-rate, 1.0]]])], gluing={})


def inconsistent_gluing(row_scale: float = 1.0) -> SldsModel:
    """Two copies of ``d/dt + 1`` glued by ``w_minus = w_plus`` and
    ``w_minus = 0``, both rows times ``row_scale``: a switch from a nonzero
    state violates the second row."""
    R = PolyMatrix.from_entries([[[1.0, 1.0]]])
    Gm = PolyMatrix.from_entries([[[row_scale]], [[row_scale]]])
    Gp = PolyMatrix.from_entries([[[row_scale]], [[0.0]]])
    return SldsModel(modes=[R, R], gluing={(1, 2): (Gm, Gp)})


def coefficient_stacks(R: PolyMatrix, X: PolyMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(Rt, Xa, Xb)``: the coefficients of ``R``, ``X`` and ``xi X`` over
    the monomial grid on which ``realize`` checks ``Xb = A Xa + B Rt``."""
    grid = max(int(R.degree) + 1, int(X.degree) + 2 if X.degree != MINUS_INF else 1)
    Xa = X.stack(grid)
    Xb = np.zeros_like(Xa)  # Xa shifted one block right
    Xb[:, X.cols :] = Xa[:, : -X.cols]
    return R.stack(grid), Xa, Xb


def ple_residual(R: PolyMatrix, X: PolyMatrix, Qbar, K, Y) -> np.ndarray:
    """Residual of the single-mode polynomial Lyapunov equation

        (zeta+eta) X(zeta)^T K X(eta)
            = Y(zeta)^T R(eta) + R(zeta)^T Y(eta) - Q(zeta)^T Q(eta)

    with ``Y = Ybar X`` (``Ybar`` given as ``Y``, ``w x n``) and the supply
    ``Q = Qbar X``, on the coefficient stacks: the matrix
    ``(zeta+eta) X^T K X - Y^T R - R^T Y + Q^T Q``, zero when the equation
    holds.  ``X`` must be a minimal state map of ``R``.
    """
    real = realize(R, X)
    Qbar = np.atleast_2d(np.asarray(Qbar, dtype=float))
    if Qbar.shape[1] != real.n:
        raise ValueError(f"Qbar has {Qbar.shape[1]} columns, state dimension is {real.n}")
    Rt, Xa, Xb = coefficient_stacks(R, X)
    QX = Qbar @ Xa
    K, Y = np.asarray(K, dtype=float), np.asarray(Y, dtype=float)
    return Xb.T @ K @ Xa + Xa.T @ K @ Xb - Xa.T @ Y.T @ Rt - Rt.T @ Y @ Xa + QX.T @ QX


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
    prob = assemble_mlf_lmis(model)
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
