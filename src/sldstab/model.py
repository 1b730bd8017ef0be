"""Switched linear differential system model.

A model is a bank of square nonsingular polynomial matrices (one kernel
representation per mode) plus gluing-condition pairs for the allowed
transitions.  The realizations are derived at construction; the normal form
of the gluing pairs and the re-initialisation maps built from it are derived
on first use and kept on the model, so each is computed once per model.

Mode indices are 1-based throughout, matching the JSON schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .polymat import (
    PolyMatrix,
    canonical_rep,
    determinant,
    is_hurwitz,
    polymatrix_from_json,
    polymatrix_to_json,
)
from .statespace import (
    StateRealization,
    coefficient_matrix,
    minimal_state_map,
    realize,
)

NORMAL_FORM_TOL = 1e-9
RANK_REL_TOL = 1e-9
CONSISTENCY_REL_TOL = 1e-8


@dataclass(frozen=True)
class NormalFormPair:
    """Constant matrices with ``G- mod R_k = F- X_k`` and ``G+ mod R_l = F+ X_l``."""

    f_minus: np.ndarray
    f_plus: np.ndarray


@dataclass(frozen=True)
class ReinitMap:
    """State jump ``x+ = L x-`` for a well-posed transition."""

    L: np.ndarray
    residual: float  # least-squares residual of F+ L = F-


@dataclass
class SldsModel:
    """Bank of modes plus gluing conditions, with derived normal form.

    The derived data assumes ``modes``, ``gluing`` and ``state_maps`` are not
    changed after construction.
    """

    modes: list[PolyMatrix]
    gluing: dict[tuple[int, int], tuple[PolyMatrix, PolyMatrix]]
    state_maps: list[PolyMatrix] = field(default_factory=list)
    realizations: list[StateRealization] = field(init=False)

    def __post_init__(self):
        if not self.modes:
            raise ValueError("model needs at least one mode")
        w = self.modes[0].cols
        for i, R in enumerate(self.modes):
            if R.rows != R.cols:
                raise ValueError(f"mode {i + 1} matrix is not square")
            if R.cols != w:
                raise ValueError("all modes must share the variable count")
            if determinant(R).is_zero():
                raise ValueError(f"mode {i + 1} matrix is singular")
        for (k, l), (gm, gp) in self.gluing.items():
            if k == l:
                raise ValueError("gluing keys must connect distinct modes")
            if not (1 <= k <= len(self.modes) and 1 <= l <= len(self.modes)):
                raise ValueError(f"gluing key ({k},{l}) out of range")
            if gm.rows != gp.rows:
                raise ValueError(f"gluing pair ({k},{l}) row counts differ")
            if gm.cols != w or gp.cols != w:
                raise ValueError(f"gluing pair ({k},{l}) column count must be {w}")
        if not self.state_maps:
            self.state_maps = [minimal_state_map(R) for R in self.modes]
        if len(self.state_maps) != len(self.modes):
            raise ValueError("state_maps must match the number of modes")
        self.realizations = [
            realize(R, X) for R, X in zip(self.modes, self.state_maps)
        ]

    @property
    def w(self) -> int:
        return self.modes[0].cols

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def transitions(self) -> list[tuple[int, int]]:
        return sorted(self.gluing.keys())

    @cached_property
    def normal_form_pairs(self) -> dict[tuple[int, int], NormalFormPair]:
        """``normal_form(self)``, derived on first use."""
        return normal_form(self)

    @cached_property
    def reinits(self) -> dict[tuple[int, int], ReinitMap]:
        """``reinit_maps(self)``, derived on first use."""
        return reinit_maps(self)


def _express_in_state_basis(
    G: PolyMatrix, R: PolyMatrix, X: PolyMatrix, tol: float = NORMAL_FORM_TOL
) -> np.ndarray:
    """Solve ``G mod R = F X`` for the constant matrix F."""
    Gc = canonical_rep(G, R)
    grid = max(Gc.coeffs.shape[0], X.coeffs.shape[0])
    Ga = coefficient_matrix(Gc, grid)
    Xa = coefficient_matrix(X, grid)
    F, *_ = np.linalg.lstsq(Xa.T, Ga.T, rcond=None)
    F = F.T
    resid = np.max(np.abs(F @ Xa - Ga)) if Ga.size else 0.0
    scale = max(1.0, np.max(np.abs(Ga)) if Ga.size else 0.0)
    if resid > tol * scale:
        raise ValueError(
            f"canonical representative not in the state-map row span "
            f"(residual {resid:.3e})"
        )
    return F


def normal_form(model: SldsModel) -> dict[tuple[int, int], NormalFormPair]:
    """Reduce every gluing pair to constant matrices over the state bases."""
    out = {}
    for (k, l), (gm, gp) in model.gluing.items():
        fm = _express_in_state_basis(gm, model.modes[k - 1], model.state_maps[k - 1])
        fp = _express_in_state_basis(gp, model.modes[l - 1], model.state_maps[l - 1])
        out[(k, l)] = NormalFormPair(f_minus=fm, f_plus=fp)
    return out


def is_well_posed(model: SldsModel) -> tuple[dict[tuple[int, int], bool], bool]:
    """Per-transition and global well-posedness (F+ full column rank)."""
    nf = model.normal_form_pairs
    verdicts = {}
    for key, pair in nf.items():
        fp = pair.f_plus
        if fp.size == 0:
            verdicts[key] = fp.shape[1] == 0
            continue
        s = np.linalg.svd(fp, compute_uv=False)
        verdicts[key] = bool(
            fp.shape[0] >= fp.shape[1] and s[-1] > RANK_REL_TOL * max(s[0], 1e-300)
        )
    return verdicts, all(verdicts.values())


def is_consistent(model: SldsModel) -> dict[tuple[int, int], bool]:
    """True per transition iff ``range(F-) is contained in range(F+)``."""
    nf = model.normal_form_pairs
    out = {}
    for key, pair in nf.items():
        fm, fp = pair.f_minus, pair.f_plus
        if not np.any(fm):
            out[key] = True
            continue
        sol, *_ = np.linalg.lstsq(fp, fm, rcond=None)
        resid = np.linalg.norm(fp @ sol - fm)
        out[key] = bool(resid <= CONSISTENCY_REL_TOL * np.linalg.norm(fm))
    return out


def reinit_maps(model: SldsModel) -> dict[tuple[int, int], ReinitMap]:
    """Re-initialisation maps ``L = pinv(F+) F-`` for well-posed transitions."""
    nf = model.normal_form_pairs
    wp, _ = is_well_posed(model)
    out = {}
    for key, pair in nf.items():
        if not wp[key]:
            raise ValueError(f"transition {key[0]}->{key[1]} is not well-posed")
        L = np.linalg.pinv(pair.f_plus) @ pair.f_minus
        resid = float(np.linalg.norm(pair.f_plus @ L - pair.f_minus))
        out[key] = ReinitMap(L=L, residual=resid)
    return out


def modes_hurwitz(model: SldsModel) -> list[bool]:
    return [is_hurwitz(R) for R in model.modes]


# ---------------------------------------------------------------------------
# JSON schema:
# { "variables": w,
#   "modes": [PolyMatrix...],
#   "gluing": [ {"from": k, "to": l, "g_minus": PM, "g_plus": PM}, ... ],
#   "state_maps": [PolyMatrix...]  (optional) }


def model_to_json(model: SldsModel) -> dict:
    doc = {
        "variables": model.w,
        "modes": [polymatrix_to_json(R) for R in model.modes],
        "gluing": [
            {
                "from": k,
                "to": l,
                "g_minus": polymatrix_to_json(gm),
                "g_plus": polymatrix_to_json(gp),
            }
            for (k, l), (gm, gp) in sorted(model.gluing.items())
        ],
        "state_maps": [polymatrix_to_json(X) for X in model.state_maps],
    }
    return doc


def model_from_json(doc: dict) -> SldsModel:
    for key in ("variables", "modes", "gluing"):
        if key not in doc:
            raise ValueError(f"model file missing key '{key}'")
    w = int(doc["variables"])
    modes = [polymatrix_from_json(m) for m in doc["modes"]]
    for i, R in enumerate(modes):
        if R.shape != (w, w):
            raise ValueError(f"mode {i + 1} must be {w}x{w}, got {R.shape}")
    gluing = {}
    for item in doc["gluing"]:
        k, l = int(item["from"]), int(item["to"])
        if (k, l) in gluing:
            raise ValueError(f"duplicate gluing entry for ({k},{l})")
        gluing[(k, l)] = (
            polymatrix_from_json(item["g_minus"]),
            polymatrix_from_json(item["g_plus"]),
        )
    state_maps = [polymatrix_from_json(x) for x in doc.get("state_maps", [])]
    return SldsModel(modes=modes, gluing=gluing, state_maps=state_maps)


def load_model(path) -> SldsModel:
    with open(path) as fh:
        return model_from_json(json.load(fh))


def save_model(model: SldsModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json(model), fh, indent=2)
