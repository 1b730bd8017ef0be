"""Switched linear differential system model.

A model is a bank of square nonsingular polynomial matrices (one kernel
representation per mode) plus gluing-condition pairs for the allowed
transitions.  Each derived object is computed once per model and kept on it:

- at construction, each mode's ``polymat.Divisor`` (``det R_k``, the
  singularity check, and ``adj R_k``), its minimal state map when none is
  given, and its realization;
- on first use, the normal form of the gluing pairs and the
  re-initialisation maps built from it.

Every reduction modulo ``R_k`` (state map, the realization's ``C``, normal
form, Hurwitz test) divides through the mode's divisor, so
``det R_k`` and ``adj R_k`` are computed once per mode and model.  Nothing is
shared between models: two loads of one file compute everything twice.

Mode indices are 1-based throughout, matching the JSON schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .polymat import (
    Divisor,
    PolyMatrix,
    is_hurwitz,
    polymatrix_from_json,
    polymatrix_to_json,
)
from .statespace import (
    StateRealization,
    express_in_state_basis,
    minimal_state_map,
    realize,
)

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
    changed after construction.  ``divisors`` holds each mode's ``det R_k``
    and ``adj R_k``; every reduction modulo ``R_k`` goes through it.  A
    caller that has already built divisors of the modes may pass them.
    """

    modes: list[PolyMatrix]
    gluing: dict[tuple[int, int], tuple[PolyMatrix, PolyMatrix]]
    state_maps: list[PolyMatrix] = field(default_factory=list)
    divisors: list[Divisor] = field(default_factory=list)
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
        if not self.divisors:
            self.divisors = [_mode_divisor(i, R) for i, R in enumerate(self.modes)]
        if len(self.divisors) != len(self.modes) or any(
            d.R is not R for d, R in zip(self.divisors, self.modes)
        ):
            raise ValueError("divisors must be those of the modes")
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
            self.state_maps = [minimal_state_map(d) for d in self.divisors]
        if len(self.state_maps) != len(self.modes):
            raise ValueError("state_maps must match the number of modes")
        self.realizations = [
            realize(d, X) for d, X in zip(self.divisors, self.state_maps)
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


def _mode_divisor(i: int, R: PolyMatrix) -> Divisor:
    try:
        return Divisor(R)
    except ValueError:
        raise ValueError(f"mode {i + 1} matrix is singular") from None


def normal_form(model: SldsModel) -> dict[tuple[int, int], NormalFormPair]:
    """Reduce every gluing pair to constant matrices over the state bases."""
    divs, maps = model.divisors, model.state_maps
    out = {}
    for (k, l), (gm, gp) in model.gluing.items():
        fm = express_in_state_basis(gm, divs[k - 1], maps[k - 1])
        fp = express_in_state_basis(gp, divs[l - 1], maps[l - 1])
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
    return [is_hurwitz(d) for d in model.divisors]


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


def _polymatrix(data, what: str) -> PolyMatrix:
    try:
        return polymatrix_from_json(data)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def model_from_json(doc: dict) -> SldsModel:
    for key in ("variables", "modes", "gluing"):
        if key not in doc:
            raise ValueError(f"model file missing key '{key}'")
    w = int(doc["variables"])
    modes = [_polymatrix(m, f"mode {i + 1}") for i, m in enumerate(doc["modes"])]
    for i, R in enumerate(modes):
        if R.shape != (w, w):
            raise ValueError(f"mode {i + 1} must be {w}x{w}, got {R.shape}")
    gluing = {}
    for item in doc["gluing"]:
        k, l = int(item["from"]), int(item["to"])
        if (k, l) in gluing:
            raise ValueError(f"duplicate gluing entry for ({k},{l})")
        gluing[(k, l)] = tuple(
            _polymatrix(item[side], f"gluing {k}->{l} {side}")
            for side in ("g_minus", "g_plus")
        )
    state_maps = [
        _polymatrix(x, f"state map {i + 1}")
        for i, x in enumerate(doc.get("state_maps", []))
    ]
    return SldsModel(modes=modes, gluing=gluing, state_maps=state_maps)


def load_model(path) -> SldsModel:
    with open(path) as fh:
        return model_from_json(json.load(fh))


def save_model(model: SldsModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json(model), fh, indent=2)
