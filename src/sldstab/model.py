"""Switched linear differential system model.

A model is a bank of square nonsingular polynomial matrices (one kernel
representation per mode) plus gluing-condition pairs for the allowed
transitions.  Each derived object is computed once per model and kept on it:

- at construction, the check of each mode by :func:`check_mode` (``R_k`` is
  nonsingular and ``n_k >= 1``), its minimal state map when none is given,
  and its realization's ``A`` and ``B``, which :func:`realize` reads off the
  column reduction and accepts only over a minimal state map, so a given
  map is checked there, and every later reduction is over rows that span;
- on first use, the normal form of the gluing pairs, one thin SVD of each
  transition's ``F+`` (:attr:`SldsModel.f_plus_svd`), from which both
  well-posedness and the re-initialisation maps are read, and the maps
  themselves;
- on first use of a realization's output map ``C``, which only simulation
  reads, that map.

A verdict reads only each mode's ``A`` and the maps ``L``, so ``slds check``
never computes ``C``.  Each mode has one derivation, the column reduction
``R_k U_k = R'_k`` that the mode matrix keeps (:func:`column_reduce`): the
mode check reads the state dimension ``n_k = sum d_j`` off it, so does the
state map (:func:`minimal_state_map`), and the realization and every
reduction modulo ``R_k`` (the realization's ``C``, the normal form) are read
off its companion data, with no division and no least-squares solve.  The
Hurwitz test reads the eigenvalues of ``A_k``: no determinant or polynomial
root set is formed.  The normal form makes one pass per mode: the ``G-`` of
every transition out of mode ``k`` and the ``G+`` of every transition into
it are stacked into one :func:`express_in_state_basis` call over the
realization's kept ``T^{-1}``, then split by transition.  Nothing is shared
between models.

Mode indices are 1-based throughout, matching the JSON schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .polymat import (
    HURWITZ_TOL,
    PolyMatrix,
    json_int,
    json_list,
    json_object,
    polymatrix_from_json,
    polymatrix_to_json,
    write_json,
)
from .statespace import (
    StateRealization,
    express_in_state_basis,
    realize,
)

RANK_REL_TOL = 1e-9


@dataclass(frozen=True)
class NormalFormPair:
    """Constant matrices with ``G- mod R_k = F- X_k`` and ``G+ mod R_l = F+ X_l``."""

    f_minus: np.ndarray
    f_plus: np.ndarray


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
        for k, R in enumerate(self.modes, start=1):
            check_mode(k, R)
        for (k, l), (gm, gp) in self.gluing.items():
            if k == l:
                raise ValueError("gluing keys must connect distinct modes")
            if not (1 <= k <= len(self.modes) and 1 <= l <= len(self.modes)):
                raise ValueError(f"gluing key ({k},{l}) out of range")
            if gm.rows != gp.rows:
                raise ValueError(f"gluing pair ({k},{l}) row counts differ")
            if gm.cols != w or gp.cols != w:
                raise ValueError(f"gluing pair ({k},{l}) column count must be {w}")
        given = self.state_maps or [None] * len(self.modes)  # None: the minimal map
        if len(given) != len(self.modes):
            raise ValueError("state_maps must match the number of modes")
        self.realizations = [realize(R, X) for R, X in zip(self.modes, given)]
        self.state_maps = [real.X for real in self.realizations]

    @property
    def w(self) -> int:
        return self.modes[0].cols

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @cached_property
    def normal_form_pairs(self) -> dict[tuple[int, int], NormalFormPair]:
        """``normal_form(self)``, derived on first use."""
        return normal_form(self)

    @cached_property
    def reinits(self) -> dict[tuple[int, int], np.ndarray]:
        """``reinit_maps(self)``, derived on first use."""
        return reinit_maps(self)

    @cached_property
    def f_plus_svd(self) -> dict[tuple[int, int], tuple | None]:
        """Thin SVD ``(u, s, vt)`` of each transition's ``F+`` (None when
        ``F+`` is empty), derived on first use: the one factorization that
        :func:`is_well_posed` and :func:`reinit_maps` read."""
        return {
            key: np.linalg.svd(pair.f_plus, full_matrices=False)
            if pair.f_plus.size
            else None
            for key, pair in self.normal_form_pairs.items()
        }


def check_mode(k: int, R: PolyMatrix) -> None:
    """Check that mode ``k`` (1-based) has a state.

    A singular ``R``, a column reduction whose leading column matrix has no
    inverse in double precision, or a constant ``det R`` (state dimension
    ``sum d_j = 0``) is an error that names the mode.
    """
    try:
        n = sum(R._reduction.degrees)
    except ValueError as exc:
        raise ValueError(f"mode {k}: {exc}") from None
    if n < 1:
        raise ValueError(
            f"mode {k} has constant det R, so no state; every mode needs "
            "deg det R >= 1"
        )


def normal_form(model: SldsModel) -> dict[tuple[int, int], NormalFormPair]:
    """Reduce every gluing pair to constant matrices over the state bases.

    Mode ``k``'s blocks, ``G-`` of each transition out of ``k`` and ``G+``
    of each transition into ``k``, go through one
    :func:`express_in_state_basis` call over the companion data of ``R_k``
    and the ``T^{-1}`` that the realization keeps for ``X_k``.
    """
    blocks: dict[int, list] = {}  # mode -> [(transition, side, G), ...]
    for (k, l), (gm, gp) in model.gluing.items():
        blocks.setdefault(k, []).append(((k, l), 0, gm))
        blocks.setdefault(l, []).append(((k, l), 1, gp))
    solved = {}
    for mode, items in blocks.items():
        real = model.realizations[mode - 1]
        fs = express_in_state_basis([g for _, _, g in items], real.R, real.T_inv)
        for (key, side, _), f in zip(items, fs):
            solved[key, side] = f
    return {
        key: NormalFormPair(f_minus=solved[key, 0], f_plus=solved[key, 1])
        for key in model.gluing
    }


def is_well_posed(model: SldsModel) -> tuple[dict[tuple[int, int], bool], bool]:
    """Per-transition and global well-posedness (F+ full column rank), read
    off the singular values of :attr:`SldsModel.f_plus_svd`."""
    verdicts = {}
    for key, pair in model.normal_form_pairs.items():
        fp, svd = pair.f_plus, model.f_plus_svd[key]
        if svd is None:
            verdicts[key] = fp.shape[1] == 0
            continue
        s = svd[1]
        verdicts[key] = bool(
            fp.shape[0] >= fp.shape[1] and s[-1] > RANK_REL_TOL * max(s[0], 1e-300)
        )
    return verdicts, all(verdicts.values())


def reinit_maps(model: SldsModel) -> dict[tuple[int, int], np.ndarray]:
    """Re-initialisation maps ``L = pinv(F+) F-`` for well-posed transitions:
    the state jump ``x+ = L x-`` of each transition.

    ``pinv(F+) = V diag(1/s) U^T`` is formed from :attr:`SldsModel.f_plus_svd`
    with ``np.linalg.pinv``'s own arithmetic.  No singular value is cut off:
    a well-posed ``F+`` has ``s_min > RANK_REL_TOL s_max``, far above
    ``pinv``'s cutoff, so ``L`` is bit-equal to ``pinv(F+) @ F-``.
    """
    wp, _ = is_well_posed(model)
    out = {}
    for key, pair in model.normal_form_pairs.items():
        if not wp[key]:
            raise ValueError(f"transition {key[0]}->{key[1]} is not well-posed")
        u, s, vt = model.f_plus_svd[key]  # a well-posed F+ is not empty
        out[key] = (vt.T @ ((1 / s)[:, None] * u.T)) @ pair.f_minus
    return out


def modes_hurwitz(model: SldsModel) -> list[bool]:
    """True per mode iff every eigenvalue of ``A_k`` has real part below ``-HURWITZ_TOL``."""
    return [bool(np.all(np.linalg.eigvals(r.A).real < -HURWITZ_TOL)) for r in model.realizations]


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
    """Read a model file; a missing or wrong-typed field is a ``ValueError``
    that names it."""
    json_object(doc, "model file", ("variables", "modes", "gluing"))
    w = json_int(doc["variables"], "variables")
    modes = [
        _polymatrix(m, f"mode {i + 1}")
        for i, m in enumerate(json_list(doc["modes"], "modes"))
    ]
    for i, R in enumerate(modes):
        if R.shape != (w, w):
            raise ValueError(f"mode {i + 1} must be {w}x{w}, got {R.shape}")
    gluing = {}
    for i, item in enumerate(json_list(doc["gluing"], "gluing"), start=1):
        json_object(item, f"gluing entry {i}", ("from", "to", "g_minus", "g_plus"))
        k, l = (json_int(item[end], f"gluing entry {i} '{end}'") for end in ("from", "to"))
        if (k, l) in gluing:
            raise ValueError(f"duplicate gluing entry for ({k},{l})")
        gluing[(k, l)] = tuple(
            _polymatrix(item[side], f"gluing {k}->{l} {side}")
            for side in ("g_minus", "g_plus")
        )
    state_maps = [
        _polymatrix(x, f"state map {i + 1}")
        for i, x in enumerate(json_list(doc.get("state_maps", []), "state_maps"))
    ]
    return SldsModel(modes=modes, gluing=gluing, state_maps=state_maps)


def load_model(path) -> SldsModel:
    with open(path) as fh:
        return model_from_json(json.load(fh))


def save_model(model: SldsModel, path) -> None:
    write_json(path, model_to_json(model))
