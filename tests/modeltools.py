"""Model helpers that only the tests use.

No command differentiates a trajectory by its realization or needs an
anti-Hurwitz mode, so these live with the tests rather than in
:mod:`sldstab.sim` and :mod:`sldstab.fixtures`.
"""

import numpy as np

from sldstab.model import SldsModel
from sldstab.polymat import PolyMatrix


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
