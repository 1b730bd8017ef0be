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


def unstable_mode() -> SldsModel:
    """Single anti-Hurwitz mode d/dt - 1, used as a negative control."""
    return SldsModel(modes=[PolyMatrix.from_entries([[[-1.0, 1.0]]])], gluing={})
