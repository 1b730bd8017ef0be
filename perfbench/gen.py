"""Seeded input generators.

Everything here is numpy only and never imports sldstab: the program under
test sees nothing but the JSON documents written from these draws, and the
checks in ``workloads.py`` compare its outputs against the ground truth kept
here (the generator's ``A_k``, ``L`` and pole/zero sets).
"""

from __future__ import annotations

import numpy as np


def polymatrix_json(coeffs) -> list:
    """JSON wire format of a polynomial matrix from ascending coefficient slices.

    ``coeffs`` has shape ``(degree + 1, rows, cols)``; the format is
    ``entries[row][col] = [c_0, c_1, ...]``.
    """
    c = np.asarray(coeffs, dtype=float)
    return [[[float(v) for v in c[:, i, j]] for j in range(c.shape[2])]
            for i in range(c.shape[1])]


def _spd(rng, n, floor):
    M = rng.standard_normal((n, n))
    return M @ M.T / n + floor * np.eye(n)


def _sqrtm_spd(P):
    lam, U = np.linalg.eigh(P)
    return (U * np.sqrt(lam)) @ U.T


def slds_member(rng, w, m) -> dict:
    """One ``m``-mode system in ``w`` variables with a common quadratic
    Lyapunov function ``wᵀPw``; modes ``k`` and ``k ± 1`` (mod ``m``) switch
    both ways.

    Modes are ``ẇ = A_k w`` with ``A_k = P⁻¹(S_k − Q_k)`` (``S_k`` skew,
    ``Q_k ≻ 0``), so ``A_kᵀP + PA_k = −2Q_k``.  Every transition glues
    ``w⁺ = L w⁻`` with ``L = ρ P^{-1/2} Θ P^{1/2}`` (``Θ`` orthogonal,
    ``ρ < 1``), so ``LᵀPL = ρ²P ≺ P``.  Each kernel representation
    ``ξI − A_k`` is pre-multiplied by a random unimodular ``T (I + c ξ e_a e_bᵀ)``
    (``T`` orthogonal times a diagonal in [1, 2]),
    which leaves the behavior unchanged but gives the minimal-state-map and
    canonical-representative code real work.
    """
    P = _spd(rng, w, 1.0)
    Ph = _sqrtm_spd(P)
    Phi = np.linalg.inv(Ph)
    A, modes = [], []
    for _ in range(m):
        N = rng.standard_normal((w, w))
        S = N - N.T
        Q = _spd(rng, w, 0.5)
        Ak = np.linalg.solve(P, S - Q)
        # well-conditioned T (cond ≤ 2): with cond T in the thousands the
        # cancelled high-order terms of det R leave rounding noise that
        # polymat.determinant keeps as a spurious leading coefficient
        T = np.linalg.qr(rng.standard_normal((w, w)))[0] * rng.uniform(1.0, 2.0, w)
        a, b = rng.choice(w, size=2, replace=False)
        E1 = np.zeros((w, w))
        E1[a, b] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        U0, U1 = T, T @ E1  # U(ξ) = T (I + ξ E1), det U = det T
        # U(ξ)(ξI − A) = −U0 A + (U0 − U1 A) ξ + U1 ξ²
        coeffs = np.stack([-U0 @ Ak, U0 - U1 @ Ak, U1])
        A.append(Ak)
        modes.append(polymatrix_json(coeffs))
    L = {}
    gluing = []
    ring = {(k, k % m + 1) for k in range(1, m + 1)}
    for k, l in sorted(ring | {(l, k) for k, l in ring}):
        Theta, _ = np.linalg.qr(rng.standard_normal((w, w)))
        Lkl = rng.uniform(0.2, 0.4) * Phi @ Theta @ Ph
        L[(k, l)] = Lkl
        gluing.append({
            "from": k,
            "to": l,
            "g_minus": polymatrix_json(Lkl[None]),
            "g_plus": polymatrix_json(np.eye(w)[None]),
        })
    return {"model": {"variables": w, "modes": modes, "gluing": gluing}, "A": A, "L": L}


def random_schedule(rng, transitions, initial_mode, t_end, dwell) -> dict:
    """Random walk over a transition graph as a switching-signal document.

    ``dwell`` is the (low, high) range of the uniform dwell time per mode.
    """
    out = {}
    for k, l in transitions:
        out.setdefault(k, []).append(l)
    events = []
    t = rng.uniform(*dwell)
    mode = initial_mode
    while t < t_end:
        mode = int(rng.choice(sorted(out[mode])))
        events.append([float(t), mode])
        t += rng.uniform(*dwell)
    return {"initial_mode": initial_mode, "events": events}


def spr_pair(rng, degree, lo=0.1, hi=10.0):
    """Scalar pair ``(r1, r2)`` with ``r2/r1`` strictly positive real.

    ``r1`` has ``degree`` negative-real roots and ``r2`` has ``degree − 1``;
    in magnitude they interlace, ``p_1 < z_1 < p_2 < … < z_{n−1} < p_n``, and
    ``r2`` has a positive gain.  The ``2·degree − 1`` magnitudes are spread
    over ``[lo, hi]``: one per equal slice of ``log [lo, hi]``, drawn from the
    middle half of the slice, so neighbours stay apart by a ratio of at least
    ``(hi/lo)^(1/(4·degree − 2))``.  Returns ascending coefficient arrays.
    """
    k = 2 * degree - 1
    width = (np.log(hi) - np.log(lo)) / k
    v = np.exp(np.log(lo) + width * (np.arange(k) + 0.25 + 0.5 * rng.random(k)))
    poles, zeros = v[0::2], v[1::2]
    gain = rng.uniform(0.5, 2.0)
    r1 = np.poly(-poles)[::-1]
    r2 = gain * np.poly(-zeros)[::-1]
    return r1, r2
