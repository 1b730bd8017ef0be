"""Small feasibility solver for linear matrix inequalities.

The problem is a set of named matrix variables (optionally symmetric) plus
affine matrix-valued constraints with a semidefiniteness sense.  Constraints
are given as plain Python callables; the affine map is recovered numerically
by probing with basis vectors, so callers never build coefficient tensors by
hand.

Solving is feasibility-only: equality constraints are eliminated exactly
through a nullspace parametrization, then a phase-I log-det barrier drives
the worst cone violation below the acceptance threshold with damped Newton
steps.  A ball barrier bounds the search region, since the LMI systems
produced by the Lyapunov assemblies are homogeneous in the unknowns.
Deterministic (zero or caller-supplied warm start, no randomness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg

DEFAULT_BUDGET = 50_000


@dataclass(frozen=True)
class _VarBlock:
    name: str
    rows: int
    cols: int
    symmetric: bool

    @property
    def n_params(self) -> int:
        if self.symmetric:
            return self.rows * (self.rows + 1) // 2
        return self.rows * self.cols

    @cached_property
    def triu(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the upper triangle that holds a symmetric block's parameters."""
        return np.triu_indices(self.rows)


@dataclass(frozen=True)
class Constraint:
    """Affine matrix expression with a cone sense.

    sense:
      ``"psd"``  -- expr(vars) >= shift * I
      ``"nsd"``  -- expr(vars) <= -shift * I
      ``"zero"`` -- expr(vars) == 0
    """

    name: str
    expr: Callable[[dict], np.ndarray]
    sense: str
    shift: float = 0.0


@dataclass
class SolveReport:
    feasible: bool
    iterations: int
    margins: dict
    values: dict = field(repr=False, default_factory=dict)


class LmiProblem:
    def __init__(self):
        self._blocks: dict[str, _VarBlock] = {}
        self.constraints: list[Constraint] = []

    def add_symmetric(self, name: str, n: int) -> None:
        if name in self._blocks:
            raise ValueError(f"duplicate variable '{name}'")
        self._blocks[name] = _VarBlock(name, n, n, symmetric=True)

    def add_matrix(self, name: str, rows: int, cols: int) -> None:
        if name in self._blocks:
            raise ValueError(f"duplicate variable '{name}'")
        self._blocks[name] = _VarBlock(name, rows, cols, symmetric=False)

    def add_constraint(self, name, expr, sense, shift=0.0) -> None:
        if sense not in ("psd", "nsd", "zero"):
            raise ValueError(f"unknown sense '{sense}'")
        self.constraints.append(Constraint(name, expr, sense, shift))

    # -- parameter vector packing -------------------------------------------

    @property
    def n_params(self) -> int:
        return sum(b.n_params for b in self._blocks.values())

    def _unpack(self, v: np.ndarray) -> dict:
        out = {}
        pos = 0
        for b in self._blocks.values():
            chunk = v[pos : pos + b.n_params]
            pos += b.n_params
            if b.symmetric:
                M = np.empty((b.rows, b.rows))
                M[b.triu] = chunk
                M[b.triu[::-1]] = chunk
            else:
                M = chunk.reshape(b.rows, b.cols)
            out[b.name] = M
        return out

    def _pack(self, values: dict) -> np.ndarray:
        parts = []
        for b in self._blocks.values():
            M = np.asarray(values[b.name], dtype=float)
            if M.shape != (b.rows, b.cols):
                raise ValueError(
                    f"variable '{b.name}' has shape {M.shape}, "
                    f"expected {(b.rows, b.cols)}"
                )
            if b.symmetric:
                M = 0.5 * (M + M.T)
                parts.append(M[b.triu])
            else:
                parts.append(M.ravel())
        return np.concatenate(parts) if parts else np.zeros(0)

    # -- affine compilation by probing --------------------------------------

    def _compile(self):
        npar = self.n_params
        zero_vals = self._unpack(np.zeros(npar))
        compiled = []
        for c in self.constraints:
            C0 = np.asarray(c.expr(zero_vals), dtype=float)
            if C0.ndim != 2 or C0.shape[0] != C0.shape[1]:
                raise ValueError(f"constraint '{c.name}' is not square")
            m = C0.shape[0]
            A = np.zeros((m * m, npar))
            for i in range(npar):
                e = np.zeros(npar)
                e[i] = 1.0
                Ci = np.asarray(c.expr(self._unpack(e)), dtype=float) - C0
                A[:, i] = Ci.ravel()
            compiled.append((c, C0.ravel(), A, m))
        return compiled

    # -- margins -------------------------------------------------------------

    @staticmethod
    def _margin(S: np.ndarray, sense: str, shift: float, eps: float) -> float:
        """Satisfaction margin; the constraint is accepted at margin >= eps/2.

        Non-strict senses (shift == 0) get an ``eps`` bonus so that
        structurally semidefinite expressions, whose extreme eigenvalue is an
        exact zero up to rounding, still verify.
        """
        if sense == "zero":
            return float(eps - np.max(np.abs(S))) if S.size else eps
        H = 0.5 * (S + S.T)
        lam = np.linalg.eigvalsh(H)
        bonus = eps if shift == 0.0 else 0.0
        if sense == "psd":
            return float(lam[0] - shift + bonus)
        return float(-lam[-1] - shift + bonus)

    # -- solve / verify ------------------------------------------------------

    def solve(
        self,
        eps: float,
        budget: int = DEFAULT_BUDGET,
        warm_start: dict | None = None,
    ) -> SolveReport:
        """Phase-I barrier feasibility search.

        Introduces a scalar ``s`` bounding the worst cone violation and
        minimizes ``t*s`` plus log-det barriers on the shifted slacks for an
        increasing sequence of ``t``; each centering is a damped Newton
        iteration.  ``budget`` caps the total number of Newton steps.
        Returns a report whose ``feasible`` flag is set only after an
        independent margin re-check (all margins >= eps / 2).
        """
        compiled = self._compile()
        v0 = self._pack(warm_start) if warm_start else np.zeros(self.n_params)
        npar = self.n_params

        eq_rows, eq_rhs, cones = [], [], []
        for c, c0, A, m in compiled:
            if c.sense == "zero":
                eq_rows.append(A)
                eq_rhs.append(c0)
            else:
                sgn = 1.0 if c.sense == "psd" else -1.0
                # required eigenvalue level after sign flip; the eps bump on
                # strict constraints leaves headroom over the eps/2 acceptance
                rho = c.shift + eps if c.shift > 0 else 0.0
                cones.append((sgn, rho, c0, A, m))
        if eq_rows:
            Aeq = np.vstack(eq_rows)
            vp, *_ = np.linalg.lstsq(Aeq, -np.concatenate(eq_rhs), rcond=None)
            N = scipy.linalg.null_space(Aeq)
            z = N.T @ (v0 - vp)
        else:
            vp = np.zeros(npar)
            N = np.eye(npar)
            z = v0.copy()
        nz = N.shape[1]

        blocks = []
        for sgn, rho, c0, A, m in cones:
            C = sgn * (c0 + A @ vp).reshape(m, m) - rho * np.eye(m)
            blocks.append((0.5 * (C + C.T), sgn * (A @ N), m))

        def check(z):
            values = self._unpack(vp + N @ z)
            margins = self.verify(values, eps)
            return min(margins.values(), default=eps) >= eps / 2, values, margins

        it = 0
        ok, values, margins = check(z)
        if ok or not blocks or nz == 0:
            return SolveReport(feasible=ok, iterations=0, margins=margins, values=values)

        radius_sq = (1e3 * (1.0 + np.linalg.norm(z) + np.linalg.norm(vp))) ** 2
        lam_min = min(
            np.linalg.eigvalsh(C + 0.5 * ((B @ z).reshape(m, m) + (B @ z).reshape(m, m).T))[0]
            for C, B, m in blocks
        )
        s = 1.5 * max(0.0, -lam_min) + 0.1 * max(1e-6, abs(lam_min))
        t = 1.0

        def objective(z, s):
            ball = radius_sq - z @ z
            if ball <= 0.0:
                return np.inf
            total = t * s - np.log(ball)
            for C, B, m in blocks:
                S = C + (B @ z).reshape(m, m) + s * np.eye(m)
                S = 0.5 * (S + S.T)
                if np.linalg.eigvalsh(S)[0] <= 0.0:
                    return np.inf
                total -= np.linalg.slogdet(S)[1]
            return total

        while it < budget and t <= 1e18:
            while it < budget:
                it += 1
                grad = np.zeros(nz + 1)
                hess = np.zeros((nz + 1, nz + 1))
                in_domain = True
                for C, B, m in blocks:
                    S = C + (B @ z).reshape(m, m) + s * np.eye(m)
                    S = 0.5 * (S + S.T)
                    try:
                        chol = np.linalg.cholesky(S)
                    except np.linalg.LinAlgError:
                        in_domain = False
                        break
                    Sinv = scipy.linalg.cho_solve((chol, True), np.eye(m))
                    grad[:nz] -= Sinv.ravel() @ B
                    grad[nz] -= np.trace(Sinv)
                    SB = np.einsum("ab,bcj->acj", Sinv, B.reshape(m, m, nz))
                    hess[:nz, :nz] += np.einsum("abj,bak->jk", SB, SB)
                    cross = np.einsum("abj,ba->j", SB, Sinv)
                    hess[:nz, nz] += cross
                    hess[nz, :nz] += cross
                    hess[nz, nz] += np.sum(Sinv * Sinv)
                if not in_domain:
                    s *= 2.0
                    continue
                ball = radius_sq - z @ z
                grad[:nz] += 2.0 * z / ball
                hess[:nz, :nz] += (2.0 / ball) * np.eye(nz) + np.outer(
                    4.0 * z / ball**2, z
                )
                grad[nz] += t
                try:
                    step = np.linalg.solve(hess, -grad)
                except np.linalg.LinAlgError:
                    step, *_ = np.linalg.lstsq(hess, -grad, rcond=None)
                decrement = -grad @ step
                f0 = objective(z, s)
                alpha = 1.0
                while alpha > 1e-13:
                    if objective(z + alpha * step[:nz], s + alpha * step[nz]) < f0:
                        break
                    alpha *= 0.5
                z = z + alpha * step[:nz]
                s = s + alpha * step[nz]
                ok, values, margins = check(z)
                if ok:
                    return SolveReport(
                        feasible=True, iterations=it, margins=margins, values=values
                    )
                if decrement < 0.1:
                    break
            t *= 20.0
        ok, values, margins = check(z)
        return SolveReport(feasible=ok, iterations=it, margins=margins, values=values)

    def verify(self, values: dict, eps: float) -> dict:
        """Margins of every constraint at the given variable values."""
        margins = {}
        for c in self.constraints:
            S = np.asarray(c.expr(values), dtype=float)
            margins[c.name] = self._margin(S, c.sense, c.shift, eps)
        return margins
