"""Small feasibility solver for linear matrix inequalities.

The problem is a set of named matrix variables (optionally symmetric) plus
affine matrix-valued constraints with a semidefiniteness sense.  Constraints
are given as plain Python callables; the affine map is recovered numerically
by probing with basis vectors (each basis vector is unpacked once and fed to
every constraint), so callers never build coefficient tensors by hand.

Solving is feasibility-only: equality constraints are eliminated exactly
through a nullspace parametrization, then a phase-I log-det barrier drives
the worst cone violation ``s`` below the acceptance threshold with damped
Newton steps.  A ball barrier bounds the search region, since the LMI systems
produced by the Lyapunov assemblies are homogeneous in the unknowns.

The Newton loop works on the compiled affine data alone.  Cones of equal
size are stacked, with their coefficient matrices symmetrised once, and each
step factors every size group with one batched Cholesky ``S = L L^T``.  With
``W = L^{-1}`` the Hessian is ``Wf^T Wf`` over the stacked ``vec(W B_j W^T)``,
and the line search reads the log-det off ``diag L`` (a failed factorization
is a point outside the barrier's domain).

Iterates are accepted from the compiled data too: batched eigenvalues per
size group and the largest equality residual, under the margin rule of
``verify``.  The closure-based ``verify`` re-checks an accepted iterate and
the final one, and the report's margins come from it.

The search stops without a certificate when a centering ends with
``s - 2 nu / t > eps``, where ``nu`` (one plus the sum of the cone sizes) is
the barrier parameter: the duality gap of a centred point is at most
``nu / t``, doubled for inexact centering, so no point in the ball reaches
the ``eps / 2`` acceptance (Boyd & Vandenberghe, *Convex Optimization*,
2004, sections 11.3-11.4).  Deterministic (zero or caller-supplied warm start,
no randomness).
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


@dataclass(frozen=True)
class _ConeGroup:
    """The cones of one size ``m``, stacked: slack ``C_i + sum_j x_j B_ij``.

    Signs are folded in so that every cone reads ``slack >= 0``.  The last
    coordinate of ``x`` is the phase-I violation ``s``, whose coefficient is
    the identity; ``offset`` turns a slack's smallest eigenvalue at ``s = 0``
    into the constraint's margin.
    """

    C: np.ndarray  # (g, m, m), symmetric
    B: np.ndarray  # (g, m*m, nz + 1), every B_ij symmetric
    offset: np.ndarray  # (g,)

    @classmethod
    def stack(cls, m, cones, eps, vp, N):
        """Stack same-size ``(constraint, c0, A)`` cones over ``v = vp + N z``."""
        g, nz = len(cones), N.shape[1]
        shift = np.array([c.shift for c, _, _ in cones])
        sgn = np.array([1.0 if c.sense == "psd" else -1.0 for c, _, _ in cones])
        c0 = np.array([c0 for _, c0, _ in cones])
        A = np.array([A for _, _, A in cones])
        # required eigenvalue level after the sign flip; the eps bump on
        # strict constraints leaves headroom over the eps/2 acceptance
        rho = np.where(shift > 0, shift + eps, 0.0)
        C = sgn[:, None, None] * (c0 + A @ vp).reshape(g, m, m)
        C = 0.5 * (C + C.transpose(0, 2, 1)) - rho[:, None, None] * np.eye(m)
        Bz = sgn[:, None, None, None] * (A @ N).reshape(g, m, m, nz)
        B = np.empty((g, m, m, nz + 1))
        B[..., :nz] = 0.5 * (Bz + Bz.transpose(0, 2, 1, 3))
        B[..., nz] = np.eye(m)
        # verify's margin: lambda_min + rho - shift, plus eps if non-strict
        offset = rho - shift + np.where(shift == 0.0, eps, 0.0)
        return cls(C, B.reshape(g, m * m, nz + 1), offset)

    @property
    def size(self) -> int:
        """Sum of the cone sizes, the group's share of the barrier parameter."""
        return self.C.shape[0] * self.C.shape[1]

    def slack(self, x: np.ndarray) -> np.ndarray:
        g, m, _ = self.C.shape
        return self.C + (self.B @ x).reshape(g, m, m)

    def min_eig(self, z: np.ndarray) -> np.ndarray:
        """Smallest eigenvalue of each slack at ``(z, s = 0)``."""
        return np.linalg.eigvalsh(self.slack(np.append(z, 0.0)))[:, 0]

    def barrier_terms(self, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian factor of ``-sum_i log det slack_i``.

        ``L`` holds the slacks' Cholesky factors.  With ``W = L_i^{-1}`` the
        rows ``vec(W B_ij W^T)`` give the Hessian as ``rows^T rows`` and the
        gradient as minus their traces.
        """
        g, m, _ = L.shape
        W = np.linalg.inv(L)
        kron = W[:, :, None, :, None] * W[:, None, :, None, :]  # W (x) W
        rows = kron.reshape(g, m * m, m * m) @ self.B
        grad = -np.trace(rows.reshape(g, m, m, -1), axis1=1, axis2=2).sum(axis=0)
        return grad, rows.reshape(g * m * m, -1)


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
            compiled.append((c, C0.ravel(), np.zeros((C0.size, npar)), C0.shape[0]))
        # one unpacked basis vector serves every constraint
        for i in range(npar):
            e = np.zeros(npar)
            e[i] = 1.0
            vals = self._unpack(e)
            for c, c0, A, _ in compiled:
                A[:, i] = np.asarray(c.expr(vals), dtype=float).ravel() - c0
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
        iteration.  ``budget`` caps the total number of Newton steps, and the
        search stops early once the duality-gap bound shows that no point in
        the search ball can be accepted (module docstring).  Returns a report
        whose ``feasible`` flag is set only after an independent margin
        re-check (all margins >= eps / 2).
        """
        compiled = self._compile()
        v0 = self._pack(warm_start) if warm_start else np.zeros(self.n_params)
        npar = self.n_params

        eq_rows, eq_rhs, cones = [], [], {}
        for c, c0, A, m in compiled:
            if c.sense == "zero":
                eq_rows.append(A)
                eq_rhs.append(c0)
            else:
                cones.setdefault(m, []).append((c, c0, A))
        if eq_rows:
            Aeq = np.vstack(eq_rows)
            beq = np.concatenate(eq_rhs)
            vp, *_ = np.linalg.lstsq(Aeq, -beq, rcond=None)
            N = scipy.linalg.null_space(Aeq)
            z = N.T @ (v0 - vp)
        else:
            vp = np.zeros(npar)
            N = np.eye(npar)
            z = v0.copy()
        nz = N.shape[1]
        groups = [
            _ConeGroup.stack(m, same_size, eps, vp, N)
            for m, same_size in sorted(cones.items())
        ]
        nu = 1.0 + sum(g.size for g in groups)

        it = 0

        def report(x) -> SolveReport:
            values = self._unpack(vp + N @ x[:nz])
            margins = self.verify(values, eps)
            ok = min(margins.values(), default=eps) >= eps / 2
            return SolveReport(
                feasible=ok, iterations=it, margins=margins, values=values
            )

        def accepted(x) -> bool:
            """The margin rule of ``verify``, evaluated on the compiled data."""
            if any(np.min(g.min_eig(x[:nz]) + g.offset) < eps / 2 for g in groups):
                return False
            if eq_rows:
                resid = Aeq @ (vp + N @ x[:nz]) + beq
                return bool(np.max(np.abs(resid), initial=0.0) <= eps / 2)
            return True

        x = np.append(z, 0.0)
        if accepted(x) and (rep := report(x)).feasible:
            return rep
        if not groups or nz == 0:
            return report(x)

        radius_sq = (1e3 * (1.0 + np.linalg.norm(z) + np.linalg.norm(vp))) ** 2
        lam_min = min(np.min(g.min_eig(z)) for g in groups)
        x[nz] = 1.5 * max(0.0, -lam_min) + 0.1 * max(1e-6, abs(lam_min))
        t = 1.0

        def factor(x):
            """Cholesky factors of every group's slack, or None off the domain."""
            try:
                return [np.linalg.cholesky(g.slack(x)) for g in groups]
            except np.linalg.LinAlgError:
                return None

        def objective(x, Ls):
            ball = radius_sq - x[:nz] @ x[:nz]
            if Ls is None or ball <= 0.0:
                return np.inf
            logdet = sum(np.log(np.diagonal(L, axis1=1, axis2=2)).sum() for L in Ls)
            return t * x[nz] - np.log(ball) - 2.0 * logdet

        Ls = factor(x)
        while it < budget and t <= 1e18:
            while it < budget:
                it += 1
                if Ls is None:
                    x[nz] *= 2.0
                    Ls = factor(x)
                    continue
                terms = [g.barrier_terms(L) for g, L in zip(groups, Ls)]
                grad = sum(g_i for g_i, _ in terms)
                Wf = np.concatenate([rows for _, rows in terms])
                hess = Wf.T @ Wf
                z = x[:nz]
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
                f0 = objective(x, Ls)
                alpha = 1.0
                while True:
                    trial = x + alpha * step
                    trial_Ls = factor(trial)
                    if objective(trial, trial_Ls) < f0 or alpha <= 1e-13:
                        break
                    alpha *= 0.5
                x, Ls = trial, trial_Ls
                if accepted(x) and (rep := report(x)).feasible:
                    return rep
                if decrement < 0.1:
                    break
            # stall rule: at a centred point, s - 2 nu / t is below every s
            # that a point in the ball reaches
            if it >= budget or x[nz] - 2.0 * nu / t > eps:
                break
            t *= 20.0
        return report(x)

    def verify(self, values: dict, eps: float) -> dict:
        """Margins of every constraint at the given variable values."""
        margins = {}
        for c in self.constraints:
            S = np.asarray(c.expr(values), dtype=float)
            margins[c.name] = self._margin(S, c.sense, c.shift, eps)
        return margins
