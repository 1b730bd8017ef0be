"""Small feasibility solver for linear matrix inequalities.

The problem is a set of named symmetric matrix variables plus affine
matrix-valued constraints with a semidefiniteness sense, strict or not: a
cone-only problem, with no equality constraints.  Each constraint is declared
as affine terms, ``const + sum_i M_i^T V_i N_i`` with ``V_i`` a variable and
``None`` standing for an identity factor: the standard form
``F_0 + sum_j x_j F_j`` of Boyd, El Ghaoui, Feron & Balakrishnan (*LMIs in
System and Control Theory*, 1994).  :meth:`Constraint.expr` is the one
evaluator, and it rejects a constraint that is not square.  ``_compile``
calls it once per constraint on the stack ``(n_params + 1, n, n)`` of every
variable's values at zero and at each basis vector, which gives the affine
map, and rejects a coefficient that is not finite.  ``verify`` calls it on
plain matrices, so a warm start is judged on the constraints that the
search would accept.

Solving is feasibility-only: a phase-I log-det barrier drives the worst cone
violation ``s`` below the acceptance threshold with damped Newton steps.  A
ball barrier bounds the search region, since the LMI systems produced by the
Lyapunov assemblies are homogeneous in the unknowns.

The Newton loop works on the compiled affine data alone.  Cones of equal
size are stacked, with their coefficient matrices symmetrised once; the
stacks of sizes ``m`` and ``m + 1`` merge into one of size ``m + 1``, each
smaller cone padded by a diagonal entry 1 that no variable and no ``s``
reaches, so its log-det, gradient and Hessian are the cone's own.  Each
trial point is factored once: one batched Cholesky ``S = L L^T`` per stack
(Vandenberghe & Boyd, *SIAM Review* 38(1), 1996).  The factorization
succeeding is the domain test, ``2 sum log diag L`` is the log-det, and at
an accepted iterate one batched inverse gives the Hessian factor
``W = L^{-1}``: ``S^{-1} = W^T W``, and the Hessian is ``Wf^T Wf`` over the
stacked ``vec(W B_j W^T)``.

The barrier parameter starts at ``t0 = max(1, sum_i tr S_i^{-1})`` at the
starting point, with ``tr S_i^{-1} = |W_i|_F^2``: the barrier's pull on
``s`` there, so the start is centred along ``s`` and the first centering
does not spend its steps growing ``s`` (Boyd & Vandenberghe, section
11.3.1, choose ``t0`` from the start point).  The start's ``s`` comes from
one ``eigvalsh`` of its slacks, the only eigenvalues the search takes; it
is doubled while the shifted slacks do not factor, which happens when it
lies below their rounding.
Every iterate decreases the centering objective: a backtracking line
search that reaches its shortest step (``alpha <= 1e-13``) without a
decrease, off the barrier's domain or not, ends the centering at the
current point instead of taking that step.

A certificate is accepted by one rule, :func:`accepts`: every margin is at
least ``eps / 2``.  ``verify`` judges a warm start before anything is
compiled, and a warm start with a non-finite entry is rejected first.
Since ``s`` enters every slack as ``s E_i`` (``E_i`` the cone's identity),
a cone's margin is ``lambda_min(S_i) - s + eps``, and iterates are
pre-checked against that rule without eigenvalues: rejected when a
diagonal entry of a slack is below ``s - eps / 2`` (``lambda_min <= min
diag``), else accepted when every ``S_i - (s - eps / 2) E_i`` has a
Cholesky factor.  ``verify`` re-checks an accepted iterate and the final
one, and the report's margins and ``feasible`` flag are :func:`accepts` of
its margins.

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

import numpy as np

DEFAULT_BUDGET = 50_000


def accepts(margins: dict, eps: float) -> bool:
    """The acceptance rule: every margin is at least ``eps / 2``.

    An empty margin set is accepted.
    """
    return all(m >= eps / 2 for m in margins.values())


@dataclass(frozen=True)
class _VarBlock:
    """A symmetric ``n x n`` variable: its upper triangle is the parameters."""

    name: str
    n: int

    @property
    def n_params(self) -> int:
        return self.n * (self.n + 1) // 2

    @cached_property
    def triu(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the upper triangle that holds the parameters."""
        return np.triu_indices(self.n)


@dataclass(frozen=True)
class Constraint:
    """Affine matrix expression ``const + sum_i M_i^T V_i N_i`` with a cone
    sense; ``terms`` holds the ``(variable, M, N)``, ``None`` for an identity
    factor, and ``const`` is ``None`` for zero.

    sense:
      ``"psd"`` -- expr(vars) >= 0, or >= eps I if ``strict``
      ``"nsd"`` -- expr(vars) <= 0, or <= -eps I if ``strict``
    """

    name: str
    terms: tuple
    sense: str
    strict: bool = False
    const: np.ndarray | None = None

    def expr(self, values: dict) -> np.ndarray:
        """The expression at ``values``; stacked values give the stack.

        Each term is ``M.T @ V``, then ``@ N``, and the terms are summed in
        order, after ``const``.  A value that is not square (in its last two
        axes) is a ``ValueError`` that names the constraint, so neither
        ``_compile`` nor ``verify`` reads a cone off it.
        """
        total = self.const
        for name, M, N in self.terms:
            T = values[name]
            if M is not None:
                T = M.T @ T
            if N is not None:
                T = T @ N
            total = T if total is None else total + T
        total = np.asarray(total, dtype=float)
        if total.ndim < 2 or total.shape[-1] != total.shape[-2]:
            raise ValueError(f"constraint '{self.name}' is not square")
        return total


@dataclass(frozen=True)
class _ConeGroup:
    """Cones stacked to one size ``m``: slack ``C_i + sum_j x_j B_ij``.

    Signs are folded in so that every cone reads ``slack >= 0``.  The last
    coordinate of ``x`` is the phase-I violation ``s``, whose coefficient is
    each cone's identity ``E_i``.  A cone smaller than ``m`` is padded: its
    extra diagonal entries hold 1 in ``C`` and 0 in ``B`` (the ``s`` column
    too), so the padded slack is ``diag(slack_i, I)``, with the same
    log-det, gradient and Hessian.  A slack's smallest eigenvalue at
    ``s = 0``, plus ``eps``, is the constraint's margin.
    """

    C: np.ndarray  # (g, m, m), symmetric
    B: np.ndarray  # (g, m*m, npar + 1), every B_ij symmetric
    E: np.ndarray  # (g, m) bool: the diagonal of E_i, False on padding

    @classmethod
    def stack(cls, cones, eps):
        """Stack ``(constraint, c0, A, size)`` cones, padded to the largest size."""
        m = max(mi for *_, mi in cones)
        g, npar = len(cones), cones[0][2].shape[1]
        C = np.zeros((g, m, m))
        B = np.zeros((g, m, m, npar + 1))
        E = np.zeros((g, m), dtype=bool)
        sizes = np.array([mi for *_, mi in cones])
        for mi in np.unique(sizes).tolist():
            idx = np.flatnonzero(sizes == mi)
            same = [cones[i] for i in idx]
            sgn = np.array([1.0 if c.sense == "psd" else -1.0 for c, *_ in same])
            c0 = np.array([c0 for _, c0, _, _ in same])
            A = np.array([A for _, _, A, _ in same])
            # required eigenvalue level after the sign flip: 2 eps on a strict
            # cone, whose margin is lambda_min - eps, leaves headroom over the
            # eps/2 acceptance
            rho = np.array([2.0 * eps if c.strict else 0.0 for c, *_ in same])
            Ci = sgn[:, None, None] * c0.reshape(-1, mi, mi)
            Ci = 0.5 * (Ci + Ci.transpose(0, 2, 1))
            C[idx, :mi, :mi] = Ci - rho[:, None, None] * np.eye(mi)
            Bv = sgn[:, None, None, None] * A.reshape(-1, mi, mi, npar)
            B[idx, :mi, :mi, :npar] = 0.5 * (Bv + Bv.transpose(0, 2, 1, 3))
            B[idx, :mi, :mi, npar] = np.eye(mi)
            E[idx, :mi] = True
        diag = np.arange(m)
        C[:, diag, diag] += ~E
        return cls(C, B.reshape(g, m * m, npar + 1), E)

    @property
    def size(self) -> int:
        """Sum of the cone sizes, the group's share of the barrier parameter."""
        return int(np.count_nonzero(self.E))

    @property
    def pads(self) -> int:
        """Padded diagonal entries, each an eigenvalue 1 of its padded slack."""
        return self.E.size - self.size

    def slack(self, x: np.ndarray) -> np.ndarray:
        g, m, _ = self.C.shape
        return self.C + (self.B @ x).reshape(g, m, m)

    def lam_min(self, S: np.ndarray) -> np.ndarray:
        """Each cone's smallest eigenvalue of the slacks ``S``, padding
        excluded: one ``eigvalsh`` per cone size."""
        sizes = np.count_nonzero(self.E, axis=1)
        out = np.empty(len(S))
        for m in np.unique(sizes).tolist():
            idx = sizes == m
            out[idx] = np.linalg.eigvalsh(S[idx, :m, :m])[:, 0]
        return out

    def above(self, S: np.ndarray, level: float) -> bool:
        """Every cone's ``lambda_min`` of ``S`` exceeds ``level``, without
        eigenvalues: false when a diagonal entry is below ``level`` (since
        ``lambda_min <= min diag``), else whether ``S_i - level E_i`` has a
        Cholesky factor."""
        m = S.shape[1]
        diag = np.arange(m)
        if S[:, diag, diag][self.E].min() < level:
            return False
        T = S.copy()
        T[:, diag, diag] -= level * self.E
        try:
            np.linalg.cholesky(T)
        except np.linalg.LinAlgError:
            return False
        return True

    def barrier_terms(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian factor of ``-sum_i log det slack_i``.

        ``W`` are the inverses ``L_i^{-1}`` of the slacks' Cholesky factors,
        so ``slack_i^{-1} = W_i^T W_i``.  The rows ``vec(W B_ij W^T)`` give the
        Hessian as ``rows^T rows`` and the gradient as minus their traces
        (every ``m + 1``-th row holds a diagonal entry); padding gives zero
        rows.
        """
        g, m, _ = W.shape
        kron = W[:, :, None, :, None] * W[:, None, :, None, :]  # W (x) W
        rows = kron.reshape(g, m * m, m * m) @ self.B
        grad = -rows[:, :: m + 1].sum(axis=(0, 1))
        return grad, rows.reshape(g * m * m, -1)


def _cone_groups(compiled, eps) -> list[_ConeGroup]:
    """The stacks of the compiled ``(constraint, c0, A, size)`` cones.

    Cones of one size share a stack.  Sizes ``m`` and ``m + 1`` share the
    larger one's stack, taken from the largest size down, so each padded
    cone gains one diagonal entry; sizes further apart keep their own
    stacks, since padding by more costs more than a second stack saves.
    """
    by_size: dict[int, list] = {}
    for cone in compiled:
        by_size.setdefault(cone[3], []).append(cone)
    sizes = sorted(by_size, reverse=True)
    groups = []
    while sizes:
        m = sizes.pop(0)
        cones = by_size[m]
        if sizes and sizes[0] == m - 1:
            cones = cones + by_size[sizes.pop(0)]
        groups.append(_ConeGroup.stack(cones, eps))
    return groups


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
        self._blocks[name] = _VarBlock(name, n)

    def add_constraint(self, name, terms, sense, strict=False, const=None) -> None:
        """Add ``const + sum M^T V N`` over ``terms = [(variable, M, N), ...]``
        (``None`` for an identity factor, or for a zero ``const``)."""
        if sense not in ("psd", "nsd"):
            raise ValueError(f"unknown sense '{sense}'")

        def matrix(F):
            return None if F is None else np.asarray(F, dtype=float)

        terms = tuple((v, matrix(M), matrix(N)) for v, M, N in terms)
        self.constraints.append(Constraint(name, terms, sense, strict, matrix(const)))

    # -- parameter vector packing -------------------------------------------

    @property
    def n_params(self) -> int:
        return sum(b.n_params for b in self._blocks.values())

    def _unpack(self, v: np.ndarray) -> dict:
        """Variable values at ``v``; a stack of vectors gives stacked values."""
        out = {}
        pos = 0
        lead = v.shape[:-1]
        for b in self._blocks.values():
            chunk = v[..., pos : pos + b.n_params]
            pos += b.n_params
            rows, cols = b.triu
            M = np.empty(lead + (b.n, b.n))
            M[..., rows, cols] = chunk
            M[..., cols, rows] = chunk
            out[b.name] = M
        return out

    def _pack(self, values: dict) -> np.ndarray:
        parts = []
        for b in self._blocks.values():
            M = np.asarray(values[b.name], dtype=float)
            if M.shape != (b.n, b.n):
                raise ValueError(
                    f"variable '{b.name}' has shape {M.shape}, expected {(b.n, b.n)}"
                )
            parts.append((0.5 * (M + M.T))[b.triu])
        return np.concatenate(parts) if parts else np.zeros(0)

    # -- affine compilation --------------------------------------------------

    def _compile(self):
        """``(constraint, c0, A, m)``: each expression is ``c0 + A v`` flattened.

        One :meth:`Constraint.expr` call per constraint, on the stack of the
        zero vector and every basis vector: ``c0`` is the value at zero,
        column ``i`` of ``A`` the value at ``e_i`` minus ``c0``.  A constraint
        that is not square, or has a coefficient that is not finite, is
        rejected.
        """
        npar = self.n_params
        vals = self._unpack(np.vstack([np.zeros(npar), np.eye(npar)]))
        compiled = []
        for c in self.constraints:
            S = c.expr(vals)
            m = S.shape[-1]
            S = np.broadcast_to(S, (npar + 1, m, m)).reshape(npar + 1, m * m)
            c0 = S[0].copy()
            A = np.ascontiguousarray((S[1:] - c0).T)
            if not (np.isfinite(c0).all() and np.isfinite(A).all()):
                raise ValueError(f"constraint '{c.name}' has a non-finite coefficient")
            compiled.append((c, c0, A, m))
        return compiled

    # -- margins -------------------------------------------------------------

    @staticmethod
    def _margin(
        S: np.ndarray, sense: str, strict: bool, eps: float, lam: np.ndarray | None = None
    ) -> float:
        """Satisfaction margin, judged by :func:`accepts`: the extreme
        eigenvalue, on the side of the sense, less ``eps`` for a strict cone.

        A non-strict cone gets an ``eps`` bonus instead, so that structurally
        semidefinite expressions, whose extreme eigenvalue is an exact zero
        up to rounding, still verify.  ``lam`` are the ascending eigenvalues
        of the symmetric part of ``S``, when already computed.
        """
        if lam is None:
            lam = np.linalg.eigvalsh(0.5 * (S + S.T))
        extreme = lam[0] if sense == "psd" else -lam[-1]
        return float(extreme - eps if strict else extreme + eps)

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
        iteration.  Each trial point is factored by a batched Cholesky per
        cone stack, stacks of sizes ``m`` and ``m + 1`` merged, and iterates
        are pre-checked on those factors (module docstring).  ``budget``
        caps the total number of Newton steps, and the search stops early
        once the duality-gap bound shows that no point in the search ball
        can be accepted.  Returns a report whose ``feasible`` flag is
        :func:`accepts` of an independent margin re-check.  A ``warm_start``
        with a non-finite entry is a ``ValueError`` that names the variable;
        one that :meth:`verify` accepts is returned as given, with 0
        iterations; both before anything is compiled.
        """
        if warm_start:
            for name, V in warm_start.items():
                if not np.isfinite(np.asarray(V, dtype=float)).all():
                    raise ValueError(f"warm start '{name}' has a non-finite entry")
            margins = self.verify(warm_start, eps)
            if accepts(margins, eps):
                return SolveReport(True, 0, margins, dict(warm_start))
        groups = _cone_groups(self._compile(), eps)
        nu = 1.0 + sum(g.size for g in groups)
        pads = sum(g.pads for g in groups)
        npar = self.n_params
        z = self._pack(warm_start) if warm_start else np.zeros(npar)

        it = 0

        def report(x) -> SolveReport:
            values = self._unpack(x[:npar])
            margins = self.verify(values, eps)
            return SolveReport(accepts(margins, eps), it, margins, values)

        def factor(x) -> list | None:
            """``(S, L)``: every group's slacks at ``x`` and their Cholesky
            factors; ``None`` off the barrier's domain, where one fails."""
            try:
                return [(S, np.linalg.cholesky(S)) for S in (g.slack(x) for g in groups)]
            except np.linalg.LinAlgError:
                return None

        def accepted(x, facs) -> bool:
            """Mirrors :func:`accepts` of ``verify``'s margins on the compiled
            data: every ``lambda_min - s + eps`` is at least ``eps / 2``.

            A pre-check only: ``report`` re-checks every iterate it passes.
            """
            level = x[npar] - eps / 2
            return all(g.above(S, level) for g, (S, _) in zip(groups, facs))

        def inverses(facs) -> list:
            """The Hessian factors ``W = L^{-1}``: one batched inverse per group."""
            return [np.linalg.inv(L) for _, L in facs]

        x = np.append(z, 0.0)
        lams = [g.lam_min(g.slack(x)) for g in groups]
        if not any((lam + eps).min() < eps / 2 for lam in lams) and (rep := report(x)).feasible:
            return rep
        if not groups or npar == 0:
            return report(x)

        radius_sq = (1e3 * (1.0 + np.linalg.norm(z))) ** 2
        eye_z = np.eye(npar)

        def barrier(x, facs) -> float:
            """``-log ball - sum_i log det slack_i``; infinite off the domain."""
            ball = radius_sq - x[:npar] @ x[:npar]
            if ball <= 0.0 or facs is None:
                return np.inf
            logdet = sum(np.log(np.diagonal(L, axis1=1, axis2=2)).sum() for _, L in facs)
            return -np.log(ball) - 2.0 * logdet

        lam_min = min(lam.min() for lam in lams)
        x[npar] = 1.5 * max(0.0, -lam_min) + 0.1 * max(1e-6, abs(lam_min))
        facs = factor(x)
        while facs is None and np.isfinite(x[npar]):
            x[npar] *= 2.0  # the shift is below the slacks' rounding
            facs = factor(x)
        if facs is None:
            return report(x)
        W = inverses(facs)
        # centred along s: d/ds (t s - sum log det) = t - sum tr S^{-1} = 0,
        # with tr S^{-1} = |W|_F^2 less one per padded entry
        t = max(1.0, sum(np.sum(w * w) for w in W) - pads)
        phi = barrier(x, facs)
        while it < budget and t <= 1e18:
            while it < budget:
                it += 1
                terms = [g.barrier_terms(w) for g, w in zip(groups, W)]
                grad = sum(g_i for g_i, _ in terms)
                hess = sum(rows.T @ rows for _, rows in terms)
                z = x[:npar]
                ball = radius_sq - z @ z
                grad[:npar] += 2.0 * z / ball
                hess[:npar, :npar] += (2.0 / ball) * eye_z + np.outer(
                    4.0 * z / ball**2, z
                )
                grad[npar] += t
                try:
                    step = np.linalg.solve(hess, -grad)
                except np.linalg.LinAlgError:
                    step, *_ = np.linalg.lstsq(hess, -grad, rcond=None)
                decrement = -grad @ step
                f0 = t * x[npar] + phi
                alpha = 1.0
                while True:
                    trial = x + alpha * step
                    trial_facs = factor(trial)
                    trial_phi = barrier(trial, trial_facs)
                    if t * trial[npar] + trial_phi < f0 or alpha <= 1e-13:
                        break
                    alpha *= 0.5
                if not t * trial[npar] + trial_phi < f0:
                    break  # even the shortest trial decreases nothing: stay at x
                x, facs, phi = trial, trial_facs, trial_phi
                if accepted(x, facs) and (rep := report(x)).feasible:
                    return rep
                W = inverses(facs)
                if decrement < 0.1:
                    break
            # stall rule: at a centred point, s - 2 nu / t is below every s
            # that a point in the ball reaches
            if it >= budget or x[npar] - 2.0 * nu / t > eps:
                break
            t *= 20.0
        return report(x)

    def verify(self, values: dict, eps: float) -> dict:
        """Margins of every constraint at the given variable values, in
        constraint order.

        Each constraint is evaluated on its own; the symmetric parts of the
        cones of one shape then go through one batched ``eigvalsh``,
        whose eigenvalues equal one call per matrix, bit for bit, and
        :meth:`_margin` reads each cone's margin off them.
        """
        out: list = [None] * len(self.constraints)
        shapes: dict[tuple, list] = {}
        for i, c in enumerate(self.constraints):
            S = c.expr(values)
            shapes.setdefault(S.shape, []).append((i, S))
        for same in shapes.values():
            H = np.array([S for _, S in same])
            lams = np.linalg.eigvalsh(0.5 * (H + H.transpose(0, 2, 1)))
            for (i, S), lam in zip(same, lams):
                c = self.constraints[i]
                out[i] = self._margin(S, c.sense, c.strict, eps, lam)
        return {c.name: m for c, m in zip(self.constraints, out)}
