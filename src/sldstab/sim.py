"""Exact simulation of switched trajectories and certificate auditing.

Modes are autonomous LTI systems, so propagation uses the matrix exponential
(``statespace.propagator``, no ODE integrator); switching applies the
re-initialisation maps of the model's gluing conditions.  The audit then
tests the certificate, not an integrator.

Within a segment the first grid sample and the state ``x(t⁻)`` at the
segment's end are propagated directly from the segment's start state, so
jumps and gluing residuals carry no stepping error.  The grid samples in
between are stepped by ``exp(A_m·dt)``, one step propagator per mode and
call, which is exact up to the rounding of one matrix-vector product per
step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .mlf import MlfCertificate
from .model import SldsModel
from .statespace import propagator

AUDIT_REL_TOL = 1e-10
CONSISTENCY_FLAG_TOL = 1e-6
ASYMPTOTIC_FACTOR = 1e-6
CSV_CHUNK_ROWS = 1024  # rows formatted at once by write_trace_csv


@dataclass(frozen=True)
class SwitchingSignal:
    """Right-continuous piecewise-constant mode schedule."""

    initial_mode: int
    events: tuple  # ((time, next_mode), ...) positive, strictly increasing times

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        prev_t = -np.inf
        prev_m = self.initial_mode
        for t, m in self.events:
            if not (np.isfinite(t) and t > 0):
                raise ValueError(f"event times must be positive and finite, got {t}")
            if t <= prev_t:
                raise ValueError("event times must be strictly increasing")
            if m == prev_m:
                raise ValueError("consecutive modes must differ")
            prev_t, prev_m = t, m


@dataclass
class Trace:
    """Sampled switched trajectory with one-sided records at events."""

    times: np.ndarray
    modes: np.ndarray  # active mode per sample
    states: list  # state vector per sample (dimension may vary by mode)
    outputs: np.ndarray  # external variables w = C x per sample
    values: np.ndarray | None  # MLF value per sample (certificate attached)
    events: list = field(default_factory=list)  # per-switch records
    truncated: bool = False

    def w_norms(self) -> np.ndarray:
        return np.linalg.norm(self.outputs, axis=1)


def simulate(
    model: SldsModel,
    signal: SwitchingSignal,
    x0,
    t_end: float,
    sample_dt: float,
    certificate: MlfCertificate | None = None,
) -> Trace:
    """Propagate exactly through the switching schedule.

    Samples on the uniform grid plus both one-sided limits at each event.
    A transition whose gluing conditions cannot hold for the incoming state
    (range condition violated beyond tolerance) flags the trace as truncated
    and stops there.
    """
    for name, v in (("t_end", t_end), ("sample_dt", sample_dt)):
        if not (np.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    events = [(t, m) for t, m in signal.events if t < t_end]
    mode = signal.initial_mode
    if not (1 <= mode <= model.n_modes):
        raise ValueError(f"initial mode {mode} out of range")
    rmaps = model.reinits
    nf = model.normal_form_pairs
    x = np.asarray(x0, dtype=float).ravel()
    if x.shape[0] != model.realizations[mode - 1].n:
        raise ValueError(
            f"x0 has dimension {x.shape[0]}, mode {mode} expects "
            f"{model.realizations[mode - 1].n}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be finite, got {x.tolist()}")
    kernels = (
        [np.asarray(K, dtype=float) for K in certificate.kernels]
        if certificate is not None
        else None
    )

    # one (k, n) block per segment: its t+ state (after the first segment),
    # its grid samples and its t- state, all in the segment's mode
    blocks = []
    steps = {}  # mode -> exp(A_m · sample_dt), made on first use

    grid = np.arange(0.0, t_end + 0.5 * sample_dt, sample_dt)
    truncated = False
    event_records = []
    seg_start = 0.0
    gi = 0
    boundaries = events + [(t_end, None)]
    for t_switch, next_mode in boundaries:
        A = model.realizations[mode - 1].A
        # grid samples inside [seg_start, t_switch)
        g1 = int(np.searchsorted(grid, t_switch - 1e-15))
        k = g1 - gi
        X = np.empty((k + 2, x.shape[0]))
        X[0] = x
        if k:
            # a grid point within rounding below seg_start samples the start
            X[1] = propagator(A, max(grid[gi] - seg_start, 0.0)) @ x
        if k > 1:
            E = steps.get(mode)
            if E is None:
                E = steps[mode] = propagator(A, sample_dt)
            for i in range(1, k):
                np.dot(E, X[i], out=X[i + 1])
        x_minus = propagator(A, t_switch - seg_start) @ x
        X[k + 1] = x_minus
        # the first segment's start is its first grid sample, not a t+ state
        t_plus = [seg_start] if blocks else []
        blocks.append((
            np.concatenate((t_plus, grid[gi:g1], [t_switch])),
            mode,
            X[1 - len(t_plus):],
        ))
        gi = g1
        if next_mode is None:
            break
        key = (mode, next_mode)
        if key not in rmaps:
            raise ValueError(f"signal uses missing transition {mode}->{next_mode}")
        L = rmaps[key].L
        x_plus = L @ x_minus
        pair = nf[key]
        resid = np.linalg.norm(pair.f_plus @ x_plus - pair.f_minus @ x_minus)
        scale = max(1.0, np.linalg.norm(x_minus))
        ev = {
            "time": t_switch,
            "from": mode,
            "to": next_mode,
            "x_minus": x_minus.copy(),
            "x_plus": x_plus.copy(),
            "gluing_residual": float(resid),
        }
        if kernels is not None:
            Km = kernels[mode - 1]
            Kp = kernels[next_mode - 1]
            ev["v_minus"] = float(x_minus @ Km @ x_minus)
            ev["v_plus"] = float(x_plus @ Kp @ x_plus)
        event_records.append(ev)
        if resid > CONSISTENCY_FLAG_TOL * scale:
            ev["inconsistent"] = True
            truncated = True
            break
        mode = next_mode
        x = x_plus
        seg_start = t_switch

    states, outputs, values = [], [], []
    for _, m, X in blocks:
        states.extend(X)
        outputs.append(X @ model.realizations[m - 1].C.T)
        if kernels is not None:
            values.append(np.einsum("ij,jk,ik->i", X, kernels[m - 1], X))
    return Trace(
        times=np.concatenate([t for t, _, _ in blocks]),
        modes=np.concatenate([np.full(len(t), m) for t, m, _ in blocks]),
        states=states,
        outputs=np.concatenate(outputs),
        values=np.concatenate(values) if kernels is not None else None,
        events=event_records,
        truncated=truncated,
    )


def derivative_stack(model: SldsModel, mode: int, x: np.ndarray, depth: int) -> np.ndarray:
    """Rows ``d^j w / dt^j = C A^j x`` for ``j = 0 .. depth-1``."""
    real = model.realizations[mode - 1]
    out = np.zeros((depth, real.w))
    xj = np.asarray(x, dtype=float)
    for j in range(depth):
        out[j] = real.C @ xj
        xj = real.A @ xj
    return out


def audit_mlf(trace: Trace) -> dict:
    """Monotonicity audit of the MLF along a simulated trace.

    Reads only the values that ``simulate`` computed for its certificate:
    ``trace.values`` at the samples and ``v_minus``/``v_plus`` at the
    events.  Checks strict decrease between consecutive samples inside each
    mode interval and non-increase across events; violations are report
    content, never exceptions.  A trace simulated without a certificate has
    no values and raises ``ValueError``.
    """
    if trace.values is None:
        raise ValueError("trace has no MLF values: simulate it with a certificate")
    values = trace.values
    finite = np.isfinite(values)
    scale = max(1.0, float(np.max(np.abs(values[finite]), initial=0.0)))
    tol = AUDIT_REL_TOL * scale
    # steps inside a mode interval: crossing an event is handled below, and
    # the duplicate one-sided samples at an event are skipped
    modes, times = np.asarray(trace.modes), np.asarray(trace.times)
    inside = (modes[1:] == modes[:-1]) & (times[1:] != times[:-1])
    with np.errstate(invalid="ignore"):
        dv = np.diff(values)[inside]
    rises = dv[np.isfinite(dv) & (dv > tol)]
    worst_interval = float(np.max(rises, initial=0.0))
    worst_switch = 0.0
    # a non-finite value (an overflowed trace) can never pass the audit
    n_viol = int(np.count_nonzero(~finite)) + rises.size
    for ev in trace.events:
        dv = ev["v_plus"] - ev["v_minus"]
        if not np.isfinite(dv):
            n_viol += 1
        elif dv > tol:
            n_viol += 1
            worst_switch = max(worst_switch, float(dv))
    return {
        "ok": n_viol == 0,
        "violations": n_viol,
        "worst_interval_increase": worst_interval,
        "worst_switch_increase": worst_switch,
        "tolerance": tol,
    }


def asymptotic_check(trace: Trace) -> bool:
    """True iff the external variables have decayed by 1e-6 at the end."""
    norms = trace.w_norms()
    if norms.size == 0:
        return True
    w0 = norms[0]
    if w0 == 0.0:
        return True
    return bool(norms[-1] <= ASYMPTOTIC_FACTOR * w0)


# ---------------------------------------------------------------------------
# trace export


def write_trace_csv(trace: Trace, path, events_path=None) -> None:
    """CSV with columns t, mode, x…, w…, V; events in a sidecar JSON.

    The rows are what ``csv.writer`` writes for the same cells: ``.12g``
    numbers, empty cells after a state shorter than the widest one, and
    ``\\r\\n`` line ends.  Each run of rows with one state dimension is
    formatted by one ``%`` per chunk of at most ``CSV_CHUNK_ROWS`` rows.
    """
    nx = max((len(x) for x in trace.states), default=0)
    nw = trace.outputs.shape[1] if trace.outputs.size else 0
    has_v = trace.values is not None
    header = (
        ["t", "mode"]
        + [f"x{i}" for i in range(nx)]
        + [f"w{i}" for i in range(nw)]
        + (["V"] if has_v else [])
    )
    tail = ",%.12g" * nw + (",%.12g" if has_v else "") + "\r\n"
    dims = np.fromiter(map(len, trace.states), dtype=int, count=len(trace.states))
    runs = np.flatnonzero(np.diff(dims, prepend=-1, append=-1))  # run bounds
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start, stop in zip(runs[:-1], runs[1:]):
            d = int(dims[start])
            fmt = "%.12g,%d" + ",%.12g" * d + "," * (nx - d) + tail
            for a in range(start, stop, CSV_CHUNK_ROWS):
                b = min(a + CSV_CHUNK_ROWS, stop)
                cells = [
                    trace.times[a:b, None],
                    trace.modes[a:b, None],
                    np.array(trace.states[a:b], dtype=float).reshape(b - a, d),
                    trace.outputs[a:b].reshape(b - a, nw),
                ]
                if has_v:
                    cells.append(trace.values[a:b, None])
                fh.write(fmt * (b - a) % tuple(np.hstack(cells).ravel().tolist()))
    if events_path is not None:
        evs = []
        for ev in trace.events:
            evs.append(
                {
                    k: (v.tolist() if isinstance(v, np.ndarray) else v)
                    for k, v in ev.items()
                }
            )
        with open(events_path, "w") as fh:
            json.dump({"truncated": trace.truncated, "events": evs}, fh, indent=2)


def signal_from_json(doc: dict) -> SwitchingSignal:
    return SwitchingSignal(
        initial_mode=int(doc["initial_mode"]),
        events=tuple((float(t), int(m)) for t, m in doc.get("events", [])),
    )

