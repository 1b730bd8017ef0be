"""Exact simulation of switched trajectories and certificate auditing.

Modes are autonomous LTI systems, so propagation uses the matrix exponential
directly (no ODE integrator); switching applies the re-initialisation maps of
the model's gluing conditions.  The audit then tests the certificate, not an
integrator.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .mlf import MlfCertificate
from .model import SldsModel

AUDIT_REL_TOL = 1e-10
CONSISTENCY_FLAG_TOL = 1e-6
ASYMPTOTIC_FACTOR = 1e-6


@dataclass(frozen=True)
class SwitchingSignal:
    """Right-continuous piecewise-constant mode schedule."""

    initial_mode: int
    events: tuple  # ((time, next_mode), ...) strictly increasing times

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        prev_t = -np.inf
        prev_m = self.initial_mode
        for t, m in self.events:
            if t <= prev_t:
                raise ValueError("event times must be strictly increasing")
            if m == prev_m:
                raise ValueError("consecutive modes must differ")
            prev_t, prev_m = t, m

    def mode_at(self, t: float) -> int:
        m = self.initial_mode
        for te, me in self.events:
            if te <= t:
                m = me
            else:
                break
        return m


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


def _propagators(model: SldsModel):
    return [real.A for real in model.realizations]


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
    if t_end <= 0 or sample_dt <= 0:
        raise ValueError("t_end and sample_dt must be positive")
    events = [(t, m) for t, m in signal.events if 0.0 < t < t_end]
    mode = signal.initial_mode
    if not (1 <= mode <= model.n_modes):
        raise ValueError(f"initial mode {mode} out of range")
    rmaps = model.reinits
    nf = model.normal_form_pairs
    As = _propagators(model)
    x = np.asarray(x0, dtype=float).ravel()
    if x.shape[0] != model.realizations[mode - 1].n:
        raise ValueError(
            f"x0 has dimension {x.shape[0]}, mode {mode} expects "
            f"{model.realizations[mode - 1].n}"
        )
    kernels = certificate.kernels if certificate is not None else None

    times, modes_rec, states, outputs, values = [], [], [], [], []

    def record(t, m, xv):
        times.append(t)
        modes_rec.append(m)
        states.append(xv.copy())
        outputs.append(model.realizations[m - 1].C @ xv)
        if kernels is not None:
            K = np.asarray(kernels[m - 1], dtype=float)
            values.append(float(xv @ K @ xv))

    grid = np.arange(0.0, t_end + 0.5 * sample_dt, sample_dt)
    truncated = False
    event_records = []
    seg_start = 0.0
    gi = 0
    boundaries = events + [(t_end, None)]
    for t_switch, next_mode in boundaries:
        A = As[mode - 1]
        # grid samples inside [seg_start, t_switch)
        while gi < len(grid) and grid[gi] < t_switch - 1e-15:
            record(grid[gi], mode, scipy.linalg.expm(A * (grid[gi] - seg_start)) @ x)
            gi += 1
        x_minus = scipy.linalg.expm(A * (t_switch - seg_start)) @ x
        if next_mode is None:
            record(t_end, mode, x_minus)
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
            Km = np.asarray(kernels[mode - 1], dtype=float)
            Kp = np.asarray(kernels[next_mode - 1], dtype=float)
            ev["v_minus"] = float(x_minus @ Km @ x_minus)
            ev["v_plus"] = float(x_plus @ Kp @ x_plus)
        record(t_switch, mode, x_minus)  # t^- sample
        event_records.append(ev)
        if resid > CONSISTENCY_FLAG_TOL * scale:
            ev["inconsistent"] = True
            truncated = True
            break
        mode = next_mode
        x = x_plus
        seg_start = t_switch
        record(t_switch, mode, x_plus)  # t^+ sample
    return Trace(
        times=np.array(times),
        modes=np.array(modes_rec),
        states=states,
        outputs=np.array(outputs),
        values=np.array(values) if kernels is not None else None,
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


def audit_mlf(trace: Trace, certificate: MlfCertificate) -> dict:
    """Monotonicity audit of the MLF along a simulated trace.

    Checks strict decrease between consecutive samples inside each mode
    interval and non-increase across events; violations are report content,
    never exceptions.
    """
    if trace.values is None:
        # recompute values from the stored states
        vals = []
        for m, x in zip(trace.modes, trace.states):
            K = np.asarray(certificate.kernels[m - 1], dtype=float)
            vals.append(float(x @ K @ x))
        values = np.array(vals)
    else:
        values = trace.values
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
    tol = AUDIT_REL_TOL * scale
    worst_interval = 0.0
    worst_switch = 0.0
    n_viol = 0
    for i in range(len(values) - 1):
        if trace.modes[i] != trace.modes[i + 1]:
            continue  # crossing an event; handled below
        if trace.times[i + 1] == trace.times[i]:
            continue  # duplicate one-sided samples
        dv = values[i + 1] - values[i]
        if dv > tol:
            n_viol += 1
            worst_interval = max(worst_interval, float(dv))
    for ev in trace.events:
        vm = ev.get("v_minus")
        vp = ev.get("v_plus")
        if vm is None or vp is None:
            K = np.asarray(certificate.kernels[ev["from"] - 1], dtype=float)
            vm = float(ev["x_minus"] @ K @ ev["x_minus"])
            K = np.asarray(certificate.kernels[ev["to"] - 1], dtype=float)
            vp = float(ev["x_plus"] @ K @ ev["x_plus"])
        dv = vp - vm
        if dv > tol:
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
    """CSV with columns t, mode, x…, w…, V; events in a sidecar JSON."""
    nx = max((len(x) for x in trace.states), default=0)
    nw = trace.outputs.shape[1] if trace.outputs.size else 0
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        header = (
            ["t", "mode"]
            + [f"x{i}" for i in range(nx)]
            + [f"w{i}" for i in range(nw)]
            + (["V"] if trace.values is not None else [])
        )
        wr.writerow(header)
        for i in range(len(trace.times)):
            x = trace.states[i]
            row = [f"{trace.times[i]:.12g}", int(trace.modes[i])]
            row += [f"{v:.12g}" for v in x] + [""] * (nx - len(x))
            row += [f"{v:.12g}" for v in trace.outputs[i]]
            if trace.values is not None:
                row.append(f"{trace.values[i]:.12g}")
            wr.writerow(row)
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


def signal_to_json(signal: SwitchingSignal) -> dict:
    return {
        "initial_mode": signal.initial_mode,
        "events": [[t, m] for t, m in signal.events],
    }
