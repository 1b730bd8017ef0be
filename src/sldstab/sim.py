"""Exact simulation of switched trajectories and certificate auditing.

Modes are autonomous LTI systems, so propagation uses the matrix exponential
(``statespace.propagator``, no ODE integrator); switching applies the
re-initialisation maps of the model's gluing conditions.  The audit then
tests the certificate, not an integrator.

``simulate`` works one segment (a maximal interval of one mode) at a time.
It first lists the segments and their grid samples, which depend only on
the signal and the grid, and checks every transition they use.  It then
makes one batched ``propagator`` call per visited mode, for the step
``exp(A_m·dt)`` and for each of the mode's segments the exponentials from
its start to its first grid sample and to its end.  The first grid sample
and the state ``x(t⁻)`` at the end are thus propagated directly from the
segment's start state, so jumps and gluing residuals carry no stepping
error.  The grid samples in between are stepped in blocks: with the powers
``P[j] = E^(j+1)`` of the step ``E`` for ``j < STEP_BLOCK``, made by
doubling, each run of up to ``STEP_BLOCK`` samples is one batched product
``P[:m] @ x``, so rounding grows with the number of blocks, not of steps.
The trace keeps the ``(k, n)`` state array of each segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mlf import MlfCertificate, check_fits
from .model import SldsModel
from .polymat import json_float, json_int, json_list, json_object, write_json
from .statespace import propagator

AUDIT_REL_TOL = 1e-10
CONSISTENCY_FLAG_TOL = 1e-6
ASYMPTOTIC_FACTOR = 1e-6
CSV_CHUNK_ROWS = 1024  # rows formatted at once by write_trace_csv
STEP_BLOCK = 64  # grid samples stepped by one batched product
MAX_SAMPLES = 10_000_000  # grid samples one simulation may hold


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


class Trace:
    """Sampled switched trajectory with one-sided records at events.

    The states are kept in ``blocks``, one ``(k, n)`` array per run of
    consecutive samples (``simulate`` keeps one per segment); a state's
    dimension may vary between blocks.
    """

    def __init__(
        self,
        times: np.ndarray,
        modes: np.ndarray,  # active mode per sample
        blocks: list,  # (k, n) state arrays, one per run of samples
        *,
        outputs: np.ndarray,  # external variables w = C x per sample
        values: np.ndarray | None,  # MLF value per sample (certificate attached)
        events: list | None = None,  # per-switch records
        truncated: bool = False,
    ):
        self.times = times
        self.modes = modes
        self.blocks = blocks
        self.outputs = outputs
        self.values = values
        self.events = [] if events is None else events
        self.truncated = truncated

    def w_norms(self) -> np.ndarray:
        return _norms(self.outputs)


def _norms(X) -> np.ndarray:
    """Euclidean norms along the last axis, without overflow or underflow.

    A row whose plain norm lies outside ``(1e-150, 1e150)``, where a square
    may have left double precision, is recomputed as ``m |x / m|`` with
    ``m = max |x|``; a row with a non-finite entry keeps ``m`` (``inf`` or
    ``NaN``) as its norm.
    """
    X = np.asarray(X, dtype=float)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(X, axis=-1)
    bad = ~((n > 1e-150) & (n < 1e150))
    if bad.any():
        Y = X[bad]
        m = np.max(np.abs(Y), axis=-1, initial=0.0)
        scale = np.where(np.isfinite(m) & (m > 0.0), m, 1.0)
        n[bad] = np.where(np.isfinite(m), scale * np.linalg.norm(Y / scale[:, None], axis=-1), m)
    return n


def _powers(E: np.ndarray) -> np.ndarray:
    """``P[j] = E^(j+1)`` for ``j < STEP_BLOCK``, by repeated doubling."""
    P = np.empty((STEP_BLOCK,) + E.shape)
    P[0] = E
    b = 1
    while b < STEP_BLOCK:
        c = min(b, STEP_BLOCK - b)
        P[b:b + c] = P[:c] @ P[b - 1]
        b += c
    return P


def _step(P: np.ndarray, X: np.ndarray) -> None:
    """Fill ``X[1:]`` with ``E^i X[0]``, one batched product per block."""
    s, last = 0, len(X) - 1
    while s < last:
        m = min(len(P), last - s)
        X[s + 1:s + 1 + m] = P[:m] @ X[s]
        s += m


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
    and stops there.  Invalid input raises ``ValueError`` before anything is
    propagated: a grid of more than ``MAX_SAMPLES`` samples, a mode out of
    range, a transition the model lacks, a certificate that does not fit or
    an ``x0`` whose value ``x0^T K x0`` under it is not finite.
    """
    for name, v in (("t_end", t_end), ("sample_dt", sample_dt)):
        if not (np.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    n_grid = np.ceil(t_end / sample_dt + 0.5)  # len(np.arange) of the grid
    if n_grid > MAX_SAMPLES:
        raise ValueError(
            f"t_end/sample_dt asks for {n_grid:.6g} grid samples, "
            f"more than the {MAX_SAMPLES} a simulation may hold"
        )
    mode = signal.initial_mode
    if not (1 <= mode <= model.n_modes):
        raise ValueError(f"initial mode {mode} out of range")
    x = np.asarray(x0, dtype=float).ravel()
    if x.shape[0] != model.realizations[mode - 1].n:
        raise ValueError(
            f"x0 has dimension {x.shape[0]}, mode {mode} expects "
            f"{model.realizations[mode - 1].n}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be finite, got {x.tolist()}")
    kernels = None
    if certificate is not None:
        check_fits(model, certificate)
        kernels = [np.asarray(K, dtype=float) for K in certificate.kernels]
        with np.errstate(over="ignore", invalid="ignore"):
            v0 = x @ kernels[mode - 1] @ x
        if not np.isfinite(v0):
            raise ValueError(
                f"x0^T K x0 is not finite for mode {mode}'s kernel K (got {v0}); "
                "rescale x0"
            )
    rmaps = model.reinits
    nf = model.normal_form_pairs

    # the segments (mode, start, end), each transition checked
    segments = []
    start = 0.0
    for t_switch, next_mode in signal.events:
        if t_switch >= t_end:
            break
        if (mode, next_mode) not in rmaps:
            raise ValueError(f"signal uses missing transition {mode}->{next_mode}")
        segments.append((mode, start, t_switch))
        mode, start = next_mode, t_switch
    segments.append((mode, start, t_end))
    seg_modes = np.array([m for m, _, _ in segments])
    starts = np.array([s for _, s, _ in segments])
    ends = np.array([e for _, _, e in segments])

    # grid samples g0[i]:g1[i] lie inside [start, end) of segment i; one
    # within rounding below its start samples the start
    grid = np.arange(0.0, t_end + 0.5 * sample_dt, sample_dt)
    g1 = np.searchsorted(grid, ends - 1e-15)
    g0 = np.concatenate(([0], g1[:-1]))
    offsets = np.maximum(grid[np.minimum(g0, len(grid) - 1)] - starts, 0.0)

    # one propagator call per visited mode: the step, then per segment the
    # exponentials to its first grid sample and to its end
    step, to_first, to_end = {}, {}, {}
    for m in np.unique(seg_modes).tolist():
        idx = np.flatnonzero(seg_modes == m)
        Es = propagator(
            model.realizations[m - 1].A,
            np.concatenate(([sample_dt], offsets[idx], ends[idx] - starts[idx])),
        )
        step[m] = Es[0]
        to_first.update(zip(idx.tolist(), Es[1:1 + len(idx)]))
        to_end.update(zip(idx.tolist(), Es[1 + len(idx):]))

    # one (k, n) block per segment: its t+ state (after the first segment),
    # its grid samples and its t- state, all in the segment's mode
    blocks, seg_times = [], []
    powers = {}  # mode -> _powers of its step, made on first use
    truncated = False
    event_records = []
    for i, (mode, start, end) in enumerate(segments):
        k = int(g1[i] - g0[i])
        X = np.empty((k + 2, x.shape[0]))
        X[0] = x
        if k:
            X[1] = to_first[i] @ x
        if k > 1:
            P = powers.get(mode)
            if P is None:
                P = powers[mode] = _powers(step[mode])
            _step(P, X[1:k + 1])
        x_minus = X[k + 1] = to_end[i] @ x
        # the first segment's start is its first grid sample, not a t+ state
        t_plus = [start] if i else []
        seg_times.append(np.concatenate((t_plus, grid[g0[i]:g1[i]], [end])))
        blocks.append(X[1 - len(t_plus):])
        if i + 1 == len(segments):
            break
        next_mode = segments[i + 1][0]
        key = (mode, next_mode)
        x_plus = rmaps[key] @ x_minus
        pair = nf[key]
        glued_plus, glued_minus = pair.f_plus @ x_plus, pair.f_minus @ x_minus
        # judged against the terms it sums, at any scale of the state
        # math.hypot squares nothing, so a large state does not overflow
        resid = math.hypot(*(glued_plus - glued_minus))
        scale = math.hypot(*glued_plus) + math.hypot(*glued_minus)
        ev = {
            "time": end,
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
        x = x_plus

    used = seg_modes[:len(blocks)].tolist()
    outputs = [X @ model.realizations[m - 1].C.T for m, X in zip(used, blocks)]
    values = None
    if kernels is not None:
        values = np.concatenate([
            np.einsum("ij,jk,ik->i", X, kernels[m - 1], X)
            for m, X in zip(used, blocks)
        ])
    return Trace(
        times=np.concatenate(seg_times),
        modes=np.concatenate([np.full(len(t), m) for t, m in zip(seg_times, used)]),
        blocks=blocks,
        outputs=np.concatenate(outputs),
        values=values,
        events=event_records,
        truncated=truncated,
    )


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
    # relative to the largest finite value with no floor: V is homogeneous
    # in K, so a floor would let a small enough K pass anything
    tol = AUDIT_REL_TOL * float(np.max(np.abs(values[finite]), initial=0.0))
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
    ``\\r\\n`` line ends.  Each state block is formatted by one ``%`` per
    chunk of at most ``CSV_CHUNK_ROWS`` rows.
    """
    nx = max((X.shape[1] for X in trace.blocks), default=0)
    nw = trace.outputs.shape[1] if trace.outputs.size else 0
    has_v = trace.values is not None
    header = (
        ["t", "mode"]
        + [f"x{i}" for i in range(nx)]
        + [f"w{i}" for i in range(nw)]
        + (["V"] if has_v else [])
    )
    tail = ",%.12g" * nw + (",%.12g" if has_v else "") + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        row = 0  # trace row of the block's first state
        for X in trace.blocks:
            k, d = X.shape
            fmt = "%.12g,%d" + ",%.12g" * d + "," * (nx - d) + tail
            for a in range(0, k, CSV_CHUNK_ROWS):
                b = min(a + CSV_CHUNK_ROWS, k)
                rows = slice(row + a, row + b)
                cells = [
                    trace.times[rows, None],
                    trace.modes[rows, None],
                    X[a:b],
                    trace.outputs[rows].reshape(b - a, nw),
                ]
                if has_v:
                    cells.append(trace.values[rows, None])
                fh.write(fmt * (b - a) % tuple(np.hstack(cells).ravel().tolist()))
            row += k
    if events_path is not None:
        evs = []
        for ev in trace.events:
            evs.append(
                {
                    k: (v.tolist() if isinstance(v, np.ndarray) else v)
                    for k, v in ev.items()
                }
            )
        write_json(events_path, {"truncated": trace.truncated, "events": evs})


def signal_from_json(doc: dict) -> SwitchingSignal:
    """Read a signal file; a missing or wrong-typed field is a ``ValueError``
    that names it."""
    json_object(doc, "signal file", ("initial_mode",))
    initial_mode = json_int(doc["initial_mode"], "initial_mode")
    events = []
    for i, ev in enumerate(json_list(doc.get("events", []), "events"), start=1):
        if not isinstance(ev, list) or len(ev) != 2:
            raise ValueError(f"event {i} must be a [time, mode] pair, got {ev!r}")
        events.append((json_float(ev[0], f"event {i} time"), json_int(ev[1], f"event {i} mode")))
    return SwitchingSignal(
        initial_mode=initial_mode,
        events=tuple(events),
    )

