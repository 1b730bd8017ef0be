"""Layer instrumentation applied from outside the library.

``Instrument`` wraps named sldstab functions in place.  Every binding of a
function object is patched, in the module that defines it and in every module
that imported it by name (``normal_form`` lives in ``model`` and ``sim``,
``reinit_maps`` in ``model``, ``mlf`` and ``sim``, ``load_model`` in ``model``
and ``cli``, ...); patching only the defining module would miss those calls.

With ``spans=False`` the wrappers only count: that is the cheap mode used in
the measured (untraced) run for the exact counters.  With ``spans=True`` each
call also records a span ``(id, parent, name, start, end)``, and the self time
of a name is its span durations minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import time

import numpy as np
import scipy.linalg

import sldstab
from sldstab import cli, mlf, model, polymat, posreal, qdf, sdp, sim, statespace

# Spans and suspended time run on the process CPU clock.  On a shared machine
# the hypervisor takes the core away for up to 15 % of the wall time (steal
# time), in bursts; that time belongs to no layer.
CLOCK = time.process_time

# (module, qualified name in that module) -> layer metric stem
SPANS = {
    (sdp, "LmiProblem.solve"): "sdp.solve",
    (sdp, "LmiProblem.verify"): "sdp.verify",
    (mlf, "find_mlf"): "mlf.find",
    (mlf, "assemble_mlf_lmis"): "mlf.assemble",
    (mlf, "verify_mlf"): "mlf.verify",
    (mlf, "problem_scale"): "mlf.problem_scale",
    (model, "load_model"): "model.load",
    (model, "normal_form"): "model.normal_form",
    (model, "is_well_posed"): "model.well_posed",
    (model, "reinit_maps"): "model.reinit_maps",
    (polymat, "canonical_rep"): "polymat.canonical_rep",
    (polymat, "determinant"): "polymat.determinant",
    (polymat, "column_reduce"): "polymat.column_reduce",
    (polymat, "poly_roots"): "polymat.roots",
    (statespace, "minimal_state_map"): "statespace.minimal_state_map",
    (statespace, "realize"): "statespace.realize",
    (statespace, "eigenstructure"): "statespace.eigenstructure",
    (qdf, "divide_by_zeta_plus_eta"): "qdf.divide",
    (qdf, "qdf_mod"): "qdf.mod",
    (qdf, "to_canonical"): "qdf.to_canonical",
    (posreal, "is_strictly_positive_real"): "posreal.sprcheck",
    (posreal, "build_standard_slds"): "posreal.build",
    (posreal, "spectral_factorize"): "posreal.factor",
    (posreal, "mlf_from_positive_real"): "posreal.mlf",
    (posreal, "positive_real_completion"): "posreal.complete",
    (sim, "simulate"): "sim.simulate",
    (sim, "audit_mlf"): "sim.audit",
    (sim, "write_trace_csv"): "sim.export",
    (cli, "main"): "cli",
}

# Stems wrapped in the counting mode, which serves the exact counters of
# ``Instrument.counters`` (``sdp.solve`` for its Newton steps).
COUNTED = {"sdp.solve", "sdp.verify", "model.normal_form"}

# Per-layer metrics in report order: (name, unit, source).  A source
# ("self", stem) is the self time of that stem; ("calls", stem) its call
# count; ("value", key) an accumulated value; ("min", "headroom") the guard.
PER_LAYER = [
    ("sdp.solve_s", "s", ("self", "sdp.solve")),
    ("sdp.solve_setup_s", "s", ("value", "sdp.solve_setup_s")),
    ("sdp.newton_steps", "count", ("value", "sdp.newton_steps")),
    ("sdp.verify_calls", "count", ("calls", "sdp.verify")),
    ("sdp.verify_s", "s", ("self", "sdp.verify")),
    ("sdp.n_params", "count", ("value", "sdp.n_params")),
    ("sdp.n_constraints", "count", ("value", "sdp.n_constraints")),
    ("sdp.cone_rows", "count", ("value", "sdp.cone_rows")),
    ("mlf.find_s", "s", ("self", "mlf.find")),
    ("mlf.assemble_s", "s", ("self", "mlf.assemble")),
    ("mlf.assemble_calls", "count", ("calls", "mlf.assemble")),
    ("mlf.verify_s", "s", ("self", "mlf.verify")),
    ("mlf.problem_scale_s", "s", ("self", "mlf.problem_scale")),
    ("mlf.headroom", "ratio", ("min", "headroom")),
    ("model.load_s", "s", ("self", "model.load")),
    ("model.normal_form_s", "s", ("self", "model.normal_form")),
    ("model.normal_form_calls", "count", ("calls", "model.normal_form")),
    ("model.well_posed_s", "s", ("self", "model.well_posed")),
    ("model.reinit_maps_s", "s", ("self", "model.reinit_maps")),
    ("polymat.canonical_rep_s", "s", ("self", "polymat.canonical_rep")),
    ("polymat.canonical_rep_calls", "count", ("calls", "polymat.canonical_rep")),
    ("polymat.determinant_s", "s", ("self", "polymat.determinant")),
    ("polymat.determinant_calls", "count", ("calls", "polymat.determinant")),
    ("polymat.column_reduce_s", "s", ("self", "polymat.column_reduce")),
    ("polymat.roots_s", "s", ("self", "polymat.roots")),
    ("statespace.minimal_state_map_s", "s", ("self", "statespace.minimal_state_map")),
    ("statespace.realize_s", "s", ("self", "statespace.realize")),
    ("statespace.eigenstructure_s", "s", ("self", "statespace.eigenstructure")),
    ("statespace.eigenstructure_calls", "count", ("calls", "statespace.eigenstructure")),
    ("qdf.divide_s", "s", ("self", "qdf.divide")),
    ("qdf.mod_s", "s", ("self", "qdf.mod")),
    ("qdf.to_canonical_s", "s", ("self", "qdf.to_canonical")),
    ("posreal.sprcheck_s", "s", ("self", "posreal.sprcheck")),
    ("posreal.build_s", "s", ("self", "posreal.build")),
    ("posreal.factor_s", "s", ("self", "posreal.factor")),
    ("posreal.mlf_s", "s", ("self", "posreal.mlf")),
    ("posreal.complete_s", "s", ("self", "posreal.complete")),
    ("sim.simulate_s", "s", ("self", "sim.simulate")),
    ("sim.audit_s", "s", ("self", "sim.audit")),
    ("sim.export_s", "s", ("self", "sim.export")),
    ("sim.samples", "count", ("value", "sim.samples")),
    ("sim.events", "count", ("value", "sim.events")),
    ("sim.expm_calls", "count", ("value", "sim.expm_calls")),
    ("cli.self_s", "s", ("self", "cli")),
]


def _resolve(module, qualname):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Instrument:
    """Counters (and, with ``spans=True``, spans) around sldstab layer calls."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.calls: dict[str, int] = {}
        self.values: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self._suspended = False
        self.headroom = math.inf
        self.hidden_s = 0.0  # CPU time spent suspended, e.g. the budget=0 re-solves

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        mods = (sldstab, cli, mlf, model, polymat, posreal, qdf, sdp, sim, statespace)
        for (module, qualname), stem in SPANS.items():
            if not self.spans_on and stem not in COUNTED:
                continue
            owner, attr, orig = _resolve(module, qualname)
            wrapper = self._wrap(stem, orig)
            setattr(owner, attr, wrapper)
            for m in mods:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, name, wrapper)
        expm = scipy.linalg.expm

        @functools.wraps(expm)
        def counted_expm(*args, **kwargs):
            if not self._suspended:
                self._add("sim.expm_calls", 1)
            return expm(*args, **kwargs)

        scipy.linalg.expm = counted_expm

    def _add(self, key, amount):
        self.values[key] = self.values.get(key, 0) + amount

    def _wrap(self, stem, orig):
        after = getattr(self, "_after_" + stem.replace(".", "_"), None)
        sig = inspect.signature(orig) if after is not None else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self._suspended:
                return orig(*args, **kwargs)
            self.calls[stem] = self.calls.get(stem, 0) + 1
            if not self.spans_on:
                out = orig(*args, **kwargs)
                if after is not None:
                    after(sig.bind(*args, **kwargs), out)
                return out
            frame = [self._next_id, stem, CLOCK(), 0.0]
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append(frame)
            try:
                out = orig(*args, **kwargs)
            finally:
                end = CLOCK()
                self._stack.pop()
                dur = end - frame[2]
                self.self_time[stem] = self.self_time.get(stem, 0.0) + dur - frame[3]
                if self._stack:
                    self._stack[-1][3] += dur
                self.spans.append((frame[0], parent, stem, frame[2], end))
            if after is not None:
                after(sig.bind(*args, **kwargs), out)
            return out

        return wrapper

    @contextlib.contextmanager
    def suspended(self):
        """Run uninstrumented; the time counts in no span's self time."""
        if self._suspended:
            yield
            return
        self._suspended = True
        start = CLOCK()
        try:
            yield
        finally:
            took = CLOCK() - start
            self.hidden_s += took
            if self._stack:
                self._stack[-1][3] += took
            self._suspended = False

    # -- per-call extras -----------------------------------------------------

    def _after_sdp_solve(self, bound, report):
        self._add("sdp.newton_steps", report.iterations)
        if not self.spans_on:
            return
        args = bound.arguments
        prob = args["self"]
        self._add("sdp.n_params", prob.n_params)
        self._add("sdp.n_constraints", len(prob.constraints))

        with self.suspended():
            zero = prob._unpack(np.zeros(prob.n_params))
            rows = sum(
                np.asarray(c.expr(zero)).shape[0]
                for c in prob.constraints
                if c.sense != "zero"
            )
            start = CLOCK()
            prob.solve(args["eps"], budget=0, warm_start=args.get("warm_start"))
            setup_s = CLOCK() - start
        self._add("sdp.cone_rows", rows)
        self._add("sdp.solve_setup_s", setup_s)

    def _after_mlf_verify(self, bound, result):
        ok, margins = result
        if ok and margins:
            args = bound.arguments
            eps = args.get("eps")
            if eps is None:
                eps = args["cert"].epsilon
            self.headroom = min(self.headroom, min(margins.values()) / eps)

    def _after_sim_simulate(self, bound, trace):
        self._add("sim.samples", len(trace.times))
        self._add("sim.events", len(trace.events))

    # -- reporting -----------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far except the headroom guard."""
        self.calls.clear()
        self.values.clear()
        self.self_time.clear()
        self.spans.clear()

    def counters(self) -> dict:
        """The exact counters so far."""
        return {
            "sdp.newton_steps": int(self.values.get("sdp.newton_steps", 0)),
            "sdp.verify_calls": self.calls.get("sdp.verify", 0),
            "model.normal_form_calls": self.calls.get("model.normal_form", 0),
            "sim.expm_calls": int(self.values.get("sim.expm_calls", 0)),
        }

    def per_layer(self, rounds: int, speed: float = 1.0) -> dict:
        """Per-layer metrics per round (``mlf.headroom`` is a minimum).

        Times are multiplied by ``speed``, the run's reference scale factor.
        """
        out = {}
        for name, unit, (kind, key) in PER_LAYER:
            if kind == "min":
                value = self.headroom if math.isfinite(self.headroom) else 0.0
            elif kind == "self":
                value = self.self_time.get(key, 0.0) / rounds
            elif kind == "calls":
                value = self.calls.get(key, 0) / rounds
            else:
                value = self.values.get(key, 0) / rounds
            if unit == "s":
                value *= speed
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "start", "end"], "spans": self.spans},
                fh,
            )
