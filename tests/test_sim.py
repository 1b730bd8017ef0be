import csv
import functools
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sldstab import sim
from sldstab.mlf import MlfCertificate, find_mlf, make_certificate
from sldstab.model import SldsModel, load_model
from sldstab.polymat import PolyMatrix
from sldstab.sim import (
    SwitchingSignal,
    Trace,
    asymptotic_check,
    audit_mlf,
    signal_from_json,
    simulate,
    write_trace_csv,
)

from modeltools import (
    corpus_model,
    derivative_stack,
    inconsistent_gluing,
    trace_states,
    unstable_mode,
)

MODELS = Path(__file__).resolve().parents[1] / "models"


def _load_signal(name):
    return signal_from_json(json.loads((MODELS / f"{name}.json").read_text()))


def _circuit_signal(n_events=4, dt=0.5):
    events = []
    mode = 1
    for i in range(n_events):
        mode = 2 if mode == 1 else 1
        events.append(((i + 1) * dt, mode))
    return SwitchingSignal(initial_mode=1, events=tuple(events))


class TestSignal:
    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ValueError):
            SwitchingSignal(1, ((1.0, 2), (1.0, 1)))

    def test_repeated_mode_rejected(self):
        with pytest.raises(ValueError):
            SwitchingSignal(1, ((1.0, 1),))

    @pytest.mark.parametrize("t", [0.0, -0.5, float("nan"), float("inf")])
    def test_nonpositive_times_rejected(self, t):
        with pytest.raises(ValueError, match="event times must be positive"):
            SwitchingSignal(1, ((t, 2), (2.0, 1)))

    def test_event_at_zero_rejected_from_json(self):
        # the schedule would switch to mode 2 at t = 0 while simulate
        # starts the trajectory in mode 1
        doc = {"initial_mode": 1, "events": [[0.0, 2], [0.5, 1]]}
        with pytest.raises(ValueError, match="event times must be positive"):
            signal_from_json(doc)


class TestExactPropagation:
    def test_piecewise_exponential(self):
        """Trace samples match expm of the active mode exactly (1e-12)."""
        model = corpus_model("elcirc")
        sig = _circuit_signal(2, dt=0.4)
        tr = simulate(model, sig, [1.0], t_end=1.0, sample_dt=0.05)
        A1 = model.realizations[0].A
        for t, m, x in zip(tr.times, tr.modes, trace_states(tr)):
            if t <= 0.4 and m == 1:
                want = scipy.linalg.expm(A1 * t) @ np.array([1.0])
                assert abs(x[0] - want[0]) < 1e-12

    def test_semigroup_property(self):
        # splitting a mode interval at an arbitrary point changes nothing
        model = corpus_model("elcirc")
        sig = SwitchingSignal(1, ())
        tr = simulate(model, sig, [1.0], t_end=1.0, sample_dt=0.25)
        A1 = model.realizations[0].A
        half = scipy.linalg.expm(A1 * 0.5)
        assert abs((half @ half @ [1.0])[0] - trace_states(tr)[-1][0]) < 1e-12

    def test_jump_maps(self):
        model = corpus_model("elcirc")
        sig = _circuit_signal(2, dt=0.5)
        tr = simulate(model, sig, [1.0], t_end=1.5, sample_dt=0.1)
        ev12, ev21 = tr.events
        # 1 -> 2 keeps the capacitor voltage, 2 -> 1 halves it
        assert ev12["x_plus"][0] == pytest.approx(ev12["x_minus"][0])
        assert ev21["x_plus"][0] == pytest.approx(0.5 * ev21["x_minus"][0])
        assert ev12["gluing_residual"] < 1e-12

    def test_validation(self):
        model = corpus_model("elcirc")
        with pytest.raises(ValueError):
            simulate(model, _circuit_signal(), [1.0], t_end=-1.0, sample_dt=0.1)
        with pytest.raises(ValueError, match="dimension"):
            simulate(model, _circuit_signal(), [1.0, 2.0], t_end=1.0, sample_dt=0.1)
        bad = SwitchingSignal(1, ((0.5, 2), (0.7, 3)))
        with pytest.raises(ValueError, match="transition"):
            simulate(model, bad, [1.0], t_end=1.0, sample_dt=0.1)

    @pytest.mark.parametrize(
        "x0, t_end, dt, name",
        [
            ([np.nan], 1.0, 0.1, "x0"),
            ([np.inf], 1.0, 0.1, "x0"),
            ([1.0], np.inf, 0.1, "t_end"),
            ([1.0], np.nan, 0.1, "t_end"),
            ([1.0], 1.0, np.nan, "sample_dt"),
            ([1.0], 1.0, np.inf, "sample_dt"),
        ],
    )
    def test_non_finite_input_named(self, x0, t_end, dt, name):
        with pytest.raises(ValueError, match=name):
            simulate(corpus_model("elcirc"), _circuit_signal(), x0, t_end=t_end, sample_dt=dt)


def _direct_gap(model, trace):
    """Worst gap of the trace's x and w to a per-sample ``expm``.

    A segment starts at 0 from the first sample and at each event from the
    trace's ``x_plus``; consecutive modes differ, so the segment of a sample
    is the number of mode changes before it.  The exponentials of a segment
    come from one stacked ``scipy.linalg.expm`` call, one matrix per sample.
    """
    states = trace_states(trace)
    starts = [(0.0, states[0])]
    starts += [(ev["time"], ev["x_plus"]) for ev in trace.events]
    seg = np.concatenate(([0], np.cumsum(trace.modes[1:] != trace.modes[:-1])))
    assert seg[-1] == len(starts) - 1
    worst = 0.0
    for j, (t0, x_start) in enumerate(starts):
        idx = np.flatnonzero(seg == j)
        real = model.realizations[int(trace.modes[idx[0]]) - 1]
        dts = np.maximum(trace.times[idx] - t0, 0.0)
        want = scipy.linalg.expm(real.A[None] * dts[:, None, None]) @ x_start
        X = np.array([states[i] for i in idx])
        worst = max(
            worst,
            float(np.max(np.abs(X - want))),
            float(np.max(np.abs(trace.outputs[idx] - want @ real.C.T))),
        )
    return worst


class TestSteppedPropagation:
    """One step propagator per mode between direct exponentials."""

    def _converter_run(self, certificate=None):
        model = load_model(MODELS / "source_converter_4mode.json")
        sig = _load_signal("converter_cycle")
        x0 = np.ones(model.realizations[sig.initial_mode - 1].n)
        tr = simulate(model, sig, x0, t_end=0.05, sample_dt=1e-5,
                      certificate=certificate)
        return model, tr

    def test_one_expm_call_per_visited_mode(self, monkeypatch):
        calls = []
        expm = scipy.linalg.expm

        def counted(*args, **kwargs):
            calls.append(1)
            return expm(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "expm", counted)
        _, tr = self._converter_run()
        assert len(tr.times) > 5000
        assert len(tr.events) > 5
        assert len(calls) <= len(set(tr.modes.tolist()))

    def _assert_matches_direct(self, model, tr):
        scale = float(np.max(np.abs(tr.outputs)))
        assert _direct_gap(model, tr) <= 1e-11 * scale

    def test_converter_cycle_matches_direct_expm(self):
        model, tr = self._converter_run()
        assert {len(x) for x in trace_states(tr)} == {2, 3}
        self._assert_matches_direct(model, tr)

    def test_elcirc_periodic_matches_direct_expm(self):
        model = corpus_model("elcirc")
        tr = simulate(model, _load_signal("elcirc_periodic"), [1.0],
                      t_end=7.0, sample_dt=1e-3)
        assert len(tr.events) == 6
        self._assert_matches_direct(model, tr)

    def test_long_single_segment_matches_direct_expm(self):
        model = load_model(MODELS / "source_converter_6mode.json")
        x0 = np.ones(model.realizations[0].n)
        tr = simulate(model, SwitchingSignal(1, ()), x0, t_end=0.02,
                      sample_dt=2e-7)
        assert len(tr.times) >= 100_000
        # the slow pole (-100) keeps the state well away from 0 throughout
        assert np.max(np.abs(tr.outputs[-1])) > 0.1 * np.max(np.abs(tr.outputs))
        self._assert_matches_direct(model, tr)

    def test_values_are_quadratic_forms(self):
        model = load_model(MODELS / "source_converter_4mode.json")
        cert = find_mlf(model)
        _, tr = self._converter_run(certificate=cert)
        want = np.array([
            x @ np.asarray(cert.kernels[m - 1]) @ x
            for m, x in zip(tr.modes, trace_states(tr))
        ])
        assert np.max(np.abs(tr.values - want)) <= 1e-12 * np.max(np.abs(want))


def _ring_model(n_modes=3, w=2, seed=5):
    """Modes ``xi I - A_k`` with the common Lyapunov function ``|w|^2``;
    modes ``k`` and ``k + 1`` (mod ``n_modes``) switch both ways through a
    contraction ``w+ = L w-``."""
    rng = np.random.default_rng(seed)
    modes = []
    for _ in range(n_modes):
        N = rng.standard_normal((w, w))
        A = (N - N.T) - (0.5 * np.eye(w) + 0.1 * N @ N.T)
        modes.append(PolyMatrix(np.stack([-A, np.eye(w)])))
    gluing = {}
    for k in range(1, n_modes + 1):
        for a, b in ((k, k % n_modes + 1), (k % n_modes + 1, k)):
            Q = np.linalg.qr(rng.standard_normal((w, w)))[0]
            gluing[(a, b)] = (PolyMatrix(0.5 * Q[None]), PolyMatrix.identity(w))
    return SldsModel(modes=modes, gluing=gluing)


@functools.lru_cache(maxsize=None)
def _property_model(name):
    """A 2-, 3- or 4-mode model and the time scale of its dynamics."""
    return {
        "elcirc": (corpus_model("elcirc"), 1.0),
        "ring3": (_ring_model(), 1.0),
        "converter4": (load_model(MODELS / "source_converter_4mode.json"), 1e-3),
    }[name]


def _relative_gap(model, tr):
    scale = max(float(np.max(np.abs(tr.outputs))),
                max(float(np.max(np.abs(X))) for X in tr.blocks))
    return _direct_gap(model, tr) / scale


class TestBlockedStepping:
    """Grid samples stepped in blocks of ``STEP_BLOCK`` powers of the step."""

    @pytest.mark.parametrize(
        "k",
        [sim.STEP_BLOCK - 1, sim.STEP_BLOCK, sim.STEP_BLOCK + 1, 3 * sim.STEP_BLOCK + 5],
    )
    def test_segment_lengths_match_direct_expm(self, k):
        model = load_model(MODELS / "source_converter_4mode.json")
        dt = 1e-5
        # grid samples 0 .. k-1 in mode 1, then k .. 2k-1 in mode 3
        sig = SwitchingSignal(1, (((k - 0.5) * dt, 3),))
        tr = simulate(model, sig, [1.0, -0.5], t_end=(2 * k - 0.25) * dt,
                      sample_dt=dt)
        # segment 1: k grid samples and x(t-); segment 2 also x(t+)
        assert [X.shape for X in tr.blocks] == [(k + 1, 2), (k + 2, 3)]
        assert _relative_gap(model, tr) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(["elcirc", "ring3", "converter4"]),
        block=st.sampled_from([1, 3, 8, sim.STEP_BLOCK]),
        per_unit=st.integers(20, 400),
        dwells=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_random_schedules_match_direct_expm(self, name, block, per_unit,
                                                dwells, seed):
        model, unit = _property_model(name)
        rng = np.random.default_rng(seed)
        successors = {}
        for k, l in sorted(model.gluing):
            successors.setdefault(k, []).append(l)
        mode, t, events = 1, 0.0, []
        for d in dwells[:-1]:
            t += d * unit
            mode = int(rng.choice(successors[mode]))
            events.append((t, mode))
        x0 = rng.standard_normal(model.realizations[0].n)
        with mock.patch.object(sim, "STEP_BLOCK", block):
            tr = simulate(model, SwitchingSignal(1, tuple(events)), x0,
                          t_end=t + dwells[-1] * unit, sample_dt=unit / per_unit)
        assert not tr.truncated
        assert len(tr.events) == len(events)
        assert _relative_gap(model, tr) <= 1e-12


class TestAudit:
    def test_certified_trace_passes(self):
        model = corpus_model("elcirc")
        cert = make_certificate(model, "lmi", [[[0.5]], [[0.5]]])
        tr = simulate(
            model, _circuit_signal(6), [1.0], t_end=4.0, sample_dt=0.05,
            certificate=cert,
        )
        rep = audit_mlf(tr)
        assert rep["ok"]
        assert rep["violations"] == 0

    def test_corrupted_certificate_flagged(self):
        # a trace carries the values of the certificate it was simulated
        # with, so a bad certificate is audited by re-simulating with it
        model = corpus_model("elcirc")
        good = make_certificate(model, "lmi", [[[0.5]], [[0.5]]])
        bad = make_certificate(model, "lmi", [[[0.5]], [[5.0]]])
        good_run, bad_run = (
            simulate(
                model, _circuit_signal(6), [1.0], t_end=4.0, sample_dt=0.05,
                certificate=cert,
            )
            for cert in (good, bad)
        )
        assert audit_mlf(good_run)["ok"]
        rep = audit_mlf(bad_run)
        assert not rep["ok"]
        assert rep["worst_switch_increase"] > 0
        assert rep["worst_interval_increase"] == 0.0

    def test_zero_trajectory(self):
        model = corpus_model("elcirc")
        cert = make_certificate(model, "lmi", [[[0.5]], [[0.5]]])
        tr = simulate(
            model, _circuit_signal(2), [0.0], t_end=2.0, sample_dt=0.1,
            certificate=cert,
        )
        assert audit_mlf(tr)["ok"]
        assert asymptotic_check(tr)

    def test_non_finite_values_fail(self):
        model = corpus_model("elcirc")
        cert = make_certificate(model, "lmi", [[[0.5]], [[0.5]]])
        tr = simulate(
            model, _circuit_signal(6), [1.0], t_end=4.0, sample_dt=0.05,
            certificate=cert,
        )
        tr.values[5] = np.nan
        tr.values[-1] = np.inf
        rep = audit_mlf(tr)
        assert not rep["ok"]
        assert rep["violations"] >= 2
        assert np.isfinite(rep["tolerance"])

    def test_non_finite_event_values_fail(self):
        model = corpus_model("elcirc")
        cert = make_certificate(model, "lmi", [[[0.5]], [[0.5]]])
        tr = simulate(
            model, _circuit_signal(2), [1.0], t_end=2.0, sample_dt=0.1,
            certificate=cert,
        )
        tr.events[0]["v_plus"] = np.nan
        assert not audit_mlf(tr)["ok"]

    @pytest.mark.parametrize("c", [1.0, 1e-6, 1e-12])
    def test_growing_mlf_fails_at_any_kernel_scale(self, c):
        # mode xi - 0.1 grows V = c x^2 by 22 % over t in [0, 1]; V is
        # homogeneous in K, so shrinking K must not bring the rise under tol
        cert = MlfCertificate("lmi", 1e-7, [np.array([[c]])], {}, {})
        tr = simulate(unstable_mode(0.1), SwitchingSignal(1, ()), [1.0], t_end=1.0,
                      sample_dt=0.1, certificate=cert)
        assert tr.values[-1] / tr.values[0] == pytest.approx(np.exp(0.2))
        rep = audit_mlf(tr)
        assert not rep["ok"]
        assert rep["violations"] == 10
        assert rep["tolerance"] == pytest.approx(sim.AUDIT_REL_TOL * tr.values[-1])

    @pytest.mark.parametrize("c", [1e-6, 1e-12])
    def test_certified_trace_passes_at_any_kernel_scale(self, c):
        model = corpus_model("elcirc")
        cert = make_certificate(model, "lmi", [[[0.5 * c]], [[0.5 * c]]])
        tr = simulate(
            model, _circuit_signal(6), [1.0], t_end=4.0, sample_dt=0.05,
            certificate=cert,
        )
        assert audit_mlf(tr)["ok"]

    def test_audit_recomputes_missing_values(self):
        # it no longer does: values come only from simulate, and a trace
        # simulated without a certificate is refused
        model = corpus_model("elcirc")
        tr = simulate(model, _circuit_signal(6), [1.0], t_end=4.0, sample_dt=0.05)
        assert tr.values is None
        with pytest.raises(ValueError, match="no MLF values"):
            audit_mlf(tr)


class TestAsymptotics:
    def test_stable_decay(self):
        model = corpus_model("elcirc")
        tr = simulate(model, SwitchingSignal(1, ()), [1.0], t_end=20.0, sample_dt=0.5)
        assert asymptotic_check(tr)

    def test_unstable_mode_fails(self):
        model = unstable_mode()
        tr = simulate(model, SwitchingSignal(1, ()), [1.0], t_end=5.0, sample_dt=0.5)
        assert not asymptotic_check(tr)


class TestTruncation:
    @pytest.mark.parametrize("row_scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("x0", [1.0, 1e-3, 1e-6, 1e-9])
    def test_inconsistent_transition_truncates(self, x0, row_scale):
        # gluing demands w_minus = 0 at the switch; a generic state violates
        # it at any scale of the state or of the gluing rows, since the
        # residual is judged against the terms it sums
        model = inconsistent_gluing(row_scale)
        sig = SwitchingSignal(1, ((0.5, 2),))
        tr = simulate(model, sig, [x0], t_end=1.0, sample_dt=0.1)
        assert tr.truncated
        assert tr.events[-1].get("inconsistent")
        assert tr.times[-1] == pytest.approx(0.5)

    @pytest.mark.parametrize("row_scale", [1e-6, 1.0, 1e6])
    def test_zero_state_does_not_truncate(self, row_scale):
        model = inconsistent_gluing(row_scale)
        sig = SwitchingSignal(1, ((0.5, 2),))
        tr = simulate(model, sig, [0.0], t_end=1.0, sample_dt=0.1)
        assert not tr.truncated
        assert tr.events[-1]["gluing_residual"] == 0.0
        assert tr.times[-1] == 1.0


class TestDerivativeStack:
    def test_matches_finite_differences(self):
        model = corpus_model("elcirc")
        x = np.array([0.7])
        stack = derivative_stack(model, 1, x, depth=3)
        A = model.realizations[0].A
        C = model.realizations[0].C
        h = 1e-6
        w = lambda t: C @ scipy.linalg.expm(A * t) @ x
        assert np.allclose(stack[0], w(0.0), atol=1e-12)
        assert np.allclose(stack[1], (w(h) - w(-h)) / (2 * h), atol=1e-5)


def test_trace_csv_export(tmp_path):
    model = corpus_model("elcirc")
    cert = find_mlf(model)
    tr = simulate(
        model, _circuit_signal(2), [1.0], t_end=1.5, sample_dt=0.25,
        certificate=cert,
    )
    csv_path = tmp_path / "trace.csv"
    ev_path = tmp_path / "events.json"
    write_trace_csv(tr, csv_path, ev_path)
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header[:2] == ["t", "mode"]
    assert header[-1] == "V"
    doc = json.loads(ev_path.read_text())
    assert doc["truncated"] is False
    assert len(doc["events"]) == 2


def _csv_writer_reference(trace, path):
    """The trace CSV as ``csv.writer`` writes it, cell by cell."""
    states = trace_states(trace)
    nx = max((len(x) for x in states), default=0)
    nw = trace.outputs.shape[1] if trace.outputs.size else 0
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(
            ["t", "mode"]
            + [f"x{i}" for i in range(nx)]
            + [f"w{i}" for i in range(nw)]
            + (["V"] if trace.values is not None else [])
        )
        for i in range(len(trace.times)):
            x = states[i]
            row = [f"{trace.times[i]:.12g}", int(trace.modes[i])]
            row += [f"{v:.12g}" for v in x] + [""] * (nx - len(x))
            row += [f"{v:.12g}" for v in trace.outputs[i]]
            if trace.values is not None:
                row.append(f"{trace.values[i]:.12g}")
            wr.writerow(row)


class TestTraceCsvBytes:
    def _assert_same_bytes(self, trace, tmp_path):
        write_trace_csv(trace, tmp_path / "new.csv")
        _csv_writer_reference(trace, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_mixed_dimension_converter_trace(self, tmp_path):
        model = load_model(MODELS / "source_converter_4mode.json")
        sig = _load_signal("converter_cycle")
        cert = find_mlf(model)
        tr = simulate(model, sig, [1.0, -0.5], t_end=0.01, sample_dt=1e-5,
                      certificate=cert)
        assert {len(x) for x in trace_states(tr)} == {2, 3}
        self._assert_same_bytes(tr, tmp_path)
        assert b",," in (tmp_path / "new.csv").read_bytes()  # padding cells

    def test_trace_without_certificate(self, tmp_path):
        tr = simulate(corpus_model("elcirc"), _load_signal("elcirc_periodic"), [1.0],
                      t_end=7.0, sample_dt=1e-3)
        assert tr.values is None
        self._assert_same_bytes(tr, tmp_path)
        header = (tmp_path / "new.csv").read_text().splitlines()[0]
        assert header == "t,mode,x0,w0,w1"

    def test_special_numbers(self, tmp_path):
        vals = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300,
                         123456789012345.0, 1.0 / 3.0])
        tr = Trace(
            times=vals,
            modes=np.arange(len(vals)) % 2 + 1,
            blocks=[vals[None, i:i + 1 + i % 2] for i in range(len(vals))],
            outputs=np.stack([vals, vals[::-1]], axis=1),
            values=vals,
        )
        self._assert_same_bytes(tr, tmp_path)

    @staticmethod
    def _special_blocks():
        # runs of dimension 1, 2, 2 (split), 1 and 2 over the special numbers
        vals = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300,
                         123456789012345.0, 1.0 / 3.0])
        blocks = [vals[:2, None], np.stack([vals[2:4], vals[4:6]], axis=1),
                  vals[None, 6:], vals[None, 7:], np.stack([vals[::4], vals[1::4]], axis=1)]
        n = sum(len(X) for X in blocks)
        cells = dict(times=vals[:n], modes=np.arange(n) % 3 + 1,
                     outputs=np.stack([vals[:n], vals[::-1][:n]], axis=1),
                     values=vals[::-1][:n])
        return blocks, cells

    @pytest.mark.parametrize("source", ["converter", "special"])
    def test_mixed_blocks_write_csv_writer_bytes(self, tmp_path, source):
        if source == "converter":
            model = load_model(MODELS / "source_converter_4mode.json")
            tr = simulate(model, _load_signal("converter_cycle"), [1.0, -0.5],
                          t_end=0.004, sample_dt=1e-5, certificate=find_mlf(model))
            blocks = tr.blocks
            cells = dict(times=tr.times, modes=tr.modes, outputs=tr.outputs,
                         values=tr.values)
        else:
            blocks, cells = self._special_blocks()
        assert len({X.shape[1] for X in blocks}) == 2
        tr = Trace(blocks=blocks, **cells)
        assert [len(x) for x in trace_states(tr)] == [X.shape[1] for X in blocks for _ in X]
        self._assert_same_bytes(tr, tmp_path)

    def test_empty_trace(self, tmp_path):
        tr = Trace(times=np.zeros(0), modes=np.zeros(0, dtype=int), blocks=[],
                   outputs=np.zeros((0, 2)), values=None)
        self._assert_same_bytes(tr, tmp_path)
        assert (tmp_path / "new.csv").read_bytes() == b"t,mode\r\n"

    def test_runs_split_into_chunks(self, tmp_path, monkeypatch):
        model = load_model(MODELS / "source_converter_4mode.json")
        tr = simulate(model, _load_signal("converter_cycle"), [1.0, -0.5],
                      t_end=0.004, sample_dt=1e-5)
        monkeypatch.setattr(sim, "CSV_CHUNK_ROWS", 7)
        self._assert_same_bytes(tr, tmp_path)
