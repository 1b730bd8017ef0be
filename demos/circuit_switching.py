#!/usr/bin/env python3
"""Two-mode RC circuit: charge-sharing switches and the resulting MLF trace.

The circuit's two modes share the dynamics w2' + w2 = 0; switching into
mode 1 parallels the capacitors, halving both voltages, so the quadratic
value w2^2 drops by a factor 4 at every 2->1 event.  A trace is evidence
for the certificate it was simulated with: kernels (0.5, 5.0), which grow
at every 1->2 event, are audited by simulating with them.
"""

from pathlib import Path

import numpy as np

from sldstab import audit_mlf, find_mlf, load_model, simulate
from sldstab.mlf import make_certificate
from sldstab.sim import SwitchingSignal

model = load_model(Path(__file__).resolve().parents[1] / "models" / "elcirc.json")
cert = find_mlf(model)
print(f"certificate found: {cert.feasible} "
      f"(kernels {[np.asarray(K).tolist() for K in cert.kernels]})")

signal = SwitchingSignal(1, ((1.0, 2), (2.0, 1), (3.0, 2), (4.0, 1)))
trace = simulate(model, signal, np.array([1.0]), 8.0, 0.01, certificate=cert)

for ev in trace.events:
    ratio = ev["v_plus"] / ev["v_minus"] if ev["v_minus"] else float("nan")
    print(f"  t={ev['time']:.1f}  {ev['from']}->{ev['to']}  "
          f"V-/V+ = {ev['v_minus']:.4e} / {ev['v_plus']:.4e}  (ratio {ratio:.3f})")

report = audit_mlf(trace)
print(f"audit: ok={report['ok']}  final |w| = {trace.w_norms()[-1]:.2e}")

bad = make_certificate(model, "lmi", [[[0.5]], [[5.0]]])
trace = simulate(model, signal, np.array([1.0]), 8.0, 0.01, certificate=bad)
report = audit_mlf(trace)
print(f"kernels (0.5, 5.0): verified={bad.feasible}  audit: ok={report['ok']} "
      f"worst switch increase {report['worst_switch_increase']:.3e}")
