#!/usr/bin/env python3
"""Certify the 4-mode DC-DC converter and audit the certificate in simulation.

Walks the full pipeline: mode frequencies, eigenstructure, LMI certificate,
and an exact switched simulation audited against the certificate.
"""

from pathlib import Path

import numpy as np

from sldstab import audit_mlf, find_mlf, load_model, simulate, verify_mlf
from sldstab.sim import SwitchingSignal
from sldstab.statespace import eigenstructure

model = load_model(Path(__file__).resolve().parents[1] / "models" / "source_converter_4mode.json")

print("mode characteristic frequencies:")
for k, real in enumerate(model.realizations, start=1):
    lam = np.sort_complex(np.linalg.eigvals(real.A))
    print(f"  mode {k}: {np.array2string(lam, precision=1)}")

eig1 = eigenstructure(model.modes[0], model.state_maps[0])
print("\nmode-1 eigenvector matrix V1 =\n", np.real_if_close(eig1.V))

cert = find_mlf(model)
ok, margins = verify_mlf(model, cert)
print(f"\ncertificate: feasible={cert.feasible} verified={ok} "
      f"worst margin {min(margins.values()):.3e}")

signal = SwitchingSignal(1, ((0.0005, 2), (0.001, 1), (0.0015, 3), (0.002, 4)))
trace = simulate(model, signal, np.array([1.0, 1.0]), 0.05, 1e-5,
                 certificate=cert)
report = audit_mlf(trace)
print(f"\nsimulation audit over {len(trace.times)} samples / "
      f"{len(trace.events)} switches: ok={report['ok']}, "
      f"violations={report['violations']}")
print(f"final |w| / initial |w| = {trace.w_norms()[-1] / trace.w_norms()[0]:.2e}")
