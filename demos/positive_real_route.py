#!/usr/bin/env python3
"""Algebraic (LMI-free) certificate for a standard two-mode pair.

For mode pairs (R1, R2) with R2 R1^{-1} strictly proper and strictly
positive real, a storage-function argument produces the multiple Lyapunov
function in closed form; the same model is then re-certified by the generic
LMI route as a cross-check.  Conversely, the storage certificate yields the
positive-real completion M = I: the closed form M = H_p P is the identity
exactly, so M R2 R1^{-1} is R2 R1^{-1} and strictly positive real.
"""

import json
from pathlib import Path

import numpy as np

from sldstab import (
    build_standard_slds,
    find_mlf,
    is_strictly_positive_real,
    mlf_from_positive_real,
    positive_real_completion,
    spectral_factorize,
)
from sldstab.polymat import polymatrix_from_json
from sldstab.posreal import para_hermitian_boundary

MODELS = Path(__file__).resolve().parents[1] / "models"
R1, R2 = (
    polymatrix_from_json(json.loads((MODELS / f"standard_scalar_{r}.json").read_text()))
    for r in ("r1", "r2")
)
ok, witness = is_strictly_positive_real(R2, R1)
print(f"R2 R1^-1 strictly positive real: {ok}")

P = para_hermitian_boundary(R2, R1)
Q = spectral_factorize(P, R1=R1)
print(f"boundary polynomial {P.coeffs.ravel()}  ->  spectral factor "
      f"Q = {Q.Q.coeffs.ravel()}")

std = build_standard_slds(R1, R2)
cert = mlf_from_positive_real(std)
print("storage-function kernels:")
print("  K1 =", np.asarray(cert.kernels[0]).tolist())
print("  K2 =", np.asarray(cert.kernels[1]).tolist())

lmi_cert = find_mlf(std.model)
print(f"generic LMI route on the same model: feasible={lmi_cert.feasible}")

M = positive_real_completion(std, cert)
print(f"completion M = {M.coeffs.ravel()}  "
      f"(M R2 R1^-1 SPR: {is_strictly_positive_real(M @ R2, R1)[0]})")
