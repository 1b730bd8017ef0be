"""Stability analysis of switched linear differential systems.

Modes are autonomous behaviors given by square nonsingular polynomial
matrices; switching is governed by gluing conditions on trajectory
derivatives.  The package computes multiple quadratic Lyapunov functions via
structured LMIs, an algebraic positive-real route for two-mode systems, and
audits certificates against exact simulations.
"""

from .mlf import MlfCertificate, find_mlf, verify_mlf
from .model import SldsModel, is_well_posed, load_model, reinit_maps, save_model
from .polymat import PolyMatrix
from .posreal import (
    StandardSlds,
    build_standard_slds,
    is_strictly_positive_real,
    mlf_from_positive_real,
    positive_real_completion,
    spectral_factorize,
)
from .sim import SwitchingSignal, Trace, audit_mlf, asymptotic_check, simulate

__version__ = "0.1.0"

__all__ = [
    "MlfCertificate",
    "PolyMatrix",
    "SldsModel",
    "StandardSlds",
    "SwitchingSignal",
    "Trace",
    "audit_mlf",
    "asymptotic_check",
    "build_standard_slds",
    "find_mlf",
    "is_strictly_positive_real",
    "is_well_posed",
    "load_model",
    "mlf_from_positive_real",
    "positive_real_completion",
    "reinit_maps",
    "save_model",
    "simulate",
    "spectral_factorize",
    "verify_mlf",
]
