"""Command-line front end.

Exit codes: 0 = certified / success, 1 = invalid input, 2 = no certificate
found (which is *not* a proof of instability), 3 = simulation audit failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from functools import cache

import numpy as np

from . import posreal as pr
from .mlf import (
    certificate_to_json,
    find_mlf,
    load_certificate,
    save_certificate,
    verify_mlf,
)
from .model import is_well_posed, load_model, model_to_json, modes_hurwitz, save_model
from .polymat import polymatrix_from_json, polymatrix_to_json
from .sdp import DEFAULT_BUDGET
from .sim import audit_mlf, asymptotic_check, signal_from_json, simulate, write_trace_csv

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CERT = 2
EXIT_AUDIT = 3

def _require_positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite")


def cmd_check(args) -> int:
    model = load_model(args.model)
    hur = modes_hurwitz(model)
    if not all(hur):
        bad = [i + 1 for i, h in enumerate(hur) if not h]
        print(f"invalid: modes {bad} are not Hurwitz (det R has roots in Re >= 0)")
        return EXIT_INVALID
    verdicts, ok = is_well_posed(model)
    if not ok:
        for (k, l), v in sorted(verdicts.items()):
            if not v:
                print(f"invalid: transition {k}->{l} is not well-posed "
                      "(F+ rank deficient)")
        return EXIT_INVALID
    if args.verify_only:
        cert = load_certificate(args.verify_only)
        ok, margins = verify_mlf(model, cert)
        for name, m in sorted(margins.items()):
            print(f"  {name}: margin {m:.6e}")
        print("certificate verifies" if ok else "certificate FAILS verification")
        return EXIT_OK if ok else EXIT_NO_CERT
    for flag, value in (("--eps", args.eps), ("--budget", args.budget)):
        if value is not None:
            _require_positive(flag, value)
    cert = find_mlf(model, eps=args.eps, budget=args.budget)
    print(f"route {cert.route}: feasible={cert.feasible} "
          f"(iterations {cert.solver['iterations']})")
    if not cert.feasible:
        print("no certificate found; this does NOT prove instability "
              "(quadratic MLFs are sufficient only)")
        return EXIT_NO_CERT
    worst = min(cert.margins.values())
    print(f"certified stable; {len(cert.margins)} constraints, "
          f"worst margin {worst:.3e}")
    if args.out:
        save_certificate(cert, args.out)
        print(f"certificate written to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    with open(args.signal) as fh:
        signal = signal_from_json(json.load(fh))
    x0 = np.array([float(v) for v in args.x0.split(",")])
    cert = load_certificate(args.cert) if args.cert else None
    trace = simulate(model, signal, x0, args.t_end, args.dt, certificate=cert)
    if args.out:
        write_trace_csv(trace, args.out, events_path=args.out + ".events.json")
        print(f"trace written to {args.out}")
    if trace.truncated:
        print("trajectory truncated: inconsistent transition traversed")
        return EXIT_INVALID
    print(f"samples: {len(trace.times)}, events: {len(trace.events)}, "
          f"decayed: {asymptotic_check(trace)}")
    if cert is not None:
        report = audit_mlf(trace)
        print(f"audit: ok={report['ok']} violations={report['violations']} "
              f"worst_interval={report['worst_interval_increase']:.3e} "
              f"worst_switch={report['worst_switch_increase']:.3e}")
        if not report["ok"]:
            return EXIT_AUDIT
    return EXIT_OK


def _load_pair(args):
    pair = []
    for flag, path in (("--r1", args.r1), ("--r2", args.r2)):
        with open(path) as fh:
            try:
                pair.append(polymatrix_from_json(json.load(fh)))
            except ValueError as exc:
                raise ValueError(f"{flag} {path}: {exc}") from None
    return tuple(pair)


def cmd_posreal(args) -> int:
    R1, R2 = _load_pair(args)
    if args.action == "sprcheck":
        ok, witness = pr.is_strictly_positive_real(R2, R1)
        print(f"R2 R1^-1 strictly positive real: {ok}")
        if not ok:
            print(f"witness: {witness}")
        return EXIT_OK if ok else EXIT_NO_CERT
    std = pr.build_standard_slds(R1, R2)
    try:
        cert = pr.mlf_from_positive_real(std)
    except ValueError as exc:
        print(f"no certificate: {exc}")
        return EXIT_NO_CERT
    if not cert.feasible:
        name = min(cert.margins, key=cert.margins.get)
        print(f"certificate FAILS verification: worst margin "
              f"{cert.margins[name]:.3e} ({name}); nothing written")
        return EXIT_NO_CERT
    if args.action == "mlf":
        if args.out:
            save_certificate(cert, args.out)
            base, ext = os.path.splitext(args.out)
            model_path = base + "_model" + (ext or ".json")
            save_model(std.model, model_path)
            print(f"certificate -> {args.out}, model -> {model_path}")
        else:
            print(json.dumps(certificate_to_json(cert), indent=2))
        return EXIT_OK
    # action == "complete"
    M = pr.positive_real_completion(std, cert)
    doc = polymatrix_to_json(M)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"completion written to {args.out}")
    else:
        print(json.dumps(doc))
    return EXIT_OK


def cmd_standard(args) -> int:
    R1, R2 = _load_pair(args)
    std = pr.build_standard_slds(R1, R2)
    if args.out:
        save_model(std.model, args.out)
        print(f"standard model written to {args.out}")
    else:
        print(json.dumps(model_to_json(std.model), indent=2))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse under the exit-code contract: a usage error exits 1 (invalid
    input), since 2 means "no certificate".  A word that starts with a minus
    and a digit, such as the ``-1,0.5`` of ``--x0 -1,0.5``, is a value, not
    an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``slds`` parser, built once per process."""
    p = _Parser(prog="slds", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="find/verify a stability certificate")
    c.add_argument("model")
    c.add_argument("--route", choices=["exact", "conservative", "all"], default="all",
                   help="accepted for compatibility: every value runs the one search")
    c.add_argument("--out")
    c.add_argument("--eps", type=float)
    c.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    c.add_argument("--verify-only", metavar="CERT")
    c.set_defaults(fn=cmd_check)

    s = sub.add_parser("simulate", help="exact switched simulation")
    s.add_argument("model")
    s.add_argument("--signal", required=True)
    s.add_argument("--x0", required=True, help="comma-separated initial state")
    s.add_argument("--t-end", type=float, required=True)
    s.add_argument("--dt", type=float, required=True)
    s.add_argument("--cert")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_simulate)

    q = sub.add_parser("posreal", help="positive-real route for two-mode pairs")
    q.add_argument("action", choices=["sprcheck", "mlf", "complete"])
    q.add_argument("--r1", required=True)
    q.add_argument("--r2", required=True)
    q.add_argument("--out")
    q.set_defaults(fn=cmd_posreal)

    t = sub.add_parser("standard", help="emit the standard two-mode SldsModel")
    t.add_argument("--r1", required=True)
    t.add_argument("--r2", required=True)
    t.add_argument("--out")
    t.set_defaults(fn=cmd_standard)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
