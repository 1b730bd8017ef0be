"""The workloads: inputs made from a seed, one round of operations, and
the checks that compare the program's outputs with computations made apart
from it.

An operation is one timed unit of work, made of one or more ``slds`` calls
through ``sldstab.cli.main``.  Each round runs the same operations in the
same order.  After an operation, ``judge`` decides from exit codes (and, for
``posreal``, an untimed ``--verify-only`` re-check) whether it is ``ok``,
``failed`` (the program produced no valid result) or ``wrong`` (it produced a
result that contradicts the ground truth).  The heavier checks in ``check``
read the files of the first round; later rounds must reproduce every output
byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import pathlib

import numpy as np
import numpy.polynomial.polynomial as npoly
import scipy.linalg

import gen

OK, FAILED, WRONG = "ok", "failed", "wrong"

# Family members per round: one per (w, modes) pair, ``FAMILY_SETS`` times.
FAMILY_SHAPES = [(w, m) for w in (2, 3) for m in (2, 3, 4)]
# Generated models (and set-up certificates) go through the conservative
# route: on some draws the exact route's Newton loop stalls for the whole
# 50,000-step budget although the conservative certificate, which also
# satisfies the exact LMIs, is found in ~30 steps (see README.md).  The
# corpus still runs both routes.
FAMILY_ROUTE = ("--route", "conservative")

# Tolerances of the independent checks.
EIG_RTOL = 1e-6  # realization eigenvalues vs roots of det R_k
TRACE_RTOL = 1e-7  # w(t) of the trace vs propagation in w coordinates
DT_RTOL = 1e-10  # shared samples of the dt and 2·dt traces
GLUE_RTOL = 1e-9  # gluing residual at an event, relative to |x⁻|
MONO_RTOL = 1e-9  # certificate increase along a trace, relative to max V
FACTOR_RTOL = 1e-8  # Q(−ξ)Q(ξ) − P(ξ), relative to max |P|

# Scalar pairs whose R₂R₁⁻¹ is SPR but whose poles sit close together.  On
# these ``mlf_from_positive_real`` returns a storage certificate whose
# switch_2_1 margin is below −eps, so ``slds check --verify-only`` rejects
# the certificate ``slds posreal mlf`` wrote (and exited 0 for).  They do not
# depend on the seed, so every round fails them the same way; a fix of the
# fault lowers the failed count.
FAULT_PAIRS = [
    ([6.0, 7.0, 9.5], [6.5, 7.5]),
    ([3.5, 4.5, 7.0, 10.0], [4.0, 5.5, 9.5]),
    ([1.5, 3.5, 7.0, 8.5], [2.0, 6.5, 7.5]),
]


def call(cli, argv):
    """One ``slds`` call with its standard output captured: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
    return rc, buf.getvalue()


class Op:
    """A timed unit of work: ``argvs`` run back to back.

    ``outputs`` are the files the operation writes; they must repeat byte for
    byte in every round.  ``judge(rcs, texts)`` returns ``(status, note)``.
    """

    def __init__(self, label, argvs, judge, outputs=(), meta=None):
        self.label = label
        self.argvs = argvs
        self.judge = judge
        self.outputs = [pathlib.Path(p) for p in outputs]
        self.meta = meta or {}


def expect_ok(rcs, texts):
    if all(rc == 0 for rc in rcs):
        return OK, ""
    return FAILED, f"exit codes {rcs}"


def expect_no_certificate(rcs, texts):
    """A verdict that must never be 'certified' (exit 2 is the right answer)."""
    if rcs[-1] == 2:
        return OK, ""
    if rcs[-1] == 0:
        return WRONG, "certified a model that must not be certified"
    return FAILED, f"exit codes {rcs}"


# ---------------------------------------------------------------------------
# ground truth computed with numpy from the JSON documents


def det_coeffs(entries) -> np.ndarray:
    """Ascending coefficients of det R by the Leibniz formula."""
    n = len(entries)
    total = np.zeros(1)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = np.ones(1)
        for i, j in enumerate(perm):
            term = npoly.polymul(term, entries[i][j])
        total = npoly.polyadd(total, (-1.0) ** inversions * term)
    return total


def det_roots(entries, degree=None) -> np.ndarray:
    """Roots of det R.

    Without ``degree`` only exact zero leading coefficients are dropped,
    which suits the corpus.  Unimodular pre-multiplication cancels the higher
    terms up to rounding, so the family passes its known degree ``w``.
    """
    c = det_coeffs(entries)
    c = np.trim_zeros(c, "b") if degree is None else c[: degree + 1]
    return np.roots(c[::-1])


def neg(c) -> np.ndarray:
    """Coefficients of ``p(−ξ)`` from those of ``p(ξ)``."""
    return c * (-1.0) ** np.arange(len(c))


def match_spectra(a, b) -> float:
    """Worst relative distance pairing two root sets (greedy); inf if sizes differ."""
    a, b = list(np.asarray(a, complex)), list(np.asarray(b, complex))
    if len(a) != len(b):
        return np.inf
    worst = 0.0
    for x in a:
        d = [abs(x - y) / max(1.0, abs(x)) for y in b]
        j = int(np.argmin(d))
        worst = max(worst, d[j])
        b.pop(j)
    return worst


def read_trace(path) -> dict:
    """The trace CSV written by ``slds simulate --out`` as arrays."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    xi = [i for i, h in enumerate(header) if h.startswith("x")]
    wi = [i for i, h in enumerate(header) if h.startswith("w")]
    out = {
        "t_text": [r[0] for r in body],
        "t": np.array([float(r[0]) for r in body]),
        "mode": np.array([int(r[1]) for r in body]),
        "x": [np.array([float(r[i]) for i in xi if r[i] != ""]) for r in body],
        "w": np.array([[float(r[i]) for i in wi] for r in body]),
        "V": np.array([float(r[-1]) for r in body]) if header[-1] == "V" else None,
    }
    with open(str(path) + ".events.json") as fh:
        out["events"] = json.load(fh)
    return out


def monotone_problems(trace, kernels) -> list[str]:
    """Certificate values recomputed from the trace states must not increase."""
    V = np.array([x @ kernels[m - 1] @ x for m, x in zip(trace["mode"], trace["x"])])
    tol = MONO_RTOL * max(1e-300, float(np.max(np.abs(V))))
    probs = []
    if trace["V"] is not None and np.max(np.abs(V - trace["V"])) > 1e3 * tol:
        probs.append("V column differs from xᵀKx")
    rises = np.diff(V) > tol
    if np.any(rises):
        i = int(np.argmax(rises))
        probs.append(f"certificate increases at t={trace['t'][i + 1]:.6g}")
    return probs


def event_problems(trace) -> list[str]:
    ev = trace["events"]
    probs = []
    if ev["truncated"]:
        probs.append("trace truncated")
    for e in ev["events"]:
        scale = max(1.0, float(np.linalg.norm(e["x_minus"])))
        if e["gluing_residual"] > GLUE_RTOL * scale:
            probs.append(f"gluing residual {e['gluing_residual']:.3e} at t={e['time']:.6g}")
    return probs


def propagate_w(trace, schedule, A, L) -> float:
    """Worst relative gap between the trace's w(t) and ``e^{A_k t}``/``L`` in w.

    The trace's first sample gives w(0); after that everything comes from the
    generator's ``A_k``, ``L`` and the schedule it wrote.
    """
    events = list(schedule["events"])
    mode = schedule["initial_mode"]
    t0, w0 = 0.0, trace["w"][0]
    scale = max(1e-300, float(np.max(np.abs(trace["w"]))))
    worst = 0.0
    for t, m, w in zip(trace["t"], trace["mode"], trace["w"]):
        if m != mode:
            if not events:
                return np.inf
            te, nxt = events.pop(0)
            if nxt != m or abs(t - te) > 1e-9 * max(1.0, abs(te)):
                return np.inf
            w0 = L[(mode, nxt)] @ scipy.linalg.expm(A[mode - 1] * (te - t0)) @ w0
            mode, t0 = nxt, te
        ref = scipy.linalg.expm(A[mode - 1] * (t - t0)) @ w0
        worst = max(worst, float(np.max(np.abs(ref - w))) / scale)
    return worst


def dt_gap(fine, coarse) -> float:
    """Worst relative gap over samples at times both traces hold once."""
    def singles(tr):
        seen = {}
        for i, t in enumerate(tr["t_text"]):
            seen[t] = None if t in seen else i
        return {t: i for t, i in seen.items() if i is not None}

    a, b = singles(fine), singles(coarse)
    shared = sorted(set(a) & set(b))
    if len(shared) < 2:
        return np.inf
    scale = max(1e-300, float(np.max(np.abs(fine["w"]))))
    worst = 0.0
    for t in shared:
        i, j = a[t], b[t]
        worst = max(
            worst,
            float(np.max(np.abs(fine["x"][i] - coarse["x"][j]))) / scale,
            float(np.max(np.abs(fine["w"][i] - coarse["w"][j]))) / scale,
        )
    return worst


def corpus(models_dir) -> tuple[dict, dict, dict]:
    """Classify the bundled JSON files: models, switching signals, polymatrices.

    Signal and polymatrix files sit beside the models and fail ``load_model``,
    so they are told apart by their shape.
    """
    models, signals, polys = {}, {}, {}
    for path in sorted(pathlib.Path(models_dir).glob("*.json")):
        doc = json.loads(path.read_text())
        if isinstance(doc, dict) and {"variables", "modes", "gluing"} <= doc.keys():
            models[path.stem] = path
        elif isinstance(doc, dict) and "initial_mode" in doc:
            signals[path.stem] = path
        elif isinstance(doc, list):
            polys[path.stem] = path
        else:
            raise ValueError(f"unrecognised corpus file {path}")
    return models, signals, polys


def time_scale(roots) -> float:
    """Slowest time constant of a model from its mode spectra."""
    return 1.0 / float(min(abs(r.real) for rts in roots for r in rts))


def write_json(path, doc) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(json.dumps(doc))
    return path


def load_json(path):
    return json.loads(pathlib.Path(path).read_text())


# ---------------------------------------------------------------------------


class Workload:
    """Inputs and operations of one workload; see ``WORKLOADS``."""

    def __init__(self, root, work, seed, cli):
        self.root = pathlib.Path(root)
        self.work = pathlib.Path(work)
        self.rng = np.random.default_rng(seed)
        self.cli = cli
        self.models, self.signals, self.polys = corpus(self.root / "models")
        self.ops: list[Op] = []

    def family(self, sets, tag):
        """``sets`` members per (w, modes) shape, as model files + ground truth."""
        out = []
        for s in range(sets):
            for w, m in FAMILY_SHAPES:
                g = gen.slds_member(self.rng, w, m)
                g["path"] = write_json(self.work / f"{tag}{len(out)}.json", g["model"])
                out.append(g)
        return out

    def certify_file(self, model_path, cert_path):
        """Set-up certificate made by the program itself (``slds check --out``)."""
        rc, text = call(self.cli, ["check", str(model_path), *FAMILY_ROUTE, "--out", str(cert_path)])
        if rc != 0:
            raise RuntimeError(f"set-up could not certify {model_path}: {text}")
        return cert_path

    def check(self, results) -> list[str]:
        return []


class Certify(Workload):
    """``slds check`` on every corpus model, both routes, and on the family."""

    FAMILY_SETS = 2

    def setup(self):
        for name, path in self.models.items():
            for route in ("exact", "conservative"):
                cert = self.work / f"{name}.{route}.cert.json"
                judge = expect_no_certificate if name == "concond" else expect_ok
                self.ops.append(Op(
                    f"{name}/{route}",
                    [["check", str(path), "--route", route, "--out", str(cert)]],
                    judge,
                    outputs=[cert] if judge is expect_ok else [],
                    meta={"model": path, "cert": cert},
                ))
        for i, g in enumerate(self.family(self.FAMILY_SETS, "family")):
            cert = self.work / f"family{i}.cert.json"
            self.ops.append(Op(
                f"family{i}",
                [["check", str(g["path"]), *FAMILY_ROUTE, "--out", str(cert)]],
                expect_ok,
                outputs=[cert],
                meta={"model": g["path"], "cert": cert, "A": g["A"]},
            ))

    def check(self, results):
        from sldstab.model import load_model

        probs = []
        for op, (status, rcs, texts) in zip(self.ops, results):
            if status != OK:
                continue
            doc = load_json(op.meta["model"])
            model = load_model(op.meta["model"])
            A = op.meta.get("A")
            degree = None if A is None else doc["variables"]
            roots = [det_roots(R, degree) for R in doc["modes"]]
            for k, (rts, real) in enumerate(zip(roots, model.realizations)):
                eig = np.linalg.eigvals(real.A)
                gap = match_spectra(eig, rts)
                if A is not None:
                    gap = max(gap, match_spectra(eig, np.linalg.eigvals(A[k])))
                if gap > EIG_RTOL:
                    probs.append(f"{op.label}: mode {k + 1} realization eigenvalues off by {gap:.2e}")
            if rcs[-1] == 0:
                probs += [f"{op.label}: {p}" for p in self.audit(op, doc, roots)]
                probs += [f"{op.label}: {p}" for p in self.reverify(op)]
        return probs

    def reverify(self, op):
        """The certificate verifies on its own; a copy with one ``K`` negated does not."""
        model, cert = str(op.meta["model"]), op.meta["cert"]
        doc = load_json(cert)
        k = int(self.rng.integers(len(doc["modes"])))
        doc["modes"][k]["K"] = (-np.asarray(doc["modes"][k]["K"])).tolist()
        bad = write_json(str(cert) + ".corrupt.json", doc)
        probs = []
        if call(self.cli, ["check", model, "--verify-only", str(cert)])[0] != 0:
            probs.append("certificate fails --verify-only")
        if call(self.cli, ["check", model, "--verify-only", str(bad)])[0] != 2:
            probs.append(f"copy with K_{k + 1} negated is not rejected")
        return probs

    def audit(self, op, doc, roots):
        """Simulate the certified model on a seeded schedule and recompute V."""
        tau = time_scale(roots)
        transitions = [(g["from"], g["to"]) for g in doc["gluing"]]
        sig = gen.random_schedule(self.rng, transitions, 1, 2.0 * tau, (0.1 * tau, 0.4 * tau))
        sig_path = write_json(str(op.meta["cert"]) + ".signal.json", sig)
        x0 = self.rng.standard_normal(len(roots[0]))
        out = str(op.meta["cert"]) + ".csv"
        rc, text = call(self.cli, [
            "simulate", str(op.meta["model"]), "--signal", str(sig_path),
            "--x0=" + ",".join(repr(float(v)) for v in x0),
            "--t-end", repr(2.0 * tau), "--dt", repr(tau / 250.0),
            "--cert", str(op.meta["cert"]), "--out", out,
        ])
        if rc != 0:
            return [f"audit simulation exited {rc}: {text.strip()[-200:]}"]
        kernels = [np.asarray(m["K"]) for m in load_json(op.meta["cert"])["modes"]]
        trace = read_trace(out)
        return monotone_problems(trace, kernels) + event_problems(trace)


class Simulate(Workload):
    """``slds simulate --cert --out`` at dt and 2·dt on three kinds of input."""

    FAMILY_SETS = 1
    CONVERTER_SCHEDULES = 2

    def add_pair(self, name, model, signal, x0, t_end, dt, cert, meta):
        for k, step in (("dt", dt), ("2dt", 2.0 * dt)):
            out = self.work / f"{name}.{k}.csv"
            self.ops.append(Op(
                f"{name}/{k}",
                [["simulate", str(model), "--signal", str(signal),
                  "--x0=" + ",".join(repr(float(v)) for v in x0),
                  "--t-end", repr(t_end), "--dt", repr(step),
                  "--cert", str(cert), "--out", str(out)]],
                self.judge_audit,
                outputs=[out, pathlib.Path(str(out) + ".events.json")],
                meta=dict(meta, out=out, pair=name),
            ))

    @staticmethod
    def judge_audit(rcs, texts):
        if rcs[-1] != 0:
            return FAILED, f"exit codes {rcs}"
        if "audit: ok=True" not in texts[-1]:
            return WRONG, "audit did not pass"
        return OK, ""

    def setup(self):
        conv = self.models["source_converter_4mode"]
        conv_doc = load_json(conv)
        conv_cert = self.certify_file(conv, self.work / "converter.cert.json")
        transitions = [(g["from"], g["to"]) for g in conv_doc["gluing"]]
        for i in range(self.CONVERTER_SCHEDULES):
            sig = gen.random_schedule(self.rng, transitions, 1, 0.02, (3e-4, 9e-4))
            sig_path = write_json(self.work / f"converter{i}.signal.json", sig)
            x0 = self.rng.standard_normal(len(det_roots(conv_doc["modes"][0])))
            self.add_pair(f"converter{i}", conv, sig_path, x0, 0.02, 1e-5, conv_cert, {})
        for i, g in enumerate(self.family(self.FAMILY_SETS, "family")):
            cert = self.certify_file(g["path"], self.work / f"family{i}.cert.json")
            transitions = sorted(g["L"])
            sig = gen.random_schedule(self.rng, transitions, 1, 4.0, (0.2, 0.6))
            sig_path = write_json(self.work / f"family{i}.signal.json", sig)
            x0 = self.rng.standard_normal(g["model"]["variables"])
            self.add_pair(f"family{i}", g["path"], sig_path, x0, 4.0, 2e-3, cert,
                          {"A": g["A"], "L": g["L"], "signal": sig})
        elc = self.models["elcirc"]
        elc_cert = self.certify_file(elc, self.work / "elcirc.cert.json")
        self.add_pair("elcirc", elc, self.signals["elcirc_periodic"], [1.0], 7.0, 1e-3, elc_cert, {})

    def check(self, results):
        probs = []
        traces = {}
        for op, (status, rcs, texts) in zip(self.ops, results):
            if status != OK:
                continue
            tr = read_trace(op.meta["out"])
            traces.setdefault(op.meta["pair"], []).append(tr)
            probs += [f"{op.label}: {p}" for p in event_problems(tr)]
            if "A" in op.meta:
                gap = propagate_w(tr, op.meta["signal"], op.meta["A"], op.meta["L"])
                if gap > TRACE_RTOL:
                    probs.append(f"{op.label}: w(t) differs from the w-coordinate propagation by {gap:.2e}")
        for name, pair in traces.items():
            if len(pair) == 2 and dt_gap(*pair) > DT_RTOL:
                probs.append(f"{name}: dt and 2dt traces disagree by {dt_gap(*pair):.2e}")
        return probs


class Posreal(Workload):
    """``slds posreal sprcheck → mlf → complete`` on SPR scalar pairs."""

    DEGREES = (2, 3, 4)
    PER_DEGREE = 3

    def setup(self):
        pairs = []
        for stem in sorted(self.polys):
            if stem.endswith("_r1") and stem[:-1] + "2" in self.polys:
                r1 = np.asarray(load_json(self.polys[stem])[0][0])
                r2 = np.asarray(load_json(self.polys[stem[:-1] + "2"])[0][0])
                pairs.append((stem[:-3], r1, r2))
        for d in self.DEGREES:
            for i in range(self.PER_DEGREE):
                r1, r2 = gen.spr_pair(self.rng, d)
                pairs.append((f"deg{d}_{i}", r1, r2))
        for i, (poles, zeros) in enumerate(FAULT_PAIRS):
            pairs.append((f"clustered{i}", np.poly(-np.asarray(poles))[::-1],
                          np.poly(-np.asarray(zeros))[::-1]))
        for name, r1, r2 in pairs:
            p1 = write_json(self.work / f"{name}_r1.json", [[list(map(float, r1))]])
            p2 = write_json(self.work / f"{name}_r2.json", [[list(map(float, r2))]])
            cert = self.work / f"{name}.cert.json"
            model = self.work / f"{name}.cert_model.json"
            comp = self.work / f"{name}.completion.json"
            io_args = ["--r1", str(p1), "--r2", str(p2)]
            self.ops.append(Op(
                name,
                [["posreal", "sprcheck"] + io_args,
                 ["posreal", "mlf"] + io_args + ["--out", str(cert)],
                 ["posreal", "complete"] + io_args + ["--out", str(comp)]],
                self.make_judge(model, cert),
                outputs=[cert, model, comp],
                meta={"r1": r1, "r2": r2, "completion": comp},
            ))

    def make_judge(self, model, cert):
        def judge(rcs, texts):
            if any(rc != 0 for rc in rcs):
                return FAILED, f"exit codes {rcs}"
            if "strictly positive real: True" not in texts[0]:
                return WRONG, "SPR-by-construction pair reported not SPR"
            rc, text = call(self.cli, ["check", str(model), "--verify-only", str(cert)])
            if rc != 0:
                return FAILED, "emitted certificate fails --verify-only"
            return OK, ""

        return judge

    def check(self, results):
        from sldstab.polymat import PolyMatrix
        from sldstab.posreal import spectral_factorize

        probs = []
        for op, (status, rcs, texts) in zip(self.ops, results):
            if status != OK:
                continue
            r1, r2 = op.meta["r1"], op.meta["r2"]
            P = npoly.polyadd(npoly.polymul(neg(r1), r2), npoly.polymul(neg(r2), r1))
            Q = spectral_factorize(PolyMatrix(P[:, None, None]), PolyMatrix(r1[:, None, None])).Q
            q = Q.coeffs[:, 0, 0]
            gap = np.max(np.abs(npoly.polysub(npoly.polymul(neg(q), q), P)))
            if gap > FACTOR_RTOL * np.max(np.abs(P)):
                probs.append(f"{op.label}: Q(-xi)Q(xi) differs from P by {gap:.2e}")
            M = np.asarray(load_json(op.meta["completion"])[0][0])
            roots = np.abs(np.concatenate([np.roots(r1[::-1]), np.roots(r2[::-1])]))
            om = np.geomspace(1e-3 * roots.min(), 1e3 * roots.max(), 400)
            s = 1j * om
            G = npoly.polyval(s, M) * npoly.polyval(s, r2) / npoly.polyval(s, r1)
            if np.min(G.real) <= 0.0:
                probs.append(f"{op.label}: Re M R2/R1 (j w) <= 0 at w={om[np.argmin(G.real)]:.3g}")
        return probs


WORKLOADS = {
    "certify": Certify,
    "simulate": Simulate,
    "posreal": Posreal,
}
