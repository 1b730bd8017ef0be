#!/usr/bin/env python3
"""The verdict table: exit code, Newton steps and worst margin per case.

Each row is one ``slds`` command run in-process:

- ``corpus/<name>``: ``slds check`` on each model of ``models/``;
- ``family/<i>``: ``slds check`` on 40 ``gen.slds_member`` draws of
  ``default_rng(4101)``, shapes cycling through the benchmark's family
  shapes ``(w, m)``, ``w`` in {2, 3}, ``m`` in {2, 3, 4};
- ``timescale/<c>/<i>``: ``slds check`` on the 20 draws
  ``gen.slds_member(default_rng(7), 3, 3)`` at ``R(c xi)``, ``c`` in
  {1e-3, 1, 1e3} (ROADMAP item 8);
- ``census/<seed>/<i>``: ``slds posreal mlf`` on the 120 V-coupled
  ``w = 3`` pairs of ``tests/census_w3.py`` (seeds 7 and 11, 60 each).

A row holds the command (generated files are named as they are written in
a temporary directory), the exit code, the Newton steps (the iterations of
every ``LmiProblem.solve`` the command makes) and the worst margin over
``eps`` of the last kernel set the command judged (``LmiProblem.verify``),
to six significant digits, or ``null`` when it judged none.  Exit codes
and Newton steps are deterministic; ``tests/test_verdicts.py`` asserts
them against the committed ``VERDICTS.json`` and prints the margins that
moved.

Run from the repository root; the output defaults to ``VERDICTS.json``::

    PYTHONPATH=src python3 scripts/verdicts.py [OUT]
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from census_w3 import vcoupled_w3_draws  # noqa: E402
from test_statespace import _generators, _time_scaled  # noqa: E402

from sldstab.cli import main  # noqa: E402
from sldstab.polymat import polymatrix_to_json  # noqa: E402
from sldstab.sdp import LmiProblem  # noqa: E402

FAMILY_SHAPES = [(w, m) for w in (2, 3) for m in (2, 3, 4)]
TIME_SCALES = (1e-3, 1.0, 1e3)


@contextlib.contextmanager
def _recording(record):
    """Count the Newton steps of every solve, and keep the margins and
    ``eps`` of the last verify, in ``record``."""
    solve, verify = LmiProblem.solve, LmiProblem.verify

    def counted_solve(self, eps, *args, **kwargs):
        report = solve(self, eps, *args, **kwargs)
        record["newton_steps"] += report.iterations
        return report

    def kept_verify(self, values, eps):
        margins = verify(self, values, eps)
        record["judged"] = (margins, eps)
        return margins

    LmiProblem.solve, LmiProblem.verify = counted_solve, kept_verify
    try:
        yield
    finally:
        LmiProblem.solve, LmiProblem.verify = solve, verify


def _run(case, argv, shown):
    """One row: ``argv`` is run, ``shown`` is the command as the row names it."""
    record = {"newton_steps": 0, "judged": None}
    with _recording(record), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    margin = None
    if record["judged"] is not None:
        margins, eps = record["judged"]
        # six significant digits: a margin that moves by rounding only
        # leaves the row as it is
        margin = float(f"{min(margins.values()) / eps:.6g}") if margins else None
    return {
        "case": case,
        "command": "slds " + " ".join(shown),
        "exit": code,
        "newton_steps": record["newton_steps"],
        "margin_over_eps": margin,
    }


def _check(case, tmp, name, doc):
    path = pathlib.Path(tmp) / name
    path.write_text(json.dumps(doc))
    return _run(case, ["check", str(path)], ["check", name])


def table():
    """Every row, in case order."""
    gen = _generators()
    rows = []
    for path in sorted((ROOT / "models").glob("*.json")):
        doc = json.loads(path.read_text())
        if isinstance(doc, dict) and "gluing" in doc:
            rel = str(path.relative_to(ROOT))
            rows.append(_run(f"corpus/{path.stem}", ["check", str(path)], ["check", rel]))
    with tempfile.TemporaryDirectory() as tmp:
        rng = np.random.default_rng(4101)
        for i in range(40):
            doc = gen.slds_member(rng, *FAMILY_SHAPES[i % len(FAMILY_SHAPES)])["model"]
            rows.append(_check(f"family/{i}", tmp, f"family{i}.json", doc))
        rng = np.random.default_rng(7)
        draws = [gen.slds_member(rng, 3, 3)["model"] for _ in range(20)]
        for c in TIME_SCALES:
            for i, doc in enumerate(draws):
                name = f"timescale_{c:g}_{i}.json"
                rows.append(_check(f"timescale/{c:g}/{i}", tmp, name, _time_scaled(doc, c)))
        paths = [pathlib.Path(tmp) / "r1.json", pathlib.Path(tmp) / "r2.json"]
        for seed in (7, 11):
            for i, draw in enumerate(vcoupled_w3_draws(np.random.default_rng(seed), 60)):
                for path, key in zip(paths, ("r1", "r2")):
                    path.write_text(json.dumps(polymatrix_to_json(draw[key])))
                argv = ["posreal", "mlf", "--r1", str(paths[0]), "--r2", str(paths[1])]
                shown = ["posreal", "mlf", "--r1", f"census{seed}_{i}_r1.json",
                         "--r2", f"census{seed}_{i}_r2.json"]
                rows.append(_run(f"census/{seed}/{i}", argv, shown))
    return rows


def write(rows, path) -> None:
    pathlib.Path(path).write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else ROOT / "VERDICTS.json"
    write(table(), out)
    print(f"verdict table written to {out}")
