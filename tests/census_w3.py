"""The ``V``-coupled ``w = 3`` census of the positive-real route.

Draw ``k`` of a seeded ``numpy`` generator is the pair ``R1 = diag(r1_i) V``,
``R2 = diag(r2_i) V``: the diagonal degrees are ``rng.permutation((4, 2, 2))``,
each ``(r1_i, r2_i)`` comes from the benchmark's ``gen.spr_pair``, and ``V``
is unit upper triangular with entries ``U(-1, 1) + U(-2, 2) xi``, drawn row
by row.  ``tests/data/vcoupled_w3_pair.json`` is the draw at index 21 of
``default_rng(7)``.

:func:`sweep` takes the first 60 draws of a seed through ``slds posreal
sprcheck``, ``mlf --out`` and ``complete``; each certificate that ``mlf``
writes must pass ``slds check --verify-only`` on the model written beside it
(action ``verify``).  ``tests/test_posreal.py::test_census_w3_has_no_stops``
runs it for ``default_rng(7)`` and ``default_rng(11)`` (about 4 s on a
2-core VM).  Run as a script, it prints every pair that stops and exits 1
on any stop::

    PYTHONPATH=src python tests/census_w3.py
"""

import contextlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from sldstab.cli import main
from sldstab.polymat import PolyMatrix, polymatrix_to_json
from test_statespace import _generators


def _diag(entries) -> PolyMatrix:
    w = len(entries)
    return PolyMatrix.from_entries(
        [[list(entries[i]) if i == j else [0.0] for j in range(w)] for i in range(w)]
    )


def vcoupled_w3_draws(rng, count):
    """The first ``count`` draws of ``rng`` as dicts with the keys of
    ``tests/data/vcoupled_w3_pair.json``: ``r1_diag``, ``r2_diag`` (ascending
    coefficients), ``V``, ``r1`` and ``r2`` (polynomial matrices)."""
    gen = _generators()
    for _ in range(count):
        diag = [gen.spr_pair(rng, int(d)) for d in rng.permutation((4, 2, 2))]
        V = [[[1.0] if i == j else [0.0] for j in range(3)] for i in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                V[i][j] = [rng.uniform(-1, 1), rng.uniform(-2, 2)]
        V = PolyMatrix.from_entries(V)
        yield {
            "r1_diag": [r1 for r1, _ in diag],
            "r2_diag": [r2 for _, r2 in diag],
            "V": V,
            "r1": _diag([r1 for r1, _ in diag]) @ V,
            "r2": _diag([r2 for _, r2 in diag]) @ V,
        }


def _run(argv):
    """Exit code and last output line of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    return code, out.getvalue().strip().splitlines()[-1]


def sweep(seed, count=60):
    """``(draw, action, exit code, last output line)`` for every action of
    every draw that does not exit 0."""
    stops = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "r1.json", Path(tmp) / "r2.json"]
        pair = ["--r1", str(paths[0]), "--r2", str(paths[1])]
        cert, model = Path(tmp) / "cert.json", Path(tmp) / "cert_model.json"
        for k, draw in enumerate(vcoupled_w3_draws(np.random.default_rng(seed), count)):
            for path, key in zip(paths, ("r1", "r2")):
                path.write_text(json.dumps(polymatrix_to_json(draw[key])))
            for action in ("sprcheck", "mlf", "complete"):
                out = ["--out", str(cert)] if action == "mlf" else []
                code, last = _run(["posreal", action, *pair, *out])
                if code:
                    stops.append((k, action, code, last))
                elif action == "mlf":  # this pair's certificate and model
                    code, last = _run(["check", str(model), "--verify-only", str(cert)])
                    if code:
                        stops.append((k, "verify", code, last))
    return stops


if __name__ == "__main__":
    stopped = False
    for seed in (7, 11):
        stops = sweep(seed)
        for k, action, code, line in stops:
            print(f"default_rng({seed}) pair {k}: {action} exit {code}: {line}")
        stopped = stopped or bool(stops)
        counts = Counter(action for _, action, _, _ in stops)
        print(f"default_rng({seed}): {60 - counts['mlf']} of 60 pass mlf, "
              f"{60 - counts['mlf'] - counts['verify']} verify, "
              f"{60 - counts['complete']} pass complete, stops {dict(counts)}")
    sys.exit(1 if stopped else 0)
