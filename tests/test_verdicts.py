"""The verdict table: every case's exit code and Newton steps equal the
committed ``VERDICTS.json`` (``scripts/verdicts.py``).

Margins are not asserted: the ones that moved are printed as a diff, which
``pytest -s`` or a failure shows.  A change that moves a row regenerates
the table with ``PYTHONPATH=src python3 scripts/verdicts.py``.
"""

import json
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _margin_diff(committed, rows):
    """``case: committed -> now`` for each margin that moved."""
    return [
        f"{new['case']}: margin/eps {old['margin_over_eps']} -> {new['margin_over_eps']}"
        for old, new in zip(committed, rows)
        if old["margin_over_eps"] != new["margin_over_eps"]
    ]


def test_verdicts_match_committed():
    rows = runpy.run_path(str(ROOT / "scripts" / "verdicts.py"))["table"]()
    committed = json.loads((ROOT / "VERDICTS.json").read_text())
    for line in _margin_diff(committed, rows):
        print(line)

    def key(r):
        return r["case"], r["command"], r["exit"], r["newton_steps"]

    assert [key(r) for r in rows] == [key(r) for r in committed]
