#!/usr/bin/env python3
"""Regenerate the bundled model corpus from the built-in fixtures.

Run from the repository root; the output directory defaults to models/:

    python3 scripts/generate_models.py [OUT_DIR]
"""

import argparse
import json
import pathlib

from sldstab.fixtures import ALL_BUILDERS, standard_scalar_pair
from sldstab.model import model_to_json
from sldstab.polymat import polymatrix_to_json

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", type=pathlib.Path, default=MODELS)
    out = parser.parse_args(argv).out
    out.mkdir(exist_ok=True)
    for name, build in ALL_BUILDERS.items():
        path = out / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(model_to_json(build()), fh, indent=2)
        print(f"wrote {path}")
    r1, r2 = standard_scalar_pair()
    for name, mat in [("standard_scalar_r1", r1), ("standard_scalar_r2", r2)]:
        path = out / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(polymatrix_to_json(mat), fh, indent=2)
        print(f"wrote {path}")

    signals = {
        "elcirc_periodic": {
            "initial_mode": 1,
            "events": [[t, 2 if i % 2 == 0 else 1] for i, t in enumerate(
                [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
            )],
        },
        "converter_cycle": {
            "initial_mode": 1,
            "events": [
                [0.0005, 2],
                [0.0010, 1],
                [0.0015, 3],
                [0.0020, 4],
                [0.0025, 3],
                [0.0030, 1],
            ],
        },
    }
    for name, doc in signals.items():
        path = out / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
