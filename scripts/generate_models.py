#!/usr/bin/env python3
"""Regenerate the bundled model corpus from its builders.

The builders below are the corpus's source: the two-mode circuit family
(same modes, different gluing), the plant/controller pair with unequal
McMillan degrees, the DC-DC source converter bank (4- and 6-mode variants),
the scalar pair of the positive-real route and two switching signals.  The
tests, the demos and the benchmark read the JSON files this writes.

Run from the repository root; the output directory defaults to models/:

    PYTHONPATH=src python3 scripts/generate_models.py [OUT_DIR]
"""

import argparse
import json
import pathlib

from sldstab.model import SldsModel, model_to_json
from sldstab.polymat import PolyMatrix, polymatrix_to_json

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def _pm(entries) -> PolyMatrix:
    return PolyMatrix.from_entries(entries)


def elcirc() -> SldsModel:
    """RC circuit with a two-position switch; charge-conserving gluing.

    Mode 1: w2' + w2 = 0, w1 = w2.  Mode 2: w2' + w2 = 0, w1 = 0.
    At 2->1 both voltages restart from w2/2; at 1->2 the capacitor voltage
    is kept and w1 drops to zero.
    """
    R1 = _pm([[[0.0], [1.0, 1.0]], [[1.0], [-1.0]]])
    R2 = _pm([[[0.0], [1.0, 1.0]], [[1.0], [0.0]]])
    gluing = {
        (2, 1): (_pm([[[0.0], [0.5]], [[0.0], [0.5]]]), PolyMatrix.identity(2)),
        (1, 2): (_pm([[[0.0], [0.0]], [[0.0], [1.0]]]), PolyMatrix.identity(2)),
    }
    return SldsModel(modes=[R1, R2], gluing=gluing)


def exmath() -> SldsModel:
    """Same mode dynamics as :func:`elcirc` but averaging gluing conditions.

    Mode 2 is written with the redundant row w1' + w2' + w1 + w2 = 0; the
    1->2 jump sets the new w2 to the average of the old w1 and w2.
    """
    R1 = _pm([[[0.0], [1.0, 1.0]], [[1.0], [-1.0]]])
    R2 = _pm([[[1.0, 1.0], [1.0, 1.0]], [[1.0], [0.0]]])
    gluing = {
        (2, 1): (_pm([[[0.0], [1.0]], [[0.0], [1.0]]]), PolyMatrix.identity(2)),
        (1, 2): (_pm([[[0.0], [0.0]], [[0.5], [0.5]]]), PolyMatrix.identity(2)),
    }
    return SldsModel(modes=[R1, R2], gluing=gluing)


def concond() -> SldsModel:
    """Plant switched between two controllers; modes of McMillan degree 2 and 1."""
    R1 = _pm([[[-1.0, 1.0], [-1.0]], [[-1.0, -3.0], [0.0, -1.0]]])
    R2 = _pm([[[-1.0, 1.0], [-1.0]], [[-2.0], [-1.0]]])
    gluing = {
        (2, 1): (
            _pm([[[0.0], [1.0]], [[0.0], [-2.0]]]),
            _pm([[[0.0], [1.0]], [[1.0], [0.0]]]),
        ),
        (1, 2): (_pm([[[1.0], [0.0]]]), _pm([[[1.0], [0.0]]])),
    }
    state_maps = [PolyMatrix.identity(2), _pm([[[1.0], [0.0]]])]
    return SldsModel(modes=[R1, R2], gluing=gluing, state_maps=state_maps)


# source-converter component values
L1 = 1e-4
RL1 = 0.01
C1 = 1e-4
RO = 2.0
RL2 = 0.02
L2 = 1e-4
RC2 = 1.0
C2 = 1e-4


def source_converter(n_modes: int = 4) -> SldsModel:
    """DC-DC boost converter with (dis-)connectable loads, 4 or 6 modes.

    External variables are the inductor current and output voltage.  Modes
    1/2 are the bare converter (switch open/closed), 3/4 add the RL load,
    5/6 the RC load.  State maps follow the circuit variables, so the
    re-initialisation maps are simple embeddings/projections.
    """
    if n_modes not in (4, 6):
        raise ValueError("n_modes must be 4 or 6")
    p34 = [RL2 / RO + 1.0, RL2 * C1 + L2 / RO, L2 * C1]
    p56 = [1.0 / RO, RC2 * C2 / RO + C1 + C2, RC2 * C1 * C2]
    R1 = _pm([[[RL1, L1], [0.0]], [[0.0], [1.0 / RO, C1]]])
    R2 = _pm([[[RL1, L1], [1.0]], [[-1.0], [1.0 / RO, C1]]])
    R3 = _pm([[[RL1, L1], [0.0]], [[0.0], p34]])
    R4 = _pm([[[RL1, L1], [1.0]], [[-RL2, -L2], p34]])
    R5 = _pm([[[RL1, L1], [0.0]], [[0.0], p56]])
    R6 = _pm([[[RL1, L1], [1.0]], [[-1.0, -RC2 * C2], p56]])

    I2 = PolyMatrix.identity(2)
    embed = _pm([[[1.0], [0.0]], [[0.0], [1.0]], [[0.0], [0.0]]])
    X12 = I2
    X3 = _pm([[[1.0], [0.0]], [[0.0], [1.0]], [[0.0], [-1.0 / RO, -C1]]])
    X4 = _pm([[[1.0], [0.0]], [[0.0], [1.0]], [[1.0], [-1.0 / RO, -C1]]])
    X5 = _pm([[[1.0], [0.0]], [[0.0], [1.0]], [[0.0], [RC2 / RO + 1.0, RC2 * C1]]])
    X6 = _pm([[[1.0], [0.0]], [[0.0], [1.0]], [[-RC2], [RC2 / RO + 1.0, RC2 * C1]]])

    modes = [R1, R2, R3, R4]
    state_maps = [X12, X12, X3, X4]
    tall = {3: X3, 4: X4}
    if n_modes == 6:
        modes += [R5, R6]
        state_maps += [X5, X6]
        tall.update({5: X5, 6: X6})

    gluing = {(1, 2): (I2, I2), (2, 1): (I2, I2)}
    for k in tall:
        for s in (1, 2):
            gluing[(k, s)] = (I2, I2)  # project down to (i_L1, v_o)
            gluing[(s, k)] = (embed, tall[k])
    gluing[(3, 4)] = (X3, X4)
    gluing[(4, 3)] = (X4, X3)
    if n_modes == 6:
        gluing[(5, 6)] = (X5, X6)
        gluing[(6, 5)] = (X6, X5)
        # the RL and RC loads are never swapped directly
        for k in (3, 4):
            for l in (5, 6):
                gluing.pop((k, l), None)
                gluing.pop((l, k), None)
    return SldsModel(modes=modes, gluing=gluing, state_maps=state_maps)


def standard_scalar_pair() -> tuple[PolyMatrix, PolyMatrix]:
    """The scalar pair (R1, R2) = (xi^2+3xi+2, xi+3) for the positive-real route."""
    return _pm([[[2.0, 3.0, 1.0]]]), _pm([[[3.0, 1.0]]])


ALL_BUILDERS = {
    "elcirc": elcirc,
    "exmath": exmath,
    "concond": concond,
    "source_converter_4mode": lambda: source_converter(4),
    "source_converter_6mode": lambda: source_converter(6),
}


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
