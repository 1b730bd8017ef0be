import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sldstab import cli as cli_mod
from sldstab import model as model_mod
from sldstab import polymat, posreal, statespace
from sldstab.cli import main
from sldstab.mlf import find_mlf, verify_mlf
from sldstab.model import (
    SldsModel,
    is_well_posed,
    load_model,
    model_from_json,
    model_to_json,
    normal_form,
    reinit_maps,
)
from sldstab.polymat import PolyMatrix, polymatrix_from_json
from sldstab.sim import SwitchingSignal, simulate

from modeltools import CORPUS, corpus_model


def _pm(entries):
    return PolyMatrix.from_entries(entries)


class TestDerivedOnce:
    def test_normal_form_reduced_once_per_model(self, monkeypatch):
        calls = []
        reduce = model_mod.normal_form
        monkeypatch.setattr(
            model_mod, "normal_form", lambda m: calls.append(m) or reduce(m)
        )
        model = corpus_model("elcirc")
        is_well_posed(model)
        cert = find_mlf(model)
        assert verify_mlf(model, cert)[0]
        signal = SwitchingSignal(initial_mode=1, events=((0.5, 2), (1.0, 1)))
        simulate(model, signal, [1.0], 1.5, 0.1, certificate=cert)
        assert len(calls) == 1 and calls[0] is model

    def test_no_eigenstructure_on_certify_path(self, monkeypatch, tmp_path):
        # the switch condition holds on the whole state space, so neither
        # the search, its re-check nor the posreal route needs eigenvectors
        calls = []
        derive = statespace.eigenstructure
        for mod in list(sys.modules.values()):
            if mod is not None and mod.__name__.startswith("sldstab"):
                if getattr(mod, "eigenstructure", None) is derive:
                    monkeypatch.setattr(
                        mod, "eigenstructure",
                        lambda R, X, **kw: calls.append(R) or derive(R, X, **kw),
                    )
        path = tmp_path / "converter.json"
        path.write_text(json.dumps(model_to_json(corpus_model("source_converter_4mode"))))
        cert = tmp_path / "cert.json"
        assert main(["check", str(path), "--out", str(cert)]) == 0
        assert main(["check", str(path), "--verify-only", str(cert)]) == 0
        out = str(tmp_path / "spr.json")
        assert main(["posreal", "mlf", "--r1", str(MODELS / "standard_scalar_r1.json"),
                     "--r2", str(MODELS / "standard_scalar_r2.json"), "--out", out]) == 0
        assert calls == []


MODELS = Path(__file__).resolve().parents[1] / "models"


def _count_division_data(monkeypatch) -> dict:
    """Record the argument of every column reduction and of every
    ``determinant`` and ``poly_roots`` call."""
    seen = {"column_reduce": [], "determinant": [], "poly_roots": []}
    for name, args in seen.items():
        orig = getattr(polymat, name)

        def counted(M, *rest, orig=orig, args=args):
            args.append(M.coeffs.copy())
            return orig(M, *rest)

        for mod in list(sys.modules.values()):
            if mod is not None and mod.__name__.startswith("sldstab"):
                if getattr(mod, name, None) is orig:
                    monkeypatch.setattr(mod, name, counted)
    return seen


def _calls_per_mode(seen: dict, modes) -> dict:
    return {
        name: [sum(np.array_equal(c, R.coeffs) for c in args) for R in modes]
        for name, args in seen.items()
    }


def _reductions_only(times: int, n_modes: int) -> dict:
    """The counts of a load path that column-reduces each mode ``times``
    times and forms no Leibniz determinant or polynomial root set."""
    return {
        "column_reduce": [times] * n_modes,
        "determinant": [0] * n_modes,
        "poly_roots": [0] * n_modes,
    }


class TestDivisionDataOncePerMode:
    CONVERTER4 = str(MODELS / "source_converter_4mode.json")
    R1 = str(MODELS / "standard_scalar_r1.json")
    R2 = str(MODELS / "standard_scalar_r2.json")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", CONVERTER4, "--route", "exact"],
            ["check", CONVERTER4, "--route", "conservative"],
            [
                "simulate", CONVERTER4, "--signal", str(MODELS / "converter_cycle.json"),
                "--x0", "1,1", "--t-end", "0.002", "--dt", "1e-4",
            ],
        ],
        ids=["check-exact", "check-conservative", "simulate"],
    )
    def test_one_load_divides_once_per_mode(self, monkeypatch, argv):
        modes = load_model(self.CONVERTER4).modes
        seen = _count_division_data(monkeypatch)
        assert main(argv) == 0
        assert _calls_per_mode(seen, modes) == _reductions_only(1, 4)
        assert seen["determinant"] == seen["poly_roots"] == []

    def test_posreal_pair_divides_once_per_mode(self, monkeypatch, tmp_path):
        seen = _count_division_data(monkeypatch)
        out = str(tmp_path / "cert.json")
        assert main(["posreal", "mlf", "--r1", self.R1, "--r2", self.R2, "--out", out]) == 0
        modes = [polymatrix_from_json(json.loads(Path(p).read_text())) for p in (self.R1, self.R2)]
        # the SPR test reads the poles of R2 R1^{-1} off the reduction of
        # R1 that the model holds, and the roots of det P off P's reduction
        assert _calls_per_mode(seen, modes) == _reductions_only(1, 2)
        assert seen["determinant"] == seen["poly_roots"] == []

    def test_two_loads_divide_twice(self, monkeypatch):
        # nothing is shared between models: no cache outlives a load
        modes = load_model(self.CONVERTER4).modes
        seen = _count_division_data(monkeypatch)
        for _ in range(2):
            assert main(["check", self.CONVERTER4, "--route", "exact"]) == 0
        assert _calls_per_mode(seen, modes) == _reductions_only(2, 4)
        assert seen["determinant"] == seen["poly_roots"] == []


def _walk_signal(model: SldsModel) -> dict:
    """A schedule from mode 1 that takes the lowest-numbered transition out
    of the current mode at t = 0.1, 0.2, ..., once per mode."""
    events, mode = [], 1
    for i in range(model.n_modes):
        targets = sorted(l for k, l in model.gluing if k == mode)
        if not targets:
            break
        mode = targets[0]
        events.append([0.1 * (i + 1), mode])
    return {"initial_mode": 1, "events": events}


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_simulation_forms_no_determinant(monkeypatch, tmp_path, name):
    """``slds simulate`` column-reduces each mode once and forms no
    Leibniz determinant or polynomial root set (``slds check`` on the corpus:
    ``tests/test_cli.py::TestRootsOncePerCommand::test_check_once_per_mode``)."""
    path = MODELS / f"{name}.json"
    model = load_model(path)
    signal = tmp_path / "signal.json"
    signal.write_text(json.dumps(_walk_signal(model)))
    x0 = ",".join(["1.0"] * model.realizations[0].n)
    seen = _count_division_data(monkeypatch)
    assert main(["simulate", str(path), "--signal", str(signal), "--x0", x0,
                 "--t-end", "1", "--dt", "0.05"]) == 0
    assert _calls_per_mode(seen, model.modes) == _reductions_only(1, model.n_modes)
    assert seen["determinant"] == seen["poly_roots"] == []


def _loaded_models(monkeypatch) -> list:
    """Record every model the command line loads."""
    models = []
    load = cli_mod.load_model
    monkeypatch.setattr(cli_mod, "load_model", lambda path: models.append(load(path)) or models[-1])
    return models


class _Proxy:
    """A module stand-in: the given attributes, the rest from ``target``."""

    def __init__(self, target, **attrs):
        self._target = target
        self.__dict__.update(attrs)

    def __getattr__(self, name):
        return getattr(self._target, name)


@pytest.mark.parametrize("name", CORPUS)
def test_model_derivation_divides_nothing(monkeypatch, tmp_path, name):
    """A model's ``A``, ``B``, ``C``, normal form and ``L`` are read off each
    mode's column reduction: no division modulo ``R_k`` and no
    least-squares solve in ``statespace`` or ``model``, with or without the
    file's state maps."""
    def refuse(*args, **kw):
        raise AssertionError("a division or least squares on the model path")

    for mod in (statespace, model_mod):
        monkeypatch.setattr(mod, "np", _Proxy(np, linalg=_Proxy(np.linalg, lstsq=refuse)))
    for mod in (polymat, statespace, model_mod, posreal):  # no polynomial remainder is formed
        monkeypatch.setattr(mod, "canonical_rep", refuse, raising=False)
    doc = json.loads((MODELS / f"{name}.json").read_text())
    for given in (doc, {k: v for k, v in doc.items() if k != "state_maps"}):
        model = model_from_json(given)
        for real in model.realizations:
            assert real.C.shape == (model.w, real.n)
        assert len(model.reinits) == len(model.gluing)


class TestCertifyDerivesOnlyWhatItReads:
    """A verdict reads each mode's ``A`` and the re-initialisation maps;
    the output map ``C`` is left to simulation, and each ``F+`` is
    factored once."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_check_computes_no_output_map(self, monkeypatch, tmp_path, name):
        models = _loaded_models(monkeypatch)
        path, cert = str(MODELS / f"{name}.json"), str(tmp_path / "cert.json")
        rc = main(["check", path, "--out", cert])
        if rc == 0:
            assert main(["check", path, "--verify-only", cert]) == 0
        assert models and all(
            "C" not in real.__dict__ for m in models for real in m.realizations
        )

    @pytest.mark.parametrize(
        "events, visited", [([], {1}), ([[0.001, 2]], {1, 2}), (None, {1, 2, 3, 4})]
    )
    def test_simulate_computes_output_map_once_per_visited_mode(
        self, monkeypatch, tmp_path, events, visited
    ):
        models = _loaded_models(monkeypatch)
        calls = []
        express = statespace.express_in_state_basis
        monkeypatch.setattr(
            statespace, "express_in_state_basis",
            lambda *a: calls.append(a[1]) or express(*a),
        )
        signal = MODELS / "converter_cycle.json"
        if events is not None:
            signal = tmp_path / "signal.json"
            signal.write_text(json.dumps({"initial_mode": 1, "events": events}))
        assert main([
            "simulate", str(MODELS / "source_converter_4mode.json"), "--signal", str(signal),
            "--x0", "1,1", "--t-end", "0.004", "--dt", "1e-4", "--out", str(tmp_path / "t.csv"),
        ]) == 0
        (model,) = models
        have_c = {k for k, real in enumerate(model.realizations, start=1) if "C" in real.__dict__}
        assert have_c == visited
        assert sorted(calls, key=id) == sorted((model.modes[k - 1] for k in visited), key=id)

    @pytest.mark.parametrize("name", CORPUS)
    def test_check_takes_one_svd_per_transition(self, monkeypatch, tmp_path, name):
        models = _loaded_models(monkeypatch)
        calls = []
        svd = np.linalg.svd
        linalg = _Proxy(
            np.linalg,
            svd=lambda a, *args, **kw: calls.append(a.shape) or svd(a, *args, **kw),
            pinv=None,  # no pinv call: L is formed from the one SVD
        )
        monkeypatch.setattr(model_mod, "np", _Proxy(np, linalg=linalg))
        path, cert = str(MODELS / f"{name}.json"), str(tmp_path / "cert.json")
        rc = main(["check", path, "--out", cert])
        if rc == 0:
            assert main(["check", path, "--verify-only", cert]) == 0
        assert len(calls) == sum(len(m.gluing) for m in models)


class TestCircuitModel:
    def test_reinit_maps(self):
        model = corpus_model("elcirc")
        rm = reinit_maps(model)
        # paralleling the capacitors halves the surviving voltage
        assert np.allclose(rm[(2, 1)], [[0.5]])
        assert np.allclose(rm[(1, 2)], [[1.0]])

    def test_well_posed(self):
        verdicts, ok = is_well_posed(corpus_model("elcirc"))
        assert ok
        assert set(verdicts) == {(1, 2), (2, 1)}

    def test_normal_form_shapes(self):
        nf = normal_form(corpus_model("elcirc"))
        pair = nf[(2, 1)]
        assert pair.f_minus.shape == (2, 1)
        assert pair.f_plus.shape == (2, 1)


class TestValidation:
    def test_rejects_nonsquare_mode(self):
        R = _pm([[[1.0, 1.0], [0.0]]])  # 1 x 2
        with pytest.raises(ValueError):
            SldsModel(modes=[R], gluing={})

    def test_rejects_singular_mode(self):
        R = _pm([[[1.0], [1.0]], [[1.0], [1.0]]])
        with pytest.raises(ValueError):
            SldsModel(modes=[R], gluing={})

    def test_rejects_self_transition(self):
        R = _pm([[[1.0, 1.0]]])
        I1 = PolyMatrix.identity(1)
        with pytest.raises(ValueError):
            SldsModel(modes=[R], gluing={(1, 1): (I1, I1)})

    def test_rejects_out_of_range_mode(self):
        R = _pm([[[1.0, 1.0]]])
        I1 = PolyMatrix.identity(1)
        with pytest.raises(ValueError):
            SldsModel(modes=[R], gluing={(1, 3): (I1, I1)})

    def test_ill_posed_transition_detected(self):
        # G+ projects onto nothing: F+ = 0 is rank deficient
        R = _pm([[[1.0, 1.0]]])
        zero = _pm([[[0.0]]])
        one = PolyMatrix.identity(1)
        model = SldsModel(modes=[R, R], gluing={(1, 2): (one, zero)})
        verdicts, ok = is_well_posed(model)
        assert not ok
        assert verdicts[(1, 2)] is False


class TestStateMaps:
    def test_explicit_state_maps_respected(self):
        model = corpus_model("concond")
        assert model.state_maps[0].shape == (2, 2)
        assert model.state_maps[1].shape == (1, 2)

    def test_auto_state_maps(self):
        doc = json.loads((MODELS / "elcirc.json").read_text())
        model = model_from_json({k: v for k, v in doc.items() if k != "state_maps"})
        assert [x.rows for x in model.state_maps] == [1, 1]

    def test_converter_pinned_basis(self):
        model = corpus_model("source_converter_4mode")
        assert [x.rows for x in model.state_maps] == [2, 2, 3, 3]


class TestJson:
    @pytest.mark.parametrize("name", ["elcirc", "exmath", "concond"])
    def test_round_trip(self, name):
        model = corpus_model(name)
        doc = json.loads(json.dumps(model_to_json(model)))
        back = model_from_json(doc)
        assert back.n_modes == model.n_modes
        assert sorted(back.gluing) == sorted(model.gluing)
        rm0 = reinit_maps(model)
        rm1 = reinit_maps(back)
        for key in rm0:
            assert np.allclose(rm0[key], rm1[key])

    def test_duplicate_gluing_rejected(self):
        doc = model_to_json(corpus_model("elcirc"))
        doc["gluing"].append(doc["gluing"][0])
        with pytest.raises(ValueError):
            model_from_json(doc)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing key 'variables'"):
            model_from_json({"modes": []})


def test_converter_six_mode_loads():
    model = corpus_model("source_converter_6mode")
    assert model.n_modes == 6
    # RL and RC loads never directly swapped
    assert (3, 5) not in model.gluing and (5, 4) not in model.gluing
    verdicts, ok = is_well_posed(model)
    assert ok
