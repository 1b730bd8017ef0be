import json

import numpy as np
import pytest

from sldstab import model as model_mod
from sldstab.fixtures import concond, elcirc, exmath, source_converter
from sldstab.mlf import find_mlf, verify_mlf
from sldstab.model import (
    SldsModel,
    is_consistent,
    is_well_posed,
    model_from_json,
    model_to_json,
    normal_form,
    reinit_maps,
)
from sldstab.polymat import PolyMatrix
from sldstab.sim import SwitchingSignal, simulate


def _pm(entries):
    return PolyMatrix.from_entries(entries)


class TestDerivedOnce:
    def test_normal_form_reduced_once_per_model(self, monkeypatch):
        calls = []
        reduce = model_mod.normal_form
        monkeypatch.setattr(
            model_mod, "normal_form", lambda m: calls.append(m) or reduce(m)
        )
        model = elcirc()
        is_well_posed(model)
        cert = find_mlf(model)
        assert verify_mlf(model, cert)[0]
        signal = SwitchingSignal(initial_mode=1, events=((0.5, 2), (1.0, 1)))
        simulate(model, signal, [1.0], 1.5, 0.1, certificate=cert)
        assert len(calls) == 1 and calls[0] is model


class TestCircuitModel:
    def test_reinit_maps(self):
        model = elcirc()
        rm = reinit_maps(model)
        # paralleling the capacitors halves the surviving voltage
        assert np.allclose(rm[(2, 1)].L, [[0.5]])
        assert np.allclose(rm[(1, 2)].L, [[1.0]])

    def test_well_posed(self):
        verdicts, ok = is_well_posed(elcirc())
        assert ok
        assert set(verdicts) == {(1, 2), (2, 1)}

    def test_consistent(self):
        cons = is_consistent(elcirc())
        assert all(cons.values())

    def test_normal_form_shapes(self):
        nf = normal_form(elcirc())
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
        model = concond()
        assert model.state_maps[0].shape == (2, 2)
        assert model.state_maps[1].shape == (1, 2)

    def test_auto_state_maps(self):
        model = elcirc()
        assert [x.rows for x in model.state_maps] == [1, 1]

    def test_converter_pinned_basis(self):
        model = source_converter(4)
        assert [x.rows for x in model.state_maps] == [2, 2, 3, 3]


class TestJson:
    @pytest.mark.parametrize("build", [elcirc, exmath, concond])
    def test_round_trip(self, build):
        model = build()
        doc = json.loads(json.dumps(model_to_json(model)))
        back = model_from_json(doc)
        assert back.n_modes == model.n_modes
        assert sorted(back.gluing) == sorted(model.gluing)
        rm0 = reinit_maps(model)
        rm1 = reinit_maps(back)
        for key in rm0:
            assert np.allclose(rm0[key].L, rm1[key].L)

    def test_duplicate_gluing_rejected(self):
        doc = model_to_json(elcirc())
        doc["gluing"].append(doc["gluing"][0])
        with pytest.raises(ValueError):
            model_from_json(doc)

    def test_missing_key_rejected(self):
        with pytest.raises((ValueError, KeyError)):
            model_from_json({"modes": []})


def test_converter_six_mode_loads():
    model = source_converter(6)
    assert model.n_modes == 6
    # RL and RC loads never directly swapped
    assert (3, 5) not in model.gluing and (5, 4) not in model.gluing
    verdicts, ok = is_well_posed(model)
    assert ok
