import importlib.util
import json
import time
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sldstab.cli import main
from sldstab.model import load_model, model_from_json
from sldstab.polymat import (
    PolyMatrix,
    canonical_rep,
    determinant,
    is_strictly_proper,
    poly_roots,
    polymatrix_from_json,
)
from sldstab.posreal import build_standard_slds
from sldstab.statespace import (
    REALIZE_TOL,
    eigenstructure,
    express_in_state_basis,
    minimal_state_map,
    propagator,
    realize,
)

import polytools

MODELS = Path(__file__).resolve().parents[1] / "models"


def _random_hurwitz_scalar(rng, deg):
    """Monic scalar polynomial with all roots in the open left half-plane."""
    n_real = deg % 2
    n_pairs = deg // 2
    p = np.array([1.0])
    for _ in range(n_real):
        p = np.convolve(p, [1.0, rng.uniform(0.2, 5.0)])
    for _ in range(n_pairs):
        a = rng.uniform(0.2, 4.0)
        b = rng.uniform(0.0, 6.0)
        p = np.convolve(p, [1.0, 2 * a, a * a + b * b])
    return PolyMatrix.from_entries([[p[::-1].tolist()]])


class TestMinimalStateMap:
    def test_scalar_degree_two(self):
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        X = minimal_state_map(R)
        assert X.shape == (2, 1)
        # rows span {1, xi} (any basis): coefficient matrix has rank 2
        assert np.linalg.matrix_rank(X.stack(2)) == 2
        assert is_strictly_proper(X, R)

    def test_row_count_is_determinant_degree(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            deg = int(rng.integers(1, 5))
            R = _random_hurwitz_scalar(rng, deg)
            assert minimal_state_map(R).rows == deg

    def test_two_variable_circuit_mode(self):
        R = PolyMatrix.from_entries([[[0.0], [1.0, 1.0]], [[1.0], [-1.0]]])
        X = minimal_state_map(R)
        assert X.rows == 1
        assert is_strictly_proper(X, R)


@cache
def _generators():
    """The benchmark's seeded input generators (numpy only)."""
    path = MODELS.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _corpus_modes():
    """Every mode matrix of the bundled models and pair files, then of 300
    seeded ``gen.slds_member`` draws, as ``(name, JSON grid)``."""
    for path in sorted(MODELS.glob("*.json")):
        doc = json.loads(path.read_text())
        modes = [doc] if isinstance(doc, list) else doc.get("modes", [])
        for i, m in enumerate(modes):
            yield f"{path.stem}:{i + 1}", m
    shapes = [(w, m) for w in (2, 3) for m in (2, 3, 4)]
    for seed in range(300):
        doc = _generators().slds_member(np.random.default_rng(seed), *shapes[seed % 6])
        for i, m in enumerate(doc["model"]["modes"]):
            yield f"draw {seed}:{i + 1}", m


class TestStateMapIsCanonical:
    """Column reducedness makes each state-map row its own canonical
    representative modulo ``R``, so ``minimal_state_map`` divides by nothing:
    ``canonical_rep`` returns the map bit for bit."""

    def test_corpus_and_draws(self):
        n = 0
        for name, doc in _corpus_modes():
            R = polymatrix_from_json(doc)
            X = minimal_state_map(R)
            got = canonical_rep(X, R).coeffs
            assert got.shape == X.coeffs.shape, name
            assert got.tobytes() == X.coeffs.tobytes(), name
            n += 1
        assert n > 900


def _time_scaled(doc: dict, c: float) -> dict:
    """The model with every mode ``R(xi)`` replaced by ``R(c xi)``."""
    modes = [[[[v * c**p for p, v in enumerate(e)] for e in row] for row in R] for R in doc["modes"]]
    return dict(doc, modes=modes)


class TestStateDimensionFromColumnDegrees:
    """The state dimension is the sum of the column degrees of the column
    reduction: no trimmed ``det R`` coefficient decides it."""

    @pytest.mark.parametrize("c", [1e3, 1e-3])
    def test_time_scaled_draws_keep_their_state(self, c):
        # R(xi) -> R(c xi) changes the time unit only; at c = 1e3 the trimmed
        # Leibniz det R of 15 of these draws has a spurious leading coefficient,
        # so a state dimension read off it is 4
        rng = np.random.default_rng(7)
        for i in range(20):
            model = model_from_json(_time_scaled(_generators().slds_member(rng, 3, 3)["model"], c))
            assert [real.n for real in model.realizations] == [3, 3, 3], i
            assert len(model.reinits) == 6, i

    def test_column_scaled_converter_certifies(self, tmp_path):
        # w -> diag(1, 1e4) w makes mode 3 diag(1e-2 + 1e-4 xi, 1.01e-4 +
        # 5.2e-9 xi + 1e-12 xi^2): column reduced, with leading singular values
        # 1e-4 and 1e-12, which an absolute floor of 1e-10 would call singular
        doc = json.loads((MODELS / "source_converter_4mode.json").read_text())
        cols = np.array([1.0, 1e-4])

        def scaled(M):
            return [[[v * cols[j] for v in e] for j, e in enumerate(row)] for row in M]

        doc["modes"] = [scaled(R) for R in doc["modes"]]
        doc["state_maps"] = [scaled(X) for X in doc["state_maps"]]
        for glue in doc["gluing"]:
            glue["g_minus"], glue["g_plus"] = scaled(glue["g_minus"]), scaled(glue["g_plus"])
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 0

    def test_wide_draw_certifies_quickly(self, tmp_path):
        # no n! term: the Leibniz adjugate alone would need several GB at w = 12
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(
            _generators().slds_member(np.random.default_rng(0), 12, 2)["model"]
        ))
        start = time.process_time()
        assert main(["check", str(path)]) == 0
        assert time.process_time() - start < 5.0


class TestRealize:
    @pytest.mark.parametrize("seed", range(10))
    def test_eigenvalues_match_determinant_roots(self, seed):
        """Five random stable modes per seed: eig(A) == roots(det R)."""
        rng = np.random.default_rng(100 + seed)
        for _ in range(5):
            deg = int(rng.integers(1, 5))
            R = _random_hurwitz_scalar(rng, deg)
            X = minimal_state_map(R)
            real = realize(R, X)
            got = np.sort_complex(np.linalg.eigvals(real.A))
            want = np.sort_complex(poly_roots(determinant(R)))
            assert np.allclose(got, want, atol=1e-6 * max(1.0, np.abs(want).max()))

    def test_output_map_reconstructs_identity(self):
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        X = minimal_state_map(R)
        real = realize(R, X)
        # C X == I modulo R; on-behavior check at the roots of det R
        for lam in (-1.0, -2.0):
            Xl = X(lam)
            assert np.allclose(real.C @ Xl, [[1.0]], atol=1e-9)

    # R = xi^2 + 3 xi + 2 with rows of X = xi + 1: xi (xi + 1) = -2 (xi + 1) + R,
    # so the residual of xi X = A X + B R is zero although X misses a state
    PARTIAL = [[[[1.0, 1.0]]], [[[1.0, 1.0]], [[2.0, 2.0]]]]

    @pytest.mark.parametrize("rows", PARTIAL, ids=["too-few-rows", "dependent-rows"])
    def test_rejects_state_map_with_zero_residual_missing_a_state(self, rows):
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        with pytest.raises(ValueError, match="not a minimal state map"):
            realize(R, PolyMatrix.from_entries(rows))

    def test_scaled_mode_has_the_trace_of_its_determinant(self, tmp_path):
        # det R = 1e9 (xi^2 + 3 xi + 3): A is read off the column reduction,
        # so its trace is -3 to rounding (the least-squares fit gave
        # A_11 = -2.99999964, and the search then found no certificate)
        entries = [[[3e9, 0.0, 1e9], [0.0, 1.0]], [[0.0, 0.0, 1e9], [1.0, 1.0]]]
        real = realize(PolyMatrix.from_entries(entries))
        assert np.trace(real.A) == pytest.approx(-3.0, rel=1e-14)
        assert np.linalg.det(real.A) == pytest.approx(3.0, rel=1e-14)
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps({"variables": 2, "modes": [entries], "gluing": []}))
        assert main(["check", str(path)]) == 0

    def test_accepted_state_map_spans_the_output_map(self):
        """A state map that realize accepts yields C: two rows of degree
        one, independent, for deg det R = 2."""
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        real = realize(R, PolyMatrix.from_entries([[[1.0, 1.0]], [[0.0, 1.0]]]))
        for lam in (-1.0, -2.0):
            assert np.allclose(real.C @ real.X(lam), [[1.0]], atol=1e-9)

    def test_state_equation_residual(self):
        """xi X = A X + B R as polynomial identity, 50 random stable modes."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            deg = int(rng.integers(1, 5))
            R = _random_hurwitz_scalar(rng, deg)
            X = minimal_state_map(R)
            real = realize(R, X)
            grid = int(max(R.degree, X.degree + 1)) + 1
            lhs = X.stack(grid + 1)[:, : grid * R.shape[1]]
            # xi*X has coefficients shifted by one block
            w = R.shape[1]
            Xs = np.zeros_like(lhs)
            Xs[:, w:] = X.stack(grid)[:, : (grid - 1) * w]
            rhs = real.A @ X.stack(grid) + real.B @ R.stack(grid)
            assert np.max(np.abs(Xs - rhs)) < 1e-9 * max(1.0, np.abs(rhs).max())


class TestResidualScale:
    """``realize`` judges its residual against the terms it sums, so its
    verdict does not depend on the scale of ``X`` or of ``R``."""

    @pytest.mark.parametrize("c", [1.0, 1e-6, 1e-10, 1e-12])
    def test_map_that_is_not_strictly_proper_rejected_at_every_scale(self, c):
        # rows 1 and xi + xi^2 over xi^2 + 3 xi + 2: independent modulo R, but
        # xi + xi^2 is not strictly proper; a floor of 1 under the scale
        # once accepted this map at c = 1e-10
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        X = polytools.scale(PolyMatrix.from_entries([[[1.0]], [[0.0, 1.0, 1.0]]]), c)
        with pytest.raises(ValueError, match="not a valid state map"):
            realize(R, X)

    def test_corpus_accepted_at_every_scale(self):
        # each corpus mode over its state map, R scaled by 1e-8 ... 1e4 times
        # X scaled by 1e-8 ... 1e4
        scales = (1e-8, 1e-4, 1.0, 1e4)
        for path in sorted(MODELS.glob("*.json")):
            doc = json.loads(path.read_text())
            if not (isinstance(doc, dict) and "modes" in doc):
                continue
            model = model_from_json(doc)
            for R, X in zip(model.modes, model.state_maps):
                for c in scales:
                    for s in scales:
                        real = realize(polytools.scale(R, c), polytools.scale(X, s))
                        assert real.n == X.rows, (path.stem, c, s)


class TestStackedBlocks:
    """``express_in_state_basis`` on several blocks against each block alone."""

    @staticmethod
    def _mode():
        model = load_model(MODELS / "source_converter_4mode.json")
        return model.modes[0], model.state_maps[0]

    def test_each_block_matches_its_lone_reduction(self):
        R, X = self._mode()
        rng = np.random.default_rng(7)
        blocks = [
            PolyMatrix(scale * rng.standard_normal((4, rows, X.cols)))
            for scale, rows in ((1e-6, 2), (1e6, 3), (1.0, 1), (1e-6, 1))
        ]
        real = realize(R, X)
        stacked = express_in_state_basis(blocks, R, real.T_inv)
        want = _express_per_block(blocks, R, X)
        for G, F, ref in zip(blocks, stacked, want):
            (lone,) = express_in_state_basis([G], R, real.T_inv)
            assert F.shape == lone.shape == ref.shape == (G.rows, X.rows)
            assert np.max(np.abs(F - lone)) <= 1e-12 * np.max(np.abs(lone))
            assert np.max(np.abs(F - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_block_outside_the_span_raises_among_others(self):
        # a map that lost a row is no minimal state map: realize rejects it
        # before any block is expressed, where the division oracle rejects
        # the block outside its span
        R, X = self._mode()
        kept, dropped = X.stack()[:-1], X.row(X.rows - 1)
        Xs = PolyMatrix.from_stack(kept, X.cols)
        inside = [polytools.scale(Xs, 1e6), Xs.row(0)]
        assert len(_express_per_block(inside, R, Xs)) == 2
        with pytest.raises(ValueError, match="X is not a minimal state map"):
            realize(R, Xs)
        real = realize(R, X)
        for outside in (dropped, polytools.scale(dropped, 1e-6)):
            blocks = [inside[0], outside, inside[1]]
            with pytest.raises(ValueError, match="not in the state-map row span"):
                _express_per_block(blocks, R, Xs)
            got = express_in_state_basis(blocks, R, real.T_inv)
            for f, g in zip(got, _express_per_block(blocks, R, X)):
                assert np.max(np.abs(f - g)) <= 1e-10 * np.max(np.abs(g))


# ---------------------------------------------------------------------------
# oracle: the division and least-squares derivation that the companion data
# of the column reduction replaced


STATE_BASIS_TOL = 1e-9


def _express_per_block(blocks, R, X):
    """Reference: ``G mod R`` by division (``G - N R``, ``N`` the reference
    :func:`polytools.polynomial_part`, once per block), then one
    least-squares solve over the coefficient stack of X and the span check
    of each block on its own, within ``STATE_BASIS_TOL``."""
    reps = [G - polytools.polynomial_part(G, R) @ R for G in blocks]
    grid = max(X.coeffs.shape[0], *(g.coeffs.shape[0] for g in reps))
    Xa = X.stack(grid)
    Ga = [g.stack(grid) for g in reps]
    F, *_ = np.linalg.lstsq(Xa.T, np.vstack(Ga).T, rcond=None)
    out = []
    at = 0
    for g in Ga:
        f = F.T[at : at + g.shape[0]]
        at += g.shape[0]
        resid = np.max(np.abs(f @ Xa - g)) if g.size else 0.0
        scale = max(1.0, np.max(np.abs(g)) if g.size else 0.0)
        if resid > STATE_BASIS_TOL * scale:
            raise ValueError("canonical representative not in the state-map row span")
        out.append(f)
    return out


def _realize_lstsq(R, X):
    """Reference: ``A`` and ``B`` from ``xi X = A X + B R`` by least squares
    over the coefficient stacks, with the checks ``realize`` made on them."""
    n = X.rows
    if n != sum(R._reduction.degrees):
        raise ValueError("X is not a minimal state map")
    grid = max(int(R.degree) + 1, int(X.degree) + 2)
    Xa = X.stack(grid)
    Xb = np.zeros_like(Xa)
    Xb[:, X.cols :] = Xa[:, : -X.cols]
    M = np.vstack([Xa, R.stack(grid)])
    AB = np.linalg.lstsq(M.T, Xb.T, rcond=None)[0].T
    resid = np.max(np.abs(AB @ M - Xb))
    if resid > REALIZE_TOL * max(1.0, np.max(np.abs(Xa)), R.max_norm()):
        raise ValueError(f"X is not a valid state map (residual {resid:.3e})")
    sv = np.linalg.svd(Xa, compute_uv=False)
    if sv[-1] <= REALIZE_TOL * sv[0]:
        raise ValueError("X is not a minimal state map")
    return AB[:, :n], AB[:, n:]


def _oracle(model):
    """``A``, ``B``, ``C`` per mode, ``F-``, ``F+`` and ``L = pinv(F+) F-``
    per transition, each by the reference derivation."""
    out = {}
    for k, (R, X) in enumerate(zip(model.modes, model.state_maps), start=1):
        out["A", k], out["B", k] = _realize_lstsq(R, X)
        (out["C", k],) = _express_per_block([PolyMatrix.identity(R.cols)], R, X)
    for (k, l), (gm, gp) in model.gluing.items():
        (fm,) = _express_per_block([gm], model.modes[k - 1], model.state_maps[k - 1])
        (fp,) = _express_per_block([gp], model.modes[l - 1], model.state_maps[l - 1])
        out["F-", k, l], out["F+", k, l] = fm, fp
        out["L", k, l] = np.linalg.pinv(fp) @ fm
    return out


def _derived(model):
    """The same data as :func:`_oracle`, as the model derives it."""
    out = {}
    for k, real in enumerate(model.realizations, start=1):
        out["A", k], out["B", k], out["C", k] = real.A, real.B, real.C
    for (k, l), pair in model.normal_form_pairs.items():
        out["F-", k, l], out["F+", k, l] = pair.f_minus, pair.f_plus
        out["L", k, l] = model.reinits[k, l].L
    return out


def _relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want), initial=0.0) / max(np.max(np.abs(want), initial=0.0), 1e-300))


def _oracle_cases():
    """``(name, model document or (R1, R2) pair)``: the corpus with and
    without its state maps, 300 seeded ``gen.slds_member`` draws, 30 seeded
    ``gen.spr_pair`` pairs and the 4 matrix pairs of ``tests/test_cli.py``."""
    from test_cli import MATRIX_PAIRS

    for path in sorted(MODELS.glob("*.json")):
        doc = json.loads(path.read_text())
        if isinstance(doc, dict) and "modes" in doc:
            yield path.stem, doc
            if "state_maps" in doc:
                yield f"{path.stem} without state_maps", {
                    k: v for k, v in doc.items() if k != "state_maps"
                }
    gen = _generators()
    shapes = [(w, m) for w in (2, 3) for m in (2, 3, 4)]
    for seed in range(300):
        yield f"draw {seed}", gen.slds_member(np.random.default_rng(seed), *shapes[seed % 6])["model"]
    rng = np.random.default_rng(23)
    for i in range(30):
        r1, r2 = gen.spr_pair(rng, 2 + i % 3)
        yield f"spr_pair {i}", tuple(PolyMatrix.from_entries([[list(r)]]) for r in (r1, r2))
    for name, pair in sorted(MATRIX_PAIRS.items()):
        yield name, pair()


# the unscaled least squares of the reference cannot realize these two over
# their minimal state maps (residual 1.461e-08, ROADMAP item 8)
ORACLE_FAILS = {f"source_converter_{m}mode without state_maps" for m in (4, 6)}


class TestCompanionMatchesDivisionOracle:
    def test_models_and_standard_pairs(self):
        n = 0
        for name, case in _oracle_cases():
            model = model_from_json(case) if isinstance(case, dict) else build_standard_slds(*case).model
            got = _derived(model)
            try:
                want = _oracle(model)
            except ValueError as exc:
                assert name in ORACLE_FAILS, (name, exc)
                continue
            assert name not in ORACLE_FAILS, name
            assert got.keys() == want.keys(), name
            for key, w in want.items():
                assert got[key].shape == w.shape, (name, key)
                assert _relative_gap(got[key], w) <= 1e-12, (name, key, _relative_gap(got[key], w))
            n += 1
        assert n == 5 + 3 + 300 + 30 + 4

    @pytest.mark.parametrize("name", ["source_converter_4mode", "source_converter_6mode"])
    def test_converter_loads_without_state_maps(self, name):
        # the column reduction realizes the converters over their minimal
        # state maps, which the unscaled least squares could not do
        doc = json.loads((MODELS / f"{name}.json").read_text())
        given = model_from_json(doc)
        derived = model_from_json({k: v for k, v in doc.items() if k != "state_maps"})
        assert [r.n for r in derived.realizations] == [r.n for r in given.realizations]
        for real in derived.realizations:
            assert real.T_inv is None
            scale = max(1.0, np.abs(real.Xa).max(), real.R.max_norm())
            assert np.abs(real.Xb - real.A @ real.Xa - real.B @ real.Rt).max() <= REALIZE_TOL * scale

    @pytest.mark.parametrize("name", ["concond", "elcirc", "exmath", "source_converter_4mode",
                                      "source_converter_6mode"])
    def test_check_exit_code_does_not_need_state_maps(self, tmp_path, name):
        doc = json.loads((MODELS / f"{name}.json").read_text())
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({k: v for k, v in doc.items() if k != "state_maps"}))
        assert main(["check", str(bare)]) == main(["check", str(MODELS / f"{name}.json")])


def _deg_u2_mode():
    """``diag(xi + 1, xi + 2) W`` with the unimodular ``W = [[1, xi^2 + xi], [0, 1]]``:
    its column reduction takes a ``U`` of degree 2."""
    R0 = PolyMatrix.from_entries([[[1.0, 1.0], [0.0]], [[0.0], [2.0, 1.0]]])
    R = R0 @ PolyMatrix.from_entries([[[1.0], [0.0, 1.0, 1.0]], [[0.0], [1.0]]])
    assert R._reduction.U.degree == 2
    return R


@cache
def _span_modes():
    """``(R, X)`` pairs: the converter's first mode over its file state map,
    ``concond``'s mode 2 (column degrees ``(1, 0)``) and a mode whose ``U``
    has degree 2, each over its minimal state map."""
    R, X = TestStackedBlocks._mode()
    concond = load_model(MODELS / "concond.json").modes[1]
    assert concond._reduction.degrees == (1, 0)
    return [(R, X), (concond, minimal_state_map(concond)), (_deg_u2_mode(), None)]


@st.composite
def _span_case(draw):
    """Blocks of scale 1e-8 to 1e8 or all zero, one to three rows each, over
    one of :func:`_span_modes`, whose state map may be changed by a random
    ``T`` (``X -> T X``) or lose its last row.  When it loses a row, a
    generic block falls outside its span; a block built on the state map
    stays in."""
    R, X = draw(st.sampled_from(_span_modes()))
    X = minimal_state_map(R) if X is None else X
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    change = draw(st.sampled_from(["none", "T", "drop"]))
    if change == "T":
        X = PolyMatrix(rng.uniform(0.5, 2.0) * np.eye(X.rows) + 0.3 * rng.standard_normal((1, X.rows, X.rows))) @ X
    elif change == "drop" and X.rows > 1:
        X = PolyMatrix.from_stack(X.stack()[:-1], X.cols)
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        rows, kind = rng.integers(1, 4), rng.choice(["span", "generic", "zero"])
        if kind == "span":  # in the span of X, plus a multiple of R
            G = PolyMatrix(rng.standard_normal((1, rows, X.rows))) @ X
            G = G + PolyMatrix(rng.standard_normal((2, rows, R.rows))) @ R
        else:
            G = PolyMatrix(rng.standard_normal((4, rows, X.cols)))
        blocks.append(polytools.scale(G, 0.0 if kind == "zero" else 10.0 ** rng.integers(-8, 9)))
    return blocks, R, X


class TestWholeStackSpanCheck:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_span_case())
    def test_matches_per_block_loop(self, case):
        # wherever the reference raises, realize rejects the map first; a
        # map that lost a row is rejected even where every block is in its
        # span.  Over a map that realize accepts, the reference never
        # raises, and each F is within 1e-10 of the reference's, relative to
        # the block
        blocks, R, X = case
        try:
            want = _express_per_block(blocks, R, X)
        except ValueError:
            want = None
        if X.rows != sum(R._reduction.degrees):
            with pytest.raises(ValueError, match="X is not a minimal state map"):
                realize(R, X)
            return
        assert want is not None
        got = express_in_state_basis(blocks, R, realize(R, X).T_inv)
        assert [f.shape for f in got] == [f.shape for f in want]
        for f, g in zip(got, want):
            assert np.max(np.abs(f - g), initial=0.0) <= 1e-10 * np.max(np.abs(g), initial=0.0)


class TestEigenstructure:
    def test_kernel_vectors(self):
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        X = minimal_state_map(R)
        eig = eigenstructure(R, X)
        for lam, v in zip(eig.eigenvalues, eig.directions.T):
            assert np.linalg.norm(R(lam) @ v) < 1e-8 * max(
                1.0, np.linalg.norm(R(lam))
            )

    def test_defective_mode_is_rejected(self):
        # det = -(xi+1)^2 with a one-dimensional kernel at -1
        R = PolyMatrix.from_entries(
            [[[-1.0, 1.0], [-1.0]], [[-1.0, -3.0], [0.0, -1.0]]]
        )
        X = PolyMatrix.identity(2)
        with pytest.raises(ValueError, match="defective"):
            eigenstructure(R, X)

    def test_v_matrix_contains_state_directions(self):
        R = PolyMatrix.from_entries([[[2.0, 3.0, 1.0]]])
        X = minimal_state_map(R)
        eig = eigenstructure(R, X)
        real = realize(R, X)
        # columns of V are eigenvectors of A
        for lam, col in zip(eig.eigenvalues, eig.V.T):
            assert np.linalg.norm(real.A @ col - lam * col) < 1e-7 * max(
                1.0, np.abs(lam)
            )


def test_propagator_matches_closed_form():
    A = np.array([[-2.0]])
    x = propagator(A, 0.7) @ np.array([3.0])
    assert x[0] == pytest.approx(3.0 * np.exp(-1.4))


def test_propagator_is_the_step_exponential():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    E = propagator(A, 0.4)
    # exp(A t) has eigenvalues exp(-t) and exp(-2t)
    assert sorted(np.linalg.eigvals(E).real) == pytest.approx(
        [np.exp(-0.8), np.exp(-0.4)]
    )
    assert np.allclose(E @ E, propagator(A, 0.8), atol=1e-14)
    assert np.array_equal(propagator(A, 0.0), np.eye(2))
    with pytest.raises(ValueError, match="nonnegative"):
        propagator(A, -1e-3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", ["full", "upper", "diagonal"])
def test_batched_propagator_equals_single_calls(n, shape):
    # the triangular and diagonal shapes take their own expm branches
    A = np.random.default_rng(n).standard_normal((n, n)) - 2.0 * np.eye(n)
    A = {"full": A, "upper": np.triu(A), "diagonal": np.diag(np.diag(A))}[shape]
    ts = np.array([0.0, 1e-6, 0.013, 0.4, 2.0, 7.5, 0.4])
    stack = propagator(A, ts)
    assert stack.shape == (len(ts), n, n)
    assert np.array_equal(stack, np.stack([propagator(A, t) for t in ts]))


def test_batched_propagator_edge_cases():
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    assert propagator(A, np.zeros(0)).shape == (0, 2, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        propagator(A, np.array([0.1, -1e-3]))
