import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_generated_corpus_matches_committed(tmp_path, capsys):
    """scripts/generate_models.py reproduces models/*.json byte for byte."""
    generate = runpy.run_path(str(ROOT / "scripts" / "generate_models.py"))["main"]
    generate([str(tmp_path)])
    made = sorted(p.name for p in tmp_path.glob("*.json"))
    committed = sorted(p.name for p in (ROOT / "models").glob("*.json"))
    assert made == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (ROOT / "models" / name).read_bytes(), name
