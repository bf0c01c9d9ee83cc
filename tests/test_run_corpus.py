import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_corpus.py"


def load_run_corpus():
    spec = importlib.util.spec_from_file_location("run_corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_sweep_smoke(capsys):
    # p = 5, 7 at the default --max-deg 4 builds companions up to degree 7^4
    for ps in (["2", "3"], ["5", "7"]):
        assert load_run_corpus().main(["--ps", *ps, "--count", "5", "--depth", "6"]) == 0
        assert "5 polynomials, 0 invariant failures" in capsys.readouterr().out
