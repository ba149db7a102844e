import sys
from pathlib import Path

import pytest
from hypothesis import settings

from pga.corpus import load_corpus
from pga.harness import analyze

ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = ROOT / "corpus"

sys.path.insert(0, str(Path(__file__).resolve().parent))

# Property tests draw the same examples on every run, so a defect one of
# them can catch is caught every time, not only in some runs.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def corpus_entries():
    return load_corpus(CORPUS_DIR)


@pytest.fixture(scope="session")
def corpus_by_name(corpus_entries):
    return {e.name: e for e in corpus_entries}


@pytest.fixture(scope="session")
def analysis_of(corpus_by_name):
    """Lazily computed, session-cached GroupAnalysis per corpus group."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = analyze(corpus_by_name[name])
        return cache[name]

    return get


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS_DIR
