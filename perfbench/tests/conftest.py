import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture
def at_root(monkeypatch):
    """The benchmark reads the model corpus relative to the checkout root."""
    monkeypatch.chdir(ROOT)
    return ROOT
