import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from sidecomp.models import Alphabet, CondIidModel, SideInfoString, load_model

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    """Collect one pass/fail line per acceptance criterion."""
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@st.composite
def small_models(draw, max_ny=3):
    """Random conditionally i.i.d. model with exact rational entries."""
    nx = draw(st.integers(2, 3))
    ny = draw(st.integers(1, max_ny))
    rows = []
    for _ in range(ny):
        w = draw(
            st.lists(st.integers(0, 5), min_size=nx, max_size=nx).filter(
                lambda v: sum(v) > 0
            )
        )
        tot = sum(w)
        rows.append(tuple(Fraction(a, tot) for a in w))
    pw = draw(st.lists(st.integers(1, 5), min_size=ny, max_size=ny))
    py = tuple(Fraction(a, sum(pw)) for a in pw)
    return CondIidModel(
        x_alphabet=Alphabet(tuple(str(i) for i in range(nx))),
        y_alphabet=Alphabet(tuple(str(i) for i in range(ny))),
        p_x_given_y=tuple(rows),
        p_y=py,
    )


def y_repeat(model, word: str, n: int) -> SideInfoString:
    base = SideInfoString.from_labels(model.y_alphabet, word).indices
    reps = -(-n // len(base))
    return SideInfoString(model.y_alphabet, (base * reps)[:n])


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return MODELS_DIR


@pytest.fixture(scope="session")
def corpus_models() -> dict:
    return {p.stem: load_model(p) for p in sorted(MODELS_DIR.glob("*.json"))}


@pytest.fixture(scope="session")
def fig1():
    return load_model(MODELS_DIR / "fig1.json")


@pytest.fixture(scope="session")
def fig1_doc() -> dict:
    return json.loads((MODELS_DIR / "fig1.json").read_text())
