import json
import multiprocessing
import resource
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from sidecomp import codec, limits
from sidecomp.models import (
    Alphabet,
    CondIidModel,
    SideInfoString,
    load_model,
    model_from_dict,
)

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"

# address space of a call_within child: a call that would fill the
# machine's memory raises MemoryError there instead
CHILD_MEMORY = 2 << 30


def call_within(seconds: float, fn):
    """``fn()`` in a forked child with ``seconds`` of time and
    ``CHILD_MEMORY`` bytes of address space: ``("value", result)`` or
    ``("raised", exception type, message)``, or None when the time ran
    out.  So a call that never returns fails its test instead of hanging
    the suite.  The child is forked, so ``fn`` may be a closure; the
    suite starts no threads that a fork could catch holding a lock."""
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def child():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = CHILD_MEMORY if hard == resource.RLIM_INFINITY else min(CHILD_MEMORY, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        try:
            send.send(("value", fn()))
        except BaseException as exc:
            send.send(("raised", type(exc), str(exc)[:200]))

    proc = ctx.Process(target=child, daemon=True)
    proc.start()
    try:
        return receive.recv() if receive.poll(seconds) else None
    finally:
        proc.kill()
        proc.join(seconds)

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    """Collect one pass/fail line per acceptance criterion."""
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@pytest.fixture(autouse=True)
def fresh_memos():
    """Each test starts with empty last-law and last-codebook memos (same
    hold predicates), so an object held after one test never shifts
    another test's build counts or garbage checks.  Its own patcher, so
    a test's ``monkeypatch.undo()`` keeps them."""
    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((limits, "_LAST_REF_LAW"), (codec, "_LAST_BOOK")):
            patch.setattr(module, name, limits._LastBuilt(getattr(module, name)._small))
        yield


# pair chains that ``validate`` rejects: two contexts that alternate
# (period 2), and two contexts that each keep to themselves (two closed
# classes)
PERIODIC_CHAIN = {
    "kind": "markov_pair",
    "x_alphabet": ["0"], "y_alphabet": ["0", "1"],
    "order": 1,
    "transition": [["0", "1"], ["1", "0"]],
}
REDUCIBLE_CHAIN = {**PERIODIC_CHAIN, "transition": [["1", "0"], ["0", "1"]]}


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


@st.composite
def pair_chains(draw, max_order=2, pool_size=3, initial=False):
    """Pair chains of order 1 to ``max_order`` (at most 81 contexts) with
    rational rows that have zero entries.

    Contexts take their rows from a pool of at most ``pool_size`` (one
    per context if None), so rows repeat and the distinct CDF levels are
    shared between rows.  Every row puts mass on pair symbol 0, which
    keeps the chain ergodic and aperiodic.  With ``initial``, some chains
    get an explicit initial law, with zeros.
    """
    nx, ny = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    S = nx * ny
    order = draw(st.integers(1, max_order).filter(lambda o: S**o <= 81))
    weights = st.tuples(st.integers(1, 3), *[st.integers(0, 2)] * (S - 1))
    pool = draw(st.lists(weights, min_size=1, max_size=pool_size or S**order))
    rows = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(S**order)]
    doc = {
        "kind": "markov_pair", "order": order,
        "x_alphabet": list("abc")[:nx], "y_alphabet": list("012")[:ny],
        "transition": [[str(Fraction(w, sum(row))) for w in row] for row in rows],
    }
    if initial and draw(st.booleans()):
        w = draw(st.lists(st.integers(0, 3), min_size=S**order, max_size=S**order)
                 .filter(any))
        doc["initial"] = [str(Fraction(v, sum(w))) for v in w]
    return model_from_dict(doc)


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
