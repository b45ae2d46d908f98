"""Source models for compression with side information.

Two model kinds are supported, both over finite alphabets:

* ``cond_iid``: the side information string is drawn i.i.d. from an
  optional marginal ``p_y``, and source symbols are conditionally
  independent given the side information, ``P(x | y)`` per position.
* ``markov_pair``: the joint symbol process ``(X_i, Y_i)`` is a
  stationary-capable Markov chain of order ``d >= 1`` on the product
  alphabet, specified by a transition table whose rows are indexed by
  length-``d`` contexts of pair symbols.

Model files are JSON.  Probabilities are written as strings and parsed
exactly: decimal strings like ``"0.15"`` and ratio strings like
``"1/3"`` both map to exact rationals.  Every model keeps the rational
table as the source of truth and exposes float mirrors for numerics.

Pair-symbol and context indexing convention: the pair ``(x, y)`` has
index ``x_index * |Y| + y_index``, and a context ``(s_1, ..., s_d)``
has index ``sum(s_t * |XY|^(d-1-t))``, i.e. the first (oldest) symbol
is the most significant digit.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class ModelFormatError(ValueError):
    """Raised when a model file cannot be parsed into a model object."""


ROW_SUM_TOL = Fraction(1, 10**12)
# the digit limit Python puts on integer strings; a decimal exponent
# beyond it would make Fraction build an integer of that many digits
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")
# a side-information marginal whose Markovianity defect exceeds this is not Markov
MARKOVIANITY_TOL = 1e-9


def parse_probability(text: object) -> Fraction:
    """Parse one probability entry to an exact rational.

    Accepts integers and strings in decimal (``"0.25"``) or ratio
    (``"1/3"``) form.  Floats are rejected: their binary rounding is
    silent and a file author cannot see it.
    """
    if isinstance(text, bool):
        raise ModelFormatError(f"probability must be a string or int, got {text!r}")
    if isinstance(text, int):
        value = Fraction(text)
    elif isinstance(text, str):
        exponent = _EXPONENT.search(text)
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or "0") > _MAX_EXPONENT:
            raise ModelFormatError(f"probability {text!r} has a decimal exponent "
                                   f"beyond {_MAX_EXPONENT} in magnitude")
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelFormatError(f"cannot parse probability {text!r}") from exc
    else:
        raise ModelFormatError(f"probability must be a string or int, got {text!r}")
    if value < 0 or value > 1:
        raise ModelFormatError(f"probability {text!r} outside [0, 1]")
    return value


def probability_to_string(value: Fraction) -> str:
    """Render a rational probability losslessly, preferring decimals.

    Denominators of the form ``2^a 5^b`` print as exact decimal
    strings, everything else falls back to ``num/den``.
    """
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = max(twos, fives)
    if digits == 0:
        return str(value.numerator)
    scaled = value.numerator * 10**digits // value.denominator
    text = str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite alphabet of distinct text labels."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) == 0:
            raise ModelFormatError("alphabet is empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ModelFormatError(f"alphabet labels not distinct: {self.symbols}")
        if any(not s for s in self.symbols):
            raise ModelFormatError("alphabet labels must be non-empty strings")

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, label: str) -> int:
        try:
            return self.symbols.index(label)
        except ValueError:
            raise KeyError(f"label {label!r} not in alphabet {self.symbols}") from None


@dataclass(frozen=True)
class SideInfoString:
    """A concrete side-information string as alphabet indices."""

    alphabet: Alphabet
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) == 0:
            raise ValueError("side-information string is empty")
        if min(self.indices) < 0 or max(self.indices) >= len(self.alphabet):
            raise ValueError("side-information index out of range")

    @classmethod
    def from_labels(cls, alphabet: Alphabet, labels: Iterable[str] | str) -> "SideInfoString":
        if isinstance(labels, str):
            if all(len(s) == 1 for s in alphabet.symbols):
                parts: Sequence[str] = list(labels)
            else:
                parts = labels.split(",")
        else:
            parts = list(labels)
        return cls(alphabet, tuple(alphabet.index(p) for p in parts))

    def __len__(self) -> int:
        return len(self.indices)

    def labels(self) -> str:
        return "".join(self.alphabet.symbols[i] for i in self.indices)

    def counts(self) -> tuple[int, ...]:
        """Occurrence count of each y-symbol, the string's composition."""
        return tuple(map(self.indices.count, range(len(self.alphabet))))


@dataclass
class ValidationReport:
    """Outcome of structural and stochastic checks on a model."""

    ok: bool
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    details: dict[str, float] = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = [f"valid: {'yes' if self.ok else 'no'}"]
        out += [f"error: {e}" for e in self.errors]
        out += [f"warning: {w}" for w in self.warnings]
        out += [f"{k}: {v:.12g}" for k, v in sorted(self.details.items())]
        return out


def _check_pmf(row: Sequence[Fraction], what: str, errors: list[str]) -> None:
    if any(p < 0 for p in row):
        errors.append(f"{what}: negative entry")
    if abs(sum(row) - 1) > ROW_SUM_TOL:
        errors.append(f"{what}: entries sum to {float(sum(row))!r}, not 1")


@dataclass(frozen=True)
class CondIidModel:
    """Conditionally i.i.d. source given memoryless side information.

    ``p_x_given_y[j][i]`` is ``P(X = x_i | Y = y_j)``.  ``p_y`` is the
    side-information marginal; it may be omitted, in which case only
    reference-based (fixed ``y``) quantities are available.
    """

    x_alphabet: Alphabet
    y_alphabet: Alphabet
    p_x_given_y: tuple[tuple[Fraction, ...], ...]
    p_y: tuple[Fraction, ...] | None = None

    kind = "cond_iid"

    def __post_init__(self) -> None:
        if len(self.p_x_given_y) != len(self.y_alphabet):
            raise ModelFormatError("p_x_given_y needs one row per y-symbol")
        if any(len(row) != len(self.x_alphabet) for row in self.p_x_given_y):
            raise ModelFormatError("p_x_given_y rows need one entry per x-symbol")
        if self.p_y is not None and len(self.p_y) != len(self.y_alphabet):
            raise ModelFormatError("p_y needs one entry per y-symbol")

    @cached_property
    def cond_f(self) -> np.ndarray:
        """Float mirror of the conditional table, shape (|Y|, |X|)."""
        return np.array([[float(p) for p in row] for row in self.p_x_given_y])

    @cached_property
    def cond_log2(self) -> np.ndarray:
        """Elementwise log2 of the conditional table, -inf at zeros."""
        with np.errstate(divide="ignore"):
            return np.log2(self.cond_f)

    @cached_property
    def support_sizes(self) -> tuple[int, ...]:
        """Positive entries of each conditional row."""
        return tuple(sum(p > 0 for p in row) for row in self.p_x_given_y)

    @cached_property
    def p_y_f(self) -> np.ndarray:
        if self.p_y is None:
            raise ValueError("model has no side-information marginal p_y")
        return np.array([float(p) for p in self.p_y])

    def require_p_y(self) -> tuple[Fraction, ...]:
        if self.p_y is None:
            raise ValueError("operation needs the side-information marginal p_y")
        return self.p_y

    def validate(self) -> ValidationReport:
        errors: list[str] = []
        warnings: list[str] = []
        for j, row in enumerate(self.p_x_given_y):
            _check_pmf(row, f"p_x_given_y[{self.y_alphabet.symbols[j]}]", errors)
        if self.p_y is None:
            warnings.append("no p_y marginal: pair-averaged quantities unavailable")
        else:
            _check_pmf(self.p_y, "p_y", errors)
            if any(p == 0 for p in self.p_y):
                warnings.append("p_y has zero entries: those y-symbols never occur")
        return ValidationReport(ok=not errors, errors=errors, warnings=warnings)


@dataclass(frozen=True)
class MarkovPairModel:
    """Order-``d`` Markov chain on pair symbols ``(x, y)``.

    ``transition`` has ``|XY|^d`` rows (one per context, lexicographic
    per the module indexing convention) and ``|XY|`` columns.
    ``initial`` is an optional pmf over length-``d`` contexts; when
    omitted the stationary context law is used.
    """

    x_alphabet: Alphabet
    y_alphabet: Alphabet
    order: int
    transition: tuple[tuple[Fraction, ...], ...]
    initial: tuple[Fraction, ...] | None = None

    kind = "markov_pair"

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ModelFormatError("markov order must be >= 1")
        s = self.num_pair_symbols
        if len(self.transition) != s**self.order:
            raise ModelFormatError(
                f"transition needs {s**self.order} rows, got {len(self.transition)}"
            )
        if any(len(row) != s for row in self.transition):
            raise ModelFormatError(f"transition rows need {s} entries")
        if self.initial is not None and len(self.initial) != s**self.order:
            raise ModelFormatError("initial law needs one entry per context")

    @property
    def num_pair_symbols(self) -> int:
        return len(self.x_alphabet) * len(self.y_alphabet)

    @property
    def num_contexts(self) -> int:
        return self.num_pair_symbols**self.order

    def pair_index(self, x: int, y: int) -> int:
        return x * len(self.y_alphabet) + y

    def pair_split(self, s: int) -> tuple[int, int]:
        return divmod(s, len(self.y_alphabet))

    def context_index(self, symbols: Sequence[int]) -> int:
        idx = 0
        for s in symbols:
            idx = idx * self.num_pair_symbols + s
        return idx

    def context_symbols(self, idx: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.order):
            idx, s = divmod(idx, self.num_pair_symbols)
            out.append(s)
        return tuple(reversed(out))

    def shift_context(self, ctx: int, s: int) -> int:
        """Context after observing pair symbol ``s`` in context ``ctx``."""
        return (ctx * self.num_pair_symbols + s) % self.num_contexts

    @cached_property
    def _digits(self) -> np.ndarray:
        """The pair symbols of every context, oldest first, shape
        (contexts, order)."""
        S = self.num_pair_symbols
        return np.arange(self.num_contexts)[:, None] // S ** np.arange(self.order - 1, -1, -1) % S

    @cached_property
    def _next_context(self) -> np.ndarray:
        """Next context of every edge (context, pair symbol)."""
        return self.shift_context(np.arange(self.num_contexts)[:, None],
                                  np.arange(self.num_pair_symbols))

    @cached_property
    def _y_context(self) -> np.ndarray:
        """Index of the y-part of every pair context, in y-context digits."""
        ny = len(self.y_alphabet)
        return self.pair_split(self._digits)[1] @ ny ** np.arange(self.order - 1, -1, -1)

    @cached_property
    def _pair_symbols(self) -> np.ndarray:
        """Row ``y``: the pair symbols ``x·|Y| + y`` over all x."""
        return self.pair_index(np.arange(len(self.x_alphabet)),
                               np.arange(len(self.y_alphabet))[:, None])

    def _advance(
        self, probs: np.ndarray, ctx: np.ndarray, y: int, table: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The forward step of every pair-context recursion: each state
        ``(probs, ctx)`` followed by each x-symbol under y-symbol ``y``,
        x fastest, as flat weights ``probs · table[ctx, s]`` (a float
        transition table, or its integer numerators) and their next contexts.

        The states lie along the last axis of ``probs`` and ``ctx``; an
        array ``y`` broadcasts against their leading axes, so one step
        serves a block of y-prefixes."""
        s = self._pair_symbols[y][..., None, :]
        rows = ctx[..., None]
        weights = probs[..., None] * table[rows, s]
        shape = weights.shape[:-2] + (-1,)
        return weights.reshape(shape), self._next_context[rows, s].reshape(shape)

    @cached_property
    def transition_f(self) -> np.ndarray:
        return np.array([[float(p) for p in row] for row in self.transition])

    @cached_property
    def stationary_f(self) -> np.ndarray:
        """The stationary context law, solved once per model."""
        return stationary_context_law(self)

    @cached_property
    def initial_f(self) -> np.ndarray:
        if self.initial is not None:
            return np.array([float(p) for p in self.initial])
        return self.stationary_f

    def context_digraph(self) -> list[list[int]]:
        """Successor lists of the context chain, positive transitions only."""
        return [nxt[p > 0.0].tolist() for nxt, p in zip(self._next_context, self.transition_f)]

    @cached_property
    def _structure(self) -> tuple[list[list[int]], int]:
        """The closed classes of the context chain and the period of the
        first, analysed once per model."""
        succ = self.context_digraph()
        closed = closed_classes(succ)
        return closed, class_period(succ, closed[0])

    def validate(self) -> ValidationReport:
        errors: list[str] = []
        warnings: list[str] = []
        for c in range(self.num_contexts):
            _check_pmf(self.transition[c], f"transition row {c}", errors)
        if self.initial is not None:
            _check_pmf(self.initial, "initial law", errors)
        if not errors:
            closed, period = self._structure
            if len(closed) != 1:
                errors.append(
                    f"context chain is not irreducible: {len(closed)} closed classes"
                )
            elif period != 1:
                errors.append(f"context chain is not aperiodic: period {period}")
        report = ValidationReport(ok=not errors, errors=errors, warnings=warnings)
        if report.ok:
            derived = derive_y_chain(self)
            report.details["markovianity_defect"] = derived.markovianity_defect
            if derived.markovianity_defect > MARKOVIANITY_TOL:
                report.warnings.append(
                    "side-information marginal is not Markov of the model order "
                    f"(defect {derived.markovianity_defect:.3g}); "
                    "per-position marginal factorization does not apply"
                )
        return report


Model = CondIidModel | MarkovPairModel


def closed_classes(succ: list[list[int]]) -> list[list[int]]:
    """Closed strongly connected components of a successor-list digraph.

    Iterative Tarjan; a component is closed when no edge leaves it.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp_of = [-1] * n
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pi, len(succ[v])):
                w = succ[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = len(comps)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    closed = []
    for ci, comp in enumerate(comps):
        if all(comp_of[w] == ci for v in comp for w in succ[v]):
            closed.append(sorted(comp))
    return closed


def class_period(succ: list[list[int]], members: list[int]) -> int:
    """Period (gcd of cycle lengths) of one strongly connected class."""
    import math

    member_set = set(members)
    depth = {members[0]: 0}
    queue = [members[0]]
    g = 0
    while queue:
        v = queue.pop()
        for w in succ[v]:
            if w not in member_set:
                continue
            if w in depth:
                g = math.gcd(g, depth[v] + 1 - depth[w])
            else:
                depth[w] = depth[v] + 1
                queue.append(w)
    return abs(g) if g else 0


def stationary_context_law(model: MarkovPairModel) -> np.ndarray:
    """Stationary law over contexts, supported on the closed class; each
    call solves afresh, ``model.stationary_f`` keeps one solve."""
    closed = model._structure[0]
    if len(closed) != 1:
        raise ValueError("context chain is not irreducible; validate the model")
    members = closed[0]
    out = np.zeros(model.num_contexts)
    out[members] = _stationary_of_matrix(_context_matrix(model, members))
    return out


def _context_matrix(model: MarkovPairModel, members: Sequence[int]) -> np.ndarray:
    """Context transition matrix restricted to ``members``, a closed set
    of contexts, in their order."""
    C = model.num_contexts
    # each pair symbol leads to its own next context: no cell is set twice
    P = np.zeros((C, C))
    P[np.arange(C)[:, None], model._next_context] = model.transition_f
    return P[np.ix_(members, members)]


def _stationary_of_matrix(P: np.ndarray) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 for an irreducible row-stochastic P:
    one square solve, the last equation of pi (P - I) = 0 replaced by
    the normalization (the equations sum to zero, so one is redundant)."""
    m = P.shape[0]
    A = P.T - np.eye(m)
    A[-1] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    pi = np.clip(np.linalg.solve(A, b), 0.0, None)
    pi /= pi.sum()
    if np.abs(pi @ P - pi).sum() > 1e-10:
        raise RuntimeError("stationary solve fails pi P = pi")
    return pi


@dataclass(frozen=True)
class DerivedYChain:
    """Marginal side-information chain derived from a pair model.

    ``transition[c, y]`` conditions on the length-``d`` y-context with
    index ``c`` (same digit convention as pair contexts).  Rows for
    y-contexts of zero stationary probability are all zero.
    ``markovianity_defect`` is the largest change in the next-symbol
    conditional when one extra symbol of y-history is revealed; it is
    zero exactly when the marginal is itself order-``d`` Markov in
    stationarity.
    """

    y_alphabet: Alphabet
    order: int
    transition: np.ndarray
    initial: np.ndarray
    markovianity_defect: float

    def y_context_index(self, symbols: Sequence[int]) -> int:
        idx = 0
        for s in symbols:
            idx = idx * len(self.y_alphabet) + s
        return idx


def derive_y_chain(model: MarkovPairModel) -> DerivedYChain:
    """Marginalize the stationary pair chain onto the side information;
    ``np.add.at`` sums over the edges (context, pair symbol) in row-major
    order, the order of a loop over contexts and then pair symbols."""
    d = model.order
    ny = len(model.y_alphabet)
    nctx_y = ny**d
    pi = model.stationary_f
    y_context = model._y_context
    y_of = np.arange(model.num_pair_symbols) % ny
    mass = pi[:, None] * model.transition_f

    pi_y = np.bincount(y_context, weights=pi, minlength=nctx_y)
    joint_next = np.zeros((nctx_y, ny))
    np.add.at(joint_next, (y_context[:, None], y_of), mass)
    trans = np.zeros((nctx_y, ny))
    nz = pi_y > 0
    trans[nz] = joint_next[nz] / pi_y[nz, None]

    # Defect: compare the order-d conditional against the conditional
    # given one extra trailing symbol of y-history, both in stationarity.
    deep = np.zeros((nctx_y, ny, ny))
    np.add.at(deep, (y_context[:, None, None], y_of[:, None], y_of),
              mass[:, :, None] * model.transition_f[model._next_context])
    # context for the short conditional: drop the oldest symbol, append y1
    short_ctx = (np.arange(nctx_y)[:, None] * ny + np.arange(ny)) % nctx_y
    head = deep.sum(axis=2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.abs(deep / head - trans[short_ctx])
    # every key (y-context, y1, y2) whose head (y-context, y1) has mass,
    # also a y2 that no positive two-step path reaches
    defect = gap[head[:, :, 0] > 0].max(initial=0.0)

    return DerivedYChain(
        y_alphabet=model.y_alphabet,
        order=d,
        transition=trans,
        initial=np.bincount(y_context, weights=model.initial_f),
        markovianity_defect=float(defect),
    )


def embed_cond_iid(model: CondIidModel) -> MarkovPairModel:
    """Represent a conditionally i.i.d. model as an order-1 pair chain.

    Every transition row equals the product law ``p_y(y') P(x'|y')``,
    so the chain forgets its context; exact rationals are preserved.
    """
    p_y = model.require_p_y()
    flat = tuple(
        p_y[y] * model.p_x_given_y[y][x]
        for x in range(len(model.x_alphabet))
        for y in range(len(model.y_alphabet))
    )
    rows = tuple(flat for _ in range(len(flat)))
    return MarkovPairModel(
        x_alphabet=model.x_alphabet,
        y_alphabet=model.y_alphabet,
        order=1,
        transition=rows,
        initial=flat,
    )


def _parse_alphabet(obj: object, what: str) -> Alphabet:
    if not isinstance(obj, list) or not all(isinstance(s, str) for s in obj):
        raise ModelFormatError(f"{what} must be a list of strings")
    return Alphabet(tuple(obj))


def _parse_row(obj: object, what: str) -> tuple[Fraction, ...]:
    if not isinstance(obj, list):
        raise ModelFormatError(f"{what} must be a list")
    return tuple(parse_probability(p) for p in obj)


def model_from_dict(doc: dict) -> Model:
    """Build a model from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    kind = doc.get("kind")
    if kind == "cond_iid":
        x_alph = _parse_alphabet(doc.get("x_alphabet"), "x_alphabet")
        y_alph = _parse_alphabet(doc.get("y_alphabet"), "y_alphabet")
        table = doc.get("p_x_given_y")
        if not isinstance(table, list):
            raise ModelFormatError("p_x_given_y must be a list of rows")
        rows = tuple(_parse_row(r, "p_x_given_y row") for r in table)
        p_y = None
        if doc.get("p_y") is not None:
            p_y = _parse_row(doc["p_y"], "p_y")
        return CondIidModel(x_alph, y_alph, rows, p_y)
    if kind == "markov_pair":
        x_alph = _parse_alphabet(doc.get("x_alphabet"), "x_alphabet")
        y_alph = _parse_alphabet(doc.get("y_alphabet"), "y_alphabet")
        order = doc.get("order")
        if not isinstance(order, int):
            raise ModelFormatError("order must be an integer")
        table = doc.get("transition")
        if not isinstance(table, list):
            raise ModelFormatError("transition must be a list of rows")
        rows = tuple(_parse_row(r, "transition row") for r in table)
        initial = None
        if doc.get("initial") is not None:
            initial = _parse_row(doc["initial"], "initial")
        return MarkovPairModel(x_alph, y_alph, order, rows, initial)
    raise ModelFormatError(f"unknown model kind {kind!r}")


def model_to_dict(model: Model) -> dict:
    """Inverse of :func:`model_from_dict`, lossless on the rationals."""
    if isinstance(model, CondIidModel):
        doc: dict = {
            "kind": "cond_iid",
            "x_alphabet": list(model.x_alphabet.symbols),
            "y_alphabet": list(model.y_alphabet.symbols),
            "p_x_given_y": [[probability_to_string(p) for p in row]
                            for row in model.p_x_given_y],
        }
        if model.p_y is not None:
            doc["p_y"] = [probability_to_string(p) for p in model.p_y]
        return doc
    doc = {
        "kind": "markov_pair",
        "x_alphabet": list(model.x_alphabet.symbols),
        "y_alphabet": list(model.y_alphabet.symbols),
        "order": model.order,
        "transition": [[probability_to_string(p) for p in row]
                       for row in model.transition],
    }
    if model.initial is not None:
        doc["initial"] = [probability_to_string(p) for p in model.initial]
    return doc


def load_model(path: str | Path) -> Model:
    """Load and structurally parse a model file (no stochastic checks)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer literal past Python's digit limit
        raise ModelFormatError(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_dict(doc)


def save_model(model: Model, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")


def validate(model: Model) -> ValidationReport:
    """Run the stochastic sanity checks for either model kind."""
    return model.validate()
