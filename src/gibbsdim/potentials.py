"""Locally constant potentials: finite-depth value tables and their word sums.

A depth-d potential assigns a real value to every admissible d-word; as a
function on the shift space it reads the first d symbols.  It lives on one
graph, the higher-block presentation (``edges``): its states are the
admissible (d-1)-words, its edges their overlaps, and each edge carries one
window value.  Pressure, Gibbs chains and cycle ratios read that graph.

Every word sum walks the prefix automaton (``automaton``), where a step
adds the window it completes: ``window_sums`` one word, ``fold`` many rows
in lockstep, ``wordsets._window_walk`` a family.  Each adds a word's windows
left to right from 0.0, so every sum equals a full re-sum bit for bit, and
only ``value``, ``edges`` and the automaton read the table.  ``ifs.CdfModel``
keeps one CDF descent row per automaton state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InsufficientContextError, ValidationError
from .sft import EMPTY_WORD, SftSpec, Word, higher_block_recode

_recode = lru_cache(maxsize=128)(higher_block_recode)  # one recode per (spec, depth)


@dataclass(frozen=True)
class WordSumBounds:
    """Exact sup and inf of the length-|word| Birkhoff sum over the cylinder [word]."""

    sup: float
    inf: float
    word: Word

    def within(self, bound: float) -> bool:
        """sup of the absolute sum over the cylinder is at most ``bound``."""
        return self.sup <= bound and self.inf >= -bound


class PrefixAutomaton:
    """A word's state is its last ``width`` = max(1, d-1) symbols, or all of
    it: state 0 is the empty word, then come the admissible words shorter
    than a block, then the blocks of ``edges()``.  ``succ[u, b]`` is the state
    of word u + b (-1 off the graph), ``step[u, b]`` the window value that
    step adds (0.0 before a full window), ``over[:, u]`` the sup and inf
    overhang of a word in state u."""

    def __init__(self, phi: LocallyConstantPotential):
        spec, d, coder = phi.spec, phi.depth, phi.edges()[0]
        self.width = coder.width
        self.words = ((EMPTY_WORD,) + tuple(w for j in range(1, coder.width)
                                            for w in spec.words(j)) + coder.blocks)
        self.index = {w: u for u, w in enumerate(self.words)}
        shape = (len(self.words), spec.n)
        self.succ, self.step = np.full(shape, -1), np.zeros(shape)
        for u, w in enumerate(self.words):
            for b in spec.successors(w[-1]) if w else range(spec.n):
                self.succ[u, b] = self.index[(w + (b,))[-coder.width:]]
                self.step[u, b] = phi.value((w + (b,))[-d:]) if len(w) >= d - 1 else 0.0
        # the windows sliding off a word are those its next d-1 steps complete; rounding
        # is monotone, so the max- and min-plus bounds are left folds from 0.0 bit for bit
        hi = lo = np.where(np.eye(len(self.words), dtype=bool), 0.0, np.nan)
        for _ in range(d - 1):
            hi, lo = self._walk_all(hi, np.fmax), self._walk_all(lo, np.fmin)
        self.over = np.array([np.fmax.reduce(hi, axis=1), np.fmin.reduce(lo, axis=1)])
        # as Python lists, which one word's walk reads fastest
        self.rows = (self.succ.tolist(), self.step.tolist(), self.over.tolist())

    def _walk_all(self, top, best):
        """``top[s, v]``, the best sum of a walk from state s to v by ``best``
        (``np.fmax`` or ``np.fmin``, which skip NaN: no walk), one step on."""
        out = np.full_like(top, np.nan)
        for sym in range(self.succ.shape[1]):
            u = np.flatnonzero(self.succ[:, sym] >= 0)
            best.at(out, (slice(None), self.succ[u, sym]), top[:, u] + self.step[u, sym])
        return out

    def state(self, word: Word) -> int:
        """The state of the admissible ``word``: its last ``width`` symbols."""
        return self.index[word[max(0, len(word) - self.width):]]


@dataclass(frozen=True, eq=False)
class LocallyConstantPotential:
    """Value table over the admissible depth-d words of a spec (units: nats)."""

    spec: SftSpec
    depth: int
    entries: tuple  # sorted tuple of (word, float)

    def __post_init__(self):
        if self.depth < 1:
            raise ValidationError("potential depth must be at least 1")
        entries = tuple(sorted((tuple(w), float(v)) for w, v in self.entries))
        required = self.spec.words(self.depth)
        keys = [w for w, _ in entries]
        if keys != required:
            missing = sorted(set(required) - set(keys))
            extra = sorted(set(keys) - set(required))
            raise ValidationError(
                "table must cover exactly the admissible depth-words"
                f" (missing {missing[:4]}, extra {extra[:4]})"
            )
        if not all(math.isfinite(v) for _, v in entries):
            raise ValidationError("potential values must be finite")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_table", dict(entries))
        # immutable, so hashed and minimised once: every beta root reads both
        object.__setattr__(self, "_hash", hash((self.spec, self.depth, entries)))
        object.__setattr__(self, "_min", min(v for _, v in entries))
        object.__setattr__(self, "_edges", {})

    # --- construction -----------------------------------------------------

    @classmethod
    def from_table(cls, spec: SftSpec, depth: int, table) -> "LocallyConstantPotential":
        items = table.items() if isinstance(table, dict) else table
        return cls(spec=spec, depth=depth, entries=tuple(items))

    @classmethod
    def from_values(cls, spec: SftSpec, values) -> "LocallyConstantPotential":
        """Depth-1 potential from one value per symbol."""
        values = list(values)
        if len(values) != spec.n:
            raise ValidationError("need one value per symbol")
        return cls(spec=spec, depth=1, entries=tuple(((a,), float(v)) for a, v in enumerate(values)))

    @classmethod
    def constant(cls, spec: SftSpec, c: float) -> "LocallyConstantPotential":
        return cls.from_values(spec, [c] * spec.n)

    # --- identity -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LocallyConstantPotential):
            return NotImplemented
        return (self.spec, self.depth, self.entries) == (other.spec, other.depth, other.entries)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"LocallyConstantPotential(depth={self.depth}, |table|={len(self.entries)})"

    # --- evaluation -----------------------------------------------------------

    @property
    def table(self) -> dict:
        return self._table

    def value(self, window: Word) -> float:
        """Value on the cylinder of ``window``; reads the first ``depth`` symbols."""
        if len(window) < self.depth:
            raise InsufficientContextError(
                f"need {self.depth} symbols to evaluate, got {len(window)}"
            )
        value = self._table.get(tuple(window[:self.depth]))
        if value is None:
            raise ValidationError(f"{window[:self.depth]} is not an admissible {self.depth}-word")
        return value

    def sup_norm(self) -> float:
        return max(abs(v) for _, v in self.entries)

    def min_value(self) -> float:
        return self._min

    def max_value(self) -> float:
        return max(v for _, v in self.entries)

    def is_strictly_positive(self) -> bool:
        return self.min_value() > 0.0

    # --- Birkhoff and word sums -------------------------------------------

    def birkhoff_sum(self, prefix: Word, n: int) -> float:
        """Sum of the first n values along any sequence extending ``prefix``; exact."""
        if n < 0:
            raise ValidationError("Birkhoff sum length must be non-negative")
        if n == 0:
            return 0.0
        if len(prefix) < n + self.depth - 1:
            raise InsufficientContextError(
                f"prefix of length {len(prefix)} cannot determine {n} terms at depth {self.depth}"
            )
        if not self.spec.is_admissible(prefix):
            raise ValidationError("prefix is not admissible")
        return self.window_sums(prefix[:n + self.depth - 1])[0]

    def edges(self, depth: int | None = None):
        """``(coder, weights)`` on the higher-block graph ``coder.block`` of depth
        ``depth`` (default max(2, d), never less), kept per depth: ``weights[u, v]``
        is the value of the window starting at block u on edge u -> v, 0 off edges."""
        depth = depth or max(2, self.depth)
        if depth not in self._edges:
            coder = _recode(self.spec, depth)[1]
            b = coder.blocks
            weights = np.zeros((len(b), len(b)))
            for u, v in zip(*np.nonzero(coder.block.incidence)):
                weights[u, v] = self._table[(b[u] + b[v][-1:])[:self.depth]]
            weights.flags.writeable = False
            self._edges[depth] = (coder, weights)
        return self._edges[depth]

    @cached_property
    def automaton(self) -> PrefixAutomaton:
        """The prefix automaton, built on first use."""
        return PrefixAutomaton(self)

    def window_sums(self, word: Word):
        """``(run, sup, inf)``: ``run`` adds the depth-d windows inside ``word``
        to 0.0 left to right, and ``sup``/``inf`` add to it the exact bounds of
        the windows sliding off its end.  Symbols are not checked; a step off
        the graph raises ValidationError."""
        succ, step, (sup, inf) = self.automaton.rows
        acc, u = 0.0, 0
        for b in word:
            acc += step[u][b]
            u = succ[u][b]
            if u < 0:
                raise ValidationError("word is not admissible")
        return acc, acc + sup[u], acc + inf[u]

    def fold(self, words, starts=0, lengths=None, columns=None):
        """``(sums, states)``: walk the rows of the integer array ``words`` in
        lockstep from the states ``starts`` (broadcast against them), adding
        each column's window values to the sums from 0.0 as ``window_sums``
        does, 0.0 past a row's ``lengths``; ``columns[k]``, if given, receives
        column k's values.  A step off the graph raises ValidationError."""
        a, state = self.automaton, np.asarray(starts)
        acc = np.zeros(state.shape[:-1] + (len(words),))   # as starts broadcast against rows
        for k, col in enumerate(np.asarray(words).T):
            value, nxt = a.step[state, col], a.succ[state, col]
            if lengths is not None:
                live = k < lengths
                value, nxt = np.where(live, value, 0.0), np.where(live, nxt, state)
            if (nxt < 0).any():
                raise ValidationError("a word is not admissible")
            acc += value   # in place: no new array per column
            state = nxt
            if columns is not None:
                columns[k] = value
        return acc, state

    def term_table(self, starts, words):
        """``(values, bounds, lengths)``: ``values[c, e, i]`` is the window
        value that the c-th symbol of ``words[i]`` adds from state ``starts[e]``
        (0.0 past its end, ``lengths[i]``, a tuple of ints), ``bounds[:, e, i]``
        the overhang of the state it ends in.  With ``starts[e]`` the state of
        w, ``add_terms`` of these values to w's run, then a bound, give
        ``window_sums(w + words[i])`` bit for bit, with or without the padding
        past ``lengths[i]``: a run, a fold from 0.0, is never -0.0, so a 0.0
        leaves it as it is."""
        lengths = tuple(map(len, words))
        padded = np.array([w + (0,) * (max(lengths) - len(w)) for w in words], dtype=int)
        values = np.empty((padded.shape[1], len(starts), len(words)))
        _, state = self.fold(padded, np.asarray(starts)[:, None], lengths=np.array(lengths),
                             columns=values)
        return (values, self.automaton.over[:, np.broadcast_to(state, values.shape[1:])],
                lengths)

    def word_sum_bounds(self, word: Word) -> WordSumBounds:
        """Exact sup/inf of the length-|word| Birkhoff sum over the cylinder [word]."""
        if not self.spec.is_admissible(word):
            raise ValidationError("word is not admissible")
        _, sup, inf = self.window_sums(word)
        return WordSumBounds(sup, inf, word)

    def distortion(self) -> float:
        """Uniform bound on |S_n(xi) - S_n(xi')| over pairs sharing an n-prefix;
        exact: the widest overhang of a nonempty word, a word in a nonempty state."""
        sup, inf = self.automaton.over[:, 1:]
        return float((sup - inf).max(initial=0.0))


def add_terms(acc, values):
    """``acc`` plus each column of ``values`` in turn, left to right, as
    ``window_sums`` adds the same terms (never ``np.sum``, which adds pairwise)."""
    for col in values:
        acc = acc + col
    return acc


def combine(a: float, f: LocallyConstantPotential, b: float,
            g: LocallyConstantPotential) -> LocallyConstantPotential:
    """The potential a*f + b*g, tabulated at the larger of the two depths."""
    if f.spec != g.spec:
        raise ValidationError("potentials live on different specs")
    depth = max(f.depth, g.depth)
    words = f.spec.words(depth)
    entries = tuple(
        (w, a * f.value(w) + b * g.value(w)) for w in words
    )
    return LocallyConstantPotential(spec=f.spec, depth=depth, entries=entries)


def add_constant(f: LocallyConstantPotential, c: float) -> LocallyConstantPotential:
    return combine(1.0, f, c, LocallyConstantPotential.constant(f.spec, 1.0))


def d_psi(psi: LocallyConstantPotential, prefix1: Word, prefix2: Word) -> float:
    """Metric value exp(-S_{common block} psi) for points starting with the two prefixes.

    With psi identically 1 this is the standard exponential metric.
    """
    if not psi.is_strictly_positive():
        raise ValidationError("the metric potential must be strictly positive")
    for p in (prefix1, prefix2):
        if not psi.spec.is_admissible(p):
            raise ValidationError("prefixes must be admissible")
    k = 0
    while k < len(prefix1) and k < len(prefix2) and prefix1[k] == prefix2[k]:
        k += 1
    if k == len(prefix1) or k == len(prefix2):
        raise ValidationError(
            "prefixes do not separate the points at the available precision"
        )
    common = prefix1[:k]
    return math.exp(-psi.word_sum_bounds(common).sup)


def cylinder_diam_psi(psi: LocallyConstantPotential, word: Word) -> float:
    """Diameter of the cylinder [word] in the metric of ``psi``: the exp of
    ``cylinder_log_diam_psi``, 0 for a single point."""
    return math.exp(cylinder_log_diam_psi(psi, word))


def cylinder_log_diam_psi(psi: LocallyConstantPotential, word: Word) -> float:
    """Log diameter of the cylinder [word] in the metric of ``psi``: -sup S_psi
    over the cylinder of the word's branching extension, with no exp/log round
    trip, so it stays finite where the diameter underflows.

    Non-branching tails are resolved by extending the word to the first symbol
    with at least two admissible successors; a cylinder that never branches is
    a single point and has log diameter -inf.
    """
    if not psi.is_strictly_positive():
        raise ValidationError("the metric potential must be strictly positive")
    if len(word) == 0:
        return 0.0
    if not psi.spec.is_admissible(word):
        raise ValidationError("word is not admissible")
    spec = psi.spec
    w = word
    limit = len(word) + 2 * spec.n + psi.depth + 2
    while len(spec.successors(w[-1])) < 2:
        if len(w) > limit:
            return -math.inf  # deterministic tail: the cylinder is a singleton
        w = w + (spec.successors(w[-1])[0],)
    return -psi.word_sum_bounds(w).sup
