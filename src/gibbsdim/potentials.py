"""Locally constant potentials: finite-depth value tables and their word sums.

A depth-d potential assigns a real value to every admissible d-word; as a
function on the shift space it reads the first d symbols.  It lives on one
graph, the higher-block presentation (``edges``): its states are the
admissible (d-1)-words, its edges their overlaps, and each edge carries one
window value.  Pressure, Gibbs chains, cycle ratios and window-family bounds
all read that graph.  All word sums, suprema over cylinders and distortion
constants below are exact; the windows sliding off a word's end are bounded
by max-plus steps over the graph.  ``term_table`` lists the terms that words
add to a word's running sum, as arrays, so a sum extended column by column
equals a full re-sum bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cycles import relax
from .errors import InsufficientContextError, ValidationError
from .sft import SftSpec, Word, higher_block_recode

_recode = lru_cache(maxsize=128)(higher_block_recode)  # one recode per (spec, depth)


@dataclass(frozen=True)
class WordSumBounds:
    """Exact sup and inf of the length-|word| Birkhoff sum over the cylinder [word]."""

    sup: float
    inf: float
    word: Word

    @property
    def width(self) -> float:
        return self.sup - self.inf

    def within(self, bound: float) -> bool:
        """sup of the absolute sum over the cylinder is at most ``bound``."""
        return self.sup <= bound and self.inf >= -bound


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
        object.__setattr__(self, "_distortion", None)
        object.__setattr__(self, "_overhang", {})
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
        return self._table[window[: self.depth]]

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

    def tail(self, word: Word) -> Word:
        """The last d-1 symbols of ``word`` (all of it when shorter).

        The windows of ``word + suffix`` that are not windows of ``word`` are
        exactly the windows of ``tail(word) + suffix``.
        """
        return word[max(0, len(word) - self.depth + 1):]

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

    def _overhang_bounds(self, word: Word):
        """Sup and inf over admissible continuations of the windows sliding off
        ``word``: one forward max-plus step over ``edges()`` per symbol, from the
        blocks extending ``word``.  Each path adds its windows left to right from
        0.0, and rounding is monotone, so both equal left-fold sums bit for bit."""
        if not word:
            return 0.0, 0.0
        coder, weights = self.edges()
        adj = coder.block.incidence
        top = neg = np.array([0.0 if b[:len(word)] == word else -math.inf for b in coder.blocks])
        for _ in word:
            top, neg = relax(adj, weights, top)[0], relax(adj, -weights, neg)[0]
        # a fold from 0.0 never ends on -0.0; adding 0.0 drops the min-plus sign
        return float(top.max()), -float(neg.max()) + 0.0

    def window_sums(self, word: Word):
        """Add the depth-d windows of ``word`` to 0.0.

        Returns ``(run, sup, inf)``: ``run`` adds the windows inside ``word``
        left to right, and ``sup``/``inf`` add to it the exact overhang bounds
        of the windows sliding off its end.  ``word`` is not validated.
        ``word_sum_bounds`` and ``birkhoff_sum`` sum through here too.
        """
        d = self.depth
        table = self._table
        acc = 0.0
        n = len(word) - d + 1   # windows inside ``word``
        for k in range(n):
            acc += table[word[k:k + d]]
        tail = word[n:] if n > 0 else word
        bounds = self._overhang.get(tail)
        if bounds is None:
            bounds = self._overhang[tail] = self._overhang_bounds(tail)
        return acc, acc + bounds[0], acc + bounds[1]

    def term_table(self, ends, words):
        """``(values, bounds)``: ``values[c, e, i]`` is the c-th depth-d window
        of ``ends[e] + words[i]`` (0.0 past its last), ``bounds[:, e, i]`` the
        sup and inf overhang bounds of its end.  With ``ends[e]`` the tail of
        w, ``add_terms`` of these values to w's run, then a bound, give
        ``window_sums(w + words[i])`` bit for bit: a run, a fold from 0.0, is
        never -0.0, so a padding 0.0 leaves it as it is.  Not validated."""
        d = self.depth
        cells = [[end + word for word in words] for end in ends]
        values = np.zeros((max([len(h) - d + 1 for r in cells for h in r] + [0]),
                           len(ends), len(words)))
        bounds = np.zeros((2, len(ends), len(words)))
        for e, row in enumerate(cells):
            for i, h in enumerate(row):
                n = max(len(h) - d + 1, 0)   # h[n:] holds no window, only its bounds
                values[:n, e, i] = [self._table[h[k:k + d]] for k in range(n)]
                bounds[:, e, i] = self.window_sums(h[n:])[1:]
        return values, bounds

    def word_sum_bounds(self, word: Word) -> WordSumBounds:
        """Exact sup/inf of the length-|word| Birkhoff sum over the cylinder [word]."""
        if not self.spec.is_admissible(word):
            raise ValidationError("word is not admissible")
        _, sup, inf = self.window_sums(word)
        return WordSumBounds(sup, inf, word)

    def distortion(self) -> float:
        """Uniform bound on |S_n(xi) - S_n(xi')| over pairs sharing an n-prefix; exact."""
        cached = self._distortion
        if cached is not None:
            return cached
        value = 0.0
        for length in range(1, self.depth):   # none at depth 1
            for w in self.spec.words(length):
                value = max(value, self.word_sum_bounds(w).width)
        object.__setattr__(self, "_distortion", value)
        return value


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
        (w, a * f.table[w[:f.depth]] + b * g.table[w[:g.depth]]) for w in words
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
