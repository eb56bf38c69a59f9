"""Word families with bounded Birkhoff sums and the machinery built on them.

Covers: the bounded-sum window families of any range of lengths, from one
branch-and-bound walk over the potential's prefix automaton that holds a
length at a time as arrays; the finite postfix family that steers any
bounded-sum word back into a tighter band, checked against a table of its
window terms from each walk state; membership checkers for the
frequent-appearance and repetition-free sequence sets; boundary words of an
interval order; separating words; and the bounded-band counterexample word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import sft
from .cycles import orbit_cycle, relax
from .errors import (CapacityError, InfeasibleError, NumericalError,
                     ValidationError)
from .potentials import LocallyConstantPotential, add_terms, combine
from .sft import SftSpec, Word
from .thermo import alpha_range, birkhoff_sup

ALPHA_SIGN_TOL = 1e-9
WITNESS_CAP = 32          # most failing source words a postfix check reports
DRIFT_STEP_CAP = 100_000  # longest walk ``_extremal_word`` tries
SEPARATING_MAX_LEN = 64   # longest word ``separating_word`` tries
LANDING_CELL_CAP = 4096   # most row x postfix cells one ``first_landing`` pass adds


# --------------------------------------------------------------------------
# bounded-sum window families
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowFamily:
    """Admissible length-m words whose cylinder sup of |S_m phi| is at most K."""

    bound: float
    length: int
    words: tuple


def window_family(phi: LocallyConstantPotential, bound: float, length: int,
                  cap: int | None = None) -> WindowFamily:
    """The family's words in lexicographic order: ``_window_walk`` at one length."""
    cap = sft.WORD_CAP if cap is None else cap
    if cap < 1:
        raise ValidationError(f"word cap must be at least 1, got {cap}")
    _, state, _, words = next(_window_walk(phi, bound, length, length, cap))
    return WindowFamily(bound=float(bound), length=length,
                        words=tuple(words(np.arange(len(state)))))


def _window_walk(phi: LocallyConstantPotential, bound: float, lo: int, hi: int,
                 cap: int):
    """Yield ``(keys, state, run, words)`` per length lo..hi, the family's words
    in lexicographic order: ``keys[state[i]]`` ends word i, its state in
    ``phi.automaton``, ``run[i]`` is its ``phi.window_sums(word)[0]`` bit for
    bit, and ``words(idx)`` spells the words at the indices idx.

    Branch and bound one length at a time over arrays, on the automaton from
    the empty word: a child adds its step's value to its parent's run, and
    pruning takes exact extremal continuation sums (max-plus steps) over the
    lengths still open.  ``cap`` bounds each length's words; more than
    ``sft.WORD_CAP`` candidates at one length, or pruning-table entries, raise
    CapacityError before their arrays exist."""
    if not bound > 0:
        raise ValidationError("window bound must be positive")
    if not 1 <= lo <= hi:
        raise ValidationError("window length must be positive")
    a = phi.automaton
    if hi * (len(a.words) - 1) > sft.WORD_CAP:
        raise CapacityError(f"{hi} pruning tables of {len(a.words) - 1} states "
                            f"exceed the cap {sft.WORD_CAP}")
    over_sup, over_inf = a.over
    edge = a.succ >= 0
    # minsup[r][u]: least achievable (continuation sum + final sup-overhang) in r steps
    minsup, maxinf = [over_sup], [over_inf]
    for _ in range(hi - 1):
        minsup.append(np.where(edge, a.step + minsup[-1][a.succ], math.inf).min(axis=1))
        maxinf.append(np.where(edge, a.step + maxinf[-1][a.succ], -math.inf).max(axis=1))
    src, sym = np.nonzero(edge)   # edges in (state, symbol) order: children in symbol order
    dst, step, degree = a.succ[src, sym], a.step[src, sym], np.bincount(src, minlength=len(edge))
    first = np.cumsum(degree) - degree
    chain = []   # per length: the last symbols of the words kept and their parents' indices

    def words(j, found, idx):
        out, idx = np.empty((len(idx), j), dtype=int), found[idx]
        for k in range(j - 1, -1, -1):
            out[:, k] = chain[k][0][idx]
            idx = chain[k][1][idx]
        return list(map(tuple, out.tolist()))

    state, run = np.zeros(1, dtype=int), np.zeros(1)   # the empty word
    for j in range(1, hi + 1):
        kids = degree[state]
        if kids.sum() > sft.WORD_CAP:
            raise CapacityError(
                f"{kids.sum()} candidate words of length {j} exceed the cap {sft.WORD_CAP}")
        parent = np.repeat(np.arange(len(state)), kids)
        edges = np.arange(len(parent)) + np.repeat(first[state] - np.cumsum(kids) + kids, kids)
        state, run = dst[edges], run[parent] + step[edges]
        open_ = slice(max(lo - j, 0), hi - j + 1)   # lengths max(lo, j)..hi are open
        keep = ~((run + np.min(minsup[open_], axis=0)[state] > bound)
                 | (run + np.max(maxinf[open_], axis=0)[state] < -bound))
        state, run = state[keep], run[keep]
        chain.append((sym[edges[keep]], parent[keep]))
        if j >= lo:
            found = np.flatnonzero((run + over_sup[state] <= bound)
                                   & (run + over_inf[state] >= -bound))
            if len(found) > cap:
                raise CapacityError(f"window family exceeds cap {cap}")
            yield a.words, state[found], run[found], partial(words, j, found)


# --------------------------------------------------------------------------
# the postfix family
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PostfixSet:
    """Finite family T: every bounded-sum word admits some tau in T with the
    concatenation back inside the tighter band."""

    words: tuple          # sorted by (length, word); contains the empty word
    seg_down: Word
    seg_up: Word
    band: float           # K
    source_band: float    # K'

    @property
    def norm(self) -> int:
        return max((len(w) for w in self.words), default=0)

    def followers(self, spec: SftSpec) -> tuple:
        """Per symbol a, the postfix words (in order) that may follow a.

        Raises ValidationError unless every postfix word is admissible.
        """
        for tau in self.words:
            if not spec.is_admissible(tau):
                raise ValidationError(f"postfix word {tau} is not admissible")
        return tuple(tuple(t for t in self.words if not t or spec.incidence[a, t[0]])
                     for a in range(spec.n))


def _extremal_word(phi: LocallyConstantPotential, threshold: float, minimize: bool) -> Word:
    """Shortest word whose exact point Birkhoff sum passes the threshold,
    within ``DRIFT_STEP_CAP`` steps.

    Walk DP on the edge recoding: the minimal (or maximal) weight of k-edge
    walks drifts linearly because some cycle ratio has the right sign.
    """
    coder, weights = phi.edges()
    gain = -weights if minimize else weights
    g = np.zeros(coder.block.n)
    parents = []
    for k in range(1, DRIFT_STEP_CAP + 1):
        g, par = relax(coder.block.incidence, gain, g)
        parents.append(par)
        if float(g.max()) > abs(threshold):
            v = int(np.argmax(g))
            path = [v]
            for back in range(k - 1, -1, -1):
                v = int(parents[back][v])
                path.append(v)
            path.reverse()
            word = coder.decode(tuple(path))
            return word[:k + phi.depth - 1]
    raise NumericalError(f"no walk passed the drift threshold within {DRIFT_STEP_CAP} steps")


def build_postfix_set(phi: LocallyConstantPotential, source_band: float,
                      band: float) -> PostfixSet:
    """Construct the postfix family from two extremal drift segments.

    Hypotheses: the band exceeds max(2*distortion + |connectors|*|phi|,
    |phi|/2 + distortion), and the cycle ratios of phi take both signs.  Both
    segments overshoot the source band (plus slack) so a first-crossing
    prefix lands any bounded-sum word back inside the tight band; a first
    crossing moves by at most one window value, at most |phi|, so the band
    must exceed half of that plus the distortion.
    """
    spec = phi.spec
    spec.require_mixing()
    infixes = spec.connecting_words()
    v_phi = phi.distortion()
    nrm = phi.sup_norm()
    need = max(2.0 * v_phi + infixes.norm * nrm, 0.5 * nrm + v_phi)
    if not band > need:
        raise InfeasibleError(
            f"band {band:g} must exceed max(2*distortion + |connectors|*norm, "
            f"norm/2 + distortion) = {need:g}"
        )
    if not 0 < source_band < math.inf:   # the source family's window bound
        raise ValidationError(f"source band must be positive and finite, got {source_band:g}")
    one = LocallyConstantPotential.constant(spec, 1.0)
    a_lo, a_hi = alpha_range(phi, one)
    if not (a_lo < -ALPHA_SIGN_TOL and a_hi > ALPHA_SIGN_TOL):
        raise InfeasibleError(
            f"drift in both directions required: cycle ratio range ({a_lo:g}, {a_hi:g})"
        )
    slack = source_band + 2.0 * v_phi + infixes.norm * nrm
    seg_down = _extremal_word(phi, slack, minimize=True)
    seg_up = _extremal_word(phi, slack, minimize=False)
    prefixes = {seg[:k] for seg in (seg_down, seg_up) for k in range(len(seg) + 1)}
    words = {rho + tau for rho in infixes.words for tau in prefixes
             if spec.is_admissible(rho + tau)}
    return PostfixSet(
        words=tuple(sorted(words, key=lambda w: (len(w), w))),
        seg_down=seg_down, seg_up=seg_up,
        band=float(band), source_band=float(source_band),
    )


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    max_len: int
    checked: int
    failures: tuple  # words with no working postfix


def first_landing(run, ends, terms, band: float):
    """Per row, the index of the first word of the ``term_table`` ``terms``
    whose columns, from table row ``ends[row]``, added to ``run[row]`` in the
    order a full re-sum adds them land it in the band (sup at most band, inf
    at least -band), or -1.

    Word 0 (the empty postfix, which lands most of a mass-tree node's rows)
    is tried alone first.  Each later pass tries the next words on the rows
    still open, as many as ``LANDING_CELL_CAP`` row x word cells hold, or one
    word on blocks of that many rows; a one-word pass keeps its arrays
    one-dimensional (15-51 % faster).  The table is stacked bounds first, and
    a pass takes only the value rows up to its longest word, so the empty
    postfix adds no column: the 0.0 padding it skips would leave each sum as
    it is (see ``term_table``).  A pick does not depend on the passes."""
    values, bounds, lengths = terms
    table = np.concatenate((bounds, values))
    pick = np.full(len(run), -1)
    todo, t = np.arange(len(run)), 0
    while todo.size and t < len(lengths):
        width = max(min(LANDING_CELL_CAP // todo.size, len(lengths) - t), 1) if t else 1
        stop = 2 + max(lengths[t:t + width])
        if width > 1:
            cells = table[:stop, :, t:t + width].take(ends[todo], axis=1)
            acc = add_terms(run[todo, None], cells[2:])
            ok = (acc + cells[0] <= band) & (acc + cells[1] >= -band)
            first = ok.argmax(axis=1)
            land = ok[:, 0] | (first > 0)
            pick[todo[land]] = t + first[land]
        else:
            for k in range(0, todo.size, LANDING_CELL_CAP):
                rows = todo[k:k + LANDING_CELL_CAP]
                cells = table[:stop, :, t].take(ends[rows], axis=1)
                acc = add_terms(run[rows], cells[2:])
                pick[rows[(acc + cells[0] <= band) & (acc + cells[1] >= -band)]] = t
        todo, t = todo[pick[todo] < 0], t + width
    return pick


def verify_postfix(pset: PostfixSet, phi: LocallyConstantPotential,
                   max_len: int) -> VerifyReport:
    """Exhaustively check the postfix property for all source words up to max_len.

    One walk gives each length's source words with their runs and states;
    those ending in symbol a are checked together against the term table of
    a's followers from the states that end in a.
    ``failures`` holds the first ``WITNESS_CAP`` failing words by length, then
    lexicographically.  Raises ValidationError when max_len < 1.
    """
    # per last symbol: the term table of its followers from the states ending in it
    last = np.array([w[-1] if w else -1 for w in phi.automaton.words])
    starts = [np.flatnonzero(last == a) for a in range(phi.spec.n)]
    tables = [phi.term_table(u, taus) for u, taus in zip(starts, pset.followers(phi.spec))]
    checked, failures = 0, []
    for _, state, run, words in _window_walk(phi, pset.source_band, 1, max_len,
                                             sft.WORD_CAP):
        failed = np.zeros(len(state), dtype=bool)
        for a, terms in enumerate(tables):
            rows = np.flatnonzero(last[state] == a)
            ends = np.searchsorted(starts[a], state[rows])
            failed[rows] = first_landing(run[rows], ends, terms, pset.band) < 0
        checked += len(state)
        failures += words(np.flatnonzero(failed)[:WITNESS_CAP - len(failures)])
    return VerifyReport(passed=not failures, max_len=max_len, checked=checked,
                        failures=tuple(failures))


# --------------------------------------------------------------------------
# membership in the frequent-appearance and repetition-free sets
# --------------------------------------------------------------------------

def _text(word: Word) -> str:
    """A word as one code point per symbol, for substring search on any alphabet."""
    return "".join(map(chr, word))


def in_frequent_set(prefix: Word, words, k: int) -> bool:
    """True iff every length-k window inside the prefix contains every listed word.

    A word w is in every window iff its occurrences, in order, start with
    one at most k - |w|, are at most k - |w| + 1 apart, and end with one at
    least n - k: each ``str.find`` looks for the next occurrence only where
    the gap allows it, and the walk stops once it reaches n - k."""
    fam = [tuple(w) for w in words]
    if any(len(w) == 0 for w in fam):
        raise ValidationError("family words must be non-empty")
    if any(len(w) > k for w in fam):
        raise ValidationError("window shorter than a family word; membership impossible")
    n = len(prefix)
    if n < k or not fam:
        return True
    text = _text(prefix)
    for w in fam:
        pat, at = _text(w), -1   # -1: the start just before the text
        while at < n - k:
            at = text.find(pat, at + 1, at + k + 1)   # starts at most at + k - |w| + 1
            if at < 0:
                return False
    return True


def in_repetition_free_set(spec: SftSpec, prefix: Word, words, l: int) -> bool:
    """True iff no l-fold repetition of a listed word occurs in the prefix."""
    if l < 1:
        raise ValidationError("repetition count must be positive")
    fam = [tuple(w) for w in words]
    for w in fam:
        if len(w) == 0 or not spec.is_cyclically_admissible(w):
            raise ValidationError("family words must be non-empty and cyclically admissible")
    text = _text(prefix)   # a power longer than the prefix cannot occur in it
    return not any(len(w) * l <= len(text) and _text(w) * l in text for w in fam)


# --------------------------------------------------------------------------
# boundary words of an interval order
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryWords:
    """Cycles of the leftmost/rightmost-successor maps induced by an interval order."""

    left_successor: dict
    right_successor: dict
    y_minus: tuple
    y_plus: tuple

    @property
    def all_words(self) -> tuple:
        return tuple(sorted(set(self.y_minus) | set(self.y_plus), key=lambda w: (len(w), w)))


def boundary_words(order, spec: SftSpec) -> BoundaryWords:
    """For each symbol the leftmost/rightmost admissible successor under ``order``,
    and all rotations of the cycles of those two successor maps."""
    order = tuple(order)
    if sorted(order) != list(range(spec.n)):
        raise ValidationError("order must be a permutation of the symbols")
    rank = {s: i for i, s in enumerate(order)}
    left = {a: min(spec.successors(a), key=lambda b: rank[b]) for a in range(spec.n)}
    right = {a: max(spec.successors(a), key=lambda b: rank[b]) for a in range(spec.n)}
    # a -> nxt^n(a) permutes each cycle's vertices, so every rotation occurs
    sets = [tuple(sorted({tuple(orbit_cycle(nxt, a)) for a in range(spec.n)},
                         key=lambda w: (len(w), w))) for nxt in (left, right)]
    return BoundaryWords(left_successor=left, right_successor=right,
                         y_minus=sets[0], y_plus=sets[1])


# --------------------------------------------------------------------------
# separating words and the counterexample construction
# --------------------------------------------------------------------------

def separating_word(spec: SftSpec, words) -> Word:
    """Shortest admissible word, up to ``SEPARATING_MAX_LEN``, that is a prefix of no
    shift of any listed word's infinite repetition, so its cylinder misses those orbits."""
    fam = [tuple(w) for w in words]
    for w in fam:
        if len(w) == 0 or not spec.is_cyclically_admissible(w):
            raise ValidationError("family words must be non-empty and cyclically admissible")
    rotations = {w[i:] + w[:i] for w in fam for i in range(len(w))}
    for length in range(1, SEPARATING_MAX_LEN + 1):
        forbidden = set()
        for rot in rotations:
            reps = -(-length // len(rot))
            forbidden.add((rot * reps)[:length])
        for cand in spec.words(length):
            if cand not in forbidden:
                return cand
    raise CapacityError(f"no separating word of length <= {SEPARATING_MAX_LEN}")


def counterexample_word(phi: LocallyConstantPotential,
                        psi: LocallyConstantPotential) -> Word:
    """A cyclically admissible word forcing unbounded Birkhoff drift along any
    sequence that repeats it frequently.

    Applies when exactly one end of the cycle-ratio range sits at zero; the
    mirrored case is handled by negating the potential.  The word's cylinder
    sup sum lies strictly below -(one-sided supremum) - 1.
    """
    spec = phi.spec
    spec.require_mixing()
    a_lo, a_hi = alpha_range(phi, psi)
    if abs(a_lo) <= ALPHA_SIGN_TOL and a_hi > ALPHA_SIGN_TOL:
        base = phi
    elif abs(a_hi) <= ALPHA_SIGN_TOL and a_lo < -ALPHA_SIGN_TOL:
        base = combine(-1.0, phi, 0.0, phi)
    else:
        raise InfeasibleError(
            f"needs a zero endpoint in the cycle-ratio range; got ({a_lo:.9g}, {a_hi:.9g})"
        )
    c_minus = birkhoff_sup(base)
    if not math.isfinite(c_minus):
        raise NumericalError("one-sided Birkhoff supremum should be finite here")
    infixes = spec.connecting_words()
    margin = base.distortion() + (infixes.norm + base.depth - 1) * base.sup_norm()
    threshold = margin + c_minus + 1.0
    for _ in range(12):
        seg = _extremal_word(base, threshold, minimize=True)
        rho = infixes.get(seg[-1], seg[0])
        word = seg + rho
        if base.word_sum_bounds(word).sup < -c_minus - 1.0:
            return word
        threshold += 1.0 + base.sup_norm()
    raise NumericalError("drift word construction did not close")
