"""Word families with bounded Birkhoff sums and the machinery built on them.

Covers: the bounded-sum window families of any range of lengths, from one
walk over the word tree; the finite postfix family that steers any
bounded-sum word back into a tighter band; membership checkers for the
frequent-appearance and repetition-free sequence sets; boundary words of an
interval order; separating words; and the bounded-band counterexample word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sft
from .cycles import relax
from .errors import (CapacityError, InfeasibleError, NumericalError,
                     ValidationError)
from .potentials import LocallyConstantPotential, combine
from .sft import EMPTY_WORD, SftSpec, Word, word_power
from .thermo import alpha_range, birkhoff_sup

ALPHA_SIGN_TOL = 1e-9
WITNESS_CAP = 32          # most failing source words a postfix check reports
DRIFT_STEP_CAP = 100_000  # longest walk ``_extremal_word`` tries
SEPARATING_MAX_LEN = 64   # longest word ``separating_word`` tries


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
    words = tuple(w for w, _ in _window_walk(phi, bound, length, length, cap))
    return WindowFamily(bound=float(bound), length=length, words=words)


def _window_walk(phi: LocallyConstantPotential, bound: float, lo: int, hi: int,
                 cap: int):
    """Yield ``(word, run)`` for every window-family word of length lo..hi.

    One branch-and-bound walk, depth first: each length's words come out in
    lexicographic order, and ``run`` equals ``phi.window_sums(word)[0]`` bit
    for bit.  A word's state is its last max(1, d-1) symbols, a block of
    ``phi.edges()``, and appending a symbol steps along an edge of that graph.
    Pruning takes exact extremal continuation sums (max-plus steps over the
    graph) over the lengths still open, so the test at each length equals the
    exact cylinder bounds.  ``cap`` is per length.
    """
    if bound <= 0:
        raise ValidationError("window bound must be positive")
    if not 1 <= lo <= hi:
        raise ValidationError("window length must be positive")
    spec, d, table = phi.spec, phi.depth, phi.table
    coder, wt = phi.edges()
    swidth = coder.width
    adj = coder.block.incidence
    sid = {w: i for i, w in enumerate(coder.blocks)}
    # a step adds the window starting at the block it leaves, as ``edges`` weighs
    if d == 1:  # except at d = 1, where it adds the symbol it enters
        wt = np.where(adj, [table[u] for u in coder.blocks], 0.0)

    # sup and inf overhang of the windows sliding off a word in state u
    over_sup, over_inf = zip(*(phi.window_sums(phi.tail(u))[1:] for u in coder.blocks))

    # minsup[r][u]: least achievable (continuation sum + final sup-overhang) in r steps
    minsup, maxinf = [np.array(over_sup)], [np.array(over_inf)]
    for _ in range(hi):
        minsup.append(-relax(adj.T, -wt.T, -minsup[-1])[0])
        maxinf.append(relax(adj.T, wt.T, maxinf[-1])[0])
    # at depth j the lengths max(lo, j)..hi are still open
    prune = {j: (np.min(minsup[max(lo - j, 0):hi - j + 1], axis=0).tolist(),
                 np.max(maxinf[max(lo - j, 0):hi - j + 1], axis=0).tolist())
             for j in range(swidth, hi + 1)}

    count = [0] * (hi + 1)
    stack = [(EMPTY_WORD, 0.0)]
    while stack:
        word, partial = stack.pop()
        j = len(word)
        if j >= swidth:
            state = sid[word[-swidth:]]
            sup_floor, inf_ceil = prune[j]
            if partial + sup_floor[state] > bound or partial + inf_ceil[state] < -bound:
                continue
            hit = (j >= lo and partial + over_sup[state] <= bound
                   and partial + over_inf[state] >= -bound)
        else:
            hit = j >= lo and phi.word_sum_bounds(word).within(bound)
        if hit:
            if count[j] >= cap:
                raise CapacityError(f"window family exceeds cap {cap}")
            count[j] += 1
            yield word, partial
        if j < hi:
            # children pushed in reverse pop in lexicographic order
            for b in reversed(spec.successors(word[-1]) if word else range(spec.n)):
                nw = word + (b,)
                stack.append((nw, partial + (table[nw[-d:]] if len(nw) >= d else 0.0)))


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

    Hypotheses: the band exceeds 2*distortion + |connectors|*|phi|, and the
    cycle ratios of phi take both signs.  Both segments overshoot the source
    band (plus slack) so a first-crossing prefix lands any bounded-sum word
    back inside the tight band.
    """
    spec = phi.spec
    spec.require_mixing()
    infixes = spec.connecting_words()
    v_phi = phi.distortion()
    nrm = phi.sup_norm()
    if not band > 2.0 * v_phi + infixes.norm * nrm:
        raise InfeasibleError(
            f"band {band:g} must exceed 2*distortion + |connectors|*norm "
            f"= {2.0 * v_phi + infixes.norm * nrm:g}"
        )
    one = LocallyConstantPotential.constant(spec, 1.0)
    a_lo, a_hi = alpha_range(phi, one)
    if not (a_lo < -ALPHA_SIGN_TOL and a_hi > ALPHA_SIGN_TOL):
        raise InfeasibleError(
            f"drift in both directions required: cycle ratio range ({a_lo:g}, {a_hi:g})"
        )
    slack = source_band + 2.0 * v_phi + infixes.norm * nrm
    seg_down = _extremal_word(phi, slack, minimize=True)
    seg_up = _extremal_word(phi, slack, minimize=False)
    prefixes = {EMPTY_WORD}
    for seg in (seg_down, seg_up):
        for k in range(1, len(seg) + 1):
            prefixes.add(seg[:k])
    words = set()
    for rho in infixes.words:
        for tau in prefixes:
            cand = rho + tau
            if spec.is_admissible(cand):
                words.add(cand)
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


def verify_postfix(pset: PostfixSet, phi: LocallyConstantPotential,
                   max_len: int) -> VerifyReport:
    """Exhaustively check the postfix property for all source words up to max_len.

    One walk yields every source word with its running sum, which each
    ``w + tau`` extends.  ``failures`` holds the first ``WITNESS_CAP`` failing
    words by length, then lexicographically.  Raises ValidationError when max_len < 1.
    """
    followers = pset.followers(phi.spec)
    band = pset.band
    checked = 0
    failures = {}   # length -> its first failing words
    for w, run in _window_walk(phi, pset.source_band, 1, max_len, sft.WORD_CAP):
        checked += 1
        tail = phi.tail(w)
        for tau in followers[w[-1]]:
            _, hi, lo = phi.window_sums(tail + tau, run)
            if hi <= band and lo >= -band:
                break
        else:
            bucket = failures.setdefault(len(w), [])
            if len(bucket) < WITNESS_CAP:
                bucket.append(w)
    first = [w for length in sorted(failures) for w in failures[length]][:WITNESS_CAP]
    return VerifyReport(passed=not first, max_len=max_len, checked=checked,
                        failures=tuple(first))


# --------------------------------------------------------------------------
# membership in the frequent-appearance and repetition-free sets
# --------------------------------------------------------------------------

def in_frequent_set(prefix: Word, words, k: int) -> bool:
    """True iff every length-k window inside the prefix contains every listed word."""
    fam = [tuple(w) for w in words]
    if any(len(w) == 0 for w in fam):
        raise ValidationError("family words must be non-empty")
    if any(len(w) > k for w in fam):
        raise ValidationError("window shorter than a family word; membership impossible")
    n = len(prefix)
    if n < k or not fam:
        return True
    text = bytes(prefix)
    for w in fam:
        pat = bytes(w)
        occ = []
        i = text.find(pat)
        while i >= 0:
            occ.append(i)
            i = text.find(pat, i + 1)
        ptr = 0
        for i in range(n - k + 1):
            while ptr < len(occ) and occ[ptr] < i:
                ptr += 1
            if ptr >= len(occ) or occ[ptr] > i + k - len(w):
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
    text = bytes(prefix)
    for w in fam:
        if text.find(bytes(word_power(spec, w, l))) >= 0:
            return False
    return True


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


def _functional_cycles(nxt) -> list:
    n = len(nxt)
    color = [0] * n
    cycles = []
    for start in range(n):
        if color[start]:
            continue
        path, pos = [], {}
        cur = start
        while color[cur] == 0 and cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            cur = nxt[cur]
        if cur in pos:
            cycles.append(tuple(path[pos[cur]:]))
        for v in path:
            color[v] = 1
    return cycles


def boundary_words(order, spec: SftSpec) -> BoundaryWords:
    """For each symbol the leftmost/rightmost admissible successor under ``order``,
    and all rotations of the cycles of those two successor maps."""
    order = tuple(order)
    if sorted(order) != list(range(spec.n)):
        raise ValidationError("order must be a permutation of the symbols")
    rank = {s: i for i, s in enumerate(order)}
    left = {a: min(spec.successors(a), key=lambda b: rank[b]) for a in range(spec.n)}
    right = {a: max(spec.successors(a), key=lambda b: rank[b]) for a in range(spec.n)}
    sets = []
    for nxt in (left, right):
        rotations = set()
        for cyc in _functional_cycles([nxt[a] for a in range(spec.n)]):
            for i in range(len(cyc)):
                rotations.add(cyc[i:] + cyc[:i])
        sets.append(tuple(sorted(rotations, key=lambda w: (len(w), w))))
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
