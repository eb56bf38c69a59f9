"""The inductive bounded-sum word tree and the mass distribution it carries.

Generation 1 is a bounded-sum window family; every later generation extends a
parent by a connector, a fresh window word, a connector, the joined marker
word (which contains all requested pattern words), and a correcting postfix.
The connectors all have one length L = ``mixing_window() - 2``, so every child
stem (connector + member + connector + joined) has one length too and distinct
members give distinct stems: the children of a node form a prefix code by
construction.  A member sits at offset L of its stem, so one index of the base
family finds the member of any tree word's stem, and a stem is spelled from its
member and its two connectors where it is needed.  Masses follow the recursive
exponential weighting in the metric potential and are normalized within each
sibling set, so they are consistent along the tree.

A node's postfixes are picked from arrays taken once per parent state: both
potentials' window columns on the stems in one stacked array, from ``fold``
over each prefix automaton; the postfixes' ``term_table`` from the states the
stems end in; and psi's table flat, for the picked postfixes' masses.  One
fold adds the stacked columns onto the parent's two running sums, and
``first_landing`` adds the postfixes' columns onto phi's, the empty postfix
first and with no column.  Every sum equals a full re-sum bit for bit.  A
child that ``sample`` makes starts from the running sums carried over from
its parent's node build, so it is neither re-summed nor re-validated; a word
a caller passes in is.  A node is cached as its picks, in the narrowest
integer type, and its log masses; child words are built only when asked for.

All choices (connectors, member order, postfix selection) are deterministic,
which makes masses reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import sft
from .errors import (CapacityError, InfeasibleError, NumericalError,
                     ValidationError)
from .potentials import LocallyConstantPotential, add_terms, cylinder_log_diam_psi
from .sft import InfixSet, SftSpec, Word
from .thermo import alpha_range, seeded_rng, spectrum_at
from .wordsets import (ALPHA_SIGN_TOL, PostfixSet, build_postfix_set, first_landing,
                       in_frequent_set, window_family)

DIM_MARGIN = 1e-3
BASE_LENGTH_CAP = 64    # longest base length ``choose_base_length`` tries
LEVEL_CAP = 200_000     # most words ``MassDistribution.level`` lists


def _logsumexp(values) -> float:
    arr = np.asarray(values, dtype=float)
    m = float(arr.max())
    return m + math.log(float(np.exp(arr - m).sum()))


def choose_base_length(phi: LocallyConstantPotential, psi: LocallyConstantPotential,
                       s: float, bound: float, postfix_norm: int, joined_len: int, infix_norm: int):
    """Window family of the least base length m whose weighted series beats the overhead.

    The criterion is (1/s) * log sum_{family} exp(-s * S_psi) > C0 with
    C0 = (2*|connectors| + |postfixes| + |joined|) * |psi|; feasible for every
    s below the spectrum value at ratio zero, where the full series diverges.
    Returns the WindowFamily and the summed terms -s * (cylinder sup S_psi).
    """
    if s <= 0:
        raise ValidationError("dimension parameter must be positive")
    c0 = (2 * infix_norm + postfix_norm + joined_len) * psi.sup_norm()
    for m in range(1, BASE_LENGTH_CAP + 1):
        fam = window_family(phi, bound, m)
        if not fam.words:
            continue
        run, state = psi.fold(np.array(fam.words, dtype=np.min_scalar_type(psi.spec.n)))
        logs = -s * (run + psi.automaton.over[0, state])
        if _logsumexp(logs) / s > c0:
            return fam, logs
    raise InfeasibleError(
        f"no base length up to {BASE_LENGTH_CAP} beats the overhead {c0:g};"
        " the dimension parameter is too close to the spectrum value"
    )


@dataclass(frozen=True, slots=True)
class MassCertificate:
    """Desk-checkable facts about one tree word."""

    word: Word
    length: int
    sum_bound: float          # K' + |postfixes| * |phi|
    max_abs_prefix_sum: float
    prefix_ok: bool
    window_len: int
    window_ok: bool
    band_ok: bool             # cylinder sup |S phi| <= K
    mass: float
    log_mass: float
    log_diam: float
    local_dim: float

    @property
    def passed(self) -> bool:
        return self.prefix_ok and self.window_ok and self.band_ok

    def to_dict(self) -> dict:
        """Every field but the word, in field order, then ``passed``."""
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "word"}
        return dict(data, passed=self.passed)


class MassDistribution:
    """Lazy tree of bounded-sum words with consistent cylinder masses.

    The tree keeps one index of its base family and spells each stem from its
    member and its connectors."""

    def __init__(self, phi, psi, s, family, root_logs, postfix, infixes, joined,
                 pattern_words, band, source_band, spectrum_value):
        self.phi: LocallyConstantPotential = phi
        self.psi: LocallyConstantPotential = psi
        self.spec: SftSpec = phi.spec
        self.s = float(s)
        self.family = family                  # WindowFamily (generation 1)
        self.postfix: PostfixSet = postfix
        self.infixes: InfixSet = infixes
        self.joined: Word = joined
        self.pattern_words = tuple(pattern_words)
        self.band = float(band)               # K
        self.source_band = float(source_band)  # K'
        self.spectrum_value = float(spectrum_value)
        self._nodes = {}          # parent -> (picks, logs, z)
        self._term_cache = {}
        self._taus = postfix.followers(self.spec)[joined[-1]]   # every stem ends in joined
        self._index = {w: i for i, w in enumerate(family.words)}   # member -> index
        # generation 1: the members and their normalised log masses
        self._gen1 = (family.words, root_logs - _logsumexp(root_logs))

    # --- structural constants -------------------------------------------

    @property
    def base_length(self) -> int:
        return self.family.length

    @property
    def prefix_sum_bound(self) -> float:
        return self.source_band + self.postfix.norm * self.phi.sup_norm()

    @property
    def window_length(self) -> int:
        return 2 * (self.base_length + self.infixes.norm + len(self.joined)) + self.postfix.norm

    # --- tree ------------------------------------------------------------

    def _stem(self, last: int, i: int) -> Word:
        """rho + member i + rho' + joined: the stem of child i of a parent
        that ends in symbol ``last``."""
        m, infixes = self.family.words[i], self.infixes
        return infixes.get(last, m[0]) + m + infixes.get(m[-1], self.joined[0]) + self.joined

    def _terms(self, parent: Word):
        """For ``parent``, memoised by its (phi, psi) state: ``stems[c, k, i]``,
        the window value that column c of stem i adds for potential k of
        (phi, psi) from the parent's state; per potential, each stem's row in
        the taus' ``term_table`` from the stems' distinct final states (tau
        terms depend on a stem only by that), and the table; and psi's table
        flat, its value rows and then its sup row, one (row, tau) cell per
        column."""
        key = (self.phi.automaton.state(parent), self.psi.automaton.state(parent))
        terms = self._term_cache.get(key)
        if terms is None:
            words = np.array([self._stem(parent[-1], i) for i in range(len(self.family.words))],
                             dtype=np.min_scalar_type(self.spec.n))
            stems = np.empty((words.shape[1], 2, len(words)))
            tables = []
            for k, (f, start) in enumerate(zip((self.phi, self.psi), key)):
                ends, rows = np.unique(f.fold(words, start, columns=stems[:, k])[1],
                                       return_inverse=True)
                tables.append((rows, f.term_table(ends, self._taus)))
            values, bounds, _ = tables[1][1]
            flat = np.concatenate((values, bounds[:1])).reshape(len(values) + 1, -1)
            terms = self._term_cache[key] = (stems, tables, flat)
        return terms

    def _make_children(self, parent: Word, runs=None):
        """The node of ``parent``: ``(picks, logs, z)``.

        Child i is parent + stem i + ``taus[picks[i]]``, with the first tau in
        order that lands it in the band.  Each candidate's sums extend the
        parent's running sums ``runs`` (phi's, psi's) column by column, as a
        full re-sum adds them (never ``np.sum``, which adds pairwise); both
        potentials' stem columns are added in one stacked fold.  A parent
        given without its runs is validated and re-summed here; the stems are
        walked from it in ``_terms``, and the taus are validated with their
        junction by ``PostfixSet.followers``.
        """
        if runs is None:
            if not parent or not self.spec.is_admissible(parent):
                raise ValidationError("parent word is not admissible")
            runs = (self.phi.window_sums(parent)[0], self.psi.window_sums(parent)[0])
        stems, ((p_ends, p_terms), (q_ends, _)), flat = self._terms(parent)
        acc = add_terms(np.array(runs)[:, None], stems)
        picks = first_landing(acc[0], p_ends, p_terms, self.band)
        if picks.min() < 0:
            raise NumericalError(
                "no postfix returns a child into the band; parent length "
                f"{len(parent)}, member {self.family.words[np.flatnonzero(picks < 0)[0]]}"
            )
        # the picked taus' psi columns, then their sup bounds, a column at a
        # time as they are added: no (columns x children) array
        cells = q_ends * len(self._taus) + picks
        logs = -self.s * add_terms(acc[1], (col.take(cells) for col in flat))
        z = _logsumexp(logs)
        return picks.astype(np.min_scalar_type(len(self._taus) - 1)), logs - z, float(z)

    def _node(self, parent: Word, runs=None):
        node = self._nodes.get(parent)
        if node is None:
            node = self._nodes[parent] = self._make_children(parent, runs)
        return node

    def _child_runs(self, parent: Word, runs, picks, i: int):
        """The phi and psi running sums of child i of ``parent`` from the
        parent's ``runs``: stem i's columns, then its tau's, added left to
        right as ``_make_children`` adds them, so each equals
        ``window_sums(child)[0]`` bit for bit."""
        stems, tables, _ = self._terms(parent)
        return tuple(add_terms(run, stems[:, k, i].tolist() + values[:, ends[i], picks[i]].tolist())
                     for k, (run, (ends, (values, _, _))) in enumerate(zip(runs, tables)))

    def _child(self, parent: Word, picks, i: int) -> Word:
        return parent + self._stem(parent[-1], i) + self._taus[picks[i]]

    def children(self, parent: Word):
        """``(words, probs, logs, z)``: the children of ``parent``, their
        conditional masses and log masses, and the log normaliser."""
        parent = tuple(parent)
        picks, logs, z = self._node(parent)
        words = tuple(self._child(parent, picks, i) for i in range(len(picks)))
        return words, np.exp(logs), logs, z

    # --- masses ------------------------------------------------------------

    def log_mass(self, word: Word) -> float:
        """The log mass of ``word``, summed along its generation path from the
        root; errors if it is not a node.  Each generation's member is read
        at its stem's offset L and looked up in the base family's index."""
        word = tuple(word)
        m, offset = self.base_length, self.infixes.norm
        i = self._index.get(word[:m])
        if i is None:
            raise ValidationError("word is not a member of the tree")
        cur, log_mass = word[:m], float(self._gen1[1][i])
        while cur != word:
            picks, logcond, _ = self._node(cur)
            i = self._index.get(word[len(cur) + offset:len(cur) + offset + m])
            nxt = None if i is None else self._child(cur, picks, i)
            if nxt is None or word[:len(nxt)] != nxt:
                raise ValidationError("word is not a member of the tree")
            cur = nxt
            log_mass += float(logcond[i])
        return log_mass

    def mass(self, word: Word) -> float:
        return math.exp(self.log_mass(word))

    def level(self, k: int) -> dict:
        """All generation-k words with their masses, for small families (``LEVEL_CAP`` words)."""
        if k < 1:
            raise ValidationError("generation index must be positive")
        current = {w: float(lm) for w, lm in zip(*self._gen1)}
        for _ in range(k - 1):
            nxt = {}
            for w, lm in current.items():
                words, _, logcond, _ = self.children(w)
                for c, lc in zip(words, logcond):
                    nxt[c] = lm + float(lc)
                if len(nxt) > LEVEL_CAP:
                    raise CapacityError(f"generation exceeds cap {LEVEL_CAP}")
            current = nxt
        return {w: math.exp(lm) for w, lm in current.items()}

    def sample(self, k: int, seed: int) -> Word:
        """Draw a generation-k word with probability equal to its mass."""
        if k < 1:
            raise ValidationError("generation index must be positive")
        stem = 2 * self.infixes.norm + self.base_length + len(self.joined)
        if self.base_length + (k - 1) * stem > sft.WORD_CAP:
            raise CapacityError(f"a generation-{k} word is longer than the cap {sft.WORD_CAP}")
        rng = seeded_rng(seed)
        members, logs = self._gen1
        idx = int(np.searchsorted(np.cumsum(np.exp(logs)), rng.random(), side="left"))
        cur = members[min(idx, len(members) - 1)]
        runs = (self.phi.window_sums(cur)[0], self.psi.window_sums(cur)[0])
        for _ in range(k - 1):
            picks, logs, _ = self._node(cur, runs)
            j = int(np.searchsorted(np.cumsum(np.exp(logs)), rng.random(), side="left"))
            j = min(j, len(picks) - 1)
            cur, runs = self._child(cur, picks, j), self._child_runs(cur, runs, picks, j)
        return cur

    # --- certificates ---------------------------------------------------------

    def certify(self, word: Word) -> MassCertificate:
        """Check the prefix-sum bound, the marker-window property and the band,
        and report the local dimension estimate of the word's cylinder.

        The band check adds the word's overhang bounds to the prefix-sum fold,
        which is ``phi.window_sums(word)[0]``, so it reads the cylinder bounds
        of ``word_sum_bounds``.  A cylinder that is a single point has no
        local dimension and raises InfeasibleError."""
        log_mass = self.log_mass(word)
        phi = self.phi
        # row i is the i-th window: from the empty word, only its last step adds
        # a value, so the rows' sums are the window values, accumulated in order
        w, width = np.array(word), min(phi.depth, len(word))
        values, state = phi.fold(w[np.arange(len(w) - width + 1)[:, None] + np.arange(width)])
        runs = np.add.accumulate(values)
        run, worst = float(runs[-1]), float(np.abs(runs).max(initial=0.0))
        sup, inf = phi.automaton.over[:, state[-1]].tolist()
        bound = self.prefix_sum_bound
        wlen = self.window_length
        window_ok = in_frequent_set(word, [self.joined], wlen) if len(word) >= wlen else True
        band_ok = run + sup <= self.band and run + inf >= -self.band
        log_diam = cylinder_log_diam_psi(self.psi, word)
        if log_diam == -math.inf:
            raise InfeasibleError("the word's cylinder is a single point; it has no local dimension")
        local = log_mass / log_diam if log_diam < 0 else math.nan
        return MassCertificate(
            word=tuple(word), length=len(word), sum_bound=bound,
            max_abs_prefix_sum=worst, prefix_ok=worst <= bound + 1e-12,
            window_len=wlen, window_ok=window_ok, band_ok=band_ok,
            mass=math.exp(log_mass), log_mass=log_mass, log_diam=log_diam,
            local_dim=local,
        )


def build_mass_distribution(phi: LocallyConstantPotential,
                            psi: LocallyConstantPotential,
                            s: float, pattern_words, band: float = None,
                            b0: float = None) -> MassDistribution:
    """Assemble the tree: joined marker word, postfix family, base length, weights.

    Feasible when the cycle-ratio range of (phi, psi) straddles zero strictly
    and s stays below the spectrum value at ratio zero, b0; a caller that
    already holds ``spectrum_at(0.0, phi, psi).value`` passes it as b0.
    """
    if phi.spec != psi.spec:
        raise ValidationError("potentials live on different specs")
    spec = phi.spec
    spec.require_mixing()
    a_lo, a_hi = alpha_range(phi, psi)
    if not (a_lo < -ALPHA_SIGN_TOL and a_hi > ALPHA_SIGN_TOL):
        raise InfeasibleError(
            f"cycle-ratio range ({a_lo:.9g}, {a_hi:.9g}) must straddle zero strictly"
        )
    if b0 is None:
        b0 = spectrum_at(0.0, phi, psi).value
    if not 0.0 < s < b0 - DIM_MARGIN:
        raise InfeasibleError(
            f"dimension parameter must lie in (0, {b0 - DIM_MARGIN:.6g}); got {s:g}"
        )
    pattern = sorted(tuple(w) for w in pattern_words)
    if not pattern or any(len(w) == 0 for w in pattern):
        raise ValidationError("pattern words must be non-empty")
    for w in pattern:
        if not spec.is_admissible(w):
            raise ValidationError(f"pattern word {w} is not admissible")
    infixes = spec.uniform_connecting_words()
    joined = pattern[0]
    for w in pattern[1:]:
        joined = joined + infixes.get(joined[-1], w[0]) + w
    v_phi = phi.distortion()
    nrm = phi.sup_norm()
    if band is None:
        band = 2.0 * v_phi + infixes.norm * nrm + 1.0
    source_band = band + (2 * infixes.norm + len(joined)) * nrm
    postfix = build_postfix_set(phi, source_band, band)
    family, root_logs = choose_base_length(phi, psi, s, band, postfix.norm, len(joined),
                                           infixes.norm)
    return MassDistribution(
        phi=phi, psi=psi, s=s, family=family, root_logs=root_logs, postfix=postfix,
        infixes=infixes, joined=joined, pattern_words=pattern, band=band,
        source_band=source_band, spectrum_value=b0,
    )
