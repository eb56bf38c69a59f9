"""Hot inner loops: Markov path sampling in NumPy and CDF tree descent.

``markov_path`` draws an orbit one chunk of uniforms at a time.  Each uniform
is ranked among the chain's cumulative transition probabilities by a guide
table (Chen and Asau, 1974; Devroye 1986, III.2.4): 2**12 equal buckets of
[0, 1) each store the rank their uniforms share, and only the few uniforms in
a bucket that a cut splits are ranked by binary search.  Where a rank sends
every state to the same next state (a coalescing step, as in Propp and
Wilson's coupling from the past) the step is resolved for the whole chunk at
once.  When at least half of a chunk is resolved so, vector rounds resolve
the rest, one step after each known state per round; otherwise one plain
loop walks the chunk from its first unresolved step to its last.  Each chunk's
states are decoded into one preallocated array of the narrowest integer type
that holds the alphabet, which is converted to the word once.
``cdf_descend`` walks the cylinder tree
one level at a time over a table of plain tuples, one row per state of the
chain's short words, so each level is a loop over the siblings up to the
first whose image holds the point.  Each sibling carries the endpoints of its
image of the base interval, computed once per model, so a level compares the
point against stored floats and unpacks only the child it enters.
Randomness enters only through the uniforms, so a seed fixes the output.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # the only backend; benchmark records report it
CHUNK = 1 << 16  # uniforms drawn and steps resolved at once; bounds the orbit's scratch arrays
GUIDE = 1 << 12  # buckets of the rank table; a power of two, so u * GUIDE is exact


def markov_path(start_cum, q_cum, draw, count, blocks):
    """Decoded word of a count-state path driven by the uniforms ``draw`` serves.

    ``draw(k)`` returns the next k uniforms; the first picks the start, the
    rest drive the transitions, CHUNK at a time.  From state s a uniform x
    moves to the first t with x < q_cum[s, t], so each state owns the
    half-open interval [q_cum[s, t-1], q_cum[s, t]) as ``rng.random`` draws
    from [0, 1), and a state of probability 0 is never entered.  An x above
    every cut (rounding can leave a row short of 1) goes to the row's last
    state of positive probability.  start_cum plays the same part for the
    first uniform.  The start contributes its whole block to the word, every
    later state the last symbol of its block.  The same table decides every
    step, whether a vector lookup or the loop takes it, so the word does not
    depend on how a chunk's steps are shared out between them.  The word is
    filled into one array of the narrowest type that holds every symbol and
    converted to a tuple once.
    """
    n = start_cum.shape[0]
    s = int(np.searchsorted(start_cum, draw(1)[0], side="right"))
    if s == n:
        s = _last_positive(start_cum)
    cuts, table, fixed = step_table(q_cum)
    guide = rank_guide(cuts)
    rows = table.tolist()
    symbols = np.array([blk[-1] for blk in blocks],
                       dtype=np.min_scalar_type(max(map(max, blocks))))
    head = len(blocks[s])
    word = np.empty(head + count - 1, dtype=symbols.dtype)
    word[:head] = blocks[s]
    for lo in range(1, count, CHUNK):
        m = min(CHUNK, count - lo)
        s = _chunk(cuts, guide, table, rows, fixed, symbols, s, draw,
                   word[head - 1 + lo:head - 1 + lo + m])
    return tuple(memoryview(word))


def _chunk(cuts, guide, table, rows, fixed, symbols, s, draw, out):
    """Write the symbols of the out.size states that follow s into out; return the last state.

    The chunk's uniforms live only while they are ranked, and the other
    scratch arrays only in this call, so none is alive when the word is
    converted.
    """
    cols = rank(cuts, guide, draw(out.size))
    path = fixed[cols]
    if path[0] < 0:
        path[0] = rows[s][cols[0]]
    free = np.flatnonzero(path < 0)
    # A round costs a few array passes over every free step and resolves
    # those that follow a known state, about the chunk's known share of
    # them (whether a step is free depends on its own uniform alone), so
    # rounds beat the loop only while at least half of the chunk is known.
    while 0 < 2 * free.size <= path.size:
        prev = path[free - 1]
        known = prev >= 0
        now = free[known]
        path[now] = table[prev[known], cols[now]]
        free = free[~known]
    # The loop walks from the first free step to the last, through any known
    # steps between them, and writes each state back (path[0] is known, so
    # the walk starts from a state).
    if free.size:
        a, b = free[0], free[-1] + 1
        t = int(path[a - 1])
        path[a:b] = [t := rows[t][j] for j in cols[a:b].tolist()]
    out[:] = symbols[path]
    return int(path[-1])


def rank_guide(cuts):
    """The rank #(cuts <= x) shared by every x of each bucket [i, i+1) / GUIDE, else -1.

    Entry i is -1 where a cut lies strictly inside bucket i.  Entry 0, which
    also takes the uniforms below 0, and entry GUIDE, which takes every
    x >= 1, are always -1.  ``rank`` searches the uniforms of those entries.
    """
    edges = np.arange(GUIDE + 1) / GUIDE
    guide = np.searchsorted(cuts, edges, side="right")
    split = np.searchsorted(cuts, edges[1:], side="left") > guide[:-1]
    guide[:-1][split] = -1
    guide[0] = guide[-1] = -1
    return guide


def rank(cuts, guide, u):
    """np.searchsorted(cuts, u, side="right"), read from the guide table where it can be."""
    k = u * GUIDE
    np.clip(k, 0, GUIDE, out=k)
    k = k.astype(np.intp)
    cols = guide[k]
    search = np.flatnonzero(cols < 0)
    cols[search] = np.searchsorted(cuts, u[search], side="right")
    return cols


def step_table(q_cum):
    """(cuts, table, fixed): the next state of every state for every range of uniforms.

    cuts are the distinct entries of q_cum.  Every x in [cuts[j-1], cuts[j])
    takes state s to the same next state, the first t with
    q_cum[s, t] >= cuts[j]; table[s, j] holds it, and the extra last column
    the answer for x above every cut.  fixed[j] is the next state every row
    of column j agrees on, else -1: a step whose uniform falls in a fixed
    column does not depend on the state it leaves.
    """
    n = q_cum.shape[0]
    cuts = np.unique(q_cum)
    edges = np.append(cuts, np.inf)
    # Rows of q_cum are non-decreasing, so searchsorted finds that first t.
    table = np.array([np.searchsorted(row, edges) for row in q_cum])
    table = np.where(table < n, table, [[_last_positive(row)] for row in q_cum])
    fixed = np.where((table == table[0]).all(axis=0), table[0], -1)
    return cuts, table, fixed


def _last_positive(cum):
    """Index of the last state whose interval in the cumulative row ``cum`` is not empty."""
    return int(np.flatnonzero(np.diff(cum, prepend=0.0) > 0)[-1])


def cdf_descend(x, eps, max_depth, children, u, v):
    """Mass of (-inf, x] under the pushforward measure, by cylinder descent.

    children[i] lists (hi, lo, prob, (next_state, rate, offset)) for each
    admissible one-symbol extension of state i's word, leftmost image first;
    hi = rate*v + offset and lo = rate*u + offset are the endpoints of the
    child's image of [u, v], stored once per model.  State 0 is the empty
    word and has mass 1.  A child's mass is its parent's times prob.  At each
    level, siblings lying entirely left of x contribute their full mass; the
    first sibling whose interval holds x is entered, so in an overlap the
    earlier one is (ties at shared endpoints count the left cylinder as
    passed), and x in a gap between siblings ends the descent.  x is
    carried as y, its preimage in the current cylinder's own coordinates, so
    every comparison is made at the scale of that cylinder; absolute
    endpoints s*u + t round onto x once the cylinder is narrower than the
    float spacing near x (about 53 halvings).  Stops once the containing mass
    drops below eps, closing with a linear interpolation of the remainder.
    """
    acc = 0.0
    state = 0
    mass = 1.0
    y = x
    for _ in range(max_depth):
        chosen = None
        for hi, lo, p, child in children[state]:
            if hi <= y:
                acc += mass * p
            elif lo <= y:
                chosen, child_p = child, p
                break
        if chosen is None:
            return acc  # x fell in a gap between sibling cylinders
        state, r, o = chosen
        mass = mass * child_p
        y = (y - o) / r
        if mass < eps:
            break
    frac = (y - u) / (v - u)
    if frac < 0.0:
        frac = 0.0
    if frac > 1.0:
        frac = 1.0
    return acc + mass * frac
