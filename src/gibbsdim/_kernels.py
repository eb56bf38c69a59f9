"""Hot inner loops: Markov path sampling in NumPy and CDF tree descent.

``markov_path`` draws an orbit one chunk of uniforms at a time.  NumPy maps
each uniform to its place among the chain's cumulative transition
probabilities; where that place sends every state to the same next state
(a coalescing step, as in Propp and Wilson's coupling from the past) the
step is resolved for the whole chunk at once.  When at least half of a
chunk is resolved so, vector rounds resolve the rest, one step after each
known state per round; otherwise one plain loop walks the chunk from its
first unresolved step to its last.  ``cdf_descend`` walks the cylinder tree
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
    depend on how a chunk's steps are shared out between them.
    """
    n = start_cum.shape[0]
    s = int(np.searchsorted(start_cum, draw(1)[0], side="right"))
    if s == n:
        s = _last_positive(start_cum)
    cuts, table, fixed = step_table(q_cum)
    rows = table.tolist()
    last = [blk[-1] for blk in blocks]
    symbols = np.array(last)
    out = list(blocks[s])
    for lo in range(1, count, CHUNK):
        cols = np.searchsorted(cuts, draw(min(CHUNK, count - lo)), side="right")
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
        # The loop walks from the first free step to the last, through any
        # known steps between them; the known ends are copied.
        a, b = (free[0], free[-1] + 1) if free.size else (path.size, path.size)
        out += symbols[path[:a]].tolist()
        t = int(path[a - 1])
        for j in cols[a:b].tolist():
            t = rows[t][j]
            out.append(last[t])
        out += symbols[path[b:]].tolist()
        s = t if b == path.size else int(path[-1])
    return tuple(out)


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
