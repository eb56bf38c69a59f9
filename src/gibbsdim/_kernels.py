"""Hot inner loops: Markov path sampling and CDF tree descent, in NumPy.

``markov_path`` draws a whole orbit from pre-drawn uniforms: NumPy maps each
uniform to its place among the chain's cumulative transition probabilities,
and one plain loop follows the states and emits their symbols.
``cdf_descend`` walks the cylinder tree one level at a time.  Randomness
enters only through the uniforms, so a seed fixes the output.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"  # the only backend; benchmark records report it
CHUNK = 1 << 16  # uniforms held as Python ints at once; bounds the orbit's memory


def markov_path(start_cum, q_cum, u, blocks):
    """Decoded word of a state path: u[0] picks the start, u[1:] drive the transitions.

    From state s a uniform x moves to the first t with x < q_cum[s, t], so
    each state owns the half-open interval [q_cum[s, t-1], q_cum[s, t]) as
    ``rng.random`` draws from [0, 1), and a state of probability 0 is never
    entered.  An x above every cut (rounding can leave a row short of 1)
    goes to the row's last state of positive probability.  start_cum plays
    the same part for u[0].  The path is decoded as it is walked: the start
    contributes its whole block, every later state the last symbol of its
    block.
    """
    n = start_cum.shape[0]
    s = int(np.searchsorted(start_cum, u[0], side="right"))
    if s == n:
        s = _last_positive(start_cum)
    # Rows of q_cum are non-decreasing, so searchsorted finds that first t.
    # Every x in [cuts[j-1], cuts[j]) takes state s to the same next state,
    # the first t with q_cum[s, t] >= cuts[j]; table[s][j] holds it, and the
    # extra last column the answer for x above every cut.
    cuts = np.unique(q_cum)
    edges = np.append(cuts, np.inf)
    table = []
    for row in q_cum:
        nxt = np.searchsorted(row, edges)
        table.append(np.where(nxt < n, nxt, _last_positive(row)).tolist())
    last = [blk[-1] for blk in blocks]
    out = list(blocks[s])
    append = out.append
    for lo in range(1, u.shape[0], CHUNK):
        for j in np.searchsorted(cuts, u[lo:lo + CHUNK], side="right").tolist():
            s = table[s][j]
            append(last[s])
    return tuple(out)


def _last_positive(cum):
    """Index of the last state whose interval in the cumulative row ``cum`` is not empty."""
    return int(np.flatnonzero(np.diff(cum, prepend=0.0) > 0)[-1])


def cdf_descend(x, eps, max_depth, root_next, root_mass, succ, step_prob,
                order, rates, offsets, u, v):
    """Mass of (-inf, x] under the pushforward measure, by cylinder descent.

    At each level, siblings lying entirely left of x contribute their full
    mass; the unique child containing x is entered (ties at shared endpoints
    count the left cylinder as passed).  x is carried as y, its preimage in
    the current cylinder's own coordinates, so every comparison is made at the
    scale of that cylinder; absolute endpoints s*u + t round onto x once the
    cylinder is narrower than the float spacing near x (about 53 halvings).
    Stops once the containing mass drops below eps, closing with a linear
    interpolation of the remainder.
    """
    acc = 0.0
    state = np.int64(-1)
    mass = 1.0
    y = x
    for _ in range(max_depth):
        chosen = np.int64(-1)
        child_mass = 0.0
        cr = 1.0
        co = 0.0
        for oi in range(order.shape[0]):
            b = order[oi]
            if state < 0:
                nxt = root_next[b]
                m = root_mass[b]
            else:
                nxt = succ[state, b]
                if nxt < 0:
                    continue
                m = mass * step_prob[state, b]
            r = rates[b]
            o = offsets[b]
            if r * v + o <= y:
                acc += m
            elif r * u + o <= y:
                chosen = nxt
                child_mass = m
                cr = r
                co = o
        if chosen < 0:
            return acc  # x fell in a gap between sibling cylinders
        state = chosen
        mass = child_mass
        y = (y - co) / cr
        if mass < eps:
            break
    frac = (y - u) / (v - u)
    if frac < 0.0:
        frac = 0.0
    if frac > 1.0:
        frac = 1.0
    return acc + mass * frac
