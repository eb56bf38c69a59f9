"""Cycle means and cycle ratios on small dense digraphs.

Graphs arrive as a boolean adjacency matrix plus one or two weight matrices;
in the package they are the block graphs of ``LocallyConstantPotential.edges``.
All routines assume every vertex has an outgoing edge; the cycle searches are
fed mixing specs only, which are strongly connected.
Every walk search here, and the ones in ``thermo`` and ``wordsets``' drift
words, is built on the max-plus step ``relax``, and every cycle read off a map
u -> nxt[u] (parents, successors) on ``orbit_cycle``.  Word sums, overhang
bounds, window families and the CDF table walk ``potentials``' prefix automaton.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

MAX_RATIO_ROUNDS = 10_000   # most cycle jumps ``max_cycle_ratio`` takes


def relax(adj: np.ndarray, w: np.ndarray, f: np.ndarray):
    """One max-plus step: g[v] = max over edges u -> v of f[u] + w[u, v].

    Returns (g, parent) with parent[v] the first maximising u.  Where no edge
    from a finite f[u] enters v, g[v] = -inf and parent[v] = -1.  A min-plus
    step is the negation of ``relax`` on negated arguments, and a backward
    step (maximising over the edges leaving each vertex) is
    ``relax(adj.T, w.T, f)``.
    """
    live = adj & (f > -np.inf)[:, None]
    cand = np.where(live, f[:, None] + w, -np.inf)
    parent = np.argmax(cand, axis=0)
    g = cand[parent, np.arange(cand.shape[1])]
    return g, np.where(g > -np.inf, parent, -1)


def karp_max_cycle_mean(adj: np.ndarray, w: np.ndarray):
    """Maximum cycle mean and a cycle that attains it exactly, as the cycle ratio
    over unit weights; named for the benchmark's span (later ``max_cycle_mean``)."""
    return max_cycle_ratio(adj, w, adj.astype(float))


def find_positive_cycle(adj: np.ndarray, w: np.ndarray, tol: float):
    """A cycle of total weight > tol if one exists, else None (Bellman-Ford).

    Jacobi rounds: a vertex improved in round k took its parent from a vertex
    improved in round k-1, so the n-step walk back from a vertex still
    improving in round n only meets set parent pointers, and ends on a cycle
    of the parent graph.  A cycle whose weight exceeds its length times tol
    always keeps some vertex improving; one of weight at most tol never does.
    """
    n = adj.shape[0]
    dist = np.zeros(n)
    parent = np.full(n, -1, dtype=np.int64)
    for _ in range(n):
        g, par = relax(adj, w, dist)
        better = g > dist + tol
        if not better.any():
            return None
        dist = np.where(better, g, dist)
        parent = np.where(better, par, parent)
    return orbit_cycle(parent, int(np.argmax(better)))[::-1]


def orbit_cycle(nxt, v) -> list:
    """The cycle that the orbit of v under u -> nxt[u] enters, read forward
    from the vertex that len(nxt) steps reach, which lies on it."""
    for _ in range(len(nxt)):
        v = int(nxt[v])
    cycle, u = [v], int(nxt[v])
    while u != v:
        cycle.append(u)
        u = int(nxt[u])
    return cycle


def cycle_sum(w: np.ndarray, cycle) -> float:
    total = 0.0
    for i, u in enumerate(cycle):
        total += w[u, cycle[(i + 1) % len(cycle)]]
    return float(total)


def max_cycle_ratio(adj: np.ndarray, num: np.ndarray, den: np.ndarray, tol: float = 1e-13):
    """max over directed cycles of sum(num)/sum(den); den must be positive on edges.

    Parametric search: at ratio r, some cycle beats r iff the weights
    num - r*den admit a positive cycle.  Each round jumps to the exact ratio
    of a witnessing cycle, so the result is an attained cycle ratio.
    """
    if not adj.any():
        raise NumericalError("graph has no edges")
    if np.any(den[adj] <= 0):
        raise NumericalError("cycle-ratio denominators must be positive")
    r = float(np.min(num[adj] / den[adj])) - 1.0
    scale = max(1.0, float(np.max(np.abs(num[adj]))) + float(np.max(np.abs(den[adj]))))
    best_cycle = None
    for _ in range(MAX_RATIO_ROUNDS):
        cyc = find_positive_cycle(adj, num - r * den, tol * scale)
        if cyc is None:
            if best_cycle is None:
                raise NumericalError("no cycle found above the initial ratio", bracket=(r, r))
            return float(r), best_cycle
        r_new = cycle_sum(num, cyc) / cycle_sum(den, cyc)
        if best_cycle is not None and r_new <= r:
            return float(r), best_cycle  # tolerance floor reached
        r, best_cycle = r_new, cyc
    raise NumericalError("cycle-ratio iteration did not settle", bracket=(r, r))
