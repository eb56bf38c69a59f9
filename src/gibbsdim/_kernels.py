"""Hot inner loops: Markov path sampling and CDF tree descent.

Both kernels are written as plain Python over NumPy arrays so the same code
either runs as-is (fallback) or compiled by numba.  Set

    GIBBSDIM_DISABLE_NUMBA=1

to force the pure-Python/NumPy path; the selected backend is reported in
``BACKEND``.  Randomness enters only through pre-drawn uniforms, so both
backends produce bit-identical results.
"""

from __future__ import annotations

import os

import numpy as np


def numba_disabled() -> bool:
    return os.environ.get("GIBBSDIM_DISABLE_NUMBA", "").strip().lower() in {"1", "true", "yes", "on"}


def markov_path_py(start_cum, q_cum, u):
    """Sample a state path: u[0] picks the start, u[1:] drive the transitions."""
    m = u.shape[0]
    n = start_cum.shape[0]
    out = np.empty(m, dtype=np.int64)
    s = 0
    while s < n - 1 and u[0] > start_cum[s]:
        s += 1
    out[0] = s
    for k in range(1, m):
        x = u[k]
        t = 0
        while t < n - 1 and x > q_cum[s, t]:
            t += 1
        out[k] = t
        s = t
    return out


def cdf_descend_py(x, eps, max_depth, root_next, root_mass, succ, step_prob,
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


_PY_IMPLS = {"markov_path": markov_path_py, "cdf_descend": cdf_descend_py}
_JIT_IMPLS = None

if not numba_disabled():
    try:
        from numba import njit

        _JIT_IMPLS = {
            "markov_path": njit(cache=True)(markov_path_py),
            "cdf_descend": njit(cache=True)(cdf_descend_py),
        }
    except ImportError:
        _JIT_IMPLS = None

if _JIT_IMPLS is not None:
    BACKEND = "numba"
    markov_path = _JIT_IMPLS["markov_path"]
    cdf_descend = _JIT_IMPLS["cdf_descend"]
else:
    BACKEND = "numpy"
    markov_path = markov_path_py
    cdf_descend = cdf_descend_py
