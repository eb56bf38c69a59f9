"""Shared constructors and independent brute-force oracles for the tests.

Everything here is deliberately naive (itertools products, exhaustive DFS),
so the library's outputs are checked against implementations that share no
code path with them.
"""

import itertools
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np

from gibbsdim import LocallyConstantPotential, SftSpec


def full2():
    return SftSpec(alphabet=("0", "1"), incidence=[[1, 1], [1, 1]])


def gold():
    return SftSpec(alphabet=("0", "1"), incidence=[[1, 1], [1, 0]])


def bin14():
    spec = full2()
    phi = LocallyConstantPotential.from_values(spec, [math.log(0.25), math.log(0.75)])
    psi = LocallyConstantPotential.constant(spec, math.log(2.0))
    return spec, phi, psi


def phi_pm():
    spec = full2()
    phi = LocallyConstantPotential.from_values(spec, [-0.5, 0.5])
    psi = LocallyConstantPotential.constant(spec, math.log(2.0))
    return spec, phi, psi


def phi_neg():
    spec = full2()
    phi = LocallyConstantPotential.from_values(spec, [-math.log(3.0), 0.0])
    psi = LocallyConstantPotential.constant(spec, 1.0)
    return spec, phi, psi


def period3():
    """The cycle a -> b -> c -> a: irreducible, not mixing."""
    return SftSpec(alphabet=("a", "b", "c"), incidence=[[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def gold_edge_potential():
    spec = gold()
    table = {spec.word("00"): 1.0, spec.word("01"): 2.0, spec.word("10"): -1.0}
    return spec, LocallyConstantPotential.from_table(spec, 2, table)


def random_mixing_spec(rng, n=None):
    n = int(n if n is not None else rng.integers(2, 6))
    inc = rng.random((n, n)) < 0.4
    for i in range(n):
        inc[i, (i + 1) % n] = True
    inc[0, 0] = True
    return SftSpec(alphabet=tuple(str(i) for i in range(n)), incidence=inc)


def random_potential(rng, spec, depth, scale=1.0, quantize=None):
    """Random table; with quantize=q the values are exact multiples of 1/q."""
    entries = []
    for w in spec.words(depth):
        v = float(rng.normal(0.0, scale))
        if quantize:
            v = round(v * quantize) / quantize
        entries.append((w, v))
    return LocallyConstantPotential.from_table(spec, depth, entries)


def run_limited(snippet):
    """Run ``snippet`` in a fresh interpreter whose address space is capped at
    1 GiB, with one BLAS thread, so that a runaway allocation fails there
    instead of exhausting the machine.  The snippet can import this package
    and ``helpers``.  Returns ``(stdout, ru_maxrss)``, the child's peak
    resident set in KiB; a failing snippet fails the test with its stderr.
    """
    here = pathlib.Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    program = ("import resource, sys\n"
               "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
               f"exec({snippet!r})\n"
               "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n")
    done = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout, int(done.stderr.split()[-1])


# --- brute-force oracles ----------------------------------------------------

def brute_words(spec, n):
    out = []
    for tup in itertools.product(range(spec.n), repeat=n):
        if spec.is_admissible(tup):
            out.append(tup)
    return out


def brute_extensions(spec, last, length):
    """All admissible continuations of ``length`` symbols after symbol ``last``."""
    if length == 0:
        return [()]
    out = []
    for tup in itertools.product(range(spec.n), repeat=length):
        if spec.incidence[last, tup[0]] and spec.is_admissible(tup):
            out.append(tup)
    return out


def brute_sum_range(phi, word):
    """Exact {S_len(xi): xi in [word]} bounds via exhaustive continuations."""
    spec, d = phi.spec, phi.depth
    values = []
    for ext in brute_extensions(spec, word[-1], d - 1) if d > 1 else [()]:
        seq = word + ext
        values.append(sum(phi.table[seq[k:k + d]] for k in range(len(word))))
    return max(values), min(values)


def brute_gibbs_constant(chain, phi, max_len):
    """The two-sided Gibbs constant of the chain against phi, normalized to
    zero pressure: the largest of 1, mu[w] / exp(sup S phi) and its inverse
    over the admissible words w up to max_len."""
    best = 1.0
    for n in range(1, max_len + 1):
        for w in brute_words(chain.spec, n):
            ratio = chain.cylinder_measure(w) / math.exp(brute_sum_range(phi, w)[0])
            best = max(best, ratio, 1.0 / ratio)
    return best


def brute_overhang(phi, word):
    """(max, min) over every continuation of the windows sliding off the
    last d-1 symbols of ``word``, each summed by a left fold started at 0.0."""
    d = phi.depth
    tail = word[max(0, len(word) - d + 1):]
    if not tail:
        return 0.0, 0.0
    sums = []
    for ext in brute_extensions(phi.spec, tail[-1], d - 1):
        seq, acc = tail + ext, 0.0
        for k in range(len(tail)):
            acc += phi.table[seq[k:k + d]]
        sums.append(acc)
    return max(sums), min(sums)


def reference_children(dist, parent):
    """Children of ``parent`` by the tree's rule, every candidate re-summed whole.

    Each stem + tau goes through the public ``word_sum_bounds``.  The
    prefix-clash test scans the whole words chosen so far; with connectors
    of one length it never rejects a candidate, and it stays as an
    independent check of that.  Raises ``LookupError(member)`` for the first
    member with no pick.
    """
    spec = dist.spec
    chosen = []
    for member in dist.family.words:
        rho = dist.infixes.get(parent[-1], member[0])
        rho2 = dist.infixes.get(member[-1], dist.joined[0])
        stem = parent + rho + member + rho2 + dist.joined
        pick = None
        for tau in dist.postfix.words:
            if tau and not spec.incidence[stem[-1], tau[0]]:
                continue
            cand = stem + tau
            if not dist.phi.word_sum_bounds(cand).within(dist.band):
                continue
            if any(cand[:len(o)] == o or o[:len(cand)] == cand for o in chosen):
                continue
            pick = cand
            break
        if pick is None:
            raise LookupError(member)
        chosen.append(pick)
    logs = np.array([-dist.s * dist.psi.word_sum_bounds(c).sup for c in chosen])
    m = float(logs.max())
    z = m + math.log(float(np.exp(logs - m).sum()))
    return tuple(chosen), np.exp(logs - z), logs - z, z


def reference_verify_postfix(pset, phi, max_len, witness_cap=32):
    """(passed, checked, failures) of the postfix check: the source words are
    every admissible word filtered by its cylinder bounds, and each w + tau
    is summed whole."""
    checked, failures = 0, []
    for length in range(1, max_len + 1):
        for w in brute_words(phi.spec, length):
            if not phi.word_sum_bounds(w).within(pset.source_band):
                continue
            checked += 1
            ok = any(
                phi.word_sum_bounds(w + tau).within(pset.band)
                for tau in pset.words
                if not tau or phi.spec.incidence[w[-1], tau[0]])
            if not ok and len(failures) < witness_cap:
                failures.append(w)
    return not failures, checked, tuple(failures)


def brute_simple_cycles(adj):
    """All simple directed cycles as vertex tuples (start = minimal vertex)."""
    n = adj.shape[0]
    cycles = []

    def dfs(start, path, seen):
        u = path[-1]
        for v in range(n):
            if not adj[u, v]:
                continue
            if v == start:
                cycles.append(tuple(path))
            elif v > start and v not in seen:
                dfs(start, path + [v], seen | {v})

    for s in range(n):
        dfs(s, [s], {s})
    return cycles


def brute_cycle_ratio_range(adj, num, den):
    """Exact (min, max) cycle ratio using Fractions of the matrix entries."""
    lo, hi = None, None
    for cyc in brute_simple_cycles(adj):
        top = Fraction(0)
        bot = Fraction(0)
        for i, u in enumerate(cyc):
            v = cyc[(i + 1) % len(cyc)]
            top += Fraction(num[u, v]).limit_denominator(10**12)
            bot += Fraction(den[u, v]).limit_denominator(10**12)
        r = top / bot
        lo = r if lo is None else min(lo, r)
        hi = r if hi is None else max(hi, r)
    return float(lo), float(hi)


def brute_max_cycle_mean(adj, w):
    best = -math.inf
    for cyc in brute_simple_cycles(adj):
        total = sum(w[cyc[i], cyc[(i + 1) % len(cyc)]] for i in range(len(cyc)))
        best = max(best, total / len(cyc))
    return best


def power_perron(M, rtol=1e-13, max_iter=500_000):
    """Power iteration with intersected Collatz-Wielandt brackets.

    Returns (lo, hi, certified): the bracket once its width is at most
    rtol*hi, or the bracket reached after max_iter iterates.  Every positive
    iterate gives a valid bracket, so an uncertified one still contains the
    Perron root.
    """
    x = np.ones(M.shape[0])
    lo_best, hi_best = 0.0, math.inf
    for _ in range(max_iter):
        y = M @ x
        # an iterate with a zero entry gives an inf ratio there, which cannot
        # tighten hi; the min-ratio lower bound still holds for x >= 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = y / x
        lo_best = max(lo_best, float(ratios.min()))
        hi_best = min(hi_best, float(ratios.max()))
        if hi_best - lo_best <= rtol * hi_best:
            return lo_best, hi_best, True
        x = y / y.max()
    return lo_best, hi_best, False


def edge_graph(phi):
    """Depth-2 edge view of a potential: (adjacency, weight matrix) on symbols."""
    assert phi.depth <= 2
    spec = phi.spec
    n = spec.n
    w = np.zeros((n, n))
    for a in range(n):
        for b in spec.successors(a):
            w[a, b] = phi.value((a, b))
    return spec.incidence, w


def reference_markov_path(start_cum, q_cum, u):
    """Sample a state path: u[0] picks the start, u[1:] drive the transitions.

    A uniform x picks the first state t with x < cum[t] (half-open intervals,
    as ``rng.random`` draws from [0, 1)); above every cut it picks the last
    state t with cum[t] > cum[t-1].
    """
    def pick(cum, x):
        for t in range(cum.shape[0]):
            if x < cum[t]:
                return t
        return max(t for t in range(cum.shape[0]) if cum[t] > (cum[t - 1] if t else 0.0))

    out = np.empty(u.shape[0], dtype=np.int64)
    s = out[0] = pick(start_cum, u[0])
    for k in range(1, u.shape[0]):
        s = out[k] = pick(q_cum[s], u[k])
    return out


def serve(u):
    """A ``draw(k)`` for ``markov_path`` that hands out the uniforms of u in order."""
    served = 0

    def draw(k):
        nonlocal served
        served += k
        return u[served - k:served]
    return draw


def reference_cdf_tables(model):
    """(root_next, root_mass, succ, step_prob, order) of ``model`` as NumPy tables.

    States are the admissible words of length 1..width; succ holds -1 where a
    symbol cannot follow, and the root level has its own next/mass rows.
    """
    chain = model.chain
    width = chain.coder.width
    spec = model.spec
    words = []
    for n in range(1, width + 1):
        words.extend(spec.words(n))
    sid = {w: i for i, w in enumerate(words)}
    nstate, nsym = len(words), spec.n

    def marginal(w):
        if len(w) == width:
            return float(chain.pi[chain.coder.encode(w)[0]])
        return float(sum(chain.pi[i] for i, blk in enumerate(chain.coder.blocks)
                         if blk[:len(w)] == w))

    succ = np.full((nstate, nsym), -1, dtype=np.int64)
    prob = np.zeros((nstate, nsym))
    for w, i in sid.items():
        mw = marginal(w)
        for b in spec.successors(w[-1]):
            nw = w + (b,)
            if len(nw) <= width:
                succ[i, b] = sid[nw]
                prob[i, b] = marginal(nw) / mw
            else:
                tail = nw[1:]
                succ[i, b] = sid[tail]
                prob[i, b] = float(chain.Q[chain.coder.encode(w)[0],
                                           chain.coder.encode(tail)[0]])
    root_next = np.array([sid[(b,)] for b in range(nsym)], dtype=np.int64)
    root_mass = np.array([marginal((b,)) for b in range(nsym)])
    order = np.array(model.ifs.symbol_order, dtype=np.int64)
    return root_next, root_mass, succ, prob, order


def reference_cdf_descend(x, eps, max_depth, root_next, root_mass, succ, step_prob,
                          order, rates, offsets, u, v):
    """Cylinder descent over the NumPy tables of ``reference_cdf_tables``.

    The same float operations in the same order as ``CdfModel.cdf``'s kernel,
    with a separate branch for the root level.
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
                break
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


# --- strip-subshift oracle --------------------------------------------------

def _strip(edges, n, bound, b, tilt):
    """The strip matrix on (symbol, level) states, |level| <= ``bound``: edge
    a -> c moves the level by its rise and weighs exp(-b * psi - tilt * rise).
    With ``bound`` None every level is lumped into one, a symbol matrix."""
    size = 1 if bound is None else 2 * bound + 1
    m = np.zeros((n * size, n * size))
    for a, c, rise, cost in edges:
        w = math.exp(-b * cost - tilt * rise)
        for lvl in range(size):
            to = lvl if bound is None else lvl + rise
            if 0 <= to < size:
                m[a * size + lvl, c * size + to] = w
    return m


def _radius(m):
    return float(np.abs(np.linalg.eigvals(m)).max())


def _strip_radius(edges, n, bound, b):
    """Spectral radius of the strip matrix at b, by NumPy ``eigvals``.

    The tilt is a diagonal similarity, so it leaves the radius as it is; the
    untilted strip is far from normal (its Perron vector grows geometrically
    across the levels), and ``eigvals`` overshot its radius by ~1 % at
    bound 80.  The tilt used makes the lumped symbol matrix's radius least,
    found by ternary search (its log is convex in the tilt), so the strip's
    Perron vector is nearly flat across the levels."""
    lo, hi = -20.0, 20.0
    for _ in range(60):
        t1, t2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if _radius(_strip(edges, n, None, b, t1)) < _radius(_strip(edges, n, None, b, t2)):
            hi = t2
        else:
            lo = t1
    return _radius(_strip(edges, n, bound, b, (lo + hi) / 2))


def strip_dimension(phi, psi, step, bound, tol=1e-10):
    """u-dimension of the points whose Birkhoff sums of phi all lie within
    ±``bound`` * ``step``, for depth-1 phi and psi > 0 whose phi values are
    integer multiples of ``step``.

    Those points form a subshift of finite type on (symbol, level) pairs, so
    by Bowen's formula the dimension is the root b of rho(strip weighted by
    exp(-b * psi)) = 1: log rho / c for psi = c, else bisection in b, the
    root lying in [0, log n / min psi].  It calls no ``thermo`` solver."""
    assert phi.depth == psi.depth == 1
    spec, edges = phi.spec, []
    for a in range(spec.n):
        for c in spec.successors(a):
            rise = round(phi.table[(c,)] / step)
            assert rise * step == phi.table[(c,)], "phi is not on the step's lattice"
            edges.append((a, c, rise, psi.table[(c,)]))
    costs = {cost for *_, cost in edges}
    if len(costs) == 1:
        return math.log(_strip_radius(edges, spec.n, bound, 0.0)) / costs.pop()
    lo, hi = 0.0, math.log(spec.n) / min(costs)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _strip_radius(edges, spec.n, bound, mid) > 1.0 else (lo, mid)
    return 0.5 * (lo + hi)
