"""Differential tests of the max-plus graph searches against the brute-force oracles."""

import numpy as np
import pytest

import helpers
from gibbsdim import cycles

SEEDS = range(24)


def random_graph(seed):
    """Adjacency of a seeded mixing spec (2-7 symbols) with normal edge weights."""
    rng = np.random.default_rng(seed)
    adj = np.asarray(helpers.random_mixing_spec(rng, int(rng.integers(2, 8))).incidence, dtype=bool)
    w = np.where(adj, rng.normal(size=adj.shape), 0.0)
    return rng, adj, w


def relax_loop(adj, w, f):
    n = adj.shape[0]
    g = np.full(n, -np.inf)
    parent = np.full(n, -1)
    for v in range(n):
        for u in range(n):
            if adj[u, v] and f[u] > -np.inf and f[u] + w[u, v] > g[v]:
                g[v], parent[v] = f[u] + w[u, v], u
    return g, parent


def assert_is_cycle(adj, cyc):
    assert len(set(cyc)) == len(cyc)
    assert all(adj[u, cyc[(i + 1) % len(cyc)]] for i, u in enumerate(cyc))


@pytest.mark.parametrize("seed", SEEDS)
def test_relax_matches_scalar_loop(seed):
    rng, adj, w = random_graph(seed)
    n = adj.shape[0]
    adj = adj.copy()
    adj[:, 0] = False  # vertex 0 has no entering edge
    w = np.round(w)  # integer values make ties between predecessors common
    f = np.round(rng.normal(size=n))
    f[rng.random(n) < 0.3] = -np.inf
    g, parent = cycles.relax(adj, w, f)
    g_ref, parent_ref = relax_loop(adj, w, f)
    assert np.array_equal(g, g_ref)
    assert np.array_equal(parent, parent_ref)
    assert g[0] == -np.inf and parent[0] == -1


@pytest.mark.parametrize("seed", SEEDS)
def test_karp_max_cycle_mean_matches_brute(seed):
    _, adj, w = random_graph(seed)
    mean, cyc = cycles.karp_max_cycle_mean(adj, w)
    assert mean == pytest.approx(helpers.brute_max_cycle_mean(adj, w), abs=1e-12)
    assert_is_cycle(adj, cyc)
    assert cycles.cycle_sum(w, cyc) / len(cyc) == mean  # the mean of the cycle returned


@pytest.mark.parametrize("seed", SEEDS)
def test_max_cycle_ratio_matches_brute(seed):
    rng, adj, num = random_graph(seed)
    den = np.where(adj, rng.uniform(0.5, 2.0, size=adj.shape), 0.0)
    lo, hi = helpers.brute_cycle_ratio_range(adj, num, den)
    r_hi, cyc_hi = cycles.max_cycle_ratio(adj, num, den)
    r_lo, cyc_lo = cycles.max_cycle_ratio(adj, -num, den)
    assert r_hi == pytest.approx(hi, abs=1e-9)
    assert -r_lo == pytest.approx(lo, abs=1e-9)
    for r, cyc, sign in ((r_hi, cyc_hi, 1.0), (r_lo, cyc_lo, -1.0)):
        assert_is_cycle(adj, cyc)  # the returned ratio is attained by the cycle
        assert sign * cycles.cycle_sum(num, cyc) / cycles.cycle_sum(den, cyc) == r


@pytest.mark.parametrize("seed", SEEDS)
def test_find_positive_cycle_matches_brute(seed):
    _, adj, w = random_graph(seed)
    n = adj.shape[0]
    tol = 1e-9
    # a random shift gives both answers; shifting by the max cycle mean puts
    # the heaviest cycle at weight ~0, the search's own stopping case
    for shift in (0.3, helpers.brute_max_cycle_mean(adj, w)):
        ws = np.where(adj, w - shift, 0.0)
        heaviest = max(cycles.cycle_sum(ws, c) for c in helpers.brute_simple_cycles(adj))
        cyc = cycles.find_positive_cycle(adj, ws, tol)
        if heaviest <= tol:
            assert cyc is None
        else:
            # a cycle heavier than n*tol cannot settle; one in (tol, n*tol]
            # may, since every single improvement must exceed tol
            assert cyc is not None or heaviest <= n * tol
        if cyc is not None:
            assert_is_cycle(adj, cyc)
            assert cycles.cycle_sum(ws, cyc) > tol


@pytest.mark.parametrize("seed", SEEDS)
def test_orbit_cycle_is_the_cycle_the_orbit_enters(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    nxt = rng.integers(0, n, size=n)
    for v in range(n):
        orbit = [v]
        while nxt[orbit[-1]] not in orbit:
            orbit.append(int(nxt[orbit[-1]]))
        cyc = orbit[orbit.index(nxt[orbit[-1]]):]   # the first repeat closes the cycle
        start = v
        for _ in range(n):
            start = int(nxt[start])
        k = cyc.index(start)   # n steps reach the cycle; it is read from there
        assert cycles.orbit_cycle(nxt, v) == cyc[k:] + cyc[:k]
