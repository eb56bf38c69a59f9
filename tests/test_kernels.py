import sys
import tracemalloc

import numpy as np
import pytest

import helpers
from gibbsdim import AffineIfs, CdfModel, LocallyConstantPotential, SftSpec, gibbs_chain
from gibbsdim import _kernels, ifs


def _model():
    spec, phi, _ = helpers.bin14()
    ifs = AffineIfs(spec=spec, interval=(0.0, 1.0),
                    rates=np.array([0.5, 0.5]), offsets=np.array([0.0, 0.5]))
    return CdfModel(ifs, phi)


def test_cdf_descend_runs_on_the_model_table():
    model = _model()
    u, v = model.ifs.interval
    auto = model.potential.automaton
    assert len(model._rows) == len(auto.words)
    for row, succ in zip(model._rows, auto.succ.tolist()):
        # one flat (hi, lo, prob, next_state, rate, offset) per symbol that can follow
        assert all(len(child) == 6 for child in row)
        assert sorted(child[3] for child in row) == sorted(t for t in succ if t >= 0)
    val = _kernels.cdf_descend(0.5, 1e-12, 100_000, model._rows, u, v)
    assert val == pytest.approx(0.25, abs=1e-12)


def test_every_cdf_value_inside_the_interval_is_one_kernel_call(monkeypatch):
    """cdf, curve and holder_probe reach the kernel through the module-level
    name ``gibbsdim.ifs.cdf_descend``, once per point in [u, v), which is the
    name the benchmark's tracer wraps."""
    model = _model()
    calls = []
    real = ifs.cdf_descend

    def counting(x, *args):
        calls.append(x)
        return real(x, *args)

    monkeypatch.setattr(ifs, "cdf_descend", counting)
    for x in (-0.5, 0.0, 0.3, 1.0, 2.0):
        model.cdf(x)
    assert calls == [0.0, 0.3]
    calls.clear()
    model.curve(5)
    assert calls == [0.0, 0.25, 0.5, 0.75]
    calls.clear()
    # x = 0.75 and x -/+ 2^-j for j = 1 .. 3: 1.25 lies outside, 1.0 is v itself
    model.holder_probe(0.75, 1.0, 3)
    assert calls == [0.75, 0.25, 0.5, 0.625, 0.875]


# --- cdf against the NumPy-table descent ------------------------------------

def _four_map_model():
    """Four maps with unequal rates and weights in a seeded order, as in perfbench's cdf-probe."""
    rng = np.random.default_rng(1)
    rates = np.array([0.30, 0.25, 0.20, 0.15])[rng.permutation(4)]
    probs = np.array([0.10, 0.20, 0.30, 0.40])[rng.permutation(4)]
    gap = (1.0 - rates.sum()) / 3
    offsets = np.concatenate([[0.0], np.cumsum(rates[:-1] + gap)])
    spec = SftSpec(alphabet=tuple("abcd"), incidence=np.ones((4, 4), dtype=int))
    phi = LocallyConstantPotential.from_values(spec, np.log(probs))
    return CdfModel(AffineIfs(spec=spec, interval=(0.0, 1.0), rates=rates,
                              offsets=offsets), phi)


def _random_model(seed, depth):
    """A seeded mixing spec with gaps between the images, placed in a random order."""
    rng = np.random.default_rng(seed)
    spec = helpers.random_mixing_spec(rng)
    phi = helpers.random_potential(rng, spec, depth)
    n = spec.n
    rates = rng.uniform(0.2, 0.9, n) / n
    gap = (1.0 - rates.sum()) / n
    offsets = np.empty(n)
    pos = 0.0
    for a in rng.permutation(n):
        offsets[a] = pos
        pos += rates[a] + gap
    return CdfModel(AffineIfs(spec=spec, interval=(0.0, 1.0), rates=rates,
                              offsets=offsets), phi)


def _overlap_model():
    """Two halves whose images overlap by 4e-13, less than AffineIfs's tolerance.

    Symbol b codes the left half, so a point of the overlap lies in both
    siblings and the descent enters the earlier one in interval order, b.
    """
    spec = SftSpec(alphabet=tuple("ab"), incidence=np.ones((2, 2), dtype=int))
    phi = LocallyConstantPotential.from_values(spec, np.log([0.25, 0.75]))
    return CdfModel(AffineIfs(spec=spec, interval=(0.0, 1.0), rates=np.array([0.5, 0.5]),
                              offsets=np.array([0.5 - 4e-13, 0.0])), phi)


CDF_MODELS = {
    "bin14": (_model, 1),
    "four-map": (_four_map_model, 1),
    "overlap": (_overlap_model, 1),
    **{f"width1-seed{s}": (lambda s=s: _random_model(s, 2), 1) for s in (1, 2, 3)},
    **{f"width2-seed{s}": (lambda s=s: _random_model(s, 3), 2) for s in (4, 5, 6)},
}


def _probe_points(model):
    """Seeded uniforms, k/255, dyadic rationals, u, v and cylinder endpoints."""
    u, v = model.ifs.interval
    pts = [u, v]
    pts += np.random.default_rng(0).random(200).tolist()
    pts += [k / 255 for k in range(256)]
    pts += [k / 64 for k in range(65)]
    for n in (1, 2, 3):
        for w in model.spec.words(n):
            pts += model.ifs.cylinder_interval(w)
    return pts


@pytest.mark.parametrize("eps", [1e-12, 1e-6])
@pytest.mark.parametrize("name", sorted(CDF_MODELS))
def test_cdf_matches_array_descent_bit_for_bit(name, eps):
    build, width = CDF_MODELS[name]
    model = build()
    assert model.chain.coder.width == width
    tables = helpers.reference_cdf_tables(model)
    u, v = model.ifs.interval
    rates, offsets = model.ifs.rates, model.ifs.offsets
    for x in _probe_points(model):
        if x < u:
            want = 0.0
        elif x >= v:
            want = 1.0
        else:
            want = float(helpers.reference_cdf_descend(
                x, eps, model.MAX_DEPTH, *tables, rates, offsets, u, v))
        assert model.cdf(x, eps) == want, x


@pytest.mark.parametrize("max_depth", [1, 2, 5])
@pytest.mark.parametrize("eps", [1e-12, 1e-6])
@pytest.mark.parametrize("name", sorted(CDF_MODELS))
def test_cdf_descend_at_the_depth_cap_matches_array_descent_bit_for_bit(name, eps, max_depth):
    """A cap of a few levels ends every descent that no gap or eps ends first,
    so the kernel interpolates from the level it stopped at."""
    model = CDF_MODELS[name][0]()
    tables = helpers.reference_cdf_tables(model)
    u, v = model.ifs.interval
    rates, offsets = model.ifs.rates, model.ifs.offsets
    for x in _probe_points(model):
        if u <= x < v:
            want = float(helpers.reference_cdf_descend(
                x, eps, max_depth, *tables, rates, offsets, u, v))
            assert _kernels.cdf_descend(x, eps, max_depth, model._rows, u, v) == want, x


def test_cdf_is_monotone_across_an_overlap():
    # entering the earlier sibling keeps its passed mass; entering the later
    # one dropped it, and the cdf fell from 0.75 to 2e-6 inside the overlap
    model = _overlap_model()
    ys = [model.cdf(x) for x in np.linspace(0.5 - 1e-12, 0.5 + 1e-12, 201).tolist()]
    assert ys == sorted(ys)
    assert model.cdf(0.4999999999998) == pytest.approx(0.75, abs=1e-9)


# --- markov_path against the step-by-step loop ------------------------------

def _bin14_chain():
    return gibbs_chain(helpers.bin14()[1])


def _gold_depth3_chain():
    """Width-2 blocks, so the start contributes two symbols."""
    phi = helpers.random_potential(np.random.default_rng(5), helpers.gold(), 3)
    return gibbs_chain(phi)


def _sparse_chain():
    """A five-symbol chain whose rows hold zero-probability transitions."""
    rng = np.random.default_rng(7)
    spec = helpers.random_mixing_spec(rng, 5)
    return gibbs_chain(helpers.random_potential(rng, spec, 2))


def _gold_chain():
    """1 -> 1 is forbidden, so uniforms below Q[0, 0] send both states to 0."""
    return gibbs_chain(helpers.random_potential(np.random.default_rng(2), helpers.gold(), 1))


def _no_fixed_chain():
    """No symbol repeats: q_cum rows [0, .5, 1], [.5, .5, 1], [.5, 1, 1]."""
    spec = SftSpec(alphabet=tuple("abc"), incidence=1 - np.eye(3, dtype=int))
    return gibbs_chain(LocallyConstantPotential.from_values(spec, [0.0, 0.0, 0.0]))


def _cyclic_chain(v):
    """Each symbol prefers its successor mod 3; the other two steps weigh exp(v) each."""
    spec = SftSpec(alphabet=tuple("abc"), incidence=np.ones((3, 3), dtype=int))
    entries = [((a, b), 0.0 if b == (a + 1) % 3 else v) for a in range(3) for b in range(3)]
    return gibbs_chain(LocallyConstantPotential.from_table(spec, 2, entries))


CHAINS = {"bin14": _bin14_chain, "gold": _gold_chain, "gold-depth3": _gold_depth3_chain,
          "sparse": _sparse_chain, "no-fixed": _no_fixed_chain,
          "half-fixed": lambda: _cyclic_chain(-np.log(2.0)),
          "low-fixed": lambda: _cyclic_chain(-4.0)}


@pytest.fixture(params=sorted(CHAINS), scope="module")
def chain(request):
    return CHAINS[request.param]()


def _cums(chain):
    return np.cumsum(chain.pi), np.cumsum(chain.Q, axis=1)


def _path(chain, u):
    """markov_path over the uniforms u, checking that it draws each exactly once."""
    draw = helpers.serve(u)
    word = _kernels.markov_path(*_cums(chain), draw, len(u), chain.coder.blocks)
    assert draw(1).size == 0
    return word


def _reference_word(chain, u):
    path = helpers.reference_markov_path(*_cums(chain), u)
    return chain.coder.decode(tuple(int(s) for s in path))


def _ties(chain):
    """0.0, every cumulative probability, and the floats either side of each."""
    start_cum, q_cum = _cums(chain)
    exact = np.concatenate([[0.0], start_cum, q_cum.ravel()])
    return np.concatenate([exact, np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf)])


def test_chains_cover_wide_blocks_and_zero_transitions():
    assert _gold_depth3_chain().coder.width == 2
    assert (_sparse_chain().Q == 0.0).any()


def _fixed_share(chain):
    """Share of the uniforms in [0, 1) whose step does not depend on the state."""
    q_cum = _cums(chain)[1]
    cuts, table, fixed = _kernels.step_table(q_cum)
    assert table.shape == (q_cum.shape[0], cuts.size + 1)
    widths = np.diff(np.concatenate([[0.0], cuts, [1.0]])).clip(0.0)
    return float(widths[fixed >= 0].sum())


def test_chains_cover_all_some_and_no_state_independent_steps():
    # every row agrees in every column
    assert _fixed_share(_bin14_chain()) == 1.0
    # rounds resolve most chunks of gold; half-fixed sits where the kernel
    # switches between rounds and the loop; low-fixed leaves nearly every
    # step to the loop
    assert 0.6 < _fixed_share(_gold_chain()) < 0.9
    assert _fixed_share(CHAINS["half-fixed"]()) == pytest.approx(0.5)
    assert 0.03 < _fixed_share(CHAINS["low-fixed"]()) < 0.04
    # x below every cut sends each state to 0, but every such cut is 0.0 here
    for build in (_gold_depth3_chain, _sparse_chain, _no_fixed_chain):
        assert _fixed_share(build()) == 0.0
    q_cum = _cums(_no_fixed_chain())[1]
    assert q_cum.tolist() == [[0.0, 0.5, 1.0], [0.5, 0.5, 1.0], [0.5, 1.0, 1.0]]


def test_markov_path_matches_loop_at_ties(chain):
    ties = _ties(chain)
    rng = np.random.default_rng(0)
    steps = rng.permutation(np.tile(ties, 4))
    for first in ties:
        u = np.concatenate([[first], steps])
        assert _path(chain, u) == _reference_word(chain, u)


def test_markov_path_stays_admissible_at_ties(chain):
    # uniforms in [0, 1), the range of rng.random, never take a step of
    # probability 0, also where they hit a cut exactly
    ties = _ties(chain)
    ties = ties[(ties >= 0.0) & (ties < 1.0)]
    steps = np.random.default_rng(1).permutation(np.tile(ties, 4))
    for first in ties:
        u = np.concatenate([[first], steps])
        assert chain.spec.is_admissible(_path(chain, u))


def test_markov_path_skips_zero_probability_transitions():
    # u = 0.0 once took this chain's zero-probability step 1 -> 0
    chain = _sparse_chain()
    start_cum, q_cum = _cums(chain)
    assert chain.Q[1, 0] == 0.0
    u = np.array([start_cum[1], 0.0])
    assert chain.spec.is_admissible(_path(chain, u))


@pytest.mark.parametrize("u,word", [((0.95, 0.3), (1, 1)), ((0.2, 0.8), (0, 1))])
def test_markov_path_above_every_cut_takes_last_positive_state(u, word):
    # rows left short of 1 by rounding; state 2 has probability 0 in both
    # the start row and row 0
    start_cum = np.array([0.5, 0.9, 0.9])
    q_cum = np.array([[0.5, 0.75, 0.75], [0.0, 1.0, 1.0], [0.25, 0.5, 1.0]])
    u = np.array(u)
    assert _kernels.markov_path(start_cum, q_cum, helpers.serve(u), 2, ((0,), (1,), (2,))) == word
    assert tuple(helpers.reference_markov_path(start_cum, q_cum, u).tolist()) == word


@pytest.mark.parametrize("length", [
    1, 2, _kernels.CHUNK - 1, _kernels.CHUNK, _kernels.CHUNK + 1, 3 * _kernels.CHUNK])
def test_markov_path_matches_loop_across_chunks(chain, length):
    rng = np.random.default_rng(length)
    u = rng.random(length)
    ties = _ties(chain)
    at = rng.integers(0, length, size=min(length, ties.size))
    u[at] = ties[:at.size]
    word = _path(chain, u)
    assert len(word) == length + chain.coder.width - 1
    assert word == _reference_word(chain, u)


@pytest.mark.parametrize("offset", [-40, -1, 0, 1])
def test_markov_path_state_dependent_run_across_a_chunk_boundary(offset):
    # gold's uniforms at or above Q[0, 0] take state-dependent steps; a run
    # of 60 of them straddles the first chunk boundary (u[CHUNK + 1] opens
    # the second chunk), once in every position of the vector rounds
    chain = _gold_chain()
    start_cum, q_cum = _cums(chain)
    u = np.random.default_rng(3).random(2 * _kernels.CHUNK + 1)
    lo = _kernels.CHUNK + 1 + offset - 30
    u[lo:lo + 60] = np.linspace(q_cum[0, 0], 0.999, 60)
    assert _path(chain, u) == _reference_word(chain, u)


@pytest.mark.parametrize("n", [1, 2, 3, 1000, _kernels.CHUNK + 1, 3 * _kernels.CHUNK + 2])
def test_sample_orbit_matches_loop(chain, n):
    u = np.random.default_rng(11).random(max(1, n - chain.coder.width + 1))
    assert chain.sample_orbit(n, 11) == _reference_word(chain, u)[:n]


def test_markov_path_decodes_symbols_past_255():
    # 300 states with one shared row: every step is state-independent, and
    # the symbols no longer fit in a byte
    row = np.cumsum(np.random.default_rng(4).dirichlet(np.ones(300)))
    start_cum, q_cum = row, np.tile(row, (300, 1))
    u = np.random.default_rng(5).random(1000)
    want = helpers.reference_markov_path(start_cum, q_cum, u)
    assert max(want) > 255
    word = _kernels.markov_path(start_cum, q_cum, helpers.serve(u), len(u),
                                tuple((s,) for s in range(300)))
    assert word == tuple(want.tolist())


# --- the guide table that ranks the uniforms --------------------------------

def _bucket_edges():
    """Every bucket edge k / GUIDE, the floats either side of it, and uniforms below 0 and at or above 1."""
    exact = np.arange(_kernels.GUIDE + 1) / _kernels.GUIDE
    outside = [-np.inf, -1.0, -1e-300, -0.0, 1.0, 1.0 + 2**-52, 1.5, 1e300, np.inf]
    return np.concatenate([exact, np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf),
                           outside])


def test_rank_matches_searchsorted_at_bucket_edges(chain):
    cuts = _kernels.step_table(_cums(chain)[1])[0]
    u = np.concatenate([_bucket_edges(), _ties(chain), np.random.default_rng(6).random(5000)])
    guide = _kernels.rank_guide(cuts)
    assert (_kernels.rank(cuts, guide, u) == np.searchsorted(cuts, u, side="right")).all()


def test_markov_path_matches_loop_at_bucket_edges(chain):
    edges = _bucket_edges()
    steps = np.random.default_rng(7).permutation(np.tile(edges, 2))
    for first in (-1.0, 0.0, 0.5, np.nextafter(1.0, 0.0), 1.0):
        u = np.concatenate([[first], steps])
        assert _path(chain, u) == _reference_word(chain, u)


def test_markov_path_ranks_cuts_that_share_a_bucket():
    # three cuts strictly inside bucket 409 = [409, 410) / 4096, a row with
    # a zero-probability state, a row that rounding left above 1, and
    # uniforms at, between and either side of the cuts
    start_cum = np.array([0.3, 0.6, 1.0])
    q_cum = np.array([[0.1, 0.10002, 1.0], [0.10001, 0.6, 1.0 + 2**-52],
                      [0.10002, 0.10002, 1.0]])
    cuts = _kernels.step_table(q_cum)[0]
    inside = cuts[(cuts > 409 / 4096) & (cuts < 410 / 4096)]
    assert _kernels.GUIDE == 4096 and inside.size == 3
    guide = _kernels.rank_guide(cuts)
    assert guide[409] == -1
    near = np.concatenate([inside, np.nextafter(inside, -np.inf), np.nextafter(inside, np.inf),
                           np.linspace(409 / 4096, 410 / 4096, 101)])
    probes = np.concatenate([near, _bucket_edges()])
    assert (_kernels.rank(cuts, guide, probes) == np.searchsorted(cuts, probes, side="right")).all()
    rng = np.random.default_rng(8)
    u = np.concatenate([[0.5], rng.permutation(np.concatenate([np.tile(near, 19), probes])),
                        rng.random(1000)])
    blocks = ((0,), (1,), (2,))
    word = _kernels.markov_path(start_cum, q_cum, helpers.serve(u), len(u), blocks)
    assert word == tuple(helpers.reference_markov_path(start_cum, q_cum, u).tolist())
    assert set(word) == {0, 1, 2}


def test_sample_orbit_peak_memory_stays_near_its_word():
    # the symbols fill one byte array, converted once; a growing list and
    # its tuple copy peaked at about twice the word
    chain = _bin14_chain()
    chain.sample_orbit(10, 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        word = chain.sample_orbit(200_000, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(word) == 200_000
    assert peak <= 1.3 * sys.getsizeof(word)
