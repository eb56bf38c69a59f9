import numpy as np
import pytest

import helpers
from gibbsdim import AffineIfs, CdfModel, LocallyConstantPotential, SftSpec, gibbs_chain
from gibbsdim import _kernels


def _model():
    spec, phi, _ = helpers.bin14()
    ifs = AffineIfs(spec=spec, interval=(0.0, 1.0),
                    rates=np.array([0.5, 0.5]), offsets=np.array([0.0, 0.5]))
    return CdfModel(ifs, phi)


def test_cdf_descend_runs_on_the_model_table():
    model = _model()
    u, v = model.ifs.interval
    val = _kernels.cdf_descend(0.5, 1e-12, 100_000, model._children, u, v)
    assert val == pytest.approx(0.25, abs=1e-12)


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


CDF_MODELS = {
    "bin14": (_model, 1),
    "four-map": (_four_map_model, 1),
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


CHAINS = {"bin14": _bin14_chain, "gold-depth3": _gold_depth3_chain,
          "sparse": _sparse_chain}


@pytest.fixture(params=sorted(CHAINS), scope="module")
def chain(request):
    return CHAINS[request.param]()


def _cums(chain):
    return np.cumsum(chain.pi), np.cumsum(chain.Q, axis=1)


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


def test_markov_path_matches_loop_at_ties(chain):
    ties = _ties(chain)
    rng = np.random.default_rng(0)
    steps = rng.permutation(np.tile(ties, 4))
    for first in ties:
        u = np.concatenate([[first], steps])
        assert _kernels.markov_path(*_cums(chain), u, chain.coder.blocks) == \
            _reference_word(chain, u)


def test_markov_path_stays_admissible_at_ties(chain):
    # uniforms in [0, 1), the range of rng.random, never take a step of
    # probability 0, also where they hit a cut exactly
    ties = _ties(chain)
    ties = ties[(ties >= 0.0) & (ties < 1.0)]
    steps = np.random.default_rng(1).permutation(np.tile(ties, 4))
    for first in ties:
        u = np.concatenate([[first], steps])
        assert chain.spec.is_admissible(_kernels.markov_path(*_cums(chain), u, chain.coder.blocks))


def test_markov_path_skips_zero_probability_transitions():
    # u = 0.0 once took this chain's zero-probability step 1 -> 0
    chain = _sparse_chain()
    start_cum, q_cum = _cums(chain)
    assert chain.Q[1, 0] == 0.0
    u = np.array([start_cum[1], 0.0])
    assert chain.spec.is_admissible(_kernels.markov_path(start_cum, q_cum, u, chain.coder.blocks))


@pytest.mark.parametrize("u,word", [((0.95, 0.3), (1, 1)), ((0.2, 0.8), (0, 1))])
def test_markov_path_above_every_cut_takes_last_positive_state(u, word):
    # rows left short of 1 by rounding; state 2 has probability 0 in both
    # the start row and row 0
    start_cum = np.array([0.5, 0.9, 0.9])
    q_cum = np.array([[0.5, 0.75, 0.75], [0.0, 1.0, 1.0], [0.25, 0.5, 1.0]])
    u = np.array(u)
    assert _kernels.markov_path(start_cum, q_cum, u, ((0,), (1,), (2,))) == word
    assert tuple(helpers.reference_markov_path(start_cum, q_cum, u).tolist()) == word


@pytest.mark.parametrize("length", [
    1, 2, _kernels.CHUNK - 1, _kernels.CHUNK, _kernels.CHUNK + 1, 3 * _kernels.CHUNK])
def test_markov_path_matches_loop_across_chunks(chain, length):
    rng = np.random.default_rng(length)
    u = rng.random(length)
    ties = _ties(chain)
    at = rng.integers(0, length, size=min(length, ties.size))
    u[at] = ties[:at.size]
    word = _kernels.markov_path(*_cums(chain), u, chain.coder.blocks)
    assert len(word) == length + chain.coder.width - 1
    assert word == _reference_word(chain, u)


@pytest.mark.parametrize("n", [1, 2, 3, 1000])
def test_sample_orbit_matches_loop(chain, n):
    u = np.random.default_rng(11).random(max(1, n - chain.coder.width + 1))
    assert chain.sample_orbit(n, 11) == _reference_word(chain, u)[:n]
