import numpy as np
import pytest

import helpers
from gibbsdim import AffineIfs, CdfModel, gibbs_chain
from gibbsdim import _kernels


def _model():
    spec, phi, _ = helpers.bin14()
    ifs = AffineIfs(spec=spec, interval=(0.0, 1.0),
                    rates=np.array([0.5, 0.5]), offsets=np.array([0.0, 0.5]))
    return CdfModel(ifs, phi)


def test_fallback_runs_standalone():
    model = _model()
    u, v = model.ifs.interval
    val = _kernels.cdf_descend(
        0.5, 1e-12, 100_000, model._root_next, model._root_mass,
        model._succ, model._prob, model._order,
        model.ifs.rates, model.ifs.offsets, u, v)
    assert val == pytest.approx(0.25, abs=1e-12)


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
