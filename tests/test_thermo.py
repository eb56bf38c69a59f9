import hashlib
import itertools
import math
import re
import warnings

import numpy as np
import pytest

import helpers
from gibbsdim import (EmptyLevelSetError, LocallyConstantPotential, ValidationError,
                      add_constant, alpha_range, beta, beta_prime, birkhoff_sup,
                      combine, full_dim_alpha, gibbs_chain, pressure, spectrum_at,
                      subaction)
from gibbsdim.thermo import _chain_mean

GOLDEN = (1 + math.sqrt(5)) / 2


def _zero(spec):
    return LocallyConstantPotential.constant(spec, 0.0)


# --------------------------------------------------------------------------
# pressure
# --------------------------------------------------------------------------

def test_pressure_oracles(full2, gold, bin14):
    assert pressure(_zero(full2)) == pytest.approx(math.log(2.0), abs=1e-12)
    assert pressure(_zero(gold)) == pytest.approx(math.log(GOLDEN), abs=1e-10)
    _, phi, _ = bin14
    assert pressure(phi) == pytest.approx(0.0, abs=1e-10)


def test_pressure_shift_and_monotonicity(gold):
    rng = np.random.default_rng(1)
    phi = helpers.random_potential(rng, gold, 2)
    p = pressure(phi)
    for c in (-2.0, -0.5, 0.25, 3.0):
        assert pressure(add_constant(phi, c)) == pytest.approx(p + c, abs=1e-10)
    bigger = combine(1.0, phi, 1.0, LocallyConstantPotential.from_table(
        gold, 2, {w: 0.3 for w in gold.words(2)}))
    assert pressure(bigger) > p


def test_pressure_requires_mixing():
    from gibbsdim import SftSpec, UnsupportedSpecError
    period2 = SftSpec(alphabet=("a", "b"), incidence=[[0, 1], [1, 0]])
    with pytest.raises(UnsupportedSpecError):
        pressure(_zero(period2))


# --------------------------------------------------------------------------
# Gibbs chains
# --------------------------------------------------------------------------

def test_chain_bernoulli(bin14):
    spec, phi, _ = bin14
    chain = gibbs_chain(phi)
    assert chain.Q == pytest.approx(np.array([[0.25, 0.75], [0.25, 0.75]]), abs=1e-12)
    assert chain.pi == pytest.approx(np.array([0.25, 0.75]), abs=1e-12)


def test_chain_parry(gold):
    chain = gibbs_chain(_zero(gold))
    assert chain.pi[0] == pytest.approx((5 + math.sqrt(5)) / 10, abs=1e-9)
    assert chain.cylinder_measure(gold.word("10")) == pytest.approx(
        (1 - (5 + math.sqrt(5)) / 10) * 1.0, abs=1e-9)


def test_chain_uniform(full2):
    chain = gibbs_chain(_zero(full2))
    assert chain.pi == pytest.approx(np.array([0.5, 0.5]), abs=1e-12)
    assert chain.Q == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)


def test_chain_invariants_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        spec = helpers.random_mixing_spec(rng)
        phi = helpers.random_potential(rng, spec, 2)
        chain = gibbs_chain(phi)  # builder re-validates residuals internally
        m = np.where(spec.incidence, np.exp([[phi.value((a, b)) if spec.incidence[a, b] else 0.0
                                              for b in range(spec.n)] for a in range(spec.n)]), 0.0)
        lam = math.exp(chain.pressure)
        assert np.max(np.abs(m @ chain.h - lam * chain.h)) <= 1e-12 * lam * max(1.0, chain.h.max())
        assert np.max(np.abs(chain.nu @ m - lam * chain.nu)) <= 1e-12 * lam * max(1.0, chain.nu.max())
        assert np.max(np.abs(chain.Q.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(chain.pi @ chain.Q - chain.pi)) <= 1e-12
        assert (chain.h > 0).all() and (chain.nu > 0).all() and (chain.pi > 0).all()
        assert abs(float(chain.nu @ chain.h) - 1.0) <= 1e-12


def test_cylinder_measures(bin14, gold):
    spec, phi, _ = bin14
    chain = gibbs_chain(phi)
    assert chain.cylinder_measure(spec.word("01")) == pytest.approx(3 / 16, abs=1e-12)
    for n in (1, 3, 6):
        total = sum(chain.cylinder_measure(w) for w in spec.words(n))
        assert total == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValidationError):
        gibbs_chain(_zero(gold)).cylinder_measure(gold.word("11"))


def test_cylinder_measure_deep_potential(gold):
    rng = np.random.default_rng(9)
    phi = helpers.random_potential(rng, gold, 3)
    chain = gibbs_chain(add_constant(phi, -pressure(phi)))
    for n in (1, 2, 4, 6):
        total = sum(chain.cylinder_measure(w) for w in gold.words(n))
        assert total == pytest.approx(1.0, abs=1e-9)
    # additivity: mass of a word equals the sum over its children
    for w in gold.words(3):
        kids = [w + (b,) for b in gold.successors(w[-1])]
        assert chain.cylinder_measure(w) == pytest.approx(
            sum(chain.cylinder_measure(k) for k in kids), rel=1e-10)


def test_gibbs_constant_bound(bin14, gold):
    # a Bernoulli measure's cylinder masses are exactly exp(S_n phi)
    _, phi, _ = bin14
    assert helpers.brute_gibbs_constant(gibbs_chain(phi), phi, 6) == pytest.approx(1.0, abs=1e-12)
    flat = add_constant(_zero(gold), -math.log(GOLDEN))
    gchain = gibbs_chain(flat)
    b1 = helpers.brute_gibbs_constant(gchain, flat, 1)
    b6 = helpers.brute_gibbs_constant(gchain, flat, 6)
    assert b1 <= b6
    # closed-form oracle: ratio nu(w1) h(wn) exp(-max continuation edge value)
    w_edge = {(a, b): -math.log(GOLDEN) for a in range(2) for b in range(2)}
    best = 1.0
    for w in [w for n in range(1, 7) for w in gold.words(n)]:
        edge_sum = sum(w_edge[(w[i], w[i + 1])] for i in range(len(w) - 1))
        mu = gchain.cylinder_measure(w)
        over = max(w_edge[(w[-1], b)] for b in gold.successors(w[-1]))
        ratio = mu / math.exp(edge_sum + over)
        best = max(best, ratio, 1 / ratio)
    assert b6 == pytest.approx(best, rel=1e-9)


def _mean(chain, g):
    """The mean of g under the chain, read on the edges of the depth it resolves."""
    return _chain_mean(chain.pi, chain.Q, g.edges(chain.coder.width + 1)[1])


def test_integrate(bin14, full2):
    spec, phi, psi = bin14
    chain = gibbs_chain(phi)
    assert _mean(chain, phi) == pytest.approx(0.25 * math.log(0.25) + 0.75 * math.log(0.75), abs=1e-12)
    assert _mean(chain, LocallyConstantPotential.constant(spec, 3.5)) == pytest.approx(3.5, abs=1e-12)
    uniform = gibbs_chain(_zero(full2))
    assert _mean(uniform, phi) == pytest.approx(0.5 * (math.log(0.25) + math.log(0.75)), abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_integrate_matches_brute_cylinder_sum(seed):
    # the chain mean against the brute sum of mass * value over the words of
    # the chain's resolved length, for chain and integrand depths 1-3
    rng = np.random.default_rng(300 + seed)
    spec = helpers.random_mixing_spec(rng)
    for chain_depth in (1, 2, 3):
        chain = gibbs_chain(helpers.random_potential(rng, spec, chain_depth))
        length = chain.coder.width + 1
        for depth in range(1, length + 1):
            g = helpers.random_potential(rng, spec, depth)
            brute = sum(chain.cylinder_measure(w) * g.value(w)
                        for w in helpers.brute_words(spec, length))
            assert _mean(chain, g) == pytest.approx(brute, rel=1e-12)


# --------------------------------------------------------------------------
# beta and its derivative
# --------------------------------------------------------------------------

def _bin14_beta(q):
    return math.log2(4.0 ** q + (4.0 / 3.0) ** q)


def test_beta_closed_form(bin14):
    _, phi, psi = bin14
    for q in np.arange(-5.0, 5.01, 0.5):
        assert beta(float(q), phi, psi) == pytest.approx(_bin14_beta(q), abs=1e-9)


def test_beta_entropy_normalization(full2):
    psi = LocallyConstantPotential.constant(full2, math.log(2.0))
    assert beta(0.0, _zero(full2), psi) == pytest.approx(1.0, abs=1e-10)


def test_beta_convexity(bin14):
    _, phi, psi = bin14
    qs = np.arange(-5.0, 5.5, 1.0)
    vals = [beta(float(q), phi, psi) for q in qs]
    for i in range(1, len(qs) - 1):
        assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-10


def test_a_stalled_beta_root_names_its_last_iterate(bin14, monkeypatch):
    from gibbsdim import thermo
    from gibbsdim.errors import NumericalError
    _, phi, psi = bin14
    # a slope 10^6 times too steep makes every Newton step too short to
    # reach the root in the 200 steps allowed
    chain_mean = thermo._chain_mean
    monkeypatch.setattr(thermo, "_chain_mean", lambda *a: 1e6 * chain_mean(*a))
    bs = []
    transfer = thermo._transfer
    monkeypatch.setattr(thermo, "_transfer", lambda coder, weights, coeffs: bs.append(-coeffs[1])
                        or transfer(coder, weights, coeffs))
    with pytest.raises(NumericalError, match="pressure root iteration stalled") as info:
        beta(2.0, phi, psi)
    assert len(bs) == 201 and bs[1:] == sorted(bs[1:])
    b, p = re.fullmatch(r".* at b = (\S+), P\(b\) = (\S+)", str(info.value)).groups()
    assert float(b) == bs[-1] and float(p) > 0.0
    assert info.value.bracket is None


def test_a_first_newton_step_far_left_is_held_at_the_bracket(monkeypatch):
    from gibbsdim import thermo
    spec = helpers.full2()
    phi = LocallyConstantPotential.from_values(spec, [5.0, -1.0])
    psi = LocallyConstantPotential.from_values(spec, [0.005, 1.0])
    bs = []
    transfer = thermo._transfer
    monkeypatch.setattr(thermo, "_transfer", lambda coder, weights, coeffs: bs.append(-coeffs[1])
                        or transfer(coder, weights, coeffs))
    # P(-phi) > 0, so the root is in [0, ~200]; at the midpoint P is about
    # -5.5 and its slope about -0.005, so the first Newton step lands near
    # b = -1000, where exp(1 + 1000) overflows; it is held at 0 instead
    b = beta(1.0, phi, psi)
    assert b == pytest.approx(1.0067266893936, abs=1e-10)
    # on a full shift with depth-1 potentials the pressure is a log-sum-exp
    assert abs(math.log(math.exp(-5.0 - 0.005 * b) + math.exp(1.0 - b))) <= 1e-10
    assert bs[2] == 0.0 and bs[2:] == sorted(bs[2:]) and len(bs) <= 10


def test_beta_prime(bin14):
    _, phi, psi = bin14
    assert beta_prime(0.0, phi, psi) == pytest.approx(1.2075187496394, abs=1e-9)
    assert beta_prime(40.0, phi, psi) == pytest.approx(2.0, abs=1e-6)
    # Newton oracle on the closed form: solve beta'(q) = 1 exactly
    qstar = math.log(math.log(1.5) / math.log(2.0)) / math.log(3.0)
    assert beta_prime(qstar, phi, psi) == pytest.approx(1.0, abs=1e-6)


def test_beta_prime_matches_finite_difference(bin14):
    _, phi, psi = bin14
    h = 1e-4
    for q in (-2.0, -0.3, 0.0, 1.7):
        fd = (beta(q + h, phi, psi) - beta(q - h, phi, psi)) / (2 * h)
        assert beta_prime(q, phi, psi) == pytest.approx(fd, abs=1e-6)


# --------------------------------------------------------------------------
# attainable ratio range
# --------------------------------------------------------------------------

def test_alpha_range_oracles(bin14, phi_pm, full2):
    _, phi, psi = bin14
    lo, hi = alpha_range(phi, psi)
    assert lo == pytest.approx(math.log(4 / 3) / math.log(2), abs=1e-9)
    assert hi == pytest.approx(2.0, abs=1e-9)
    _, pm, psi2 = phi_pm
    lo2, hi2 = alpha_range(pm, psi2)
    assert lo2 == pytest.approx(-0.5 / math.log(2), abs=1e-9)
    assert hi2 == pytest.approx(0.5 / math.log(2), abs=1e-9)
    z = _zero(full2)
    psi1 = LocallyConstantPotential.constant(full2, 1.0)
    assert alpha_range(z, psi1) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_alpha_range_runs_at_its_stated_tolerance():
    from gibbsdim import cycles
    from gibbsdim.thermo import ALPHA_RANGE_TOL, _edge_space
    rng = np.random.default_rng(7)
    for _ in range(10):
        spec = helpers.random_mixing_spec(rng)
        phi = helpers.random_potential(rng, spec, int(rng.integers(1, 4)))
        psi = LocallyConstantPotential.constant(spec, 1.0)
        coder, (w_phi, den) = _edge_space(phi, psi)
        adj, num = coder.block.incidence, -w_phi
        hi, _ = cycles.max_cycle_ratio(adj, num, den, tol=ALPHA_RANGE_TOL)
        lo_neg, _ = cycles.max_cycle_ratio(adj, -num, den, tol=ALPHA_RANGE_TOL)
        assert alpha_range(phi, psi) == (-lo_neg, hi)


def test_alpha_range_against_cycle_enumeration():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        spec = helpers.random_mixing_spec(rng)
        phi = helpers.random_potential(rng, spec, 2, quantize=8)
        psi_vals = rng.integers(1, 5, size=spec.count_words(2))
        psi = LocallyConstantPotential.from_table(
            spec, 2, {w: float(v) for w, v in zip(spec.words(2), psi_vals)})
        _, wphi = helpers.edge_graph(phi)
        _, wpsi = helpers.edge_graph(psi)
        lo_b, hi_b = helpers.brute_cycle_ratio_range(spec.incidence, -wphi, wpsi)
        lo, hi = alpha_range(phi, psi)
        assert lo == pytest.approx(lo_b, abs=1e-9)
        assert hi == pytest.approx(hi_b, abs=1e-9)


# --------------------------------------------------------------------------
# the spectrum
# --------------------------------------------------------------------------

def test_spectrum_full_dimension_point(bin14):
    _, phi, psi = bin14
    a0 = full_dim_alpha(phi, psi)
    assert a0 == pytest.approx(1.2075187496394, abs=1e-9)
    pt = spectrum_at(a0, phi, psi)
    assert pt.q_alpha == pytest.approx(0.0, abs=1e-9)
    assert pt.value == pytest.approx(1.0, abs=1e-10)


def test_spectrum_interior_point(bin14):
    _, phi, psi = bin14
    pt = spectrum_at(1.0, phi, psi)
    # independent Legendre oracle on the closed form
    qs = np.linspace(-3, 1, 200001)
    oracle = float(np.min([_bin14_beta(q) - q for q in qs]))
    assert pt.value == pytest.approx(oracle, abs=1e-7)
    assert pt.q_alpha == pytest.approx(-0.488077132, abs=1e-6)


def test_spectrum_endpoints(bin14):
    _, phi, psi = bin14
    hi = spectrum_at(2.0, phi, psi)
    lo = spectrum_at(math.log(4 / 3) / math.log(2), phi, psi)
    assert hi.endpoint and lo.endpoint
    assert hi.value <= 1e-6
    assert lo.value <= 1e-6


def test_spectrum_peak_unique(bin14):
    _, phi, psi = bin14
    a0 = full_dim_alpha(phi, psi)
    peak = spectrum_at(a0, phi, psi).value
    for da in (-0.3, -0.05, -2e-3, 2e-3, 0.05, 0.3):
        assert spectrum_at(a0 + da, phi, psi).value < peak - 1e-6


def test_spectrum_outside_range(bin14):
    _, phi, psi = bin14
    with pytest.raises(EmptyLevelSetError):
        spectrum_at(2.5, phi, psi)
    with pytest.raises(EmptyLevelSetError):
        spectrum_at(0.1, phi, psi)


def _strip_model(name):
    """(phi, psi, step) of a lattice model: phi's values are multiples of step."""
    spec = helpers.gold() if name == "gold" else helpers.full2()
    values = {"phipm": [-0.5, 0.5], "full2": [-1.0, 0.5], "gold": [-0.5, 1.0],
              "full2-psi": [-1.0, 0.5]}[name]
    psi = (LocallyConstantPotential.from_values(spec, [math.log(2.0), math.log(3.0)])
           if name == "full2-psi" else LocallyConstantPotential.constant(spec, math.log(2.0)))
    return LocallyConstantPotential.from_values(spec, values), psi, 0.5


@pytest.mark.parametrize("name,bounds", [("phipm", (10, 20, 40, 80)),
                                         ("full2", (10, 20, 40, 80)),
                                         ("gold", (10, 20, 40, 80)),
                                         ("full2-psi", (5, 10, 20))])
def test_bounded_sum_strips_rise_to_the_spectrum_value_at_zero(name, bounds):
    """The points whose sums of phi stay within ±K steps lie in the level set
    of ratio 0, and their union over K holds its full dimension: the strips'
    dimensions d_K, by an oracle that calls no thermo solver, rise with K and
    stay below b(0); d_80 is within 1e-3 of it (about 4x closer per doubling
    of K, as a 1/K^2 law gives).  psi = (log 2, log 3) takes the bisection."""
    phi, psi, step = _strip_model(name)
    b0 = spectrum_at(0.0, phi, psi).value
    dims = [helpers.strip_dimension(phi, psi, step, k) for k in bounds]
    assert dims == sorted(set(dims)) and dims[-1] < b0
    if bounds[-1] == 80:
        assert b0 - dims[-1] < 1e-3


def test_golden_mean_spectrum_value_at_zero_is_two_thirds():
    """On the golden mean shift with phi = (-0.5, 1) and psi = log 2, ratio 0
    means symbol frequency 1/3 for 1, whose largest entropy is (2/3) log 2:
    b(0) = 2/3 exactly.  The gap in ulps (35 when written) is in the failure
    message, not a ``record_property``, which a JUnit XML report of family
    xunit2 turns into a warning and so an error; a certified enclosure of
    b(0) must hold 2/3."""
    phi, psi, _ = _strip_model("gold")
    gap = (spectrum_at(0.0, phi, psi).value - 2 / 3) / math.ulp(2 / 3)
    assert abs(gap) <= 64, f"b(0) is {gap:g} ulps from 2/3"


def test_full_dim_alpha_degenerate(full2):
    psi = LocallyConstantPotential.constant(full2, math.log(2.0))
    phi = combine(-1.0, psi, 0.0, psi)
    assert full_dim_alpha(phi, psi) == pytest.approx(1.0, abs=1e-10)
    half = LocallyConstantPotential.constant(full2, math.log(0.5))
    assert full_dim_alpha(half, psi) == pytest.approx(1.0, abs=1e-10)
    # alpha0 = -int(phi)/int(psi) under the Gibbs chain of -beta(0)*psi
    rng = np.random.default_rng(12)
    for depth in (1, 2, 2):
        spec = helpers.random_mixing_spec(rng)
        phi = helpers.random_potential(rng, spec, 2)
        psi = LocallyConstantPotential.from_table(
            spec, depth, [(w, float(rng.uniform(0.2, 2.0))) for w in spec.words(depth)])
        chain = gibbs_chain(combine(0.0, phi, -beta(0.0, phi, psi), psi))
        expect = -_mean(chain, phi) / _mean(chain, psi)
        assert full_dim_alpha(phi, psi) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_beta_prime_stays_in_alpha_range(bin14):
    _, phi, psi = bin14
    lo, hi = alpha_range(phi, psi)
    for q in (-30.0, -3.0, 0.0, 2.0, 30.0):
        assert lo - 1e-9 <= beta_prime(q, phi, psi) <= hi + 1e-9


# --------------------------------------------------------------------------
# sub-actions and one-sided suprema
# --------------------------------------------------------------------------

def test_subaction_gold_oracle():
    gspec, _ = helpers.gold_edge_potential()
    phi = LocallyConstantPotential.from_table(
        gspec, 2, {gspec.word("00"): 0.0, gspec.word("01"): -0.1, gspec.word("10"): -0.5})
    f = subaction(phi)
    assert f[gspec.word("0")] == pytest.approx(0.0, abs=1e-12)
    assert f[gspec.word("1")] == pytest.approx(-0.5, abs=1e-12)


def test_subaction_phi_neg(phi_neg):
    spec, phi, _ = phi_neg
    f = subaction(phi)
    # the returned table and the all-zero table are both valid sub-actions
    for a in range(2):
        for b in spec.successors(a):
            assert phi.value((a, b)) + f[(b,)] - f[(a,)] <= 1e-9
            assert phi.value((a, b)) + 0.0 - 0.0 <= 1e-9


def test_subaction_symmetry(phi_neg):
    # mirrored problem: negate, solve, negate gives the opposite-sign certificate
    spec, phi, _ = phi_neg
    neg = combine(-1.0, phi, 0.0, phi)
    with pytest.raises(ValidationError):
        subaction(neg)  # max cycle mean of -phi is log 3 > 0


def test_subaction_requires_zero_cycle_mean(phi_pm):
    _, phi, _ = phi_pm
    with pytest.raises(ValidationError):
        subaction(phi)


def test_subaction_random_normalized():
    rng = np.random.default_rng(77)
    for _ in range(100):
        spec = helpers.random_mixing_spec(rng, n=int(rng.integers(2, 5)))
        raw = helpers.random_potential(rng, spec, 2)
        _, w = helpers.edge_graph(raw)
        phi = add_constant(raw, -helpers.brute_max_cycle_mean(spec.incidence, w))
        f = subaction(phi)
        slacks = {}
        for a in range(spec.n):
            for b in spec.successors(a):
                slacks[(a, b)] = phi.value((a, b)) + f[(b,)] - f[(a,)]
                assert slacks[(a, b)] <= 1e-9
        # equality is attained on at least one cycle of tight edges
        tight = {e for e, s in slacks.items() if s >= -1e-9}
        assert any(
            all((c[i], c[(i + 1) % len(c)]) in tight for i in range(len(c)))
            for c in helpers.brute_simple_cycles(spec.incidence)
        )
        # one-sided supremum bound via the sub-action
        sup = birkhoff_sup(phi)
        assert sup <= 2 * max(abs(v) for v in f.values()) + 1e-8


def test_birkhoff_sup_oracles(phi_neg, phi_pm):
    _, neg, _ = phi_neg
    assert birkhoff_sup(neg) == pytest.approx(0.0, abs=1e-12)
    _, pm, _ = phi_pm
    assert birkhoff_sup(pm) == math.inf
    gspec, _ = helpers.gold_edge_potential()
    phi = LocallyConstantPotential.from_table(
        gspec, 2, {gspec.word("00"): 0.0, gspec.word("01"): -0.1, gspec.word("10"): -0.5})
    # brute force: all walks of up to 8 edges (weights are non-positive)
    best = -math.inf
    for n in range(2, 10):
        for w in gspec.words(n):
            total = sum(phi.value((w[i], w[i + 1])) for i in range(len(w) - 1))
            best = max(best, total)
    assert birkhoff_sup(phi) == pytest.approx(best, abs=1e-12)
    assert best == 0.0


# --------------------------------------------------------------------------
# orbit sampling
# --------------------------------------------------------------------------

def test_sample_orbit_frequencies(bin14):
    _, phi, _ = bin14
    chain = gibbs_chain(phi)
    word = chain.sample_orbit(100_000, seed=11)
    freq1 = sum(word) / len(word)
    sigma = math.sqrt(0.25 * 0.75 / len(word))
    assert abs(freq1 - 0.75) <= 3 * sigma


def test_sample_orbit_deterministic(bin14):
    _, phi, _ = bin14
    chain = gibbs_chain(phi)
    assert chain.sample_orbit(500, seed=3) == chain.sample_orbit(500, seed=3)
    assert chain.sample_orbit(500, seed=3) != chain.sample_orbit(500, seed=4)


def test_sample_orbit_deep_chain(gold):
    rng = np.random.default_rng(5)
    phi = helpers.random_potential(rng, gold, 3)
    chain = gibbs_chain(phi)
    w = chain.sample_orbit(1000, seed=0)
    assert len(w) == 1000
    assert gold.is_admissible(w)


@pytest.mark.parametrize("n, seed", [(1000.0, 0), ("5", 0), (True, 0), (0, 0), (10, -1)])
def test_sample_orbit_rejects_bad_arguments(bin14, n, seed):
    chain = gibbs_chain(bin14[1])
    with pytest.raises(ValidationError):
        chain.sample_orbit(n, seed)


def test_perron_nonconvergence_carries_bracket(monkeypatch):
    from gibbsdim import thermo
    from gibbsdim.errors import NumericalError
    # nearly period-2 transition structure: one or two iterates cannot close it
    m = np.array([[1e-12, 2.0], [1.0, 1e-12]])
    true_lam = math.sqrt(2.0) + 1e-12
    # the budget bounds the shifted steps of a finite top too
    _, _, (_, cold_top), _ = thermo._perron(m)
    for max_iter, top in ((1, math.inf), (2, math.inf), (1, cold_top)):
        monkeypatch.setattr(thermo, "PRESSURE_MAX_ITER", max_iter)
        with pytest.raises(NumericalError) as info:
            thermo._perron(m, top=top)
        lo, hi = info.value.bracket
        assert lo <= true_lam <= hi


def test_perron_certifies_near_periodic_matrix():
    from gibbsdim.thermo import PRESSURE_RTOL, _perron
    # power iteration stalls here (lambda_2/lambda_1 = -1 + 1e-12); the shifted
    # inverse step is not slowed by a negative lambda_2
    m = np.array([[1e-12, 2.0], [1.0, 1e-12]])
    lam, vec, (lo, hi), _ = _perron(m)
    assert lo <= math.sqrt(2.0) + 1e-12 <= hi
    assert hi - lo <= PRESSURE_RTOL * hi
    assert lam == 0.5 * (lo + hi)
    assert np.all(vec > 0) and vec.max() == 1.0


def test_perron_certifies_past_an_underflowed_iterate():
    from gibbsdim.thermo import _edge_space, _perron, _quiet, _transfer
    # entries from 1e-102 to 1e160: the inverse steps give no positive vector,
    # and the power step that stands in underflows one entry to 0; the
    # bracket certifies from that iterate, so the solve must go on with it
    rng = np.random.default_rng(3)
    spec = helpers.random_mixing_spec(rng, int(rng.integers(3, 8)))
    phi = helpers.random_potential(rng, spec, int(rng.integers(1, 4)),
                                   scale=float(rng.choice([1, 3, 10])))
    # the solvers run in the error scope of the public call that they serve
    with _quiet():
        m = _transfer(*_edge_space(phi), (-40.0,))
        lam, vec, (lo, hi), _ = _perron(m)
    o_lo, o_hi, certified = helpers.power_perron(m, max_iter=100)
    assert certified
    assert max(lo, o_lo) <= min(hi, o_hi)
    # the vector returned has an entry that underflowed to 0; as a seed it
    # would give an infinite bracket, so the solve starts from all-ones
    assert vec.min() == 0.0
    with _quiet():
        again, _, bracket, _ = _perron(m, x0=vec)
    assert (again, bracket) == (lam, (lo, hi))


@pytest.mark.parametrize("seed", range(8))
def test_perron_brackets_overlap_power_iteration(seed, monkeypatch):
    from gibbsdim import thermo
    rng = np.random.default_rng(seed)
    spec = helpers.random_mixing_spec(rng)
    phi = helpers.random_potential(rng, spec, 2)
    psi = LocallyConstantPotential.constant(spec, 1.0)
    pair = thermo._edge_space(phi, psi)
    steps = []
    for name in ("_inverse_step", "_squaring", "_eig_vector"):
        step = getattr(thermo, name)
        monkeypatch.setattr(thermo, name, lambda *a, step=step: steps.append(a) or step(*a))
    for q in (0.0, 1.0, -1.0, 40.0, -40.0):
        m = thermo._transfer(*pair, (-q, 0.0))
        o_lo, o_hi, _ = helpers.power_perron(m, max_iter=20_000)
        # seeds: the Perron vector of a multiple of m, and a positive vector far from it
        _, exact, _, _ = thermo._perron(0.5 * m)
        far = rng.uniform(0.1, 10.0, m.shape[0])
        # tops: none, and two wrong ones that must cost steps, not the certificate
        cold, _, _, _ = thermo._perron(m)
        for x0, top in itertools.product((None, exact, far), (math.inf, 0.5 * cold, 2.0 * cold)):
            steps.clear()
            lam, vec, (lo, hi), _ = thermo._perron(m, x0=x0, top=top)
            assert lo <= lam <= hi
            assert hi - lo <= thermo.PRESSURE_RTOL * hi
            assert max(lo, o_lo) <= min(hi, o_hi), (q, top, (lo, hi), (o_lo, o_hi))
            if x0 is exact:  # certified at the seed: no step, one product
                assert steps == []
                y = m @ exact
                assert np.array_equal(vec, y / y.max())


# --------------------------------------------------------------------------
# bit-identity guards: the in-place arithmetic of the Perron solves is the
# textbook formula, float for float
# --------------------------------------------------------------------------

def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]


def _guard_model(seed):
    """A seeded phi and its edge space with a random psi: (coder, (phi
    weights, psi weights))."""
    from gibbsdim.thermo import _edge_space
    rng = np.random.default_rng(200 + seed)
    spec = helpers.random_mixing_spec(rng)
    phi = helpers.random_potential(rng, spec, int(rng.integers(1, 4)), scale=3.0)
    psi = LocallyConstantPotential.from_table(
        spec, 2, [(w, float(rng.uniform(0.2, 2.0))) for w in spec.words(2)])
    return phi, _edge_space(phi, psi)


@pytest.mark.parametrize("seed", range(6))
def test_transfer_is_the_textbook_formula_bit_for_bit(seed):
    from gibbsdim.thermo import _quiet, _transfer
    _, (coder, (w_phi, w_psi)) = _guard_model(seed)

    def textbook(weights, coeffs):
        w = 0.0
        for c, mat in zip(coeffs, weights):
            w = w + c * mat
        with np.errstate(over="ignore"):
            return np.where(coder.block.incidence, np.exp(w), 0.0)

    values = (0.0, -0.0, 1.0, -1.0, 40.0, -40.0)
    cases = [((w_phi,), (c,)) for c in values]
    cases += [((w_phi, w_psi), cs) for cs in itertools.product(values, repeat=2)]
    # one edge weight whose exponential overflows to inf
    steep = w_phi.copy()
    steep[np.unravel_index(np.argmax(coder.block.incidence), steep.shape)] = 800.0
    cases.append(((steep, w_psi), (1.0, -1.0)))
    for weights, coeffs in cases:
        with _quiet():  # the scope of the public call that it serves
            got = _transfer(coder, weights, coeffs)
        assert _hex(got) == _hex(textbook(weights, coeffs)), coeffs
    assert np.isinf(got).sum() == 1


@pytest.mark.parametrize("seed", range(6))
def test_chain_mean_is_the_textbook_sum_bit_for_bit(seed):
    phi, (_, weights) = _guard_model(seed)
    chain = gibbs_chain(phi)
    for w in weights:
        want = float(np.sum(chain.pi[:, None] * chain.Q * w))
        assert _chain_mean(chain.pi, chain.Q, w).hex() == want.hex()


@pytest.mark.parametrize("seed", range(6))
def test_inverse_step_and_stochasticize_are_the_textbook_formulas_bit_for_bit(seed):
    from gibbsdim import thermo
    _, (coder, weights) = _guard_model(seed)
    for q in (-10.0, 1.0, 10.0):
        M = thermo._transfer(coder, weights, (-q, -1.0))
        _, h, bracket, _ = thermo._perron(M)
        n = h.shape[0]
        for m, x in ((M, h), (M.T, np.linspace(1.0, 0.5, n))):
            sigma = 1.5 * bracket[1]
            z = x * np.linalg.solve(sigma * np.eye(n) - m * x[None, :] / x[:, None], np.ones(n))
            assert _hex(thermo._inverse_step(m, x, sigma)) == _hex(z / z.max())
        nu, Q, pi = thermo._stochasticize(M, bracket, h)
        _, nu_want, _, _ = thermo._perron(M.T, top=bracket[1])
        Q_want = M * h[None, :] / (0.5 * (bracket[0] + bracket[1]) * h[:, None])
        Q_want = Q_want / Q_want.sum(axis=1, keepdims=True)
        nu_want = nu_want / float(nu_want @ h)
        pi_want = nu_want * h
        assert (_hex(nu), _hex(Q), _hex(pi)) == (
            _hex(nu_want), _hex(Q_want), _hex(pi_want / pi_want.sum()))


@pytest.mark.parametrize("bad", [math.nan, 0.0])
def test_nan_or_zero_fails_every_positivity_check(bad, monkeypatch):
    from gibbsdim import thermo
    from gibbsdim.errors import NumericalError
    m = np.array([[1.0, 2.0, 0.5], [1.0, 0.0, 1.0], [3.0, 1.0, 1.0]])
    # a seed with a NaN or zero entry falls back to all-ones
    lam, vec, bracket, _ = thermo._perron(m)
    again, vec2, bracket2, _ = thermo._perron(m, x0=np.array([1.0, bad, 0.5]))
    assert (_hex(again), _hex(vec2), _hex(bracket2)) == (_hex(lam), _hex(vec), _hex(bracket))
    # an eigensolve or an inverse step whose vector has such an entry gives none
    vals = np.array([0.5, 4.0, 1.0])
    vecs = np.array([[0.1, 0.6, 0.3], [0.2, bad, 0.3], [0.3, 0.8, 0.3]])
    monkeypatch.setattr(np.linalg, "eig", lambda a: (vals, vecs))
    assert thermo._eig_vector(m) is None
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.array([0.4, bad, 0.2]))
    assert thermo._inverse_step(m, np.ones(3), 10.0) is None
    # so does the right vector that _stochasticize is handed
    with pytest.raises(NumericalError, match="right Perron vector"):
        thermo._stochasticize(m, bracket, np.array([1.0, bad, 0.5]))


def _sweep_model(seed):
    """The seeded random model of ``seed``: phi, and psi = 1 ("one") and a
    random psi > 0 ("table")."""
    rng = np.random.default_rng(seed)
    spec = helpers.random_mixing_spec(rng, rng.integers(2, 8))
    phi = helpers.random_potential(rng, spec, rng.integers(1, 4),
                                   scale=rng.choice([1, 3, 10]))
    return phi, {"one": LocallyConstantPotential.constant(spec, 1.0),
                 "table": LocallyConstantPotential.from_table(
                     spec, 2, [(w, float(rng.uniform(0.2, 2.0))) for w in spec.words(2)])}


def _left_solves(seed, monkeypatch):
    """Every left solve of the ``_beta_pair`` roots on ``_sweep_model(seed)``
    at q in 0, +-1, +-10 and +-40: ((psi kind, q), M, bracket, nu0) per
    ``_stochasticize`` call.  A root that fails (a matrix out of the float
    range) keeps the solves it reached."""
    from gibbsdim import thermo
    from gibbsdim.errors import NumericalError
    phi, psis = _sweep_model(seed)
    solves = []
    stochasticize = thermo._stochasticize

    def recorded(M, bracket, h, nu0=None):
        solves.append((case, M, bracket, nu0))
        return stochasticize(M, bracket, h, nu0)

    with monkeypatch.context() as patch:
        patch.setattr(thermo, "_stochasticize", recorded)
        for case in itertools.product(psis, (0.0, 1.0, -1.0, 10.0, -10.0, 40.0, -40.0)):
            try:
                thermo._beta_pair(case[1], phi, psis[case[0]])
            except NumericalError:
                pass
    return solves


def test_left_solve_from_the_right_bracket_matches_a_cold_solve(monkeypatch):
    from gibbsdim import thermo
    from gibbsdim.errors import NumericalError
    # seeds 40-51 draw scales 1, 3 and 10; at seed 48 (psi = 1, q = -40) the
    # first left solve is on a 2 x 2 matrix with entries 1e-186 ... 5e74,
    # where the shifted steps alone do not certify and the solve goes on to
    # the power step with the bracket they reached.
    # No solve here that certifies takes 130 iterates, so 500 only makes the
    # ones that fail (out of the float range) fail sooner.
    monkeypatch.setattr(thermo, "PRESSURE_MAX_ITER", 500)
    phases = []
    squaring = thermo._squaring
    went_on, model48 = [], []
    for seed in range(40, 52):
        for case, m, (_, top), nu0 in _left_solves(seed, monkeypatch):
            # the solves run in the error scope of the public call that they serve
            try:
                with thermo._quiet():
                    cold = thermo._perron(m.T, x0=nu0)
            except NumericalError:
                cold = None
            phases.clear()
            with monkeypatch.context() as patch:
                patch.setattr(thermo, "_squaring", lambda *a: phases.append(1) or squaring(*a))
                try:
                    with thermo._quiet():
                        fast = thermo._perron(m.T, x0=nu0, top=top)
                except NumericalError:
                    fast = None
            if (seed, *case) == (48, "one", -40.0):
                model48.append(fast)
            # it certifies wherever the cold solve does
            assert fast is not None or cold is None, (seed, case)
            if fast is None:
                continue
            if phases:
                went_on.append((seed, *case))
            _, nu, (lo, hi), _ = fast
            assert hi - lo <= thermo.PRESSURE_RTOL * hi
            if cold is not None:
                # both vectors have max 1; entry by entry they can differ far
                # below 1e-12, where a bracket certified across iterates
                # leaves the vector of either solve inexact
                assert np.max(np.abs(nu - cold[1])) <= 1e-12, (seed, case)
            # a computed ratio is within n + 1 roundings of the exact one
            slack = 1.0 + 2 * (m.shape[0] + 1) * np.finfo(float).eps
            o_lo, o_hi, _ = helpers.power_perron(m.T, max_iter=100)
            assert max(lo, o_lo) <= min(hi, o_hi) * slack, (seed, case, (lo, hi), (o_lo, o_hi))
    assert model48 and all(fast is not None for fast in model48)
    # within |q| <= 1 no left solve goes on to the squaring phase
    assert went_on and all(abs(q) >= 10.0 for _, _, q in went_on)


@pytest.mark.parametrize("seed, kind, q", [(43, "one", -40.0), (66, "table", 40.0)])
def test_underflowed_right_vector_raises_numerical_error(seed, kind, q):
    from gibbsdim.errors import NumericalError
    # an entry of h underflows to 0 before the root fails; forming Q from it
    # would divide by 0
    phi, psis = _sweep_model(seed)
    with pytest.raises(NumericalError, match="right Perron vector") as info:
        beta_prime(q, phi, psis[kind])
    lo, hi = info.value.bracket
    assert 0.0 < lo <= hi


# the (seed, psi kind, q) of _sweep_model whose _beta_pair root fails, as
# recorded before the squaring phase replaced the eigensolve of step j = 1
SWEEP_FAILURES = {
    (40, "one", -40.0), (40, "one", 40.0), (40, "table", -40.0), (40, "table", 10.0),
    (40, "table", 40.0), (42, "table", -40.0), (43, "one", -40.0), (43, "table", -40.0),
    (45, "table", 40.0), (50, "table", -40.0), (53, "one", -40.0), (53, "one", 40.0),
    (53, "table", -40.0), (53, "table", -10.0), (53, "table", 10.0), (53, "table", 40.0),
    (58, "one", -40.0), (58, "one", 40.0), (58, "table", -40.0), (58, "table", 40.0),
    (59, "table", -40.0), (66, "one", -40.0), (66, "table", -40.0), (66, "table", 40.0),
}


def test_sweep_fails_on_the_recorded_roots(monkeypatch):
    from gibbsdim import thermo
    from gibbsdim.errors import NumericalError
    # 500 iterates give the same failures as 10,000: no solve that certifies
    # here needs more than ~130, so the failing ones only fail sooner
    monkeypatch.setattr(thermo, "PRESSURE_MAX_ITER", 500)
    # the b of each transfer matrix of a root: the bracket solve's 0, then
    # one per Newton iterate
    bs = []
    transfer = thermo._transfer
    monkeypatch.setattr(thermo, "_transfer",
                        lambda coder, weights, coeffs: bs.append(-coeffs[1])
                        or transfer(coder, weights, coeffs))
    failed, climbs = set(), []
    for seed in range(40, 70):
        phi, psis = _sweep_model(seed)
        for kind, q in itertools.product(psis, (0.0, 1.0, -1.0, 10.0, -10.0, 40.0, -40.0)):
            bs.clear()
            try:
                root, _ = thermo._beta_pair(q, phi, psis[kind])
            except NumericalError:
                failed.add((seed, kind, q))
                continue
            climbs.append(((seed, kind, q), root, bs[1], bs[2:]))
    assert failed == SWEEP_FAILURES
    # pressure is convex and decreasing in b, so from the second iterate on
    # Newton climbs to the root without passing it, and it starts no lower
    # than the sign bracket's lower end (bs[1] is the bracket's midpoint, and
    # one of its ends is 0): only that end is needed, not a bisection bracket
    for case, root, mid, later in climbs:
        assert later[0] >= min(2.0 * mid, 0.0), case
        assert all(a <= b for a, b in zip(later, later[1:])), case
        assert all(b <= root for b in later), case


def _phases(monkeypatch):
    """Record each squaring phase of ``thermo``: (M, its result) per call."""
    from gibbsdim import thermo
    phases = []
    squaring = thermo._squaring

    def recorded(M, x):
        out = squaring(M, x)
        phases.append((M, out))
        return out

    monkeypatch.setattr(thermo, "_squaring", recorded)
    return phases


def _cw(y, x):
    """The Collatz-Wielandt bracket of y / x, warnings off (x may underflow)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = y / x
    return float(ratios.min()), float(ratios.max())


def test_squaring_phase_certifies_both_vectors(monkeypatch):
    from gibbsdim import thermo
    from gibbsdim.errors import NumericalError
    monkeypatch.setattr(thermo, "PRESSURE_MAX_ITER", 500)  # the failing solves fail sooner
    phases = _phases(monkeypatch)
    for seed in range(30):
        rng = np.random.default_rng(300 + seed)
        spec = helpers.random_mixing_spec(rng)
        phi = helpers.random_potential(rng, spec, int(rng.integers(1, 4)),
                                       scale=float(rng.choice([1, 3, 10])))
        pair = thermo._edge_space(phi)
        for q in (0.0, 1.0, -1.0, 10.0, -10.0, 40.0, -40.0):
            try:
                with thermo._quiet():  # the scope of the public call that it serves
                    thermo._perron(thermo._transfer(*pair, (-q,)))
            except NumericalError:  # a matrix out of the float range
                pass
    returned = [(M, out) for M, out in phases if out is not None]
    with_left = [(M, out) for M, out in returned if out[1] is not None]
    assert len(returned) >= 100 and len(with_left) >= 0.9 * len(returned)
    for M, (x, v) in returned:
        # a computed ratio is within n + 1 roundings of the exact one
        slack = 1.0 + 2 * (M.shape[0] + 1) * np.finfo(float).eps
        for mat, vec in ((M, x), (M.T, v)):
            if vec is None:
                continue
            lo, hi = _cw(mat @ vec, vec)
            assert vec.max() == 1.0 and vec.min() > 0.0
            assert hi - lo <= thermo.PRESSURE_RTOL * hi
            # certified or not, a power-iteration bracket holds the eigenvalue
            o_lo, o_hi, _ = helpers.power_perron(mat, max_iter=1_000)
            assert max(lo, o_lo) <= min(hi, o_hi) * slack, ((lo, hi), (o_lo, o_hi))


def test_eigensolve_stands_in_where_the_squaring_phase_gives_up(monkeypatch):
    from gibbsdim import thermo
    phases = _phases(monkeypatch)
    eigs = []
    eig_vector = thermo._eig_vector
    monkeypatch.setattr(thermo, "_eig_vector", lambda M: eigs.append(M) or eig_vector(M))
    # sweep model 68 at q = 40: at the root the entries span ~200 orders of
    # magnitude, squaring gives up, and the eigensolve (or, where its vector
    # is not positive, the power step) goes on from the iterate reached
    phi, psis = _sweep_model(68)
    for psi in psis.values():
        phases.clear()
        eigs.clear()
        b, slope = thermo._beta_pair(40.0, phi, psi)
        assert math.isfinite(b) and math.isfinite(slope)
        assert phases and all(out is None for _, out in phases)
        assert len(eigs) == len(phases)
    # the first model of the overlap test, at q = -40, with a top below the
    # eigenvalue: the shifted steps stall, squaring gives up, and only the
    # eigensolve's vector certifies; inverse steps in its place never do
    rng = np.random.default_rng(7)
    spec = helpers.random_mixing_spec(rng)
    pair = thermo._edge_space(helpers.random_potential(rng, spec, 2))
    m = thermo._transfer(*pair, (40.0,))
    cold = thermo._perron(m)[0]
    phases.clear()
    eigs.clear()
    lam, _, (lo, hi), _ = thermo._perron(m, top=0.5 * cold)
    assert [out for _, out in phases] == [None] and len(eigs) == 1
    o_lo, o_hi, _ = helpers.power_perron(m, max_iter=20_000)
    assert hi - lo <= thermo.PRESSURE_RTOL * hi and max(lo, o_lo) <= min(hi, o_hi)


def _stress_model(seed):
    """The seeded 6-symbol model with a depth-3 phi and psi = 1 (perfbench/stress.py)."""
    rng = np.random.default_rng(seed)
    spec = helpers.random_mixing_spec(rng, 6)
    phi = helpers.random_potential(rng, spec, 3)
    return phi, LocallyConstantPotential.constant(spec, 1.0)


def test_beta_prime_certifies_on_stress_model_seed2():
    from gibbsdim.thermo import _edge_space
    # power iteration stalled here at |q| = 40 and raised NumericalError
    phi, psi = _stress_model(2)
    assert _edge_space(phi, psi)[0].block.n == 16
    lo, hi = alpha_range(phi, psi)
    slope = beta_prime(-40.0, phi, psi)
    assert lo - 1e-9 <= slope < 0.5 * (lo + hi)


def test_stress_model_spectrum_row():
    from gibbsdim.thermo import QALPHA_TOL
    phi, psi = _stress_model(1)
    lo, hi = alpha_range(phi, psi)
    alpha = lo + 0.3 * (hi - lo)
    pt = spectrum_at(alpha, phi, psi)
    assert not pt.endpoint
    assert abs(beta_prime(pt.q_alpha, phi, psi) - alpha) <= QALPHA_TOL
    assert 0.0 <= pt.value <= beta(0.0, phi, psi) + QALPHA_TOL
    assert pt.value == pytest.approx(beta(pt.q_alpha, phi, psi) - pt.q_alpha * alpha,
                                     abs=1e-15)
    assert pt.beta == beta(pt.q_alpha, phi, psi)


def test_beta_root_reuses_its_perron_vectors(monkeypatch):
    from gibbsdim import thermo
    # psi = 1, so each step's matrix is a multiple of the last one and every
    # seeded solve certifies at its seed; the bracket solve at b = 0 runs the
    # one squaring phase, and its left vector seeds the first left solve
    phi, psi = _stress_model(1)
    qs = (-40.0, -3.0, -0.5, 0.0, 0.7, 5.0, 40.0)
    fresh = [(beta(q, phi, psi), beta_prime(q, phi, psi)) for q in qs]
    calls = {"_squaring": [], "_eig_vector": [], "_inverse_step": []}
    for name, log in calls.items():
        step = getattr(thermo, name)
        monkeypatch.setattr(thermo, name, lambda *a, step=step, log=log: log.append(1) or step(*a))
    stochasticize = thermo._stochasticize

    def seeded_stochasticize(*args):
        before = {name: len(log) for name, log in calls.items()}
        out = stochasticize(*args)
        assert args[3] is not None, "a left solve had no seed"
        assert {name: len(log) for name, log in calls.items()} == before, (
            "a left solve took a step past its seed")
        return out

    monkeypatch.setattr(thermo, "_stochasticize", seeded_stochasticize)
    for q, want in zip(reversed(qs), reversed(fresh)):
        for solve in (beta, beta_prime):
            for log in calls.values():
                log.clear()
            solve(q, phi, psi)
            assert {name: len(log) for name, log in calls.items()} == {
                "_squaring": 1, "_eig_vector": 0, "_inverse_step": 0}, (q, solve.__name__, calls)
        # the same bits after other roots: no seed outlives its call
        assert (beta(q, phi, psi), beta_prime(q, phi, psi)) == want


def _pinned_outputs():
    """The float.hex of the solver outputs that ``PINNED_OUTPUTS_SHA256`` pins, in order.

    - On ``_stress_model(1..3)``: alpha0, then at lo + t*(hi - lo) for t in
      0.1, 0.3, ..., 0.9 and at alpha0 the ``spectrum_at`` point's q_alpha,
      beta and value, with ``beta`` and ``beta_prime`` at its q_alpha.
    - The README's bin14 spectrum grid 0.5:2.0:0.05 with alpha0, as the CLI
      builds it: q_alpha, beta and value per point.
    - ``_beta_pair`` on ``_sweep_model(40..49)`` for both psi kinds at
      q in 0, +-1, +-10, a root that fails as "NumericalError".
    """
    from gibbsdim import thermo
    from gibbsdim.cli import _parse_grid
    from gibbsdim.errors import NumericalError
    out = []

    def put(*values):
        out.extend(float(v).hex() for v in values)

    for seed in (1, 2, 3):
        phi, psi = _stress_model(seed)
        lo, hi = alpha_range(phi, psi)
        a0 = full_dim_alpha(phi, psi)
        put(a0)
        for alpha in [lo + t * (hi - lo) for t in (0.1, 0.3, 0.5, 0.7, 0.9)] + [a0]:
            pt = spectrum_at(alpha, phi, psi)
            put(pt.q_alpha, pt.beta, pt.value)
            if not pt.endpoint:
                put(beta(pt.q_alpha, phi, psi), beta_prime(pt.q_alpha, phi, psi))
    _, phi, psi = helpers.bin14()
    alphas = _parse_grid("0.5:2.0:0.05")
    a0 = full_dim_alpha(phi, psi)
    if not any(abs(a - a0) < 1e-12 for a in alphas):
        alphas = sorted(alphas + [a0])
    for alpha in alphas:
        pt = spectrum_at(alpha, phi, psi)
        put(pt.q_alpha, pt.beta, pt.value)
    for seed in range(40, 50):
        phi, psis = _sweep_model(seed)
        for kind, q in itertools.product(psis, (0.0, 1.0, -1.0, 10.0, -10.0)):
            try:
                put(*thermo._beta_pair(q, phi, psis[kind]))
            except NumericalError:
                out.append("NumericalError")
    return out


# recorded at 0cf4cec, before the NumPy error scopes moved out of the solvers
PINNED_OUTPUTS_SHA256 = "87a8c5ba68615f6d0f5a1700f328cca81e69c1015e2aca1789c9342a2502794b"


def test_solver_outputs_keep_every_bit():
    digest = hashlib.sha256("\n".join(_pinned_outputs()).encode()).hexdigest()
    assert digest == PINNED_OUTPUTS_SHA256


@pytest.mark.parametrize("seed", range(6))
def test_beta_root_with_nonconstant_psi(seed):
    from gibbsdim.thermo import BETA_PRESSURE_TOL, PRESSURE_RTOL, _edge_space, _transfer
    rng = np.random.default_rng(100 + seed)
    spec = helpers.random_mixing_spec(rng)
    phi = helpers.random_potential(rng, spec, 2)
    psi = LocallyConstantPotential.from_table(
        spec, 2, [(w, float(rng.uniform(0.2, 2.0))) for w in spec.words(2)])
    pair = _edge_space(phi, psi)
    for q in (-2.0, -0.5, 0.0, 1.0, 2.0):
        b = beta(q, phi, psi)
        lo, hi, certified = helpers.power_perron(_transfer(*pair, (-q, -b)))
        assert certified
        assert max(abs(math.log(lo)), abs(math.log(hi))) <= BETA_PRESSURE_TOL + PRESSURE_RTOL
        h = 1e-4
        slope = (beta(q + h, phi, psi) - beta(q - h, phi, psi)) / (2 * h)
        assert beta_prime(q, phi, psi) == pytest.approx(slope, abs=1e-6)


@pytest.mark.parametrize("values", ([-10.0, -30.0], [-20.0, -60.0]))
def test_spectrum_overflow_raises_numerical_error(full2, values):
    from gibbsdim.errors import NumericalError
    # at |q| = Q_CAP the weights exp(-q*phi - b*psi) leave the float range
    phi = LocallyConstantPotential.from_values(full2, values)
    psi = LocallyConstantPotential.constant(full2, 1.0)
    lo, hi = alpha_range(phi, psi)
    with pytest.raises(NumericalError) as info:
        spectrum_at(0.5 * (lo + hi), phi, psi)
    assert info.value.bracket is not None


def test_public_solves_raise_numerical_error_and_no_numpy_warning(full2, ifs_bin):
    from gibbsdim import CdfModel
    from gibbsdim.errors import NumericalError
    from gibbsdim.thermo import Q_CAP, _edge_space, _transfer
    # exp(-q*phi) at |q| = Q_CAP leaves the float range on full2 with
    # phi = [-10, -30]; each public solve holds the one error scope, so it
    # returns or raises NumericalError, never a RuntimeWarning
    steep = (LocallyConstantPotential.from_values(full2, [-10.0, -30.0]),
             LocallyConstantPotential.constant(full2, 1.0))
    stress = _stress_model(1)
    with pytest.warns(RuntimeWarning, match="overflow"):  # no scope: it warns
        _transfer(*_edge_space(steep[0]), (-Q_CAP,))
    calls = []
    for q in (-Q_CAP, Q_CAP):
        scaled = combine(-q, steep[0], 0.0, steep[1])
        calls += [(pressure, scaled), (gibbs_chain, scaled)]
        for pair in (steep, stress):
            calls += [(beta, q, *pair), (beta_prime, q, *pair)]
    for pair in (steep, stress):
        lo, hi = alpha_range(*pair)
        calls += [(spectrum_at, a, *pair) for a in (lo, 0.5 * (lo + hi), hi)]
        calls.append((full_dim_alpha, *pair))
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, *args in calls:
            try:
                f(*args)
                outcomes.append("returned")
            except NumericalError:
                outcomes.append("raised")
        # the model normalizes phi to [~0, -20]: its cap probes overflow
        try:
            CdfModel(ifs_bin, steep[0]).alpha0_report()
            outcomes.append("returned")
        except NumericalError:
            outcomes.append("raised")
    assert {"returned", "raised"} <= set(outcomes)


@pytest.mark.parametrize("seed", range(4))
def test_cw_bracket_is_the_numpy_reduction_bit_for_bit(seed):
    from gibbsdim.thermo import _cw_bracket
    rng = np.random.default_rng(500 + seed)
    for n in (1, 2, 3, 7, 16, 19, 64):
        for span in (1.0, 30.0, 300.0):  # entries across up to ~260 orders of magnitude
            x = np.exp(rng.uniform(-span, span, n))
            y = np.exp(rng.uniform(-span, span, n))
            got = _cw_bracket(y, x)
            assert all(type(v) is float for v in got)
            assert _hex(got) == _hex(_cw(y, x)), (n, span)


def test_cw_bracket_of_an_entry_that_underflowed_to_zero():
    from gibbsdim.thermo import _cw_bracket, _quiet
    x = np.array([1.0, 0.5, 0.0])
    # (Mx)_2 = 0 at x_2 = 0: the ratio 0/0 is NaN, and the iterate gives no bracket
    m = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    with _quiet():
        got = _cw_bracket(m @ x, x)
    assert all(math.isnan(v) for v in got)
    assert all(math.isnan(v) for v in _cw(m @ x, x))
    # (Mx)_2 > 0 at x_2 = 0: the top is infinite, the bottom is the finite ratios' min
    m[2, 0] = 1.0
    with _quiet():
        got = _cw_bracket(m @ x, x)
    assert got == (2.5, math.inf)
    assert _hex(got) == _hex(_cw(m @ x, x))


def test_subaction_mirrored_upper(full2):
    # potential with vanishing *minimal* cycle mean: negate, solve, negate
    phi = LocallyConstantPotential.from_values(full2, [math.log(3.0), 0.0])
    neg = combine(-1.0, phi, 0.0, phi)
    g = {w: -v for w, v in subaction(neg).items()}
    slack = {}
    for a in range(2):
        for b in full2.successors(a):
            slack[(a, b)] = phi.value((a, b)) + g[(b,)] - g[(a,)]
            assert slack[(a, b)] >= -1e-9
    tight = {e for e, s in slack.items() if s <= 1e-9}
    assert any(
        all((c[i], c[(i + 1) % len(c)]) in tight for i in range(len(c)))
        for c in helpers.brute_simple_cycles(full2.incidence))


def test_spectrum_concave_on_grid(bin14):
    _, phi, psi = bin14
    alphas = np.arange(0.5, 2.01, 0.1)
    vals = [spectrum_at(float(a), phi, psi).value for a in alphas]
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)
    for i in range(1, len(vals) - 1):
        assert vals[i] >= 0.5 * (vals[i - 1] + vals[i + 1]) - 1e-9


# --------------------------------------------------------------------------
# the q_alpha root: Brent's method, step for step as scipy's brentq
# --------------------------------------------------------------------------

BRENT_ARGS = (1e-12, 8.9e-16, 200)  # xtol, rtol, maxiter of spectrum_at's root


def _recorded(f):
    """f, and the list of the points it is evaluated at, as float.hex strings."""
    xs = []

    def g(x):
        xs.append(float(x).hex())
        return f(x)
    return g, xs


def _assert_same_as_scipy(f, xa, xb, xtol, rtol, maxiter):
    brentq = pytest.importorskip(
        "scipy.optimize", reason="the differential oracle is in the 'test' extra").brentq
    from gibbsdim.thermo import _brentq
    ours, our_xs = _recorded(f)
    theirs, their_xs = _recorded(f)
    root = _brentq(ours, xa, xb, xtol, rtol, maxiter)
    expected = brentq(theirs, xa, xb, xtol=xtol, rtol=rtol, maxiter=maxiter)
    assert our_xs == their_xs
    assert float(root).hex() == float(expected).hex()


def _steep_zero(x):
    """A root at 0.2 inside a band where f is exactly -0.0."""
    return -0.0 if abs(x - 0.2) < 1e-3 else math.tanh(x - 0.2)


def _cubic(seed, scale=1.0):
    """A seeded cubic with its bracket, its roots spread over a few times scale."""
    r = np.random.default_rng(seed).uniform(-3.0, 3.0, 4)
    return (lambda x: (x / scale - r[0]) * (x / scale - r[1]) * (x / scale - r[2]) + r[3],
            -4.0 * scale, 4.1 * scale)


BRENT_CASES = []
for _seed in range(8):
    _r = np.random.default_rng(_seed).uniform(-3.0, 3.0, 4)
    BRENT_CASES += [
        _cubic(_seed),
        (lambda x, s=_r[0]: math.tanh(x - s), -4.0, 4.1),
        (lambda x, c=_r[1] / 3, k=40.0 * (1 + abs(_r[2])): math.tanh(k * (x - c)), -1.5, 2.0),
    ]
# cubics at the scale of xtol, picked because the "- delta" of the short-step
# test decides one of their steps
BRENT_CASES += [_cubic(115, 1e-12), _cubic(262, 1e-12), _cubic(128, 3e-12)]
BRENT_CASES += [
    (lambda x: x + 1.5, -1.5, 3.0),          # root exactly at xa
    (lambda x: x - 3.0, -1.5, 3.0),          # root exactly at xb
    (lambda x: -(x + 1.5), -1.5, 3.0),       # f(xa) = -0.0
    (_steep_zero, -1.0, 1.0),
    (lambda x: 1e-200 * (math.exp(x) - 1.4), -1.0, 2.0),  # slopes whose product underflows
]


@pytest.mark.parametrize("case", range(len(BRENT_CASES)))
def test_brentq_matches_scipy(case):
    f, xa, xb = BRENT_CASES[case]
    _assert_same_as_scipy(f, xa, xb, *BRENT_ARGS)


def test_brentq_matches_scipy_on_spectrum_root(monkeypatch):
    from gibbsdim import thermo
    calls = []
    real = thermo._brentq

    def spy(f, *args):
        calls.append((f, args))
        return real(f, *args)
    monkeypatch.setattr(thermo, "_brentq", spy)
    phi, psi = _stress_model(1)
    lo, hi = alpha_range(phi, psi)
    for t in (0.3, 0.65):
        assert not spectrum_at(lo + t * (hi - lo), phi, psi).endpoint
    monkeypatch.undo()
    assert [args for _, args in calls] == [(-40.0, 40.0) + BRENT_ARGS] * 2
    for f, args in calls:  # f keeps its evaluations, so scipy reruns are cheap
        _assert_same_as_scipy(f, *args)


@pytest.mark.parametrize("f, maxiter", [
    (lambda x: math.tanh(x - 0.3), 1),
    (lambda x, values=iter([-1.0, 1.0]): next(values, math.nan), 200),
    (lambda x: x * x + 1.0, 200),
], ids=["no-convergence", "nan-after-two-values", "no-sign-change"])
def test_brentq_failure_raises_numerical_error(f, maxiter):
    from gibbsdim.errors import NumericalError
    from gibbsdim.thermo import _brentq
    with pytest.raises(NumericalError) as info:
        _brentq(f, -1.0, 2.0, 1e-12, 8.9e-16, maxiter)
    assert info.value.bracket == (-1.0, 2.0)
