import math

import numpy as np
import pytest

import helpers
from gibbsdim import (EmptyLevelSetError, LocallyConstantPotential, ValidationError,
                      add_constant, alpha_range, beta, beta_prime, birkhoff_sup,
                      combine, full_dim_alpha, gibbs_chain, pressure, spectrum_at,
                      subaction)

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
    _, phi, _ = bin14
    chain = gibbs_chain(phi)
    assert chain.gibbs_constant_bound(6) == pytest.approx(1.0, abs=1e-12)
    gchain = gibbs_chain(add_constant(_zero(gold), -math.log(GOLDEN)))
    b1 = gchain.gibbs_constant_bound(1)
    b6 = gchain.gibbs_constant_bound(6)
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


def test_gibbs_constant_requires_normalization(gold):
    with pytest.raises(ValidationError):
        gibbs_chain(_zero(gold)).gibbs_constant_bound(3)


def test_integrate(bin14, full2):
    spec, phi, psi = bin14
    chain = gibbs_chain(phi)
    assert chain.integrate(phi) == pytest.approx(0.25 * math.log(0.25) + 0.75 * math.log(0.75), abs=1e-12)
    assert chain.integrate(LocallyConstantPotential.constant(spec, 3.5)) == pytest.approx(3.5, abs=1e-12)
    uniform = gibbs_chain(_zero(full2))
    assert uniform.integrate(phi) == pytest.approx(0.5 * (math.log(0.25) + math.log(0.75)), abs=1e-12)


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
        es = _edge_space(phi, psi)
        num, den = -es.weights[0], es.weights[1]
        hi, _ = cycles.max_cycle_ratio(es.adj, num, den, tol=ALPHA_RANGE_TOL)
        lo_neg, _ = cycles.max_cycle_ratio(es.adj, -num, den, tol=ALPHA_RANGE_TOL)
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


def test_full_dim_alpha_degenerate(full2):
    psi = LocallyConstantPotential.constant(full2, math.log(2.0))
    phi = combine(-1.0, psi, 0.0, psi)
    assert full_dim_alpha(phi, psi) == pytest.approx(1.0, abs=1e-10)
    half = LocallyConstantPotential.constant(full2, math.log(0.5))
    assert full_dim_alpha(half, psi) == pytest.approx(1.0, abs=1e-10)


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


def test_perron_nonconvergence_carries_bracket():
    from gibbsdim.errors import NumericalError
    from gibbsdim.thermo import _perron
    # nearly period-2 transition structure: one or two iterates cannot close it
    m = np.array([[1e-12, 2.0], [1.0, 1e-12]])
    true_lam = math.sqrt(2.0) + 1e-12
    for max_iter in (1, 2):
        with pytest.raises(NumericalError) as info:
            _perron(m, max_iter=max_iter)
        lo, hi = info.value.bracket
        assert lo <= true_lam <= hi


def test_perron_certifies_near_periodic_matrix():
    from gibbsdim.thermo import PRESSURE_RTOL, _perron
    # power iteration stalls here (lambda_2/lambda_1 = -1 + 1e-12); the shifted
    # inverse step is not slowed by a negative lambda_2
    m = np.array([[1e-12, 2.0], [1.0, 1e-12]])
    lam, vec, (lo, hi) = _perron(m)
    assert lo <= math.sqrt(2.0) + 1e-12 <= hi
    assert hi - lo <= PRESSURE_RTOL * hi
    assert lam == 0.5 * (lo + hi)
    assert np.all(vec > 0) and vec.max() == 1.0


def test_perron_certifies_past_an_underflowed_iterate():
    from gibbsdim.thermo import _edge_space, _perron
    # entries from 1e-102 to 1e160: the inverse steps give no positive vector,
    # and the power step that stands in underflows one entry to 0; the
    # bracket certifies from that iterate, so the solve must go on with it
    rng = np.random.default_rng(3)
    spec = helpers.random_mixing_spec(rng, int(rng.integers(3, 8)))
    phi = helpers.random_potential(rng, spec, int(rng.integers(1, 4)),
                                   scale=float(rng.choice([1, 3, 10])))
    m = _edge_space(phi).matrix((-40.0,))
    lam, _, (lo, hi) = _perron(m)
    o_lo, o_hi, certified = helpers.power_perron(m, max_iter=100)
    assert certified
    assert max(lo, o_lo) <= min(hi, o_hi)


@pytest.mark.parametrize("seed", range(8))
def test_perron_brackets_overlap_power_iteration(seed):
    from gibbsdim.thermo import PRESSURE_RTOL, _edge_space, _perron
    rng = np.random.default_rng(seed)
    spec = helpers.random_mixing_spec(rng)
    phi = helpers.random_potential(rng, spec, 2)
    psi = LocallyConstantPotential.constant(spec, 1.0)
    es = _edge_space(phi, psi)
    for q in (0.0, 1.0, -1.0, 40.0, -40.0):
        m = es.matrix((-q, 0.0))
        lam, _, (lo, hi) = _perron(m)
        o_lo, o_hi, _ = helpers.power_perron(m, max_iter=20_000)
        assert lo <= lam <= hi
        assert hi - lo <= PRESSURE_RTOL * hi
        assert max(lo, o_lo) <= min(hi, o_hi), (q, (lo, hi), (o_lo, o_hi))


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
    assert _edge_space(phi, psi).block_spec.n == 16
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
