import math
from fractions import Fraction

import numpy as np
import pytest

import helpers
from gibbsdim import (AffineIfs, CapacityError, CdfModel, InfeasibleError,
                      LocallyConstantPotential, ValidationError, beta, in_repetition_free_set,
                      spectrum_at)
from gibbsdim import ifs, sft

ALPHA0 = 1.2075187496394422


@pytest.fixture
def bin_model(ifs_bin, bin14):
    _, phi, _ = bin14
    return CdfModel(ifs_bin, phi)


@pytest.fixture
def lebesgue_model(ifs_bin, full2):
    half = LocallyConstantPotential.constant(full2, math.log(0.5))
    return CdfModel(ifs_bin, half)


# --------------------------------------------------------------------------
# geometry
# --------------------------------------------------------------------------

def test_cylinder_intervals(ifs_bin, full2):
    lo, hi = ifs_bin.cylinder_interval(full2.word("01"))
    assert (lo, hi) == (0.25, 0.5)
    assert ifs_bin.cylinder_interval(()) == (0.0, 1.0)
    for w in full2.words(5):
        plo, phi_ = ifs_bin.cylinder_interval(w[:-1])
        clo, chi = ifs_bin.cylinder_interval(w)
        assert plo - 1e-15 <= clo and chi <= phi_ + 1e-15


def test_open_set_condition_enforced(full2):
    with pytest.raises(ValidationError):
        AffineIfs(spec=full2, interval=(0.0, 1.0),
                  rates=np.array([0.6, 0.5]), offsets=np.array([0.0, 0.4]))
    with pytest.raises(ValidationError):
        AffineIfs(spec=full2, interval=(0.0, 1.0),
                  rates=np.array([0.5, 0.7]), offsets=np.array([0.0, 0.5]))


def test_coding_respects_order(ifs_bin, full2):
    pts = [sum(ifs_bin.cylinder_interval(w)) / 2 for w in full2.words(8)]
    assert pts == sorted(pts)


def test_geometric_potential(ifs_bin, full2):
    geo = ifs_bin.geometric_potential()
    assert geo.depth == 1
    assert geo.value(full2.word("0")) == pytest.approx(math.log(2.0), abs=1e-15)
    assert geo.min_value() > 0
    other = AffineIfs(spec=full2, interval=(0.0, 1.0),
                      rates=np.array([1 / 3, 2 / 3]), offsets=np.array([0.0, 1 / 3]))
    geo2 = other.geometric_potential()
    assert geo2.value(full2.word("1")) == pytest.approx(-math.log(2 / 3), abs=1e-15)


# --------------------------------------------------------------------------
# the distribution function
# --------------------------------------------------------------------------

def test_cdf_lebesgue_identity(lebesgue_model):
    for x in np.linspace(0.0, 1.0, 1000):
        assert lebesgue_model.cdf(float(x), 1e-9) == pytest.approx(float(x), abs=1e-9)


def test_cdf_oracles(bin_model):
    assert bin_model.cdf(0.5, 1e-9) == pytest.approx(0.25, abs=1e-9)
    assert bin_model.cdf(0.75, 1e-9) == pytest.approx(0.4375, abs=1e-9)
    assert bin_model.cdf(-0.5) == 0.0
    assert bin_model.cdf(1.5) == 1.0


def test_cdf_requires_positive_eps(bin_model):
    with pytest.raises(ValidationError):
        bin_model.cdf(0.5, 0.0)


def test_cdf_rejects_nan(bin_model):
    with pytest.raises(ValidationError, match="nan"):
        bin_model.cdf(math.nan)


def test_curve_monotone_with_unit_endpoints(bin_model):
    curve = bin_model.curve(257, 1e-10)
    ys = [y for _, y in curve]
    assert ys[0] == pytest.approx(0.0, abs=1e-9)
    assert ys[-1] == pytest.approx(1.0, abs=1e-12)
    assert all(a <= b + 1e-15 for a, b in zip(ys, ys[1:]))


def test_curve_counts_its_points_before_building_them(bin_model, monkeypatch):
    # at the real cap, --resolution 1000000000 asked NumPy for 7.45 GiB
    monkeypatch.setattr(sft, "WORD_CAP", 100)
    assert len(bin_model.curve(100)) == 100
    with pytest.raises(CapacityError, match="resolution 101 exceeds the cap 100"):
        bin_model.curve(101)


def test_curve_refinement_consistent(bin_model):
    eps = 1e-10
    c1 = dict(bin_model.curve(101, eps))
    c2 = dict(bin_model.curve(201, eps))
    shared = set(c1) & set(c2)
    assert len(shared) >= 100
    for x in shared:
        assert abs(c1[x] - c2[x]) <= 2 * eps


def _bernoulli_dyadic_cdf(x: float, p0: Fraction) -> Fraction:
    """Exact mass of [0, x] for i.i.d. binary digits with P(digit 0) = p0."""
    x = Fraction(x)
    if x >= 1:
        return Fraction(1)
    acc, weight = Fraction(0), Fraction(1)
    while x:  # a float is dyadic, so its binary expansion ends
        x *= 2
        if x >= 1:
            acc += weight * p0
            weight *= 1 - p0
            x -= 1
        else:
            weight *= p0
    return acc


def test_deep_curve_points_within_eps(bin_model):
    # at x = k/255 the descent passes 53 levels before its mass drops below eps
    eps = 1e-12
    for x, y in bin_model.curve(256, eps):
        assert abs(Fraction(y) - _bernoulli_dyadic_cdf(x, Fraction(1, 4))) <= eps, x


def test_cdf_increment_equals_cylinder_mass(bin_model, full2):
    eps = 1e-11
    for n in range(1, 9):
        for w in full2.words(n):
            lo, hi = bin_model.ifs.cylinder_interval(w)
            inc = bin_model.cdf(hi, eps) - bin_model.cdf(lo, eps)
            assert inc == pytest.approx(bin_model.chain.cylinder_measure(w), abs=4 * eps)


def test_gibbs_sandwich(bin_model, full2):
    c = helpers.brute_gibbs_constant(bin_model.chain, bin_model.potential, 8)
    for n in range(1, 13):
        for w in full2.words(n):
            lo, hi = bin_model.ifs.cylinder_interval(w)
            mu = bin_model.cdf(hi, 1e-13) - bin_model.cdf(lo, 1e-13)
            s = bin_model.potential.word_sum_bounds(w).sup
            assert mu <= c * math.exp(s) * (1 + 1e-6) + 1e-12
            assert mu >= math.exp(s) / c * (1 - 1e-6) - 1e-12


def test_depth2_potential_cdf(gold):
    # a genuinely two-step-memory measure pushed through a golden-spec IFS
    ifs = AffineIfs(spec=gold, interval=(0.0, 1.0),
                    rates=np.array([0.45, 0.45]), offsets=np.array([0.0, 0.55]))
    rng = np.random.default_rng(12)
    phi = helpers.random_potential(rng, gold, 2)
    model = CdfModel(ifs, phi)
    eps = 1e-11
    xs = np.linspace(0.0, 1.0, 200)
    ys = [model.cdf(float(x), eps) for x in xs]
    assert all(a <= b + 1e-14 for a, b in zip(ys, ys[1:]))
    for n in range(1, 7):
        for w in gold.words(n):
            lo, hi = ifs.cylinder_interval(w)
            inc = model.cdf(hi, eps) - model.cdf(lo, eps)
            assert inc == pytest.approx(model.chain.cylinder_measure(w), abs=5 * eps)


# --------------------------------------------------------------------------
# probes
# --------------------------------------------------------------------------

def test_probe_exponent_at_periodic_point(bin_model):
    probe = bin_model.holder_probe(1 / 3, ALPHA0, 30)
    assert probe.exponent == pytest.approx(ALPHA0, abs=0.02)


def test_probe_power_law_at_left_endpoint(bin_model):
    probe = bin_model.holder_probe(0.0, 2.0, 30)
    # exact square law at 0 up to the evaluation tolerance floor
    assert probe.ratio_min >= 0.5
    assert probe.ratio_max <= 50.0


def test_probe_ratios_skip_increments_within_the_evaluation_error(bin_model):
    # below scale ~2^-45 the increments at 1/3 are the rounding of two cdf values
    probe = bin_model.holder_probe(1 / 3, 1.2075, 60)
    assert len(probe.records) == 119
    assert sum(dc <= 2e-15 for _, _, dc, _ in probe.records) == 41
    kept = [ratio for _, _, dc, ratio in probe.records if dc > 2e-15]
    assert probe.ratio_min == min(kept) > 0.3
    assert probe.ratio_max == max(kept) < 1.1
    assert probe.exponent == pytest.approx(1.2075, abs=0.01)


def test_probe_without_resolved_increments_reports_nan(bin_model, monkeypatch):
    monkeypatch.setattr(ifs, "PROBE_EPS", 1.0)
    probe = bin_model.holder_probe(1 / 3, 1.0, 3)
    assert len(probe.records) == 5
    assert math.isnan(probe.ratio_min) and math.isnan(probe.ratio_max)
    assert math.isnan(probe.exponent)


def test_probe_decay_off_exponent(bin_model):
    probe = bin_model.holder_probe(1 / 3, 1.0, 25)
    by_scale = {}
    for scale, _, _, ratio in probe.records:
        by_scale[scale] = max(by_scale.get(scale, 0.0), ratio)
    assert by_scale[2.0 ** -25] < by_scale[2.0 ** -5]


def test_moderate_checks(bin_model):
    assert bin_model.moderate_check(1 / 3, ALPHA0, 50.0, (5, 25))
    assert not bin_model.moderate_check(1 / 3, 1.0, 50.0, (5, 25))
    assert bin_model.moderate_check(0.0, 2.0, 50.0, (5, 30))
    with pytest.raises(ValidationError):
        bin_model.moderate_check(1 / 3, 1.0, 0.5, (5, 10))


def test_moderate_check_skips_increments_within_the_evaluation_error(bin_model):
    # 41 of the 119 increments down to 2^-60 are at most 2*eps; at 2^-50 .. 2^-60 all are
    assert bin_model.moderate_check(1 / 3, 1.2075, 50.0, (5, 60))
    with pytest.raises(ValidationError, match="evaluation error"):
        bin_model.moderate_check(1 / 3, 1.2075, 50.0, (50, 60))


@pytest.mark.parametrize("alpha", [1100.0, 1000.0, 34.1, math.inf, -2000.0, -math.inf])
def test_probes_reject_an_alpha_whose_scale_powers_leave_the_normal_floats(bin_model, alpha):
    # (2^-j)^alpha underflows or overflows at some probed j: a ratio against it
    # would divide by zero, overflow, or compare against a rounded-off bound
    with pytest.raises(ValidationError, match="leaves the normal floats"):
        bin_model.holder_probe(1 / 3, alpha, 30)
    with pytest.raises(ValidationError, match="leaves the normal floats"):
        bin_model.moderate_check(1 / 3, alpha, 50.0, (5, 30))


def test_probes_take_an_alpha_whose_scale_powers_stay_normal(bin_model):
    # (2^-30)^34 = 2^-1020 is normal; the ratios are finite
    probe = bin_model.holder_probe(1 / 3, 34.0, 30)
    assert all(math.isfinite(r[3]) for r in probe.records)
    assert not bin_model.moderate_check(1 / 3, -34.0, 50.0, (5, 30))


@pytest.mark.parametrize("x,depths", [
    (5.0, (5, 25)), (-3.0, (5, 25)),           # x outside [u, v]
    (0.3, (25, 5)), (0.3, (0, 5)), (0.3, (-3, -1)), (0.3, (5, 61)),
])
def test_moderate_check_rejects_probing_nothing(bin_model, x, depths):
    with pytest.raises(ValidationError):
        bin_model.moderate_check(x, 1.0, 1.0, depths)


def test_moderate_check_rejects_scales_wider_than_the_interval(full2):
    half = LocallyConstantPotential.constant(full2, math.log(0.5))
    ifs = AffineIfs(spec=full2, interval=(0.0, 0.25),
                    rates=np.array([0.5, 0.5]), offsets=np.array([0.0, 0.125]))
    model = CdfModel(ifs, half)
    for probe in (lambda: model.moderate_check(0.125, 1.0, 1.0, (1, 2)),
                  lambda: model.holder_probe(0.125, 1.0, 2)):
        with pytest.raises(ValidationError, match="no admissible probe offsets"):
            probe()


def test_probe_consistency_at_fixed_points(bin_model):
    # at x = 1.0, the fixed point of symbol 1's map x/2 + 1/2, the exponent
    # is the cycle ratio
    probe = bin_model.holder_probe(1.0, 1.0, 30)
    expect = -math.log(0.75) / math.log(2.0)
    assert probe.exponent == pytest.approx(expect, abs=0.02)


# --------------------------------------------------------------------------
# spectrum hooks and certified points
# --------------------------------------------------------------------------

def test_alpha0_report(bin_model, lebesgue_model):
    rep = bin_model.alpha0_report()
    assert rep["alpha0"] == pytest.approx(ALPHA0, abs=1e-9)
    assert rep["spectrum_value"] == pytest.approx(rep["beta0"], abs=1e-8)
    assert lebesgue_model.alpha0() == pytest.approx(1.0, abs=1e-10)


def test_certified_point_passes_moderate_check(bin_model):
    point = bin_model.certified_point(ALPHA0, l=12, depth=4, seed=0)
    assert point.certificate.passed
    assert bin_model.moderate_check(point.x, ALPHA0, 1e3, (5, 20))


def test_certified_point_roots_the_zero_spectrum_once(bin_model, monkeypatch):
    # the README's certified-point: b0 = spectrum_at(0) is rooted once and
    # handed to the tree, which rooted it again (10 beta roots)
    from gibbsdim import thermo
    thermo._cap_probe.cache_clear()
    calls = []
    root = thermo._beta
    monkeypatch.setattr(thermo, "_beta", lambda *a: calls.append(a[0]) or root(*a))
    bin_model.certified_point(1.2075187, l=12, depth=4, seed=0)
    assert len(calls) == 6


def test_certified_point_repetition_freedom(bin_model, full2):
    point = bin_model.certified_point(ALPHA0, l=2, depth=4, seed=0)
    assert point.guaranteed_power > 0
    assert in_repetition_free_set(full2, point.word, point.pattern_words,
                                  point.guaranteed_power)
    assert point.window_constant == point.repetition_power * 1 + 2


def test_certified_point_sums_bounded(bin_model):
    point = bin_model.certified_point(ALPHA0, l=2, depth=5, seed=3)
    cert = point.certificate
    assert cert.prefix_ok
    assert cert.max_abs_prefix_sum <= cert.sum_bound


def test_certified_point_outside_range(bin_model):
    with pytest.raises(InfeasibleError):
        bin_model.certified_point(2.0)
    with pytest.raises(InfeasibleError):
        bin_model.certified_point(2.5)
