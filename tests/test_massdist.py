import math
import re
from collections import Counter

import numpy as np
import pytest

import helpers
from gibbsdim import (CapacityError, InfeasibleError, LocallyConstantPotential, NumericalError,
                      ValidationError, add_constant, alpha_range, build_mass_distribution,
                      choose_base_length, combine, full_dim_alpha, in_frequent_set,
                      spectrum_at, window_family)
from gibbsdim import massdist, sft


def small_dist(phi_pm, s=0.1):
    _, pm, psi = phi_pm
    return build_mass_distribution(pm, psi, s, [pm.spec.word("01")])


def centred_dist(depth, seed):
    """Tree of a seeded random model with phi and psi of depth d, phi shifted
    so that its cycle-ratio range is centred on zero; s = 0.05 * b(0)."""
    rng = np.random.default_rng(seed)
    spec = helpers.random_mixing_spec(rng, n=int(rng.integers(2, 4)))
    phi = helpers.random_potential(rng, spec, depth, scale=0.5)
    psi = add_constant(helpers.random_potential(rng, spec, depth, scale=0.2), 1.0)
    lo, hi = alpha_range(phi, psi)
    phi = combine(1.0, phi, (lo + hi) / 2, psi)
    b0 = spectrum_at(0.0, phi, psi).value
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(massdist, "BASE_LENGTH_CAP", 8)
        return build_mass_distribution(phi, psi, 0.05 * b0, [(0,)])


# (depth, seed): (3, 1) and (3, 11) are full shifts, the others have
# connectors of length 1 or 2; with shortest connectors, which differ in
# length, (2, 0) got stuck (every in-band candidate of a member clashed with
# a child chosen before it) and the prefix-clash test moved picks at (1, 2),
# (2, 2) and (2, 10)
TREE_MODELS = [(1, 2), (2, 0), (2, 2), (2, 10), (3, 1), (3, 11)]


# --------------------------------------------------------------------------
# base length selection
# --------------------------------------------------------------------------

def test_choose_base_length_worked_constants(phi_pm):
    _, pm, psi = phi_pm
    # overhead (2*0 + 5 + 2) * log 2 = 4.852, series value at m=1 is 6.238
    fam, logs = choose_base_length(pm, psi, 0.1, 0.6, postfix_norm=5, joined_len=2,
                                   infix_norm=0)
    assert fam.length == 1
    assert logs.tolist() == [-0.1 * math.log(2.0)] * 2
    value = (1 / 0.1) * math.log(2 * 2 ** -0.1)
    overhead = 7 * math.log(2)
    assert value == pytest.approx(6.2385, abs=1e-3)
    assert overhead == pytest.approx(4.8520, abs=1e-3)
    assert value > overhead


def test_choose_base_length_infeasible_above_dimension(phi_pm, monkeypatch):
    _, pm, psi = phi_pm
    monkeypatch.setattr(massdist, "BASE_LENGTH_CAP", 12)
    with pytest.raises(InfeasibleError):
        # at s >= 1 (the full dimension) the weighted series cannot diverge
        choose_base_length(pm, psi, 1.0, 0.6, 5, 2, 0)


def test_series_value_monotone_on_doubling(phi_pm):
    _, pm, psi = phi_pm
    s, bound = 0.1, 1.0
    values = []
    for m in (1, 2, 4, 8):
        fam = window_family(pm, bound, m)
        total = sum(math.exp(-s * psi.word_sum_bounds(w).sup) for w in fam.words)
        values.append(math.log(total) / s)
    assert values == sorted(values)


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def test_build_phi_pm(phi_pm):
    dist = small_dist(phi_pm)
    assert dist.base_length == 1
    assert len(dist.family.words) == 2
    assert dist.band == pytest.approx(1.0)           # 2V + |R||phi| + 1
    assert dist.source_band == pytest.approx(2.0)    # K + (2|R| + |joined|)|phi|
    assert dist.postfix.norm == 5
    assert dist.joined == phi_pm[0].word("01")


def test_build_shifted_bernoulli(bin14):
    spec, phi, psi = bin14
    a0 = full_dim_alpha(phi, psi)
    phi_a = combine(1.0, phi, a0, psi)
    dist = build_mass_distribution(phi_a, psi, 0.3, [spec.word("0")])
    assert dist.family.words
    masses = [dist.mass(w) for w in dist.family.words]
    assert sum(masses) == pytest.approx(1.0, abs=1e-12)


def test_build_takes_each_base_word_psi_bounds_once(monkeypatch):
    taken = []
    bounds = LocallyConstantPotential.word_sum_bounds

    def counted(self, word):
        taken.append((self, word))
        return bounds(self, word)

    monkeypatch.setattr(LocallyConstantPotential, "word_sum_bounds", counted)
    dist = centred_dist(2, 0)
    per_word = Counter(w for f, w in taken if f is dist.psi)
    assert dist.base_length > 1
    assert all(per_word[w] == 1 for w in dist.family.words)


def test_build_infeasible_one_sided(phi_neg):
    _, neg, psi = phi_neg
    with pytest.raises(InfeasibleError):
        build_mass_distribution(neg, psi, 0.1, [neg.spec.word("0")])


def test_build_rejects_s_at_dimension(phi_pm):
    _, pm, psi = phi_pm
    with pytest.raises(InfeasibleError):
        build_mass_distribution(pm, psi, 1.0, [pm.spec.word("01")])


# --------------------------------------------------------------------------
# masses
# --------------------------------------------------------------------------

def test_root_masses_symmetric(phi_pm):
    dist = small_dist(phi_pm)
    for w in dist.family.words:
        assert dist.mass(w) == pytest.approx(0.5, abs=1e-12)


def test_children_sum_to_parent(phi_pm):
    dist = small_dist(phi_pm)
    frontier = list(dist.family.words)
    for _ in range(3):
        nxt = []
        for parent in frontier:
            kids, _, _, _ = dist.children(parent)
            total = sum(dist.mass(k) for k in kids)
            assert total == pytest.approx(dist.mass(parent), rel=1e-12)
            nxt.extend(kids)
        frontier = nxt


def test_mass_replay_bit_identical(phi_pm):
    d1 = small_dist(phi_pm)
    d2 = small_dist(phi_pm)
    for k in (1, 2, 4):
        l1, l2 = d1.level(k), d2.level(k)
        assert l1.keys() == l2.keys()
        for w in l1:
            assert l1[w] == l2[w]  # exact equality, not approximate


def test_mass_rejects_foreign_words(phi_pm):
    dist = small_dist(phi_pm)
    with pytest.raises(ValidationError):
        dist.mass(phi_pm[0].word("0011"))
    with pytest.raises(ValidationError):
        dist.children((0, 2))  # symbol 2 is not in the alphabet


def test_levels_normalized_and_in_band(phi_pm):
    dist = small_dist(phi_pm)
    for k in range(1, 7):
        level = dist.level(k)
        assert sum(level.values()) == pytest.approx(1.0, rel=1e-12)
        for w in level:
            assert dist.phi.word_sum_bounds(w).within(dist.band)


def test_ratio_monotonicity_exhaustive(phi_pm):
    dist = small_dist(phi_pm)
    prev = None
    for k in range(1, 7):
        level = dist.level(k)
        worst = max(
            mass * math.exp(dist.s * dist.psi.word_sum_bounds(w).sup)
            for w, mass in level.items()
        )
        if prev is not None:
            assert worst <= prev * (1 + 1e-12)
        prev = worst


def test_mass_upper_bound_from_root_ratio(phi_pm):
    dist = small_dist(phi_pm)
    root_ratio = max(
        dist.mass(w) * math.exp(dist.s * dist.psi.word_sum_bounds(w).sup)
        for w in dist.family.words
    )
    for k in (2, 4, 6):
        for w, mass in dist.level(k).items():
            bound = math.exp(-dist.s * dist.psi.word_sum_bounds(w).sup) * root_ratio
            assert mass <= bound * (1 + 1e-12)


@pytest.mark.parametrize("depth,seed", TREE_MODELS)
def test_children_match_reference_at_depth(depth, seed):
    dist = centred_dist(depth, seed)
    phi, band = dist.phi, dist.band
    frontier = list(dist.family.words)
    for _ in range(3):
        nxt = []
        for parent in frontier:
            ref_words, ref_probs, ref_logs, ref_z = helpers.reference_children(dist, parent)
            words, probs, logs, z = dist.children(parent)
            assert words == ref_words
            assert probs.tobytes() == ref_probs.tobytes()
            assert logs.tobytes() == ref_logs.tobytes()
            assert z == ref_z
            for w in words:
                hi, lo = helpers.brute_sum_range(phi, w)
                assert phi.word_sum_bounds(w).within(band) == (hi <= band and lo >= -band)
            nxt.extend(words)
        frontier = nxt


@pytest.mark.parametrize("depth,seed", TREE_MODELS)
def test_children_match_reference_at_the_band_edge(depth, seed):
    """With the band moved onto the largest |sum| among a node's children, that
    child sits exactly on the edge: its sums must equal a full re-sum bit for
    bit for it to be picked again, as reference_children picks it."""
    dist = centred_dist(depth, seed)
    band = dist.band
    parents = list(dist.family.words)
    parents += [c for p in parents for c in helpers.reference_children(dist, p)[0][:4]]
    for parent in parents:
        dist.band = band
        ref = helpers.reference_children(dist, parent)
        bounds = [dist.phi.word_sum_bounds(w) for w in ref[0]]
        dist.band = max(max(b.sup, -b.inf) for b in bounds)
        assert dist.children(parent)[0] == ref[0]  # each parent is expanded here first


def test_children_raise_when_no_postfix_fits(phi_pm):
    dist = small_dist(phi_pm)
    dist.band = -1.0  # no sum lies in an empty band
    parent = dist.family.words[0]
    with pytest.raises(NumericalError, match=re.escape(
            f"parent length {len(parent)}, member {dist.family.words[0]}") + "$"):
        dist.children(parent)


@pytest.mark.parametrize("depth,seed", [(1, None)] + TREE_MODELS)
def test_sample_and_masses_follow_public_children(depth, seed, phi_pm):
    """sample, log_mass and certify agree with a walk through children()."""
    dist = small_dist(phi_pm) if seed is None else centred_dist(depth, seed)
    k = 5 if seed is None else 3
    for word_seed in range(6):
        cur = dist.sample(1, word_seed)
        log_mass = dist.log_mass(cur)
        rng = np.random.default_rng(word_seed)
        rng.random()  # the draw that picked the root word
        for gen in range(2, k + 1):
            words, probs, logs, _ = dist.children(cur)
            j = min(int(np.searchsorted(np.cumsum(probs), rng.random(), side="left")),
                    len(words) - 1)
            cur = words[j]
            log_mass += float(logs[j])
            assert dist.sample(gen, word_seed) == cur
            assert dist.log_mass(cur) == log_mass
        cert = dist.certify(cur)
        assert cert.log_mass == log_mass and cert.mass == math.exp(log_mass)
        assert cert.passed


@pytest.mark.parametrize("s", [0.1, 0.5])
def test_log_mass_rejects_words_off_the_tree(s, phi_pm):
    """A word that ends inside a child's stem, or follows the stem with another
    postfix, is not a tree word."""
    dist = small_dist(phi_pm, s)
    stem_len = 2 * dist.infixes.norm + dist.base_length + len(dist.joined)
    other_tau = 0
    parents = list(dist.family.words[:2])
    parents += [c for p in parents for c in dist.children(p)[0][:3]]
    for parent in parents:
        for child in dist.children(parent)[0]:
            stem_end = len(parent) + stem_len
            with pytest.raises(ValidationError):
                dist.log_mass(child[:stem_end - 1])
            if len(child) == stem_end:
                continue  # empty postfix: every extension is a descendant's prefix
            for b in dist.spec.successors(child[-2]):
                if b != child[-1]:
                    with pytest.raises(ValidationError):
                        dist.log_mass(child[:-1] + (b,))
                    other_tau += 1
    assert other_tau > 0


@pytest.mark.parametrize("depth,seed", [(1, None)] + TREE_MODELS)
def test_children_form_a_prefix_code(depth, seed, phi_pm):
    dist = small_dist(phi_pm) if seed is None else centred_dist(depth, seed)
    frontier = list(dist.family.words)
    for _ in range(3):
        nxt = []
        for parent in frontier:
            words = dist.children(parent)[0]
            assert len(set(words)) == len(words)
            for a in words:
                assert a[:len(parent)] == parent
                assert not any(b != a and b[:len(a)] == a for b in words)
            nxt.extend(words)
        frontier = nxt


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def test_sample_frequencies(phi_pm):
    dist = small_dist(phi_pm)
    counts = {w: 0 for w in dist.family.words}
    n = 10_000
    for seed in range(n):
        counts[dist.sample(1, seed)] += 1
    for w, c in counts.items():
        p = dist.mass(w)
        sigma = math.sqrt(p * (1 - p) * n)
        assert abs(c - p * n) <= 3 * sigma


def test_sample_fails_at_once_where_its_word_would_exceed_the_cap(phi_pm, monkeypatch):
    # a generation-k word holds at least base_length + (k - 1) stems, each a
    # connector, a base word, a connector and the joined word
    dist = small_dist(phi_pm)
    stem = 2 * dist.infixes.norm + dist.base_length + len(dist.joined)
    assert min(len(dist.sample(3, seed)) for seed in range(20)) >= dist.base_length + 2 * stem
    monkeypatch.setattr(sft, "WORD_CAP", dist.base_length + 2 * stem - 1)
    assert len(dist.sample(2, 0)) >= dist.base_length + stem
    with pytest.raises(CapacityError, match="generation-3 word is longer than the cap"):
        dist.sample(3, 0)


def test_sample_deterministic_and_progressive(phi_pm):
    dist = small_dist(phi_pm)
    w5 = dist.sample(5, seed=9)
    assert dist.sample(5, seed=9) == w5
    w7 = dist.sample(7, seed=9)
    assert w7[:len(w5)] == w5  # deeper draws extend the same branch
    assert dist.phi.word_sum_bounds(w5).within(dist.band)


# --------------------------------------------------------------------------
# certificates
# --------------------------------------------------------------------------

def test_certificate_contents(phi_pm):
    _, pm, psi = phi_pm
    dist = build_mass_distribution(pm, psi, 0.5, [pm.spec.word("01")])
    assert dist.prefix_sum_bound == pytest.approx(
        dist.source_band + dist.postfix.norm * pm.sup_norm())
    for seed in range(5):
        cert = dist.certify(dist.sample(5, seed))
        assert cert.passed
        assert cert.max_abs_prefix_sum <= cert.sum_bound
        assert cert.window_ok and cert.band_ok
        assert 0 < cert.mass < 1


def test_certificate_window_property(phi_pm):
    dist = small_dist(phi_pm)
    w = dist.sample(6, seed=1)
    assert in_frequent_set(w, [dist.joined], dist.window_length)


def test_certificate_local_dimension(phi_pm):
    _, pm, psi = phi_pm
    dist = build_mass_distribution(pm, psi, 0.5, [pm.spec.word("01")])
    for seed in range(10):
        cert = dist.certify(dist.sample(8, seed))
        assert cert.local_dim >= dist.s - 0.05
