import math
from dataclasses import replace

import numpy as np
import pytest

import helpers
from gibbsdim import (CapacityError, InfeasibleError, LocallyConstantPotential,
                      ValidationError, boundary_words, build_mass_distribution,
                      build_postfix_set, counterexample_word, in_frequent_set,
                      in_repetition_free_set, separating_word, spectrum_at,
                      verify_postfix, window_family, word_power)
from gibbsdim import massdist, sft, wordsets


# --------------------------------------------------------------------------
# window families
# --------------------------------------------------------------------------

def test_window_family_oracles(bin14, phi_pm):
    spec, phi, _ = bin14
    f1 = window_family(phi, 1.5, 1)
    assert f1.words == (spec.word("0"), spec.word("1"))
    f2 = window_family(phi, 1.5, 2)
    assert f2.words == (spec.word("11"),)
    _, pm, _ = phi_pm
    fpm = window_family(pm, 0.6, 2)
    assert fpm.words == (spec.word("01"), spec.word("10"))


@pytest.mark.parametrize("trial", range(4))
def test_window_family_matches_filter(trial):
    rng = np.random.default_rng(100 + trial)
    spec = helpers.random_mixing_spec(rng, n=3)
    for depth in (1, 2, 3):
        phi = helpers.random_potential(rng, spec, depth)
        bound = float(rng.uniform(0.5, 2.5))
        for m in range(1, 8):
            fam = window_family(phi, bound, m)
            expect = tuple(
                w for w in spec.words(m) if phi.word_sum_bounds(w).within(bound)
            )
            assert fam.words == expect


@pytest.mark.parametrize("trial", range(4))
def test_window_walk_yields_each_length_with_its_run(trial):
    rng = np.random.default_rng(200 + trial)
    spec = helpers.random_mixing_spec(rng, n=3)
    phi = helpers.random_potential(rng, spec, int(rng.integers(1, 4)))
    bound = float(rng.uniform(0.5, 2.5))
    lo, hi = int(rng.integers(1, 4)), 7
    by_length = {}
    walk = wordsets._window_walk(phi, bound, lo, hi, sft.WORD_CAP)
    for m, (keys, state, run, words) in enumerate(walk, start=lo):
        ws = by_length[m] = words(np.arange(len(state)))
        for w, k, r in zip(ws, state, run.tolist()):
            assert len(w) == m and w[-len(keys[k]):] == keys[k]
            assert r.hex() == phi.window_sums(w)[0].hex()
    assert sorted(by_length) == list(range(lo, hi + 1))
    for m, ws in by_length.items():
        assert tuple(ws) == window_family(phi, bound, m).words
    # the cap counts the words of each length, not of the whole walk
    most = max(len(ws) for ws in by_length.values())
    assert sum(len(level[1]) for level in wordsets._window_walk(phi, bound, lo, hi, most)) > most
    with pytest.raises(CapacityError):
        window_family(phi, bound, hi, cap=len(by_length[hi]) - 1)


def test_window_bound_must_be_a_positive_number(phi_pm):
    _, pm, _ = phi_pm
    for bound in (0.0, -1.0, math.nan):
        with pytest.raises(ValidationError, match="window bound must be positive"):
            window_family(pm, bound, 16)
    # an infinite source band would run the drift search to DRIFT_STEP_CAP
    for source_band in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="source band must be positive"):
            build_postfix_set(pm, source_band, 0.6)


def test_a_walk_fails_at_once_where_its_pruning_tables_exceed_the_cap(phi_pm, monkeypatch):
    # one table of 2 floats per length on phipm: m = 10^9 built tables for
    # more than 8 s before its first level
    _, pm, _ = phi_pm
    pset = build_postfix_set(pm, 2.0, 0.6)
    monkeypatch.setattr(sft, "WORD_CAP", 100)
    with pytest.raises(CapacityError, match="candidate words of length 7"):
        window_family(pm, 0.6, 50)   # the tables fit, so the walk starts
    for walk in (lambda: window_family(pm, 0.6, 51), lambda: verify_postfix(pset, pm, 51)):
        with pytest.raises(CapacityError, match="51 pruning tables of 2 states exceed the cap 100"):
            walk()


def test_a_loose_family_fails_its_level_cap_in_bounded_memory():
    """Each length of the walk holds at most sft.WORD_CAP candidate words, so
    a loose family raises CapacityError before it grows: on phipm at K = 2 the
    length-29 family has ~2.9e8 words.  Run in a child under an address-space
    limit, so that a regression fails here instead of exhausting memory."""
    out, maxrss_kib = helpers.run_limited(
        "import time, tracemalloc\n"
        "import helpers\n"
        "from gibbsdim import CapacityError, sft, window_family\n"
        "_, pm, _ = helpers.phi_pm()\n"
        "sft.WORD_CAP = 50_000\n"
        "tracemalloc.start()\n"
        "start = time.perf_counter()\n"
        "try:\n"
        "    window_family(pm, 2.0, 29)\n"
        "except CapacityError as exc:\n"
        "    print('capacity', exc)\n"
        "print(tracemalloc.get_traced_memory()[1], time.perf_counter() - start)\n")
    verdict, figures = out.splitlines()
    assert verdict.startswith("capacity") and "exceed the cap 50000" in verdict
    peak, seconds = figures.split()
    assert int(peak) < 8 * 2**20
    assert float(seconds) < 10.0
    assert maxrss_kib < 512 * 2**10


# --------------------------------------------------------------------------
# the postfix family and its verification
# --------------------------------------------------------------------------

def test_postfix_phi_pm(phi_pm):
    spec, pm, _ = phi_pm
    pset = build_postfix_set(pm, 2.0, 0.6)
    runs = {spec.word("0") * k for k in range(1, 6)}
    runs |= {spec.word("1") * k for k in range(1, 6)}
    runs.add(())
    assert set(pset.words) == runs
    assert pset.norm == 5


def test_postfix_infeasible_cases(phi_neg, phi_pm):
    _, neg, _ = phi_neg
    with pytest.raises(InfeasibleError):
        build_postfix_set(neg, 2.0, 1.0)  # one-sided drift only
    _, pm, _ = phi_pm
    with pytest.raises(InfeasibleError):
        build_postfix_set(pm, 2.0, 0.0)  # band below the hypothesis threshold


def gold_edge_phi():
    gspec = helpers.gold()
    return LocallyConstantPotential.from_table(
        gspec, 2,
        {gspec.word("00"): -0.5, gspec.word("01"): 0.5, gspec.word("10"): 0.5})


def depth3_phi():
    spec = helpers.full2()
    table = {"000": -0.5, "001": -0.25, "010": -0.5, "011": -0.75,
             "100": 0.5, "101": 0.75, "110": 0.5, "111": 0.25}
    return LocallyConstantPotential.from_table(
        spec, 3, {spec.word(k): v for k, v in table.items()})


def truncated(pset, keep):
    return replace(pset, words=tuple(w for w in pset.words if keep(w)))


def assert_matches_brute_verify(report, pset, phi, max_len):
    brute = helpers.reference_verify_postfix(pset, phi, max_len)
    assert (report.passed, report.checked, report.failures) == brute


def test_postfix_verification_exhaustive(phi_pm):
    _, pm, _ = phi_pm
    gold_phi = gold_edge_phi()
    phi3 = depth3_phi()
    for phi, pset, max_len in ((pm, build_postfix_set(pm, 2.0, 0.6), 10),
                               (gold_phi, build_postfix_set(gold_phi, 4.0, 3.0), 12),
                               (phi3, build_postfix_set(phi3, 3.0, 2.0), 10)):
        report = verify_postfix(pset, phi, max_len)
        assert report.passed
        assert report.checked > 0
        assert_matches_brute_verify(report, pset, phi, max_len)


def test_postfix_verification_catches_truncation(phi_pm):
    spec, pm, _ = phi_pm
    pset = build_postfix_set(pm, 2.0, 0.6)
    # drop the whole descending family: words of positive sum become unfixable
    cut = truncated(pset, lambda w: 0 not in w)
    report = verify_postfix(cut, pm, 6)
    assert not report.passed
    assert any(set(w) == {1} for w in report.failures)
    assert_matches_brute_verify(report, cut, pm, 6)
    # depth 2: without the words that hold 00, rising sums stay unfixable
    gold_phi = gold_edge_phi()
    cut = truncated(build_postfix_set(gold_phi, 4.0, 3.0),
                    lambda w: (0, 0) not in zip(w, w[1:]))
    report = verify_postfix(cut, gold_phi, 9)
    assert not report.passed
    assert_matches_brute_verify(report, cut, gold_phi, 9)
    # depth 3: failures of several lengths, more than the report keeps
    phi3 = depth3_phi()
    for keep in (lambda w: 0 not in w, lambda w: (0, 0) not in zip(w, w[1:])):
        cut = truncated(build_postfix_set(phi3, 3.0, 2.0), keep)
        report = verify_postfix(cut, phi3, 10)
        assert not report.passed
        assert len({len(w) for w in report.failures}) > 1
        assert_matches_brute_verify(report, cut, phi3, 10)


def test_verify_postfix_walks_the_word_tree_once(monkeypatch, phi_pm):
    _, pm, _ = phi_pm
    pset = build_postfix_set(pm, 2.0, 0.6)
    walk, lengths = wordsets._window_walk, []

    def counted(phi, bound, lo, hi, cap):
        lengths.append((lo, hi, cap))
        return walk(phi, bound, lo, hi, cap)

    def forbidden(*args, **kwargs):
        raise AssertionError("verify_postfix enumerated through window_family")

    monkeypatch.setattr(wordsets, "_window_walk", counted)
    monkeypatch.setattr(wordsets, "window_family", forbidden)
    assert verify_postfix(pset, pm, 10).passed
    assert lengths == [(1, 10, sft.WORD_CAP)]


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_verify_postfix_matches_reference_on_random_models(depth):
    """The array check against the brute-force oracle on seeded models at a
    tight band, whole and cut down (fewer words, a narrower target band) so
    that many reports fail and their witness lists are compared."""
    rng = np.random.default_rng(700 + depth)
    compared = failing = 0
    while compared < 10:
        spec = helpers.random_mixing_spec(rng, n=int(rng.integers(2, 4)))
        phi = helpers.random_potential(rng, spec, depth, scale=float(rng.uniform(0.3, 1.5)))
        band = 2.0 * phi.distortion() + spec.connecting_words().norm * phi.sup_norm() + 0.1
        try:
            pset = build_postfix_set(phi, band + float(rng.uniform(0.5, 3.0)), band)
        except InfeasibleError:
            continue
        compared += 1
        max_len = 6 if spec.n == 3 else 8
        for cut in (pset, truncated(pset, lambda w: 0 not in w),
                    replace(pset, words=pset.words[:3], band=band / 2)):
            report = verify_postfix(cut, phi, max_len)
            assert_matches_brute_verify(report, cut, phi, max_len)
            failing += not report.passed
    assert failing >= 5


def folded_first_landing(run, ends, terms, band):
    """Oracle: per row, each postfix in turn, its run plus the end's columns
    up to the postfix's length one float at a time; the first that lands, or
    -1."""
    values, bounds, lengths = terms
    picks = []
    for r, e in zip(run.tolist(), ends.tolist()):
        pick = -1
        for t in range(values.shape[2]):
            acc = r
            for col in values[:lengths[t], e, t].tolist():
                acc += col
            if acc + bounds[0, e, t] <= band and acc + bounds[1, e, t] >= -band:
                pick = t
                break
        picks.append(pick)
    return np.array(picks, dtype=int)


@pytest.mark.parametrize("cap", [8, wordsets.LANDING_CELL_CAP])
def test_first_landing_matches_a_row_by_row_fold(cap, monkeypatch):
    """Seeded term tables through passes of every width the cap allows,
    against the oracle; some rows land on no postfix.  Each postfix has its
    own length, 0.0 past it as in ``term_table``, and postfix 0 is empty in
    some tables and not in others."""
    monkeypatch.setattr(wordsets, "LANDING_CELL_CAP", cap)
    rng = np.random.default_rng(29)
    unlanded = late = 0
    empty_first = set()
    for _ in range(300):
        n_cols, n_ends, n_taus = (int(rng.integers(0, 7)), int(rng.integers(1, 5)),
                                  int(rng.integers(1, 13)))
        lengths = tuple(rng.integers(0, n_cols + 1, n_taus).tolist())
        values = np.where(np.arange(n_cols)[:, None, None] < np.array(lengths),
                          rng.uniform(-1.0, 1.0, (n_cols, n_ends, n_taus)), 0.0)
        sup = rng.uniform(0.0, 0.5, (n_ends, n_taus))
        terms = (values, np.stack([sup, sup - rng.uniform(0.0, 0.5, (n_ends, n_taus))]),
                 lengths)
        empty_first.add(lengths[0] == 0)
        rows = int(rng.integers(0, min(3 * cap + 2, 600)))
        run, ends = rng.uniform(-3.0, 3.0, rows), rng.integers(0, n_ends, rows)
        band = float(rng.uniform(0.3, 1.5))
        picks = wordsets.first_landing(run, ends, terms, band)
        assert np.array_equal(picks, folded_first_landing(run, ends, terms, band))
        unlanded += int((picks < 0).sum())
        late += int((picks > 1).sum())
    assert unlanded and late and empty_first == {False, True}


def first_landing_passes(monkeypatch, work):
    """Per ``first_landing`` call during ``work()``: (rows, per pass the
    postfix columns, the row x postfix cells and the value columns it
    added)."""
    calls, add_terms, first_landing = [], wordsets.add_terms, wordsets.first_landing

    def recorded_add(acc, values):
        columns = 1 if np.ndim(values) == 2 else np.shape(values)[2]
        calls[-1][1].append((columns, np.shape(values)[1] * columns, len(values)))
        return add_terms(acc, values)

    def recorded_landing(run, *args):
        calls.append((len(run), []))
        return first_landing(run, *args)

    monkeypatch.setattr(wordsets, "add_terms", recorded_add)
    monkeypatch.setattr(wordsets, "first_landing", recorded_landing)
    monkeypatch.setattr(massdist, "first_landing", recorded_landing)
    work()
    monkeypatch.undo()
    return calls


def test_first_landing_passes_stay_under_the_cell_cap(monkeypatch, phi_pm):
    """The first pass of a call tests the empty postfix alone, one postfix
    column per row, and adds no value column; no pass adds more than
    ``LANDING_CELL_CAP`` cells or more value columns than the longest
    postfix has symbols, and some pass adds several postfixes at once."""
    spec, pm, psi = phi_pm
    pset = build_postfix_set(pm, 2.0, 0.6)
    dist = build_mass_distribution(pm, psi, 0.5 * spectrum_at(0.0, pm, psi).value,
                                   [spec.word("01")])
    cap = wordsets.LANDING_CELL_CAP
    checks = first_landing_passes(monkeypatch, lambda: verify_postfix(pset, pm, 16))
    node = first_landing_passes(monkeypatch, lambda: dist.children(dist.family.words[0]))
    assert max(rows for rows, _ in checks) > cap and len(node) == 1
    for calls, norm in ((checks, pset.norm), (node, dist.postfix.norm)):
        for rows, passes in calls:
            assert passes[0] == (1, min(rows, cap), 0)
            assert all(cells <= cap and added <= norm for _, cells, added in passes)
        assert any(columns > 1 for _, passes in calls for columns, _, _ in passes)


def test_verify_postfix_rejects_nonpositive_max_len(phi_pm):
    _, pm, _ = phi_pm
    pset = build_postfix_set(pm, 2.0, 0.6)
    for max_len in (0, -3):
        with pytest.raises(ValidationError):
            verify_postfix(pset, pm, max_len)


def test_postfix_vacuous_when_source_family_empty(phi_pm):
    _, pm, _ = phi_pm
    pset = build_postfix_set(pm, 0.1, 0.6)
    report = verify_postfix(pset, pm, 1)
    assert report.passed and report.checked == 0


def test_postfix_band_must_exceed_half_a_drift_step(full2):
    # full 2-shift at depth 1: no distortion and no connectors, so only the
    # step bound applies; a first crossing of [-0.1, 0.1] can move by 0.689
    # and step over it (verify_postfix fails 32 source words at max_len 8)
    phi = LocallyConstantPotential.from_values(full2, np.array([0.276, -0.689]))
    with pytest.raises(InfeasibleError, match=r"norm/2 \+ distortion\) = 0.3445"):
        build_postfix_set(phi, 2.331, 0.1)
    assert verify_postfix(build_postfix_set(phi, 2.331, 0.35), phi, 8).passed


def test_postfix_on_golden_spec_edges():
    phi = gold_edge_phi()
    # hypothesis floor: 2*distortion + |connectors|*norm = 2.5 for these weights
    pset = build_postfix_set(phi, 4.0, 3.0)
    report = verify_postfix(pset, phi, 12)
    assert report.passed
    # 11 is forbidden on the golden mean shift: no tau starting with 1 follows a 1
    taus = ((), (0,), (1,), (1, 0))
    assert replace(pset, words=taus).followers(phi.spec) == (taus, ((), (0,)))
    with pytest.raises(ValidationError):
        verify_postfix(replace(pset, words=((), (1, 1))), phi, 4)


# --------------------------------------------------------------------------
# membership checkers
# --------------------------------------------------------------------------

def test_frequent_set(full2):
    w01 = full2.word("01")
    seq = full2.word("01" * 7)
    assert in_frequent_set(seq, [w01], 3)
    assert not in_frequent_set(full2.word("0" * 14), [w01], 3)
    assert in_frequent_set(seq, [w01, full2.word("10")], 3)
    assert in_frequent_set(full2.word("0"), [w01], 3)  # no full window: vacuous
    with pytest.raises(ValidationError):
        in_frequent_set(seq, [full2.word("0101")], 3)


def test_frequent_set_matches_a_window_scan():
    """Occurrence gaps against a scan of every window for every word, on
    two symbols, so occurrences overlap (01010 holds 010 at 0 and 2):
    prefixes shorter than the window, families of one and two words."""
    rng = np.random.default_rng(33)
    seen = set()
    for _ in range(4000):
        n, k = int(rng.integers(0, 20)), int(rng.integers(1, 8))
        prefix = tuple(rng.integers(0, 2, n).tolist())
        fam = [tuple(rng.integers(0, 2, int(rng.integers(1, min(k, 3) + 1))).tolist())
               for _ in range(int(rng.integers(1, 3)))]
        frequent = all(any(prefix[j:j + len(w)] == w for j in range(i, i + k - len(w) + 1))
                       for i in range(n - k + 1) for w in fam)
        assert in_frequent_set(prefix, fam, k) is frequent, (prefix, fam, k)
        seen.add((n < k, len(fam), frequent))
    assert seen == {(True, 1, True), (True, 2, True)} | {
        (False, size, frequent) for size in (1, 2) for frequent in (False, True)}
    assert in_frequent_set((0, 1, 0, 1, 0), [(0, 1, 0)], 4)
    assert not in_frequent_set((0, 1, 0, 0, 1, 0), [(0, 1, 0)], 4)


def test_repetition_free_set(full2):
    seq = full2.word("01" * 7)
    assert in_repetition_free_set(full2, seq, [full2.word("0")], 2)
    assert not in_repetition_free_set(full2, full2.word("0110011"), [full2.word("1")], 2)
    assert not in_repetition_free_set(full2, seq, [full2.word("01")], 7)
    assert not in_repetition_free_set(full2, full2.word("0101"), [full2.word("01")], 2)
    assert in_repetition_free_set(full2, full2.word("0101"), [full2.word("01")], 3)
    with pytest.raises(ValidationError):
        in_repetition_free_set(helpers.gold(), seq, [full2.word("1")], 2)


def test_membership_checkers_take_symbols_past_255():
    # symbols 0 and 256 share their low byte, so a byte encoding either
    # raises or confuses them
    spec = sft.SftSpec(alphabet=tuple(range(257)), incidence=np.ones((257, 257), dtype=bool))
    rng = np.random.default_rng(5)
    symbols = (0, 1, 255, 256)

    def draw(n):
        return tuple(int(s) for s in rng.choice(symbols, n))

    def occurs(w, text):
        return any(text[i:i + len(w)] == w for i in range(len(text) - len(w) + 1))

    seen = set()
    for _ in range(300):
        prefix = draw(rng.integers(0, 16))
        fam = [draw(rng.integers(1, 3)) for _ in range(rng.integers(1, 3))]
        k, l = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        frequent = all(occurs(w, prefix[i:i + k])
                       for i in range(len(prefix) - k + 1) for w in fam)
        free = not any(occurs(w * l, prefix) for w in fam)
        assert in_frequent_set(prefix, fam, k) is frequent, (prefix, fam, k)
        assert in_repetition_free_set(spec, prefix, fam, l) is free, (prefix, fam, l)
        seen.add((frequent, free))
    assert seen == {(a, b) for a in (False, True) for b in (False, True)}


def test_a_power_longer_than_the_prefix_is_not_built():
    """A power longer than the prefix cannot occur in it, so the check skips
    it: at l = 10^9 building it would take gigabytes.  Run in a child under an
    address-space limit, so that a regression fails here."""
    out, _ = helpers.run_limited(
        "import helpers\n"
        "from gibbsdim import in_repetition_free_set\n"
        "spec = helpers.full2()\n"
        "print(in_repetition_free_set(spec, spec.word('0110'), [spec.word('01')], 10**9))\n")
    assert out.split() == ["True"]


# --------------------------------------------------------------------------
# boundary words
# --------------------------------------------------------------------------

def test_boundary_words_full_shift(full2):
    bw = boundary_words((0, 1), full2)
    assert bw.y_minus == (full2.word("0"),)
    assert bw.y_plus == (full2.word("1"),)


def test_boundary_words_gold():
    gspec = helpers.gold()
    bw = boundary_words((0, 1), gspec)
    assert bw.y_minus == (gspec.word("0"),)
    assert set(bw.y_plus) == {gspec.word("01"), gspec.word("10")}
    for w in bw.all_words:
        assert gspec.is_cyclically_admissible(w)


def test_boundary_words_are_every_rotation_of_every_successor_cycle():
    # brute: a symbol on a cycle of nxt returns to itself within n steps, and
    # its walk until then is the rotation of that cycle that starts at it
    rng = np.random.default_rng(37)
    for _ in range(24):
        spec = helpers.random_mixing_spec(rng)
        bw = boundary_words(tuple(rng.permutation(spec.n)), spec)
        for nxt, fam in ((bw.left_successor, bw.y_minus), (bw.right_successor, bw.y_plus)):
            brute = set()
            for a in range(spec.n):
                walk = [a]
                while len(walk) <= spec.n and nxt[walk[-1]] != a:
                    walk.append(nxt[walk[-1]])
                if len(walk) <= spec.n:
                    brute.add(tuple(walk))
            assert set(fam) == brute
            assert list(fam) == sorted(brute, key=lambda w: (len(w), w))


def test_boundary_words_cover_cycles():
    rng = np.random.default_rng(31)
    for _ in range(20):
        spec = helpers.random_mixing_spec(rng)
        order = tuple(rng.permutation(spec.n))
        bw = boundary_words(order, spec)
        for nxt, fam in ((bw.left_successor, bw.y_minus), (bw.right_successor, bw.y_plus)):
            # out-degree one by construction; family words trace its cycles
            assert set(nxt) == set(range(spec.n))
            cycle_vertices = {v for w in fam for v in w}
            walk_end = set()
            for start in range(spec.n):
                cur = start
                for _ in range(spec.n + 1):
                    cur = nxt[cur]
                walk_end.add(cur)
            assert walk_end <= cycle_vertices
            for w in fam:
                for i, a in enumerate(w):
                    assert nxt[a] == w[(i + 1) % len(w)]


# --------------------------------------------------------------------------
# separating words
# --------------------------------------------------------------------------

def test_separating_word_oracles(full2):
    assert separating_word(full2, [full2.word("0"), full2.word("1")]) == full2.word("01")
    assert separating_word(full2, [full2.word("01")]) == full2.word("00")


def test_separating_word_avoids_periodic_orbits(full2):
    rng = np.random.default_rng(8)
    for _ in range(20):
        fam = []
        while not fam:
            fam = [tuple(rng.integers(0, 2, size=int(rng.integers(1, 4))))
                   for _ in range(int(rng.integers(1, 3)))]
        star = separating_word(full2, fam)
        for w in fam:
            big = word_power(full2, w, 12)
            for shift in range(len(big) - len(star)):
                assert big[shift:shift + len(star)] != star
            # equivalently: star is not a subword of the repeated pattern
            assert star not in [big[i:i + len(star)] for i in range(len(big) - len(star) + 1)]


# --------------------------------------------------------------------------
# drift counterexample
# --------------------------------------------------------------------------

def test_counterexample_phi_neg(phi_neg):
    spec, phi, psi = phi_neg
    w = counterexample_word(phi, psi)
    assert w == spec.word("0")
    c_minus = 0.0
    assert phi.word_sum_bounds(w).sup < -c_minus - 1.0


def test_counterexample_drift(phi_neg):
    spec, phi, _ = phi_neg
    # interleaving the word with admissible filler drives the sums down linearly
    for k in (1, 3, 7, 10):
        prefix = spec.word("01") * k
        assert phi.birkhoff_sum(prefix, 2 * k) == pytest.approx(-k * math.log(3), abs=1e-12)
    assert in_frequent_set(spec.word("01" * 7), [spec.word("0")], 2)


def test_counterexample_infeasible(phi_pm):
    _, pm, psi = phi_pm
    with pytest.raises(InfeasibleError):
        counterexample_word(pm, psi)


def test_counterexample_mirrored_case(phi_neg):
    spec, phi, psi = phi_neg
    from gibbsdim import combine
    pos = combine(-1.0, phi, 0.0, phi)  # ratio range now has the zero at the top
    w = counterexample_word(pos, psi)
    # the drift certificate is mirrored: strongly positive sums on the cylinder
    neg_of = combine(-1.0, pos, 0.0, pos)
    assert neg_of.word_sum_bounds(w).sup < -1.0
