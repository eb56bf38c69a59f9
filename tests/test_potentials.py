import math

import numpy as np
import pytest

import helpers
from gibbsdim import (InsufficientContextError, LocallyConstantPotential, SftSpec,
                      ValidationError, combine, cylinder_diam_psi, cylinder_log_diam_psi,
                      d_psi)
from gibbsdim.potentials import add_terms


def test_table_must_cover_admissible_words(gold):
    with pytest.raises(ValidationError):
        LocallyConstantPotential.from_table(gold, 2, {gold.word("00"): 1.0})
    with pytest.raises(ValidationError):
        LocallyConstantPotential.from_table(
            gold, 2,
            {gold.word("00"): 1.0, gold.word("01"): 1.0, gold.word("10"): 1.0,
             (1, 1): 1.0})


@pytest.mark.parametrize("seed", range(4))
def test_hash_and_minimum_are_the_textbook_formulas(seed):
    # both are kept from construction; the objects are immutable
    rng = np.random.default_rng(seed)
    spec = helpers.random_mixing_spec(rng)
    phi = helpers.random_potential(rng, spec, int(rng.integers(1, 4)))
    assert hash(spec) == hash((spec.alphabet, spec.incidence.tobytes()))
    assert hash(phi) == hash((spec, phi.depth, phi.entries))
    assert phi.min_value() == min(v for _, v in phi.entries)
    assert not spec.incidence.flags.writeable
    twin = LocallyConstantPotential.from_table(type(spec)(spec.alphabet, spec.incidence),
                                               phi.depth, dict(phi.entries))
    assert twin == phi and hash(twin) == hash(phi) and twin is not phi


def test_birkhoff_sum(bin14):
    spec, phi, _ = bin14
    assert phi.birkhoff_sum(spec.word("011"), 2) == pytest.approx(math.log(3 / 16), abs=1e-12)
    assert phi.birkhoff_sum(spec.word("0"), 0) == 0.0
    gspec, gphi = helpers.gold_edge_potential()
    assert gphi.birkhoff_sum(gspec.word("010"), 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InsufficientContextError):
        gphi.birkhoff_sum(gspec.word("01"), 2)


def test_birkhoff_additivity(bin14):
    spec, phi, _ = bin14
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = tuple(rng.integers(0, 2, size=12))
        n, m = 4, 6
        total = phi.birkhoff_sum(w, n + m)
        assert total == pytest.approx(
            phi.birkhoff_sum(w, n) + phi.birkhoff_sum(w[n:], m), abs=1e-12)


def test_word_sum_bounds(bin14):
    spec, phi, _ = bin14
    b = phi.word_sum_bounds(spec.word("01"))
    assert b.sup == b.inf == pytest.approx(math.log(3 / 16), abs=1e-12)
    gspec, gphi = helpers.gold_edge_potential()
    b0 = gphi.word_sum_bounds(gspec.word("0"))
    assert (b0.sup, b0.inf) == (2.0, 1.0)
    b10 = gphi.word_sum_bounds(gspec.word("10"))
    assert (b10.sup, b10.inf) == (1.0, 0.0)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_word_sum_bounds_against_brute_force(depth):
    rng = np.random.default_rng(depth)
    spec = helpers.random_mixing_spec(rng, n=3)
    phi = helpers.random_potential(rng, spec, depth)
    for n in range(1, 7):
        for w in spec.words(n):
            hi, lo = helpers.brute_sum_range(phi, w)
            b = phi.word_sum_bounds(w)
            assert b.sup == pytest.approx(hi, abs=1e-12)
            assert b.inf == pytest.approx(lo, abs=1e-12)


def random_admissible_word(rng, spec, length):
    word = (int(rng.integers(spec.n)),)
    while len(word) < length:
        word += (int(rng.choice(spec.successors(word[-1]))),)
    return word


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_window_sums_extend_a_prefix_bit_for_bit(depth):
    """A prefix's run plus the term-table columns of each extension (suffixes
    of every length in one table, so the shorter ones are padded) equals the
    whole word's sums bit for bit, with its padding or without it."""
    rng = np.random.default_rng(60 + depth)
    for _ in range(6):
        spec = helpers.random_mixing_spec(rng)
        phi = helpers.random_potential(rng, spec, depth, scale=3.0)
        for length in (1, 2, 3, 7, 16):
            word = random_admissible_word(rng, spec, length)
            for i in range(length + 1):
                run = phi.window_sums(word[:i])[0]
                ext = tuple(word[i:k] for k in range(i, length + 1))
                values, bounds, lengths = phi.term_table((phi.automaton.state(word[:i]),), ext)
                assert lengths == tuple(len(w) for w in ext)
                for k, suffix in enumerate(ext):
                    acc = add_terms(run, values[:, 0, k])
                    assert acc.hex() == add_terms(run, values[:lengths[k], 0, k]).hex()
                    whole = phi.word_sum_bounds(word[:i] + suffix)
                    assert ([(acc + b).hex() for b in bounds[:, 0, k]]
                            == [whole.sup.hex(), whole.inf.hex()])


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_overhang_bounds_equal_the_left_fold_oracle_bit_for_bit(depth):
    rng = np.random.default_rng(90 + depth)
    specs = [helpers.random_mixing_spec(rng, n=int(rng.integers(2, 4))) for _ in range(3)]
    for spec in specs + [helpers.period3()]:
        # quarter steps make some sums cancel to an exact zero
        for quantize in (None, 4):
            phi = helpers.random_potential(rng, spec, depth, scale=3.0, quantize=quantize)
            for n in range(depth + 1):
                for w in spec.words(n):
                    got = phi.automaton.over[:, phi.automaton.state(w)].tolist()
                    want = helpers.brute_overhang(phi, w)
                    assert [x.hex() for x in got] == [x.hex() for x in want], w


def fold_rows(phi, starts, rows):
    """(run, sup, inf) per row: ``phi.fold``'s columns of the ragged ``rows``
    from the states ``starts``, added to each start word's run in order."""
    a = phi.automaton
    lengths = np.array([len(r) for r in rows])
    padded = np.zeros((len(rows), lengths.max()), dtype=int)
    for i, r in enumerate(rows):
        padded[i, :len(r)] = r
    values = np.empty(padded.shape[::-1])
    state = phi.fold(padded, starts, lengths, values)[1]
    run = add_terms(np.array([phi.window_sums(a.words[u])[0] for u in starts]), values)
    sup, inf = a.over[:, state]
    return run, run + sup, run + inf


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_fold_matches_window_sums_and_the_brute_sums_bit_for_bit(depth):
    """Ragged rows, one-symbol words among them, from every state of the
    automaton, the empty word's included: the fold gives ``window_sums`` of
    the whole word by ``float.hex``, and so does a brute left fold of the
    word's windows; the cylinder bounds equal ``brute_sum_range`` by
    ``float.hex`` where the arithmetic is exact (quarter steps, or depth 1,
    where no window slides off), to 1e-12 elsewhere."""
    rng = np.random.default_rng(300 + depth)
    for quantize in (None, 4, None, 4):
        spec = helpers.random_mixing_spec(rng, n=int(rng.integers(2, 4)))
        phi = helpers.random_potential(rng, spec, depth, scale=3.0, quantize=quantize)
        a = phi.automaton
        starts, rows = [], []
        for u, start in enumerate(a.words):
            for length in (1, 1, 2, 5, 9):
                word = start or (int(rng.integers(spec.n)),)
                while len(word) < len(start) + length:
                    word += (int(rng.choice(spec.successors(word[-1]))),)
                starts.append(u)
                rows.append(word[len(start):])
        got = fold_rows(phi, np.array(starts), rows)
        d = phi.depth
        for i, (u, row) in enumerate(zip(starts, rows)):
            whole = a.words[u] + row
            want = phi.window_sums(whole)
            assert [float(x[i]).hex() for x in got] == [x.hex() for x in want], whole
            brute = sum(phi.table[whole[k:k + d]] for k in range(len(whole) - d + 1))
            assert float(got[0][i]).hex() == float(brute).hex()
            hi, lo = helpers.brute_sum_range(phi, whole)
            if quantize or d == 1:
                assert [float(got[1][i]).hex(), float(got[2][i]).hex()] == [hi.hex(), lo.hex()]
            else:
                assert got[1][i] == pytest.approx(hi, abs=1e-12)
                assert got[2][i] == pytest.approx(lo, abs=1e-12)


@pytest.mark.parametrize("depth", [1, 2])
def test_a_step_off_the_graph_raises_in_both_walks(depth):
    """11 is forbidden on the golden mean shift.  Unchecked, the -1 successor
    would index the last state, silently."""
    spec = helpers.gold()
    phi = helpers.random_potential(np.random.default_rng(depth), spec, depth)
    with pytest.raises(ValidationError):
        phi.window_sums((0, 1, 1, 0))
    with pytest.raises(ValidationError):
        phi.fold(np.array([[0, 1, 0, 1], [0, 1, 1, 0]]))
    # past a row's length its padding is not read
    assert phi.fold(np.array([[0, 1, 1]]), lengths=np.array([2]))[1].tolist() == [
        phi.automaton.state((0, 1))]


def test_value_of_an_inadmissible_window_is_a_validation_error():
    gspec, gphi = helpers.gold_edge_potential()
    assert gphi.value(gspec.word("101")) == -1.0
    with pytest.raises(ValidationError, match="not an admissible 2-word"):
        gphi.value(gspec.word("11"))


def test_two_sided_bound_property():
    # every point value in a cylinder lies in [sup - distortion, sup]
    rng = np.random.default_rng(11)
    for trial in range(5):
        spec = helpers.random_mixing_spec(rng, n=int(rng.integers(2, 4)))
        phi = helpers.random_potential(rng, spec, int(rng.integers(1, 4)))
        v = phi.distortion()
        for n in range(1, 8):
            for w in spec.words(n):
                b = phi.word_sum_bounds(w)
                assert b.inf >= b.sup - v - 1e-12


def test_distortion(bin14):
    _, phi, psi = bin14
    assert phi.distortion() == 0.0
    assert psi.distortion() == 0.0
    gspec, gphi = helpers.gold_edge_potential()
    assert gphi.distortion() == pytest.approx(1.0, abs=1e-12)


def test_distortion_against_brute_force():
    rng = np.random.default_rng(23)
    for trial in range(4):
        spec = helpers.random_mixing_spec(rng, n=2)
        phi = helpers.random_potential(rng, spec, int(rng.integers(2, 4)))
        worst = 0.0
        for n in range(1, 9):
            for w in spec.words(n):
                hi, lo = helpers.brute_sum_range(phi, w)
                worst = max(worst, hi - lo)
        assert phi.distortion() == pytest.approx(worst, abs=1e-12)


def test_sup_norm_and_combine(bin14):
    spec, phi, psi = bin14
    assert phi.sup_norm() == pytest.approx(math.log(4.0), abs=1e-12)
    mixed = combine(1.0, phi, 2.0, psi)
    assert mixed.value(spec.word("00")) == pytest.approx(0.0, abs=1e-12)
    zero = combine(0.0, phi, 0.0, psi)
    assert zero.sup_norm() == 0.0


def test_combine_aligns_depth():
    gspec, gphi = helpers.gold_edge_potential()
    one = LocallyConstantPotential.constant(gspec, 1.0)
    out = combine(1.0, gphi, 1.0, one)
    assert out.depth == 2
    assert out.value(gspec.word("01")) == pytest.approx(3.0)


def test_cocycle_subadditivity():
    gspec, gphi = helpers.gold_edge_potential()
    v = gphi.distortion()
    for u in gspec.words(4):
        for w in gspec.words(3):
            if not gspec.incidence[u[-1], w[0]]:
                continue
            b_uv = gphi.word_sum_bounds(u + w)
            assert b_uv.sup <= gphi.word_sum_bounds(u).sup + gphi.word_sum_bounds(w).sup + v + 1e-12


def test_d_psi(bin14, full2):
    spec, _, psi = bin14
    p1, p2 = spec.word("0111"), spec.word("0100")
    assert d_psi(psi, p1, p2) == pytest.approx(0.25, abs=1e-12)
    one = LocallyConstantPotential.constant(spec, 1.0)
    assert d_psi(one, p1, p2) == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert d_psi(psi, spec.word("01"), spec.word("10")) == 1.0
    with pytest.raises(ValidationError):
        d_psi(psi, p1, p1)
    with pytest.raises(ValidationError):
        d_psi(psi, spec.word("01"), spec.word("011"))


def test_d_psi_properties(bin14):
    spec, _, _ = bin14
    psi = LocallyConstantPotential.from_values(spec, [math.log(2.0), math.log(3.0)])
    one = LocallyConstantPotential.constant(spec, 1.0)
    rng = np.random.default_rng(2)
    lo, hi = psi.min_value(), psi.max_value()
    for _ in range(100):
        a = tuple(rng.integers(0, 2, size=8))
        b = tuple(rng.integers(0, 2, size=8))
        try:
            dv = d_psi(psi, a, b)
        except ValidationError:
            continue
        assert dv == pytest.approx(d_psi(psi, b, a), abs=0)
        d1 = d_psi(one, a, b)
        # comparable to the unit metric through the value band of psi
        assert hi * math.log(d1) - 1e-12 <= math.log(dv) <= lo * math.log(d1) + 1e-12


def test_d_psi_monotone_in_common_block(bin14):
    spec, _, psi = bin14
    prev = None
    for k in range(1, 6):
        base = (0, 1) * 6
        a = base[:k] + (0, 0, 0)
        b = base[:k] + (1, 1, 1)
        val = d_psi(psi, a, b)
        if prev is not None:
            assert val < prev
        prev = val


def test_cylinder_diam(full2, gold, bin14):
    spec, _, psi = bin14
    assert cylinder_diam_psi(psi, spec.word("01")) == pytest.approx(0.25, abs=1e-12)
    assert cylinder_diam_psi(psi, ()) == 1.0
    one_g = LocallyConstantPotential.constant(gold, 1.0)
    assert cylinder_diam_psi(one_g, gold.word("1")) == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_cylinder_log_diam_stays_finite_where_the_diameter_underflows(bin14):
    spec, _, psi = bin14
    word = (0, 1) * 1000
    assert cylinder_diam_psi(psi, word) == 0.0
    assert cylinder_log_diam_psi(psi, word) == -psi.word_sum_bounds(word).sup
    assert cylinder_log_diam_psi(psi, ()) == 0.0
    for n in range(1, 8):
        for w in spec.words(n):
            assert cylinder_diam_psi(psi, w) == math.exp(cylinder_log_diam_psi(psi, w))


def test_cylinder_log_diam_of_a_single_point():
    cycle = SftSpec(alphabet=("0", "1"), incidence=[[0, 1], [1, 0]])
    one = LocallyConstantPotential.constant(cycle, 1.0)
    assert cylinder_log_diam_psi(one, (0, 1)) == -math.inf
    assert cylinder_diam_psi(one, (0, 1)) == 0.0
