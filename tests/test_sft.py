import itertools
import re

import numpy as np
import pytest

import helpers
from gibbsdim import (CapacityError, SftSpec, ValidationError, higher_block_recode,
                      word_power)
from gibbsdim import sft


def test_admissibility(gold):
    assert not gold.is_admissible(gold.word("11"))
    assert gold.is_admissible(gold.word("010"))
    assert gold.is_admissible(())
    assert gold.is_admissible(gold.word("0"))


def test_symbol_range_validation(gold):
    with pytest.raises(ValidationError):
        gold.is_admissible((0, 2))


def test_cyclic_admissibility(gold, full2):
    assert not gold.is_cyclically_admissible(gold.word("1"))
    assert gold.is_cyclically_admissible(gold.word("01"))
    for text in ("0", "1", "01", "10", "0011"):
        assert full2.is_cyclically_admissible(full2.word(text))
    with pytest.raises(ValidationError):
        gold.is_cyclically_admissible(())


def test_mixing(full2, gold):
    assert full2.is_mixing()
    # A^2 of the golden spec is strictly positive
    a = np.array([[1, 1], [1, 0]])
    assert (a @ a > 0).all()
    assert gold.is_mixing()
    period2 = SftSpec(alphabet=("a", "b"), incidence=[[0, 1], [1, 0]])
    assert not period2.is_mixing()
    # the reachability powers are computed once per spec
    spec = _wielandt(5)
    spec.require_mixing()
    powers = list(spec._powers)
    spec.require_mixing()
    assert spec.mixing_window() == 18
    assert len(spec._powers) == len(powers) == 17
    assert all(p is q for p, q in zip(spec._powers, powers))


def test_row_nonempty_invariant():
    with pytest.raises(ValidationError):
        SftSpec(alphabet=("a", "b"), incidence=[[1, 1], [0, 0]])


def test_connecting_words(full2, gold):
    r2 = full2.connecting_words()
    assert all(rho == () for rho in r2.pairs.values())
    assert r2.norm == 0
    rg = gold.connecting_words()
    assert rg.get(1, 1) == gold.word("0")
    assert rg.get(0, 1) == ()
    # every stored connector joins its pair admissibly
    for (a, b), rho in rg.pairs.items():
        assert gold.is_admissible((a,) + rho + (b,))


def _admissible_by_matrix(spec, word):
    """The definition: every adjacent pair is allowed by the incidence matrix."""
    return all(spec.incidence[word[i], word[i + 1]] for i in range(len(word) - 1))


def _lex_words(spec, a, length):
    """Every word w of the length with ``a w`` allowed by the incidence matrix, in lex order."""
    if length == 0:
        yield ()
        return
    for s in range(spec.n):
        if spec.incidence[a, s]:
            for rest in _lex_words(spec, s, length - 1):
                yield (s,) + rest


def _wielandt(n):
    """An n-cycle plus one chord: primitive with the largest index, (n-1)^2 + 1."""
    inc = np.zeros((n, n), dtype=bool)
    for i in range(n):
        inc[i, (i + 1) % n] = True
    inc[n - 1, 1] = True
    return SftSpec(alphabet=tuple(str(i) for i in range(n)), incidence=inc)


_CONNECTOR_SPECS = ([("gold", None), ("full2", None)]
                    + [("random", seed) for seed in range(12)]
                    + [("wielandt", n) for n in range(3, 7)])


def _connector_spec(name, arg):
    if name == "random":
        return helpers.random_mixing_spec(np.random.default_rng(arg))
    if name == "wielandt":
        return _wielandt(arg)
    return getattr(helpers, name)()


@pytest.mark.parametrize("name,arg", _CONNECTOR_SPECS)
def test_connecting_words_shortest_lex(name, arg):
    spec = _connector_spec(name, arg)
    rho = spec.connecting_words()
    assert rho.norm <= spec.mixing_window() - 2
    for a in range(spec.n):
        for b in range(spec.n):
            # the first length with a joining word, and its least word
            least = next(w for length in itertools.count() for w in _lex_words(spec, a, length)
                         if spec.incidence[((a,) + w)[-1], b])
            assert rho.get(a, b) == least
    if name == "wielandt":  # shortest and uniform lengths differ here
        assert rho.norm == arg - 1 < spec.mixing_window() - 2


@pytest.mark.parametrize("name,arg", _CONNECTOR_SPECS)
def test_uniform_connecting_words_least_of_fixed_length(name, arg):
    spec = _connector_spec(name, arg)
    if name == "wielandt":
        assert spec.primitivity_index() == (arg - 1) ** 2 + 1
    length = spec.mixing_window() - 2
    rho = spec.uniform_connecting_words()
    assert rho.norm == length
    for a in range(spec.n):
        for b in range(spec.n):
            least = next(w for w in _lex_words(spec, a, length)
                         if spec.incidence[((a,) + w)[-1], b])
            assert rho.get(a, b) == least


def test_admissibility_matches_incidence_definition():
    rng = np.random.default_rng(4)
    for _ in range(20):
        spec = helpers.random_mixing_spec(rng)
        for _ in range(50):
            word = tuple(int(s) for s in rng.integers(0, spec.n, int(rng.integers(0, 90))))
            expect = _admissible_by_matrix(spec, word)
            assert spec.is_admissible(word) is expect
            assert spec.is_admissible(np.array(word, dtype=np.int64)) is expect
            assert spec.is_admissible(tuple(np.int32(s) for s in word)) is expect
            assert spec.is_admissible(list(word)) is expect


@pytest.mark.parametrize("bad", [1.0, "1", -1, 2, None, np.float64(0.0), np.bool_(True)])
def test_symbol_checks_reject_non_indices(gold, bad):
    word = (0, 1, 0, bad)
    for check in (gold.check_symbols, gold.is_admissible, gold.word_str):
        with pytest.raises(ValidationError, match=re.escape(f"symbol index {bad!r} out of range")):
            check(word)


def test_symbol_checks_accept_integer_types(gold):
    for word in [(np.int64(0), np.int8(1)), (False, True, False), (0, True)]:
        gold.check_symbols(word)
        assert gold.is_admissible(word)
    assert not gold.is_admissible((np.int64(1), True))


def test_mixing_window(full2, gold):
    assert full2.mixing_window() == 2
    assert gold.mixing_window() == 3
    single = SftSpec(alphabet=("a",), incidence=[[1]])
    assert single.mixing_window() == 2
    # oracle for the golden spec: all pairs joined by length-3 words, not length-2
    for m, expect in ((2, False), (3, True)):
        ok = all(
            any(w[0] == a and w[-1] == b for w in helpers.brute_words(gold, m))
            for a in range(2) for b in range(2)
        )
        assert ok is expect


def test_word_round_trips_over_multi_character_names():
    # one multi-character name puts commas into every word, one-symbol words
    # included, so "bc" is one symbol and "a,a" two
    spec = SftSpec(alphabet=("a", "bc"), incidence=[[1, 1], [1, 1]])
    words = [w for m in (1, 2, 3) for w in spec.words(m)]
    assert len(words) == 14
    assert all(spec.word(spec.word_str(w)) == w for w in words)
    assert [spec.word_str(w) for w in spec.words(2)] == ["a,a", "a,bc", "bc,a", "bc,bc"]
    assert spec.word("bc") == (1,)
    with pytest.raises(ValidationError, match="unknown symbol name 'aa'"):
        spec.word("aa")


def test_enumerate_words(full2, gold):
    assert [gold.word_str(w) for w in gold.words(2)] == ["00", "01", "10"]
    assert len(full2.words(3)) == 8
    assert len(gold.words(5)) == 13  # Fibonacci count
    assert gold.words(0) == [()]


@pytest.mark.parametrize("n", range(0, 13))
def test_enumeration_matches_brute_force(gold, n):
    assert gold.words(n) == helpers.brute_words(gold, n)
    assert gold.count_words(n) == len(helpers.brute_words(gold, n))


def test_enumeration_three_symbols():
    rng = np.random.default_rng(7)
    spec = helpers.random_mixing_spec(rng, n=3)
    for n in range(0, 8):
        assert spec.words(n) == helpers.brute_words(spec, n)


def test_enumeration_cap(full2, monkeypatch):
    monkeypatch.setattr(sft, "WORD_CAP", 100)
    with pytest.raises(CapacityError):
        full2.words(8)


def test_word_power(full2, gold):
    assert word_power(full2, full2.word("01"), 3) == full2.word("010101")
    assert word_power(full2, full2.word("01"), 0) == ()
    assert word_power(gold, gold.word("1"), 1) == gold.word("1")
    with pytest.raises(ValidationError):
        word_power(gold, gold.word("1"), 2)


def test_junction_concatenation(gold):
    # admissibility of a concatenation is decided by the single junction pair
    rng = np.random.default_rng(3)
    words = [w for n in range(1, 6) for w in helpers.brute_words(gold, n)]
    for _ in range(200):
        u = words[rng.integers(len(words))]
        v = words[rng.integers(len(words))]
        assert gold.is_admissible(u + v) == bool(gold.incidence[u[-1], v[0]])


def test_higher_block_identity(full2):
    blocked, coder = higher_block_recode(full2, 2)
    assert blocked == full2
    w = full2.word("0110")
    assert coder.decode(coder.encode(w)) == w


def test_higher_block_gold(gold):
    blocked, coder = higher_block_recode(gold, 3)
    assert blocked.n == 3
    assert tuple(blocked.alphabet) == ("00", "01", "10")
    assert int(blocked.incidence.sum()) == 5
    # round trip on all length-6 words
    for w in gold.words(6):
        assert coder.decode(coder.encode(w)) == w
    # word counts are preserved: |words(n)| == |block words(n - d + 2)|
    for n in range(2, 10):
        assert len(gold.words(n)) == len(blocked.words(n - 1))


@pytest.mark.parametrize("alphabet,names", [
    (("a", "bc"), ("a.a", "a.bc", "bc.a", "bc.bc")),
    (("x.1", "y"), ("x.1|x.1", "x.1|y", "y|x.1", "y|y")),
    (("a,b", "c"), ("0", "1", "2", "3")),
    (("0", "1"), ("00", "01", "10", "11")),
])
def test_higher_block_names_parse_back(alphabet, names):
    """Every block word round-trips through the block spec's word/word_str,
    with distinct names, at widths 2 and 3; one-character alphabets keep the
    names that word_str writes."""
    spec = SftSpec(alphabet=alphabet, incidence=np.ones((2, 2), dtype=bool))
    assert higher_block_recode(spec, 3)[0].alphabet == names
    for d in (3, 4):
        block, coder = higher_block_recode(spec, d)
        assert len(set(block.alphabet)) == block.n
        for n in range(1, 4):
            for w in block.words(n):
                assert block.word(block.word_str(w)) == w
                assert coder.encode(coder.decode(w)) == w


def test_higher_block_requires_depth(gold):
    with pytest.raises(ValidationError):
        higher_block_recode(gold, 1)


def test_higher_block_capacity(full2, monkeypatch):
    monkeypatch.setattr(sft, "WORD_CAP", 100)
    with pytest.raises(CapacityError):
        higher_block_recode(full2, 12)
