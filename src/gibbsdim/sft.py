"""Subshifts of finite type: alphabets, incidence tables and word combinatorics.

Words are plain tuples of symbol indices.  Symbol names exist only for I/O;
every table in the package is indexed by dense integers.

Mixing and connecting words rest on one table per spec, the boolean powers of
the incidence matrix: the primitivity index, the mixing window and both
connector builders read it.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import CapacityError, UnsupportedSpecError, ValidationError

Word = tuple  # tuple[int, ...]

EMPTY_WORD: Word = ()

WORD_CAP = 10_000_000   # most words one enumeration or word family may hold

_PLAIN_INT = frozenset({int})


def _wielandt_bound(n: int) -> int:
    # primitivity index of an n-state primitive matrix is at most (n-1)^2 + 1
    return (n - 1) * (n - 1) + 1


@dataclass(frozen=True, eq=False)
class SftSpec:
    """A one-sided shift space given by an ordered alphabet and an incidence table.

    ``incidence[a, b]`` is true when symbol ``b`` may follow symbol ``a``.
    Every row must allow at least one successor, so every finite admissible
    word extends to an infinite admissible sequence.
    """

    alphabet: tuple
    incidence: np.ndarray

    def __post_init__(self):
        alphabet = tuple(str(a) for a in self.alphabet)
        if len(alphabet) == 0:
            raise ValidationError("alphabet must be non-empty")
        if len(set(alphabet)) != len(alphabet):
            raise ValidationError("alphabet names must be distinct")
        inc = np.asarray(self.incidence, dtype=bool).copy()
        if inc.shape != (len(alphabet), len(alphabet)):
            raise ValidationError(
                f"incidence must be {len(alphabet)}x{len(alphabet)}, got {inc.shape}"
            )
        if not inc.any(axis=1).all():
            bad = [alphabet[i] for i in np.flatnonzero(~inc.any(axis=1))]
            raise ValidationError(f"every symbol needs a successor; rows {bad} are empty")
        inc.flags.writeable = False
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "incidence", inc)
        object.__setattr__(self, "_succ", tuple(
            tuple(int(b) for b in np.flatnonzero(inc[a])) for a in range(len(alphabet))
        ))
        # plain-int views of the table for the per-word checks
        object.__setattr__(self, "_symbols", frozenset(range(len(alphabet))))
        object.__setattr__(self, "_forbidden", frozenset(
            (int(a), int(b)) for a, b in zip(*np.nonzero(~inc))))
        object.__setattr__(self, "_powers", [inc])  # reach(k) for k = 1, 2, ...
        object.__setattr__(self, "_sep", "," if any(len(a) > 1 for a in alphabet) else "")
        # immutable (read-only table), so hashed once: every cached solve keys on it
        object.__setattr__(self, "_hash", hash((alphabet, inc.tobytes())))

    # --- identity -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SftSpec):
            return NotImplemented
        return self.alphabet == other.alphabet and np.array_equal(self.incidence, other.incidence)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SftSpec(|alphabet|={self.n}, alphabet={self.alphabet})"

    # --- basics ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.alphabet)

    def successors(self, a: int) -> tuple:
        return self._succ[a]

    def check_symbols(self, word: Word) -> None:
        """Raise ValidationError unless every symbol is an integer index in range.

        Plain in-range ints pass on set tests alone; any other word takes the
        per-symbol loop, which names the first bad symbol.
        """
        if {*map(type, word)} <= _PLAIN_INT and self._symbols.issuperset(word):
            return
        for s in word:
            if not (isinstance(s, (int, np.integer)) and 0 <= s < self.n):
                raise ValidationError(f"symbol index {s!r} out of range for {self.n} symbols")

    def word(self, text: str) -> Word:
        """Parse a word from symbol names; comma-separated unless all names are single characters."""
        if text == "":
            return EMPTY_WORD
        parts = text.split(",") if "," in text or self._sep else list(text)
        index = {name: i for i, name in enumerate(self.alphabet)}
        try:
            return tuple(index[p] for p in parts)
        except KeyError as exc:
            raise ValidationError(f"unknown symbol name {exc.args[0]!r}") from None

    def word_str(self, word: Word) -> str:
        """A word's symbol names, comma-separated unless all names are single characters."""
        self.check_symbols(word)
        return self._sep.join([self.alphabet[s] for s in word])

    # --- admissibility ----------------------------------------------------

    def is_admissible(self, word: Word) -> bool:
        """True when every adjacent pair is allowed; empty and length-1 words qualify."""
        self.check_symbols(word)
        return self._forbidden.isdisjoint(zip(word, word[1:]))

    def is_cyclically_admissible(self, word: Word) -> bool:
        """True when ``word + word`` is admissible, so arbitrary powers exist."""
        if len(word) == 0:
            raise ValidationError("cyclic admissibility is defined for non-empty words")
        return self.is_admissible(word) and bool(self.incidence[word[-1], word[0]])

    # --- mixing -----------------------------------------------------------

    def _reach(self, k: int) -> np.ndarray:
        """``reach(k)[v, b]``: some admissible path of exactly k >= 1 edges leads
        from v to b.  The powers are computed once per spec and kept."""
        powers = self._powers
        while len(powers) < k:
            powers.append((powers[-1].astype(np.int64) @ self.incidence.astype(np.int64)) > 0)
        return powers[k - 1]

    def primitivity_index(self):
        """Least k with all entries of incidence^k positive, or None within the Wielandt bound."""
        return next((k for k in range(1, _wielandt_bound(self.n) + 1) if self._reach(k).all()),
                    None)

    def is_mixing(self) -> bool:
        return self.primitivity_index() is not None

    def require_mixing(self) -> None:
        if not self.is_mixing():
            raise UnsupportedSpecError("operation requires a topologically mixing (primitive) spec")

    def mixing_window(self) -> int:
        """Least m >= 2 such that every symbol pair is joined by an admissible length-m word."""
        self.require_mixing()
        return self.primitivity_index() + 1

    # --- enumeration ------------------------------------------------------

    def count_words(self, n: int) -> int:
        """Number of admissible words of length n (exact integer arithmetic)."""
        if n < 0:
            raise ValidationError("word length must be non-negative")
        if n == 0:
            return 1
        counts = [1] * self.n
        for _ in range(n - 1):
            counts = [sum(counts[b] for b in self._succ[a]) for a in range(self.n)]
        return sum(counts)

    def words(self, n: int) -> list:
        """All admissible length-n words in lexicographic order, at most ``WORD_CAP``."""
        if n < 0:
            raise ValidationError("word length must be non-negative")
        total = self.count_words(n)
        if total > WORD_CAP:
            raise CapacityError(f"{total} admissible words of length {n} exceed the cap {WORD_CAP}")
        if n == 0:
            return [EMPTY_WORD]
        out = []
        stack = [(a,) for a in range(self.n - 1, -1, -1)]
        while stack:
            w = stack.pop()
            if len(w) == n:
                out.append(w)
                continue
            for b in reversed(self._succ[w[-1]]):
                stack.append(w + (b,))
        return out

    # --- connecting words ---------------------------------------------------

    def connecting_words(self) -> "InfixSet":
        """For every symbol pair (a, b), the shortest (then lexicographically least)
        word rho with ``a rho b`` admissible; no connector is longer than
        ``mixing_window() - 2``."""
        return self._connectors(None)

    def uniform_connecting_words(self) -> "InfixSet":
        """For every symbol pair (a, b), the lexicographically least word rho of
        length L = ``mixing_window() - 2`` with ``a rho b`` admissible.

        One exists for every pair because incidence^(L+1) is positive.  All
        connectors share one length, so words joined by them keep their
        offsets (the mass tree relies on this).
        """
        return self._connectors(self.mixing_window() - 2)

    def _connectors(self, length: int | None) -> "InfixSet":
        """The lexicographically least rho with ``a rho b`` admissible for every
        pair (a, b): of the given length, or of the least length when it is None.

        rho is built greedily: each next symbol is the least successor that
        still reaches b in exactly the edges left.
        """
        window = self.mixing_window()
        table = {}
        for a in range(self.n):
            for b in range(self.n):
                edges = (length + 1 if length is not None
                         else next(k for k in range(1, window) if self._reach(k)[a, b]))
                rho, cur = [], a
                for left in range(edges - 1, 0, -1):  # edges from rho's next symbol to b
                    cur = min(s for s in self._succ[cur] if self._reach(left)[s, b])
                    rho.append(cur)
                table[(a, b)] = tuple(rho)
        return InfixSet(pairs=table)


@dataclass(frozen=True)
class InfixSet:
    """Connecting words: (a, b) -> rho with ``a rho b`` admissible."""

    pairs: dict

    def get(self, a: int, b: int) -> Word:
        return self.pairs[(a, b)]

    @property
    def words(self) -> tuple:
        return tuple(sorted(set(self.pairs.values()), key=lambda w: (len(w), w)))

    @property
    def norm(self) -> int:
        """Largest stored length."""
        return max((len(w) for w in self.pairs.values()), default=0)


def word_power(spec: SftSpec, word: Word, l: int) -> Word:
    """The l-fold concatenation of ``word``; the 0th power is the empty word."""
    if l < 0:
        raise ValidationError("power must be non-negative")
    spec.check_symbols(word)
    if l >= 2 and not spec.is_cyclically_admissible(word):
        raise ValidationError("repetition of a non-cyclically-admissible word is inadmissible")
    return word * l


@dataclass(frozen=True)
class BlockCoder:
    """Mutually inverse translations between a spec and its higher-block recoding."""

    base: SftSpec
    block: SftSpec
    width: int          # block length d-1
    blocks: tuple       # block index -> base word of length width

    def __post_init__(self):
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.blocks)})

    def encode(self, word: Word) -> Word:
        if len(word) < self.width:
            raise ValidationError(f"word shorter than block width {self.width}")
        if not self.base.is_admissible(word):
            raise ValidationError("cannot encode an inadmissible word")
        idx = self._index
        return tuple(idx[word[i:i + self.width]] for i in range(len(word) - self.width + 1))

    def decode(self, word: Word) -> Word:
        if len(word) == 0:
            return EMPTY_WORD
        self.block.check_symbols(word)
        out = list(self.blocks[word[0]])
        for b in word[1:]:
            out.append(self.blocks[b][-1])
        return tuple(out)


def higher_block_recode(spec: SftSpec, d: int):
    """Recode so that depth-d tables become edge (depth-2) tables.

    Symbols of the new spec are the admissible (d-1)-words of ``spec``; edges
    are overlaps (Lind & Marcus 1995, section 2.3).  Returns the new spec and
    the translation maps, which are mutually inverse on admissible objects.
    Any spec recodes; the spectral layer checks mixing itself.
    """
    if d < 2:
        raise ValidationError("recoding depth must be at least 2")
    width = d - 1
    blocks = spec.words(width)
    inc = np.array([[u[1:] == v[:-1] and spec.incidence[u[-1], v[-1]] for v in blocks]
                    for u in blocks], dtype=bool)
    block_spec = SftSpec(alphabet=_block_names(spec, blocks), incidence=inc)
    return block_spec, BlockCoder(base=spec, block=block_spec, width=width, blocks=tuple(blocks))


def _block_names(spec: SftSpec, blocks) -> tuple:
    """Block names that the block spec parses back, no two equal.

    Over one-character symbol names a block is named as ``word_str`` writes
    it, the names run together.  Otherwise its names are joined by the first
    of ``.|/:;+`` that no symbol name holds.  A spec with a name longer than
    one character splits words at commas, so where a symbol name holds a
    comma, or every joiner, the blocks are named by their index.
    """
    names = spec.alphabet
    joiners = [c for c in ".|/:;+" if not any(c in a for a in names)] if spec._sep else [""]
    if not joiners or any("," in a for a in names):
        return tuple(str(i) for i in range(len(blocks)))
    return tuple(joiners[0].join(names[s] for s in w) for w in blocks)
