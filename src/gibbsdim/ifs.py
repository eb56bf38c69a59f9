"""Affine iterated function systems, coding maps, and Gibbs CDF probes.

The contractions are orientation-preserving affine maps with disjoint open
images (so compositions are exact two-term affine folds), the chain measure is
pushed onto the interval through the coding map, and the distribution function
is evaluated by descending the cylinder tree.  Probes sample two-sided dyadic
scales around a point and compare increments against a target exponent.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from . import sft
from ._kernels import cdf_descend
from .errors import CapacityError, InfeasibleError, ValidationError
from .potentials import (LocallyConstantPotential, add_constant, combine)
from .sft import SftSpec, Word
from .thermo import (GibbsChain, _beta_pair, alpha_range, full_dim_alpha, gibbs_chain,
                     pressure, spectrum_at)

_GEOM_TOL = 1e-12
PROBE_EPS = 1e-15   # cdf tolerance of the Holder probes


def _check_scale_powers(alpha: float, lo: int, hi: int):
    """ValidationError unless every (2^-j)^alpha, j = lo .. hi, is a normal float,
    so that a ratio against it neither divides by zero nor overflows."""
    with suppress(OverflowError):   # the powers are monotone in j: test the ends
        if all(np.finfo(float).tiny <= (2.0 ** -j) ** alpha < math.inf for j in (lo, hi)):
            return
    raise ValidationError(f"(2^-j)^{alpha:g} leaves the normal floats at some j in {lo} .. {hi}")


@dataclass(frozen=True, eq=False)
class AffineIfs:
    """Orientation-preserving affine contractions x -> rate*x + offset on [u, v]."""

    spec: SftSpec
    interval: tuple
    rates: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        u, v = (float(self.interval[0]), float(self.interval[1]))
        rates = np.asarray(self.rates, dtype=float).copy()
        offsets = np.asarray(self.offsets, dtype=float).copy()
        if rates.shape != (self.spec.n,) or offsets.shape != (self.spec.n,):
            raise ValidationError("need one rate and offset per symbol")
        for field, values in (("interval", [u, v]), ("rate", rates), ("offset", offsets)):
            if not np.isfinite(values).all():   # NaN passes every comparison below
                raise ValidationError(f"ifs '{field}' must be finite: {list(map(float, values))}")
        if not u < v:
            raise ValidationError("interval must have positive length")
        if np.any(rates <= 0.0) or np.any(rates >= 1.0):
            raise ValidationError("contraction rates must lie strictly in (0, 1)")
        lo = rates * u + offsets
        hi = rates * v + offsets
        if np.any(lo < u - _GEOM_TOL) or np.any(hi > v + _GEOM_TOL):
            raise ValidationError("every map must send the interval into itself")
        order = np.argsort(lo, kind="stable")
        for a, b in zip(order, order[1:]):
            if hi[a] > lo[b] + _GEOM_TOL:
                raise ValidationError(
                    "open set condition violated: images of "
                    f"{self.spec.alphabet[a]} and {self.spec.alphabet[b]} overlap"
                )
        rates.flags.writeable = False
        offsets.flags.writeable = False
        object.__setattr__(self, "interval", (u, v))
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "_order", tuple(int(a) for a in order))

    @property
    def symbol_order(self) -> tuple:
        """Symbols sorted by interval position, leftmost first."""
        return self._order

    def map_word(self, word: Word):
        """Scale and offset of the composed map of ``word`` (identity for the empty word)."""
        if not self.spec.is_admissible(word):
            raise ValidationError("word is not admissible")
        s, t = 1.0, 0.0
        for a in word:
            s, t = s * self.rates[a], s * self.offsets[a] + t
        return s, t

    def cylinder_interval(self, word: Word):
        """Exact endpoints of the composed image of the base interval."""
        u, v = self.interval
        s, t = self.map_word(word)
        return (s * u + t, s * v + t)

    def geometric_potential(self) -> LocallyConstantPotential:
        """Depth-1 table -log(rate); strictly positive, zero distortion for affine maps."""
        return LocallyConstantPotential.from_values(self.spec, -np.log(self.rates))


@dataclass(frozen=True)
class HolderProbe:
    """Two-sided dyadic increments of the CDF around a point, against exponent alpha."""

    x: float
    alpha: float
    depth: int
    records: tuple      # (scale, side, |dC|, |dC| / scale**alpha), every increment
    exponent: float     # least-squares slope of log|dC| vs log scale, |dC| > 2*eps
    ratio_min: float    # over the records with |dC| > 2*eps; NaN if there are none
    ratio_max: float


@dataclass(frozen=True)
class CertifiedPoint:
    x: float
    word: Word
    interval: tuple
    certificate: object           # MassCertificate
    repetition_free: bool
    repetition_power: int
    guaranteed_power: int         # l at which repetition-freedom follows from the sum bound
    window_constant: int          # l*max|F| + |alphabet|
    pattern_words: tuple
    s: float
    alpha: float

    def to_dict(self, spec: SftSpec) -> dict:
        return {
            "x": self.x,
            "word": spec.word_str(self.word),
            "interval": list(self.interval),
            "certificate": self.certificate.to_dict(),
            "repetition_free": self.repetition_free,
            "repetition_power": self.repetition_power,
            "guaranteed_power": self.guaranteed_power,
            "window_constant": self.window_constant,
            "pattern_words": [spec.word_str(w) for w in self.pattern_words],
            "s": self.s,
            "alpha": self.alpha,
        }


class CdfModel:
    """Distribution function of a chain measure pushed through an affine IFS.

    The supplied potential is normalized to zero pressure on construction, so
    cylinder masses are uniformly comparable to exp(word sum).
    """

    MAX_DEPTH = 100_000

    def __init__(self, ifs: AffineIfs, potential: LocallyConstantPotential):
        if ifs.spec != potential.spec:
            raise ValidationError("IFS and potential live on different specs")
        self.ifs = ifs
        self.spec = ifs.spec
        shift = pressure(potential)
        self.potential = add_constant(potential, -shift)
        self.chain: GibbsChain = gibbs_chain(self.potential)
        if abs(self.chain.pressure) > 1e-9:
            raise ValidationError("normalization failed to reach zero pressure")
        self.psi = ifs.geometric_potential()
        self._build_states()

    # --- descent table over the potential's prefix automaton ---------------

    def _build_states(self):
        """The descent table: one row per state of the potential's prefix
        automaton (state 0 the empty word, its blocks the chain's).  Row i
        lists (hi, lo, prob, next_state, rate, offset) for each symbol that
        can follow state i's word, in ``ifs.symbol_order``: the descent tries
        them in that order and enters the first that holds the point.  hi =
        rate*v + offset and lo = rate*u + offset are the ends of the symbol's
        image of [u, v], evaluated once by the float expressions the descent
        compares against.  prob is the cylinder-mass ratio while the extended
        word fits in a block, else the chain's Q from block to next block."""
        chain, auto = self.chain, self.potential.automaton
        encode = chain.coder.encode
        u, v = self.ifs.interval
        rates = self.ifs.rates.tolist()
        offsets = self.ifs.offsets.tolist()
        rows = []
        for w, succ in zip(auto.words, auto.succ.tolist()):
            mw = chain.cylinder_measure(w) if w else 1.0
            row = []
            for b in self.ifs.symbol_order:
                nxt = succ[b]
                if nxt < 0:
                    continue
                if len(w) < auto.width:
                    p = chain.cylinder_measure(w + (b,)) / mw
                else:
                    p = float(chain.Q[encode(w)[0], encode(auto.words[nxt])[0]])
                r, o = rates[b], offsets[b]
                row.append((r * v + o, r * u + o, p, nxt, r, o))
            rows.append(tuple(row))
        self._rows = tuple(rows)

    # --- evaluation ---------------------------------------------------------

    def cdf(self, x: float, eps: float = 1e-12) -> float:
        """Mass of (-inf, x]; within eps of the exact value."""
        if not eps > 0.0:
            raise ValidationError("evaluation tolerance must be positive")
        u, v = self.ifs.interval
        if not u <= x < v:
            if math.isnan(x):
                raise ValidationError(f"cdf point must be a number, got {x!r}")
            return 0.0 if x < u else 1.0
        return cdf_descend(float(x), float(eps), self.MAX_DEPTH, self._rows, u, v)

    def curve(self, resolution: int, eps: float = 1e-12):
        """Sampled (x, cdf) table on a uniform grid over the base interval."""
        if resolution < 2:
            raise ValidationError("resolution must be at least 2")
        if resolution > sft.WORD_CAP:
            raise CapacityError(f"resolution {resolution} exceeds the cap {sft.WORD_CAP}")
        u, v = self.ifs.interval
        xs = np.linspace(u, v, resolution)
        return [(float(x), self.cdf(float(x), eps)) for x in xs]

    # --- probes ------------------------------------------------------------

    def holder_probe(self, x: float, alpha: float, depth: int) -> HolderProbe:
        """Increment ratios |C(y)-C(x)| / |y-x|^alpha at scales 2^-1 .. 2^-depth,
        both sides (one side at the interval endpoints), plus a least-squares
        exponent fit of log-increment against log-scale.

        ``records`` keeps every increment.  The ratio range and the fit use
        only increments above 2*``PROBE_EPS``, the error bound of the two
        ``cdf`` values each one subtracts; they are NaN when no increment
        (fewer than two, for the fit) is that large."""
        if depth < 1 or depth > 60:
            raise ValidationError("probe depth must be between 1 and 60")
        _check_scale_powers(alpha, 1, depth)
        floor = 2.0 * PROBE_EPS
        records = []
        resolved = []
        for scale, side, dc in self._increments(x, 1, depth):
            ratio = dc / scale ** alpha
            records.append((scale, side, dc, ratio))
            if dc > floor:
                resolved.append((math.log(scale), math.log(dc), ratio))
        ratios = [r[2] for r in resolved]
        if len(resolved) >= 2:
            xs = np.array([p[0] for p in resolved])
            ys = np.array([p[1] for p in resolved])
            slope = float(np.polyfit(xs, ys, 1)[0])
        else:
            slope = math.nan
        return HolderProbe(x=float(x), alpha=float(alpha), depth=depth,
                           records=tuple(records), exponent=slope,
                           ratio_min=min(ratios, default=math.nan),
                           ratio_max=max(ratios, default=math.nan))

    def moderate_check(self, x: float, alpha: float, c: float, depth_range) -> bool:
        """True iff every probed increment satisfies the two-sided power bound with
        the uniform constant c, at scales 2^-lo .. 2^-hi for depth_range =
        (lo, hi) with 1 <= lo <= hi <= 60, both sides of x in [u, v].  As in
        ``holder_probe``, only increments above 2*``PROBE_EPS`` are checked;
        raises ValidationError when none is that large."""
        if c < 1.0:
            raise ValidationError("the uniform constant must be at least 1")
        lo, hi = depth_range
        if not 1 <= lo <= hi <= 60:
            raise ValidationError("probe depths must form a non-empty range within 1 .. 60")
        _check_scale_powers(alpha, lo, hi)
        resolved = [(scale ** alpha, dc) for scale, _, dc in self._increments(x, lo, hi)
                    if dc > 2.0 * PROBE_EPS]
        if not resolved:
            raise ValidationError(f"no probed increment exceeds the evaluation error "
                                  f"2*eps = {2.0 * PROBE_EPS:g}")
        return all(bound / c <= dc <= bound * c for bound, dc in resolved)

    def _increments(self, x, lo, hi):
        """(scale, side, |C(x + side*scale) - C(x)|) at scales 2^-lo .. 2^-hi,
        both sides, skipping points outside the base interval.  Raises
        ValidationError for x outside the interval, or when no point is left."""
        u, v = self.ifs.interval
        if not u <= x <= v:
            raise ValidationError("probe point must lie in the base interval")
        cx = self.cdf(x, PROBE_EPS)
        probed = False
        for j in range(lo, hi + 1):
            scale = 2.0 ** (-j)
            for side in (-1, 1):
                y = x + side * scale
                if y < u or y > v:
                    continue
                probed = True
                yield scale, side, abs(self.cdf(y, PROBE_EPS) - cx)
        if not probed:
            raise ValidationError("no admissible probe offsets inside the interval")

    # --- spectrum hooks -------------------------------------------------------

    def alpha0(self) -> float:
        """The exponent at which the probe-set dimension attains the attractor's."""
        return full_dim_alpha(self.potential, self.psi)

    def alpha0_report(self) -> dict:
        b0, a0 = _beta_pair(0.0, self.potential, self.psi)   # alpha0 is beta'(0)
        return {
            "alpha0": a0,
            "spectrum_value": spectrum_at(a0, self.potential, self.psi).value,
            "beta0": b0,
        }

    # --- certified points ------------------------------------------------------

    def certified_point(self, alpha: float, l: int = 2, depth: int = 4,
                        seed: int = 0, s_frac: float = 0.5) -> CertifiedPoint:
        """A point built from the mass-distribution tree of phi + alpha*psi whose
        prefix certificate witnesses bounded sums, marker windows, and freedom
        from l-fold boundary-word repetitions."""
        from .massdist import build_mass_distribution
        from .wordsets import boundary_words, in_repetition_free_set
        if l < 1:   # the cheap arguments first: a tree can take minutes to build
            raise ValidationError("repetition count must be positive")
        if depth < 1:
            raise ValidationError("generation index must be positive")
        a_lo, a_hi = alpha_range(self.potential, self.psi)
        if not (a_lo + 1e-9 < alpha < a_hi - 1e-9):
            raise InfeasibleError(
                f"exponent must lie strictly inside ({a_lo:.9g}, {a_hi:.9g})"
            )
        bw = boundary_words(self.ifs.symbol_order, self.spec)
        pattern = bw.all_words
        phi_a = combine(1.0, self.potential, alpha, self.psi)
        b0 = spectrum_at(0.0, phi_a, self.psi).value
        s = s_frac * b0
        dist = build_mass_distribution(phi_a, self.psi, s, pattern, b0=b0)
        word = dist.sample(depth, seed)
        cert = dist.certify(word)
        rep_free = in_repetition_free_set(self.spec, word, pattern, l)
        lo, hi = self.ifs.cylinder_interval(word)
        window_const = l * max(len(w) for w in pattern) + self.spec.n
        # a repetition of a pattern word drifts the sum by its cyclic period sum,
        # so the prefix-sum bound caps the possible repetition count
        drift = math.inf
        for w in pattern:
            reps = -(-(len(w) + phi_a.depth - 1) // len(w)) + 1
            per = abs(phi_a.birkhoff_sum(w * reps, len(w)))
            drift = min(drift, per)
        if drift > 1e-12:
            guaranteed = int(2.0 * dist.prefix_sum_bound / drift) + 2
        else:
            guaranteed = 0  # a pattern word has vanishing drift; no bound follows
        return CertifiedPoint(
            x=0.5 * (lo + hi), word=word, interval=(lo, hi), certificate=cert,
            repetition_free=rep_free, repetition_power=l,
            guaranteed_power=guaranteed,
            window_constant=window_const, pattern_words=pattern, s=s, alpha=alpha,
        )
