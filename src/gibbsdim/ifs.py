"""Affine iterated function systems, coding maps, and Gibbs CDF probes.

The contractions are orientation-preserving affine maps with disjoint open
images (so compositions are exact two-term affine folds), the chain measure is
pushed onto the interval through the coding map, and the distribution function
is evaluated by descending the cylinder tree.  Probes sample two-sided dyadic
scales around a point and compare increments against a target exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import cdf_descend
from .errors import InfeasibleError, ValidationError
from .massdist import MassDistribution, build_mass_distribution
from .potentials import (LocallyConstantPotential, add_constant, combine)
from .sft import EMPTY_WORD, SftSpec, Word
from .thermo import (GibbsChain, alpha_range, beta, full_dim_alpha, gibbs_chain,
                     pressure, spectrum_at)
from .wordsets import boundary_words, in_repetition_free_set

_GEOM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class AffineIfs:
    """Orientation-preserving affine contractions x -> rate*x + offset on [u, v]."""

    spec: SftSpec
    interval: tuple
    rates: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        u, v = (float(self.interval[0]), float(self.interval[1]))
        if not u < v:
            raise ValidationError("interval must have positive length")
        rates = np.asarray(self.rates, dtype=float).copy()
        offsets = np.asarray(self.offsets, dtype=float).copy()
        if rates.shape != (self.spec.n,) or offsets.shape != (self.spec.n,):
            raise ValidationError("need one rate and offset per symbol")
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

    def coding_point(self, prefix: Word, period: Word = EMPTY_WORD) -> float:
        """The coded point of ``prefix + period^inf`` (exact affine fixed point),
        or the midpoint of the prefix cylinder when no period is given."""
        if len(period) == 0:
            lo, hi = self.cylinder_interval(prefix)
            return 0.5 * (lo + hi)
        whole = prefix + period + period
        if not self.spec.is_admissible(whole):
            raise ValidationError("prefix followed by the repeated period is inadmissible")
        sp, tp = self.map_word(prefix)
        s, t = self.map_word(period)
        fixed = t / (1.0 - s)
        return sp * fixed + tp

    def geometric_potential(self) -> LocallyConstantPotential:
        """Depth-1 table -log(rate); strictly positive, zero distortion for affine maps."""
        return LocallyConstantPotential.from_values(self.spec, -np.log(self.rates))


@dataclass(frozen=True)
class HolderProbe:
    """Two-sided dyadic increments of the CDF around a point, against exponent alpha."""

    x: float
    alpha: float
    depth: int
    records: tuple      # (scale, side, |dC|, |dC| / scale**alpha)
    exponent: float     # least-squares slope of log|dC| vs log scale
    ratio_min: float
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
        self._gibbs_bounds = {}
        self._build_states()

    # --- state machine over short words feeding the descent kernel ----------

    def _build_states(self):
        """The descent table: state 0 is the empty word, the others the
        admissible words of length 1..width.  Row i lists (next_state, prob,
        rate, offset) for each admissible one-symbol extension of state i's
        word, in ``ifs.symbol_order``; an extension longer than width moves
        to its last width symbols, with the chain's Q as its probability."""
        chain = self.chain
        width = chain.coder.width
        spec = self.spec
        words = [EMPTY_WORD]
        for n in range(1, width + 1):
            words.extend(spec.words(n))
        sid = {w: i for i, w in enumerate(words)}
        rates = self.ifs.rates.tolist()
        offsets = self.ifs.offsets.tolist()
        children = []
        for w in words:
            mw = chain.cylinder_measure(w) if w else 1.0
            row = []
            for b in self.ifs.symbol_order:
                if w and not spec.incidence[w[-1], b]:
                    continue
                nw = w + (b,)
                if len(nw) <= width:
                    nxt, p = sid[nw], chain.cylinder_measure(nw) / mw
                else:
                    nxt = sid[nw[1:]]
                    p = float(chain.Q[chain.coder.encode(w)[0],
                                      chain.coder.encode(nw[1:])[0]])
                row.append((nxt, p, rates[b], offsets[b]))
            children.append(tuple(row))
        self._children = tuple(children)

    # --- evaluation ---------------------------------------------------------

    def cdf(self, x: float, eps: float = 1e-12) -> float:
        """Mass of (-inf, x]; within eps of the exact value."""
        if not eps > 0.0:
            raise ValidationError("evaluation tolerance must be positive")
        u, v = self.ifs.interval
        if x < u:
            return 0.0
        if x >= v:
            return 1.0
        return cdf_descend(float(x), float(eps), self.MAX_DEPTH, self._children, u, v)

    def curve(self, resolution: int, eps: float = 1e-12):
        """Sampled (x, cdf) table on a uniform grid over the base interval."""
        if resolution < 2:
            raise ValidationError("resolution must be at least 2")
        u, v = self.ifs.interval
        xs = np.linspace(u, v, resolution)
        return [(float(x), self.cdf(float(x), eps)) for x in xs]

    def gibbs_constant(self, max_len: int = 8) -> float:
        if max_len not in self._gibbs_bounds:
            self._gibbs_bounds[max_len] = self.chain.gibbs_constant_bound(max_len)
        return self._gibbs_bounds[max_len]

    # --- probes ------------------------------------------------------------

    def holder_probe(self, x: float, alpha: float, depth: int,
                     eps: float = 1e-15) -> HolderProbe:
        """Increment ratios |C(y)-C(x)| / |y-x|^alpha at scales 2^-1 .. 2^-depth,
        both sides (one side at the interval endpoints), plus a least-squares
        exponent fit of log-increment against log-scale."""
        if depth < 1 or depth > 60:
            raise ValidationError("probe depth must be between 1 and 60")
        records = []
        logs = []
        for scale, side, dc in self._increments(x, 1, depth, eps):
            records.append((scale, side, dc, dc / scale ** alpha))
            if dc > 0.0:
                logs.append((math.log(scale), math.log(dc)))
        ratios = [r[3] for r in records]
        if len(logs) >= 2:
            xs = np.array([p[0] for p in logs])
            ys = np.array([p[1] for p in logs])
            slope = float(np.polyfit(xs, ys, 1)[0])
        else:
            slope = math.nan
        return HolderProbe(x=float(x), alpha=float(alpha), depth=depth,
                           records=tuple(records), exponent=slope,
                           ratio_min=min(ratios), ratio_max=max(ratios))

    def moderate_check(self, x: float, alpha: float, c: float,
                       depth_range, eps: float = 1e-15) -> bool:
        """True iff every probed increment satisfies the two-sided power bound with
        the uniform constant c, at scales 2^-lo .. 2^-hi for depth_range =
        (lo, hi) with 1 <= lo <= hi <= 60, both sides of x in [u, v]."""
        if c < 1.0:
            raise ValidationError("the uniform constant must be at least 1")
        lo, hi = depth_range
        if not 1 <= lo <= hi <= 60:
            raise ValidationError("probe depths must form a non-empty range within 1 .. 60")
        for scale, _, dc in self._increments(x, lo, hi, eps):
            bound = scale ** alpha
            if not (bound / c <= dc <= bound * c):
                return False
        return True

    def _increments(self, x, lo, hi, eps):
        """(scale, side, |C(x + side*scale) - C(x)|) at scales 2^-lo .. 2^-hi,
        both sides, skipping points outside the base interval.  Raises
        ValidationError for x outside the interval, or when no point is left."""
        u, v = self.ifs.interval
        if not u <= x <= v:
            raise ValidationError("probe point must lie in the base interval")
        cx = self.cdf(x, eps)
        probed = False
        for j in range(lo, hi + 1):
            scale = 2.0 ** (-j)
            for side in (-1, 1):
                y = x + side * scale
                if y < u or y > v:
                    continue
                probed = True
                yield scale, side, abs(self.cdf(y, eps) - cx)
        if not probed:
            raise ValidationError("no admissible probe offsets inside the interval")

    # --- spectrum hooks -------------------------------------------------------

    def alpha0(self) -> float:
        """The exponent at which the probe-set dimension attains the attractor's."""
        return full_dim_alpha(self.potential, self.psi)

    def alpha0_report(self) -> dict:
        a0 = self.alpha0()
        point = spectrum_at(a0, self.potential, self.psi)
        return {
            "alpha0": a0,
            "spectrum_value": point.value,
            "beta0": beta(0.0, self.potential, self.psi),
        }

    def spectrum_at(self, alpha: float):
        return spectrum_at(alpha, self.potential, self.psi)

    def alpha_range(self):
        return alpha_range(self.potential, self.psi)

    # --- certified points ------------------------------------------------------

    def certified_point(self, alpha: float, l: int = 2, depth: int = 4,
                        seed: int = 0, s_frac: float = 0.5) -> CertifiedPoint:
        """A point built from the mass-distribution tree of phi + alpha*psi whose
        prefix certificate witnesses bounded sums, marker windows, and freedom
        from l-fold boundary-word repetitions."""
        a_lo, a_hi = self.alpha_range()
        if not (a_lo + 1e-9 < alpha < a_hi - 1e-9):
            raise InfeasibleError(
                f"exponent must lie strictly inside ({a_lo:.9g}, {a_hi:.9g})"
            )
        bw = boundary_words(self.ifs.symbol_order, self.spec)
        pattern = bw.all_words
        phi_a = combine(1.0, self.potential, alpha, self.psi)
        b0 = spectrum_at(0.0, phi_a, self.psi).value
        s = s_frac * b0
        dist = build_mass_distribution(phi_a, self.psi, s, pattern)
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
