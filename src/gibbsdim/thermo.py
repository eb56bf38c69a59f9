"""Transfer operators, pressure, Gibbs chains, Birkhoff spectra and sub-actions.

Every potential is recoded to an edge (depth-2) table on a higher-block spec
before spectral work, so one dense-matrix code path serves all depths.  The
Legendre convention used throughout: with beta(q) the zero-pressure root and
q_alpha the solution of beta'(q) = alpha, the spectrum value is

    b(alpha) = min_q [beta(q) - q*alpha] = beta(q_alpha) - q_alpha*alpha,

which is the convention consistent with alpha = beta'(q_alpha); it is
validated against closed-form oracles in the test suite and recorded in all
emitted metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import cycles
from ._kernels import markov_path
from .errors import (CapacityError, EmptyLevelSetError, NumericalError,
                     ValidationError)
from .potentials import LocallyConstantPotential, combine
from .sft import BlockCoder, SftSpec, Word, higher_block_recode

PRESSURE_RTOL = 1e-13
PRESSURE_MAX_ITER = 10_000
BETA_PRESSURE_TOL = 1e-11
QALPHA_TOL = 1e-9
ALPHA_RANGE_TOL = 1e-10
Q_CAP = 40.0

LEGENDRE_CONVENTION = "b(alpha) = min_q beta(q) - q*alpha"


# --------------------------------------------------------------------------
# edge recoding shared by the spectral and word-family machinery
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EdgeSpace:
    """A spec recoded so the supplied potentials read at most one edge."""

    spec: SftSpec
    block_spec: SftSpec
    coder: BlockCoder
    adj: np.ndarray
    weights: tuple  # one (n, n) matrix per potential, 0 off-edges

    def matrix(self, coeffs) -> np.ndarray:
        w = np.zeros_like(self.weights[0])
        for c, mat in zip(coeffs, self.weights):
            w = w + c * mat
        with np.errstate(over="ignore"):  # an overflow fails the Perron solve
            return np.where(self.adj, np.exp(w), 0.0)

    def edge_mean(self, pi, Q, k: int) -> float:
        return float(np.sum(pi[:, None] * Q * self.weights[k]))


@lru_cache(maxsize=128)
def _edge_space(*potentials: LocallyConstantPotential) -> EdgeSpace:
    spec = potentials[0].spec
    for p in potentials[1:]:
        if p.spec != spec:
            raise ValidationError("potentials live on different specs")
    spec.require_mixing()
    depth = max(2, max(p.depth for p in potentials))
    block_spec, coder = higher_block_recode(spec, depth)
    n = block_spec.n
    adj = block_spec.incidence
    mats = [np.zeros((n, n)) for _ in potentials]
    for i in range(n):
        for j in range(n):
            if not adj[i, j]:
                continue
            word = coder.decode((i, j))
            for mat, p in zip(mats, potentials):
                mat[i, j] = p.value(word)
    for m in mats:
        m.flags.writeable = False
    return EdgeSpace(spec=spec, block_spec=block_spec, coder=coder, adj=adj,
                     weights=tuple(mats))


# --------------------------------------------------------------------------
# Perron data
# --------------------------------------------------------------------------

def _perron(M: np.ndarray, rtol: float = PRESSURE_RTOL, max_iter: int = PRESSURE_MAX_ITER):
    """Leading eigenvalue and positive eigenvector of a primitive matrix.

    Every positive iterate x yields a Collatz-Wielandt bracket
    [min_a (Mx)_a/x_a, max_a (Mx)_a/x_a] for the eigenvalue; successive
    brackets are intersected until the certified width is below rtol, and the
    eigenvalue returned is the midpoint.  (An entry of x that underflowed to 0
    gives an infinite or NaN ratio, which the intersection ignores.)  The
    iterates are the all-ones vector, one power step from it, the Perron
    vector of a dense eigensolve, and then shifted inverse-iteration steps
    (``_perron_step``).  A bracket that is not finite and positive, or an
    iterate that is not finite, means the matrix overflows or underflows and
    raises NumericalError at once; a bracket still too wide after max_iter
    iterates raises it at the end.  Both carry the bracket, and the inf and
    NaN values on the way there raise no NumPy warnings.
    """
    x = np.ones(M.shape[0])
    lo_best, hi_best = 0.0, math.inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in range(max_iter):
            y = M @ x
            ratios = y / x
            lo, hi = float(ratios.min()), float(ratios.max())
            lo_best = max(lo_best, lo)
            hi_best = min(hi_best, hi)
            if not 0.0 < hi_best < math.inf:
                break
            if hi_best - lo_best <= rtol * hi_best:
                lam = 0.5 * (lo_best + hi_best)
                return lam, y / y.max(), (lo_best, hi_best)
            x = _perron_step(M, x, y, k, hi_best * (1.0 + rtol))
            if x is None:
                break
    raise NumericalError(
        f"Perron solve did not certify; certified eigenvalue bracket {lo_best, hi_best}",
        bracket=(lo_best, hi_best),
    )


def _perron_step(M: np.ndarray, x: np.ndarray, y: np.ndarray, k: int, sigma: float):
    """The iterate that follows iterate k of ``_perron`` (y = M @ x), or None.

    After iterate 0 it is a power step.  After iterate 1 it is the Perron
    vector of ``np.linalg.eig``.  After that it is one shifted
    inverse-iteration step x <- (sigma I - M)^{-1} x with sigma just above the
    bracket, so above lambda_1: the resolvent is then a positive matrix, and
    the error shrinks by (sigma - lambda_1)/|sigma - lambda_2| per step
    instead of lambda_2/lambda_1.  The step is solved in coordinates scaled by
    x, as (sigma I - D^{-1} M D) z = 1 with D = diag(x), because the entries
    of an eigenvector can span dozens of orders of magnitude and an unscaled
    solve loses the relative accuracy of the small ones, which the bracket
    needs.  Where the eigensolve or the step gives no positive vector, the
    power step stands in; where that is not finite either, there is none.
    """
    if k > 0:
        try:
            if k == 1:
                vals, vecs = np.linalg.eig(M)
                z = np.abs(vecs[:, np.argmax(vals.real)].real)
            else:
                n = x.shape[0]
                scaled = M * x[None, :] / x[:, None]
                z = x * np.linalg.solve(sigma * np.eye(n) - scaled, np.ones(n))
        except np.linalg.LinAlgError:
            z = y
        z = z / z.max()
        if np.all(z > 0.0):
            return z
    power = y / y.max()
    return power if np.all(np.isfinite(power)) else None


def _stochasticize(M: np.ndarray, lam: float, h: np.ndarray):
    """Right Perron data (lam, h) of M -> (nu, Q, pi) with the normalizations used everywhere."""
    _, nu, _ = _perron(M.T)
    Q = M * h[None, :] / (lam * h[:, None])
    Q = Q / Q.sum(axis=1, keepdims=True)
    nu = nu / float(nu @ h)
    pi = nu * h
    pi = pi / pi.sum()
    return nu, Q, pi


# --------------------------------------------------------------------------
# pressure and Gibbs chains
# --------------------------------------------------------------------------

def pressure(f: LocallyConstantPotential) -> float:
    """Topological pressure: log of the spectral radius of the weighted edge matrix."""
    es = _edge_space(f)
    lam, _, _ = _perron(es.matrix((1.0,)))
    return math.log(lam)


@dataclass(frozen=True, eq=False)
class GibbsChain:
    """Ruelle-Perron-Frobenius eigendata packaged as a stationary Markov chain.

    The chain realizes the equilibrium state of its potential: cylinder masses
    are pi(w1) * prod Q(w_i, w_{i+1}) over the higher-block path.
    """

    spec: SftSpec
    potential: LocallyConstantPotential
    block_spec: SftSpec
    coder: BlockCoder
    lam: float
    pressure: float
    h: np.ndarray
    nu: np.ndarray
    Q: np.ndarray
    pi: np.ndarray

    def _validate(self):
        M = _edge_space(self.potential).matrix((1.0,))
        lam = self.lam
        res_h = float(np.max(np.abs(M @ self.h - lam * self.h)))
        res_nu = float(np.max(np.abs(self.nu @ M - lam * self.nu)))
        if res_h > 1e-12 * lam * max(1.0, float(self.h.max())):
            raise NumericalError(f"right eigenvector residual {res_h:g} too large")
        if res_nu > 1e-12 * lam * max(1.0, float(self.nu.max())):
            raise NumericalError(f"left eigenvector residual {res_nu:g} too large")
        if np.any(self.h <= 0) or np.any(self.nu <= 0) or np.any(self.pi <= 0):
            raise NumericalError("eigendata must be strictly positive")
        if float(np.max(np.abs(self.Q.sum(axis=1) - 1.0))) > 1e-12:
            raise NumericalError("transition rows must sum to 1")
        if float(np.max(np.abs(self.pi @ self.Q - self.pi))) > 1e-12:
            raise NumericalError("stationary vector drifts under the transition table")
        if abs(float(self.nu @ self.h) - 1.0) > 1e-12:
            raise NumericalError("eigenvector normalization <nu, h> = 1 violated")

    # --- measures ---------------------------------------------------------

    def cylinder_measure(self, word: Word) -> float:
        """Exact equilibrium mass of the cylinder [word]."""
        if len(word) < 1:
            raise ValidationError("cylinder words must be non-empty")
        if not self.spec.is_admissible(word):
            raise ValidationError("word is not admissible")
        width = self.coder.width
        if len(word) < width:
            return float(sum(
                self.pi[i] for i, blk in enumerate(self.coder.blocks)
                if blk[:len(word)] == word
            ))
        path = self.coder.encode(word)
        mass = float(self.pi[path[0]])
        for a, b in zip(path, path[1:]):
            mass *= float(self.Q[a, b])
        return mass

    def integrate(self, g: LocallyConstantPotential) -> float:
        """Expectation of g under the stationary chain."""
        if g.spec != self.spec:
            raise ValidationError("potential lives on a different spec")
        depth = self.coder.width + 1
        if g.depth > depth:
            raise ValidationError(
                f"chain resolves depth {depth}; integrand has depth {g.depth}"
            )
        total = 0.0
        n = self.block_spec.n
        for i in range(n):
            for j in range(n):
                if self.block_spec.incidence[i, j]:
                    total += self.pi[i] * self.Q[i, j] * g.value(self.coder.decode((i, j)))
        return float(total)

    def gibbs_constant_bound(self, max_len: int, cap: int = 1_000_000) -> float:
        """Empirical two-sided Gibbs constant over cylinders up to max_len.

        Requires the potential normalized to zero pressure; the value is
        monotone non-decreasing in max_len.
        """
        if abs(self.pressure) > 1e-9:
            raise ValidationError(
                f"potential must be normalized to zero pressure (got {self.pressure:g})"
            )
        best = 1.0
        for n in range(1, max_len + 1):
            for w in self.spec.words(n, cap=cap):
                mu = self.cylinder_measure(w)
                ratio = mu / math.exp(self.potential.word_sum_bounds(w).sup)
                best = max(best, ratio, 1.0 / ratio)
        return best

    # --- sampling -----------------------------------------------------------

    def sample_orbit(self, n: int, seed: int) -> Word:
        """A length-n word drawn from the stationary chain; deterministic per seed."""
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValidationError(f"orbit length must be a positive integer (got {n!r})")
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValidationError(f"seed must be a non-negative integer (got {seed!r})")
        rng = np.random.default_rng(seed)
        u = rng.random(max(1, n - self.coder.width + 1))
        start_cum = np.cumsum(self.pi)
        q_cum = np.cumsum(self.Q, axis=1)
        return markov_path(start_cum, q_cum, u, self.coder.blocks)[:n]


def gibbs_chain(f: LocallyConstantPotential) -> GibbsChain:
    """Eigendata of the weighted transfer matrix; the equilibrium state of f."""
    es = _edge_space(f)
    M = es.matrix((1.0,))
    lam, h, _ = _perron(M)
    nu, Q, pi = _stochasticize(M, lam, h)
    chain = GibbsChain(
        spec=f.spec, potential=f, block_spec=es.block_spec, coder=es.coder,
        lam=lam, pressure=math.log(lam), h=h, nu=nu, Q=Q, pi=pi,
    )
    chain._validate()
    return chain


# --------------------------------------------------------------------------
# the pressure equation beta(q) and its Legendre transform
# --------------------------------------------------------------------------

def _pair_space(phi: LocallyConstantPotential, psi: LocallyConstantPotential) -> EdgeSpace:
    if not psi.is_strictly_positive():
        raise ValidationError("the metric potential must be strictly positive")
    return _edge_space(phi, psi)


def _beta(q: float, phi: LocallyConstantPotential, psi: LocallyConstantPotential):
    """beta(q), with the edge space, matrix and right Perron data of its last step."""
    es = _pair_space(phi, psi)
    psi_min = psi.min_value()
    p0 = math.log(_perron(es.matrix((-q, 0.0)))[0])
    if p0 >= 0.0:
        lo, hi = 0.0, p0 / psi_min + 1e-12
    else:
        lo, hi = p0 / psi_min - 1e-12, 0.0
    b = 0.5 * (lo + hi)
    for _ in range(200):
        M = es.matrix((-q, -b))
        lam, h, _ = _perron(M)
        p = math.log(lam)
        if abs(p) <= BETA_PRESSURE_TOL:
            return b, es, M, lam, h
        if p > 0:
            lo = b
        else:
            hi = b
        _, Q, pi = _stochasticize(M, lam, h)
        nb = b + p / es.edge_mean(pi, Q, 1)
        if not (lo < nb < hi):
            nb = 0.5 * (lo + hi)
        b = nb
    raise NumericalError("pressure root iteration stalled", bracket=(lo, hi))


def beta(q: float, phi: LocallyConstantPotential, psi: LocallyConstantPotential) -> float:
    """The unique root b of P(-q*phi - b*psi) = 0.

    Pressure is strictly decreasing in b because psi is positive; monotone
    bisection brackets the root and Newton steps polish it to |P| <= 1e-11.
    """
    return _beta(q, phi, psi)[0]


def _beta_pair(q: float, phi: LocallyConstantPotential, psi: LocallyConstantPotential):
    """(beta(q), beta'(q)) from one root solve and one left Perron solve."""
    b, es, M, lam, h = _beta(q, phi, psi)
    _, Q, pi = _stochasticize(M, lam, h)
    return b, -es.edge_mean(pi, Q, 0) / es.edge_mean(pi, Q, 1)


def beta_prime(q: float, phi: LocallyConstantPotential, psi: LocallyConstantPotential) -> float:
    """Derivative of beta: the Birkhoff ratio -int(phi)/int(psi) at the equilibrium of q."""
    return _beta_pair(q, phi, psi)[1]


@lru_cache(maxsize=128)
def alpha_range(phi: LocallyConstantPotential, psi: LocallyConstantPotential):
    """Extreme asymptotic Birkhoff ratios -S(phi)/S(psi): extreme directed-cycle ratios."""
    es = _pair_space(phi, psi)
    num = -es.weights[0]
    den = es.weights[1]
    hi, _ = cycles.max_cycle_ratio(es.adj, num, den, tol=ALPHA_RANGE_TOL)
    lo_neg, _ = cycles.max_cycle_ratio(es.adj, -num, den, tol=ALPHA_RANGE_TOL)
    return (-lo_neg, hi)


@lru_cache(maxsize=128)
def _cap_probe(phi: LocallyConstantPotential, psi: LocallyConstantPotential, q: float):
    """``_beta_pair`` at an endpoint probe q = +-q_cap, kept per (phi, psi)."""
    return _beta_pair(q, phi, psi)


@dataclass(frozen=True)
class SpectrumPoint:
    """One point of the dimension spectrum: alpha, its conjugate q, and the value."""

    alpha: float
    q_alpha: float          # +-inf at the endpoints
    value: float
    endpoint: bool = False


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """A root of f in [xa, xb] by Brent's method, step for step as scipy's ``brentq``.

    A port of scipy's ``Zeros/brentq.c`` (Brent 1973, *Algorithms for
    Minimization Without Derivatives*, ch. 4): the same order of operations,
    the same signbit test and the same early returns on f == 0, so it
    evaluates f at the same points and returns the same bits.  A NaN value of
    f, a bracket without a sign change, or no convergence within maxiter
    steps raises NumericalError carrying (xa, xb).
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise NumericalError(f"root finder met NaN at {x!r}", bracket=(xa, xb))
        return fx

    def sign(y):
        return math.copysign(1.0, y)

    xpre, xcur = xa, xb
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if sign(fpre) == sign(fcur):
        raise NumericalError("root bracket has no sign change", bracket=(xa, xb))
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and sign(fpre) != sign(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets inf or NaN, which bisects below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NumericalError(f"root finder did not converge in {maxiter} steps", bracket=(xa, xb))


def spectrum_at(alpha: float, phi: LocallyConstantPotential,
                psi: LocallyConstantPotential, q_cap: float = Q_CAP) -> SpectrumPoint:
    """Spectrum value b(alpha) = beta(q_alpha) - q_alpha*alpha.

    Interior alpha: q_alpha solves beta'(q) = alpha (monotone root find,
    |beta' - alpha| <= 1e-9).  At the endpoints of the attainable range the
    limiting value is approximated at |q| = q_cap, where convexity makes
    beta(q) - q*alpha monotone in |q|.  Each q is solved once: the probes at
    +-q_cap are kept per (phi, psi), and the root finder's evaluations per call.
    """
    a_lo, a_hi = alpha_range(phi, psi)
    if alpha < a_lo - 1e-9 or alpha > a_hi + 1e-9:
        raise EmptyLevelSetError(
            f"ratio {alpha:g} outside the attainable range [{a_lo:.9g}, {a_hi:.9g}]"
        )
    solved = {-q_cap: _cap_probe(phi, psi, -q_cap), q_cap: _cap_probe(phi, psi, q_cap)}

    def g(q):
        if q not in solved:
            solved[q] = _beta_pair(q, phi, psi)
        return solved[q][1] - alpha

    if g(-q_cap) >= 0.0:   # alpha at or below the ratio reachable at -q_cap
        b = solved[-q_cap][0]
        value = b + q_cap * alpha
        return SpectrumPoint(alpha, -math.inf, max(0.0, value), endpoint=True)
    if g(q_cap) <= 0.0:
        b = solved[q_cap][0]
        value = b - q_cap * alpha
        return SpectrumPoint(alpha, math.inf, max(0.0, value), endpoint=True)
    q_star = _brentq(g, -q_cap, q_cap, 1e-12, 8.9e-16, 200)
    if abs(g(q_star)) > QALPHA_TOL:
        raise NumericalError("conjugate parameter did not meet tolerance",
                             bracket=(-q_cap, q_cap))
    b = solved[q_star][0]
    value = b - q_star * alpha
    if -1e-9 < value < 0.0:
        value = 0.0
    return SpectrumPoint(alpha, float(q_star), value)


def full_dim_alpha(phi: LocallyConstantPotential, psi: LocallyConstantPotential) -> float:
    """The ratio alpha0 at which the spectrum attains the dimension of the whole space."""
    b0 = beta(0.0, phi, psi)
    chain = gibbs_chain(combine(0.0, phi, -b0, psi))
    return -chain.integrate(phi) / chain.integrate(psi)


# --------------------------------------------------------------------------
# ergodic optimization: sub-actions and one-sided Birkhoff suprema
# --------------------------------------------------------------------------

def _bellman_to_targets(adj: np.ndarray, w: np.ndarray, targets) -> np.ndarray:
    """Max weight of a walk from each vertex into ``targets`` (no positive cycles)."""
    base = np.full(adj.shape[0], -math.inf)
    base[list(targets)] = 0.0
    f = base
    for _ in range(adj.shape[0] + 2):
        f = np.maximum(base, cycles.relax(adj.T, w.T, f)[0])
    return f


def subaction(phi: LocallyConstantPotential) -> dict:
    """A table f on (depth-1)-blocks with phi + f(next) - f(cur) <= 0 on every edge.

    Requires the maximal cycle mean of phi to vanish; equality then holds on
    the extracted critical cycle.  Computed as the longest-walk weight into
    that cycle (Bellman iteration; finite since no cycle is positive).
    """
    es = _edge_space(phi)
    w = es.weights[0]
    scale = max(1.0, phi.sup_norm())
    mean, cyc = cycles.karp_max_cycle_mean(es.adj, w)
    if abs(mean) > 1e-9 * scale:
        kind = "positive" if mean > 0 else "negative"
        raise ValidationError(
            f"sub-action requires zero maximal cycle mean; got {kind} mean {mean:g}"
        )
    f = _bellman_to_targets(es.adj, w, cyc)
    return {es.coder.blocks[i]: float(f[i]) for i in range(es.block_spec.n)}


def birkhoff_sup(phi: LocallyConstantPotential) -> float:
    """sup over sequences and n of the n-step Birkhoff sum; +inf iff a cycle is positive."""
    es = _edge_space(phi)
    w = es.weights[0]
    scale = max(1.0, phi.sup_norm())
    mean, _ = cycles.karp_max_cycle_mean(es.adj, w)
    if mean > 1e-12 * scale:
        return math.inf
    h = _bellman_to_targets(es.adj, w, range(es.block_spec.n))
    return float(cycles.relax(es.adj.T, w.T, h)[0].max())
