"""Transfer operators, pressure, Gibbs chains, Birkhoff spectra and sub-actions.

Every potential is read on its higher-block graph as the pair ``(coder,
weights)`` that ``edges`` returns, an edge table, before spectral work, so one
dense-matrix code path serves all depths.  Its Perron data carry certified
Collatz-Wielandt brackets (``_perron``).  A right solve whose seed does not
certify runs a squaring phase, which gives the right and left Perron vectors
of M from its powers M^(2^k), with a dense eigensolve where that phase gives
up; the left solve of the same matrix starts from that left vector, or
first tries three inverse steps shifted from the top of the right solve's
bracket.  So a beta(q) root seeds its first left solve with the left vector
of its bracket solve at b = 0, and usually makes no eigensolve.

The private solvers (``_transfer``, ``_perron`` and its steps,
``_stochasticize``, ``_beta``) enter no NumPy error scope of their own.  Each
public solve -- ``pressure``, ``gibbs_chain``, ``beta`` and ``_beta_pair``,
the root behind ``beta_prime``, ``spectrum_at`` and ``full_dim_alpha`` --
holds one (``_quiet``) around all of its work, so a weight that overflows or
an iterate that underflows shows as a bracket that does not certify, raised
as NumericalError, never as a NumPy warning.  Code that calls a private
solver directly enters that scope itself.

The Legendre convention used throughout: with beta(q) the zero-pressure root
and q_alpha the solution of beta'(q) = alpha, the spectrum value is

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
from .errors import EmptyLevelSetError, NumericalError, ValidationError
from .potentials import LocallyConstantPotential
from .sft import BlockCoder, SftSpec, Word

PRESSURE_RTOL = 1e-13
PRESSURE_MAX_ITER = 10_000
PERRON_MAX_SQUARINGS = 16
BETA_PRESSURE_TOL = 1e-11
QALPHA_TOL = 1e-9
ALPHA_RANGE_TOL = 1e-10
Q_CAP = 40.0

LEGENDRE_CONVENTION = "b(alpha) = min_q beta(q) - q*alpha"

# the reductions behind ndarray.min/max/sum, without their Python wrappers
_fmin, _fmax, _fsum = np.minimum.reduce, np.maximum.reduce, np.add.reduce
_TINY = np.finfo(float).tiny  # the smallest normal float


def _quiet():
    """The one NumPy error scope of a public solve: overflow, division by zero
    and invalid operations pass without a warning, and show in the result
    (a bracket that does not certify raises NumericalError)."""
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


# --------------------------------------------------------------------------
# (coder, weights): several potentials on their one higher-block graph
# --------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _edge_space(*potentials: LocallyConstantPotential):
    """``(coder, weights)`` on the one higher-block graph ``coder.block`` that
    every potential reads at most one edge of: one (n, n) weight matrix per
    potential, 0 off edges, as ``edges`` gives it."""
    spec = potentials[0].spec
    if any(p.spec != spec for p in potentials):
        raise ValidationError("potentials live on different specs")
    spec.require_mixing()
    depth = max(2, *(p.depth for p in potentials))
    return potentials[0].edges(depth)[0], tuple(p.edges(depth)[1] for p in potentials)


def _transfer(coder: BlockCoder, weights, coeffs) -> np.ndarray:
    """The transfer matrix exp(sum_k coeffs[k] * weights[k]) on the edges of
    ``coder.block``, 0 off them.

    It runs inside its caller's ``_quiet`` scope: a weight whose exponential
    overflows becomes inf without a warning, and fails the Perron solve.
    """
    w = coeffs[0] * weights[0]
    for c, mat in zip(coeffs[1:], weights[1:]):
        w += c * mat
    np.exp(w, out=w)
    return np.where(coder.block.incidence, w, 0.0)


def _chain_mean(pi: np.ndarray, Q: np.ndarray, w: np.ndarray) -> float:
    """The mean sum_ij pi_i Q_ij w_ij of the edge weight w under the chain (pi, Q)."""
    terms = pi[:, None] * Q
    terms *= w
    return float(_fsum(terms, axis=None))


# --------------------------------------------------------------------------
# Perron data
# --------------------------------------------------------------------------

def _perron(M: np.ndarray, x0: np.ndarray | None = None, top: float = math.inf):
    """Leading eigenvalue, positive eigenvector and certified eigenvalue
    bracket of a primitive matrix, and a left Perron vector when one came free.

    Every iterate x yields a Collatz-Wielandt bracket [min_a (Mx)_a/x_a,
    max_a (Mx)_a/x_a] (``_cw_bracket``).  An entry of x that underflowed to 0
    gives an infinite ratio where (Mx)_a > 0, so that iterate adds only its
    bottom, and a NaN ratio where (Mx)_a = 0, so that iterate adds no bracket
    at all.  The brackets are intersected until
    narrower than ``PRESSURE_RTOL`` times their top; the solve returns the
    midpoint, M @ x scaled to max 1, the bracket, and the left vector of its
    squaring phase, whose own bracket of M^T is as narrow (None when no phase
    returned one).

    Iterate 0 is the seed x0, or all-ones when there is none or it is not
    positive.  ``top`` is an upper bound on the eigenvalue: the top of the
    right solve's bracket, when this is the left solve of the same matrix.
    Iterate k + 1 follows iterate k by one schedule, with j = k - 3 if
    ``top`` is finite and j = k if not: j = 0 takes a power step, j = 1 the
    squaring phase (``_squaring``), or the Perron vector of a dense
    eigensolve (``_eig_vector``) where that phase gives up, and any other j a
    shifted inverse step (``_inverse_step``) from a rounding margin above
    min(top, the bracket's top).  Where a step gives no positive vector, the
    power step stands in.  A seed that is already the Perron vector
    certifies at iterate 0 with no squaring.  A seed or a ``top`` changes
    only the iterates, never a bracket, so a wrong one costs steps, not the
    certificate.  A bracket that is not finite and positive, a power step
    that is not finite, or no certificate by iterate ``PRESSURE_MAX_ITER`` - 1
    raises NumericalError with the bracket.  The solve runs inside its
    caller's ``_quiet`` scope, so an iterate that overflows or underflows
    shows only in its bracket, with no NumPy warning.
    """
    x = x0 if x0 is not None and _fmin(x0) > 0.0 else np.ones(M.shape[0])
    # from all-ones, each shifted step gains ~16 orders of relative accuracy
    # in the smallest entries: a vector spanning 36 orders needs three
    shifted = 3 if top < math.inf else 0
    # a computed CW ratio of an n x n nonnegative product is within n + 1
    # roundings of the exact one; twice that keeps the shift above lambda_1
    margin = 1.0 + 2 * (M.shape[0] + 1) * math.ulp(1.0)
    lo_best, hi_best = 0.0, math.inf
    left = None
    for k in range(PRESSURE_MAX_ITER):
        y = M @ x
        lo, hi = _cw_bracket(y, x)
        lo_best, hi_best = max(lo_best, lo), min(hi_best, hi)
        if not 0.0 < hi_best < math.inf:
            break
        if hi_best - lo_best <= PRESSURE_RTOL * hi_best:
            y /= _fmax(y)
            return 0.5 * (lo_best + hi_best), y, (lo_best, hi_best), left
        if k == PRESSURE_MAX_ITER - 1:
            break
        j = k - shifted
        if j == 1:
            x, left = _squaring(M, x) or (_eig_vector(M), None)
        else:
            x = None if j == 0 else _inverse_step(M, x, min(hi_best, top) * margin)
        if x is None:
            # M >= 0, so y / max(y) is finite iff 0 < max(y) < inf
            top_y = _fmax(y)
            if not 0.0 < top_y < math.inf:
                break
            y /= top_y
            x = y
    raise NumericalError(f"Perron solve did not certify; certified eigenvalue bracket "
                         f"{lo_best, hi_best}", bracket=(lo_best, hi_best))


def _squaring(M: np.ndarray, x: np.ndarray):
    """Right and left Perron vectors of M by repeated squaring, as (x, v)
    scaled to max 1, or None when the phase gives up.

    From P = M and v = all-ones, each round sets P <- P @ P, v <- v @ P and
    x <- P @ x, each scaled to max 1.  For primitive M, P tends to h nu^T
    scaled (Seneta, *Non-negative Matrices and Markov Chains*, 1981, ch. 1),
    and a product of nonnegative matrices is accurate entry by entry
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, 3.5),
    so a few rounds give both vectors down to their smallest entries, which
    an eigensolve gives only in norm.

    The phase gives up when the max of P or of x leaves (0, inf), an entry
    of x falls below the smallest normal float, a round does not narrow x's
    own Collatz-Wielandt bracket, or ``PERRON_MAX_SQUARINGS`` rounds have
    run, all before that bracket is narrower than ``PRESSURE_RTOL`` times its
    top.  Once it is, x is kept and the rounds go on for v alone, within the
    same limits, until v's own bracket of M^T is as narrow; v is None where
    it is not, or where an entry of v falls below the smallest normal float.
    The phase suppresses no NumPy warning: it runs inside the ``_quiet``
    scope of the public call whose ``_perron`` solve it serves.
    """
    P, v = M, np.ones(M.shape[0])
    width, found = math.inf, None
    for _ in range(PERRON_MAX_SQUARINGS):
        P = P @ P
        top_p = _fmax(P, axis=None)
        if not 0.0 < top_p < math.inf:
            break
        P /= top_p
        v = v @ P
        v /= _fmax(v)
        if found is None:
            x = P @ x
            top_x = _fmax(x)
            if not 0.0 < top_x < math.inf:
                return None
            x /= top_x
            if not _fmin(x) >= _TINY:
                return None
            lo, hi = _cw_bracket(M @ x, x)
            if not hi - lo <= PRESSURE_RTOL * hi < math.inf:
                if not hi - lo < width:
                    return None
                width = hi - lo
                continue
            found = x
        if not _fmin(v) >= _TINY:
            break
        lo, hi = _cw_bracket(v @ M, v)
        if hi - lo <= PRESSURE_RTOL * hi < math.inf:
            return found, v
    return None if found is None else (found, None)


def _cw_bracket(y: np.ndarray, x: np.ndarray):
    """The Collatz-Wielandt bracket (min, max) of the ratios y / x of
    nonnegative y and x, read from one list of Python floats.

    As with ``np.minimum.reduce`` and ``np.maximum.reduce``, one NaN ratio
    (0/0) makes both ends NaN; an x_a = 0 under y_a > 0 makes the top inf.
    With no ratio of -inf, the sum of the ratios is NaN exactly when one is.
    """
    ratios = (y / x).tolist()
    if math.isnan(sum(ratios)):
        return math.nan, math.nan
    return min(ratios), max(ratios)


def _eig_vector(M: np.ndarray):
    """The Perron vector of ``np.linalg.eig`` scaled to max 1, or None when it is not positive."""
    try:
        vals, vecs = np.linalg.eig(M)
    except np.linalg.LinAlgError:
        return None
    z = np.abs(vecs[:, vals.real.argmax()].real)
    if not _fmin(z) > 0.0:
        return None
    z /= _fmax(z)
    return z


def _inverse_step(M: np.ndarray, x: np.ndarray, sigma: float):
    """x <- (sigma I - M)^{-1} x scaled to max 1, or None when that is not positive.

    With sigma above lambda_1 the resolvent is a positive matrix, and the
    error shrinks by (sigma - lambda_1)/|sigma - lambda_2| per step instead
    of lambda_2/lambda_1 (Noda, Numer. Math. 16, 1971).  The step is solved
    in coordinates scaled by x, as (sigma I - D^{-1} M D) z = 1 with
    D = diag(x), because the entries of an eigenvector can span dozens of
    orders of magnitude and an unscaled solve loses the relative accuracy of
    the small ones, which the bracket needs.
    """
    n = x.shape[0]
    a = M * x
    a /= x[:, None]
    # a <- sigma I - a, entry for entry as sigma * np.eye(n) - a
    diagonal = sigma - a.diagonal()
    np.subtract(0.0 * sigma, a, out=a)
    a.flat[::n + 1] = diagonal
    try:
        z = np.linalg.solve(a, np.ones(n))
    except np.linalg.LinAlgError:
        return None
    z *= x
    z /= _fmax(z)
    return z if _fmin(z) > 0.0 else None


def _stochasticize(M: np.ndarray, bracket, h: np.ndarray, nu0: np.ndarray | None = None):
    """Right Perron data (bracket, h) of M -> (nu, Q, pi) with the normalizations used everywhere.

    ``bracket`` is the certified eigenvalue bracket of the right solve, and
    its midpoint the eigenvalue.  The left Perron solve starts from nu0 with
    the bracket's top as its ``top``.  An h with an entry that is not
    positive (one that underflowed to 0) raises NumericalError with the bracket.
    Like the solve, it runs inside its caller's ``_quiet`` scope.
    """
    if not _fmin(h) > 0.0:
        raise NumericalError("right Perron vector is not positive", bracket=bracket)
    lam = 0.5 * (bracket[0] + bracket[1])
    _, nu, _, _ = _perron(M.T, x0=nu0, top=bracket[1])
    Q = M * h
    Q /= lam * h[:, None]
    Q /= _fsum(Q, axis=1, keepdims=True)
    nu /= float(nu @ h)
    pi = nu * h
    pi /= _fsum(pi)
    return nu, Q, pi


# --------------------------------------------------------------------------
# pressure and Gibbs chains
# --------------------------------------------------------------------------

def pressure(f: LocallyConstantPotential) -> float:
    """Topological pressure: log of the spectral radius of the weighted edge matrix."""
    with _quiet():
        lam, _, _, _ = _perron(_transfer(*_edge_space(f), (1.0,)))
    return math.log(lam)


@dataclass(frozen=True, eq=False)
class GibbsChain:
    """Ruelle-Perron-Frobenius eigendata packaged as a stationary Markov chain.

    The chain realizes the equilibrium state of its potential: cylinder masses
    are pi(w1) * prod Q(w_i, w_{i+1}) over the higher-block path.
    """

    spec: SftSpec
    coder: BlockCoder
    lam: float
    pressure: float
    h: np.ndarray
    nu: np.ndarray
    Q: np.ndarray
    pi: np.ndarray

    def _validate(self, M: np.ndarray):
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

    # --- sampling -----------------------------------------------------------

    def sample_orbit(self, n: int, seed: int) -> Word:
        """A length-n word drawn from the stationary chain; deterministic per seed."""
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValidationError(f"orbit length must be a positive integer (got {n!r})")
        start_cum = np.cumsum(self.pi)
        q_cum = np.cumsum(self.Q, axis=1)
        draw = seeded_rng(seed).random
        return markov_path(start_cum, q_cum, draw, max(1, n - self.coder.width + 1),
                           self.coder.blocks)[:n]


def seeded_rng(seed: int) -> np.random.Generator:
    """NumPy's default generator for a seed that must be a non-negative integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer (got {seed!r})")
    return np.random.default_rng(seed)


def gibbs_chain(f: LocallyConstantPotential) -> GibbsChain:
    """Eigendata of the weighted transfer matrix; the equilibrium state of f."""
    coder, weights = _edge_space(f)
    with _quiet():
        M = _transfer(coder, weights, (1.0,))
        lam, h, bracket, nu0 = _perron(M)
        nu, Q, pi = _stochasticize(M, bracket, h, nu0)
        chain = GibbsChain(spec=f.spec, coder=coder, lam=lam, pressure=math.log(lam),
                           h=h, nu=nu, Q=Q, pi=pi)
        chain._validate(M)
    return chain


# --------------------------------------------------------------------------
# the pressure equation beta(q) and its Legendre transform
# --------------------------------------------------------------------------

def _pair_space(phi: LocallyConstantPotential, psi: LocallyConstantPotential):
    if not psi.is_strictly_positive():
        raise ValidationError("the metric potential must be strictly positive")
    return _edge_space(phi, psi)


def _beta(q: float, phi: LocallyConstantPotential, psi: LocallyConstantPotential):
    """beta(q), with the weights of its ``(coder, weights)`` pair, and the matrix
    and right Perron data (certified eigenvalue bracket, h) of its last step.

    Every step solves exp(-q*phi - b*psi) at a new b, and each of its Perron
    solves starts from the vectors of the step before it: the right solve
    from the last h and the left solve from the last nu; at the first step,
    both come from the bracket solve at b = 0, whose squaring phase gives nu
    too (None where it gave up or did not run).  For a constant psi = c the
    matrix is e^(-b*c) times the one at b = 0, so the seeds are its Perron
    vectors and each solve certifies at iterate 0; for any other psi they are
    close ones.  A left solve also shifts from the top of the right solve's
    bracket, so a seed that does not certify costs inverse steps, not an
    eigensolve.  The seeds live within one call, so beta(q) depends on
    (q, phi, psi) alone.
    The last left vector is returned too (the bracket solve's if no step
    needed one), to seed the left solve of ``_beta_pair``.  It runs inside
    the ``_quiet`` scope of ``beta`` or ``_beta_pair``.
    """
    coder, weights = _pair_space(phi, psi)
    psi_min = psi.min_value()
    lam0, h, _, nu = _perron(_transfer(coder, weights, (-q, 0.0)))
    p0 = math.log(lam0)
    # the root lies between 0 and p0/psi_min (the sign bracket, widened by 1e-12)
    edge = p0 / psi_min + (1e-12 if p0 >= 0.0 else -1e-12)
    lo, b = min(edge, 0.0), 0.5 * edge
    for _ in range(200):
        M = _transfer(coder, weights, (-q, -b))
        lam, h, bracket, _ = _perron(M, x0=h)
        p = math.log(lam)
        if abs(p) <= BETA_PRESSURE_TOL:
            return b, weights, M, bracket, h, nu
        nu, Q, pi = _stochasticize(M, bracket, h, nu)
        b, last = max(b + p / _chain_mean(pi, Q, weights[1]), lo), b
    raise NumericalError(f"pressure root iteration stalled at b = {last!r}, P(b) = {p!r}")


def beta(q: float, phi: LocallyConstantPotential, psi: LocallyConstantPotential) -> float:
    """The unique root b of P(-q*phi - b*psi) = 0.

    Newton steps b <- b + P(b) / int(psi) d(mu_b) from the midpoint of the
    bracket that the sign of P(-q*phi) gives, to |P| <= 1e-11.  Pressure is
    convex and strictly decreasing in b, with slope -int(psi) <= -min(psi) < 0
    (Ruelle, *Thermodynamic Formalism*, 1978), so the first step lands at or
    left of the root and every later one climbs to it without passing it.
    A step below the bracket's lower end (where weights can overflow) stops there.
    """
    with _quiet():
        return _beta(q, phi, psi)[0]


def _beta_pair(q: float, phi: LocallyConstantPotential, psi: LocallyConstantPotential):
    """(beta(q), beta'(q)) from one root solve and one left Perron solve, in
    one ``_quiet`` scope: the solve behind ``beta_prime``, ``spectrum_at``
    and ``CdfModel.alpha0_report``."""
    with _quiet():
        b, (w_phi, w_psi), M, bracket, h, nu = _beta(q, phi, psi)
        _, Q, pi = _stochasticize(M, bracket, h, nu)
        return b, 0.0 - _chain_mean(pi, Q, w_phi) / _chain_mean(pi, Q, w_psi)  # not -x: no -0.0


def beta_prime(q: float, phi: LocallyConstantPotential, psi: LocallyConstantPotential) -> float:
    """Derivative of beta: the Birkhoff ratio -int(phi)/int(psi) at the equilibrium of q."""
    return _beta_pair(q, phi, psi)[1]


@lru_cache(maxsize=128)
def alpha_range(phi: LocallyConstantPotential, psi: LocallyConstantPotential):
    """Extreme asymptotic Birkhoff ratios -S(phi)/S(psi): extreme directed-cycle ratios."""
    coder, (w_phi, den) = _pair_space(phi, psi)
    adj, num = coder.block.incidence, -w_phi
    hi, _ = cycles.max_cycle_ratio(adj, num, den, tol=ALPHA_RANGE_TOL)
    lo_neg, _ = cycles.max_cycle_ratio(adj, -num, den, tol=ALPHA_RANGE_TOL)
    return (0.0 - lo_neg, hi)  # not -lo_neg: no -0.0


@lru_cache(maxsize=128)
def _cap_probe(phi: LocallyConstantPotential, psi: LocallyConstantPotential, q: float):
    """``_beta_pair`` at an endpoint probe q = +-Q_CAP, kept per (phi, psi)."""
    return _beta_pair(q, phi, psi)


@dataclass(frozen=True)
class SpectrumPoint:
    """One point of the dimension spectrum: alpha, its conjugate q, and the value."""

    alpha: float
    q_alpha: float          # +-inf at the endpoints
    value: float
    endpoint: bool = False
    beta: float = math.nan  # beta(q_alpha); NaN at the endpoints


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
                psi: LocallyConstantPotential) -> SpectrumPoint:
    """Spectrum value b(alpha) = beta(q_alpha) - q_alpha*alpha.

    Interior alpha: q_alpha solves beta'(q) = alpha (monotone root find,
    |beta' - alpha| <= 1e-9).  At the endpoints of the attainable range the
    limiting value is approximated at |q| = ``Q_CAP``, where convexity makes
    beta(q) - q*alpha monotone in |q|.  Each q is solved once: the probes at
    +-Q_CAP are kept per (phi, psi), and the root finder's evaluations per call.
    """
    a_lo, a_hi = alpha_range(phi, psi)
    if alpha < a_lo - 1e-9 or alpha > a_hi + 1e-9:
        raise EmptyLevelSetError(
            f"ratio {alpha:g} outside the attainable range [{a_lo:.9g}, {a_hi:.9g}]"
        )
    solved = {-Q_CAP: _cap_probe(phi, psi, -Q_CAP), Q_CAP: _cap_probe(phi, psi, Q_CAP)}

    def g(q):
        if q not in solved:
            solved[q] = _beta_pair(q, phi, psi)
        return solved[q][1] - alpha

    for cap in (-Q_CAP, Q_CAP):
        if cap * g(cap) <= 0.0:  # alpha at or beyond the ratio reachable at this cap
            value = solved[cap][0] - cap * alpha
            return SpectrumPoint(alpha, math.copysign(math.inf, cap), max(0.0, value),
                                 endpoint=True)
    q_star = _brentq(g, -Q_CAP, Q_CAP, 1e-12, 8.9e-16, 200)
    if abs(g(q_star)) > QALPHA_TOL:
        raise NumericalError("conjugate parameter did not meet tolerance",
                             bracket=(-Q_CAP, Q_CAP))
    b = solved[q_star][0]
    value = b - q_star * alpha
    if -1e-9 < value < 0.0:
        value = 0.0
    return SpectrumPoint(alpha, float(q_star), value, beta=b)


def full_dim_alpha(phi: LocallyConstantPotential, psi: LocallyConstantPotential) -> float:
    """The ratio alpha0 at which the spectrum attains the dimension of the whole space.

    It is beta'(0): the Birkhoff ratio at the equilibrium state of -beta(0)*psi.
    """
    return beta_prime(0.0, phi, psi)


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
    coder, (w,) = _edge_space(phi)
    adj = coder.block.incidence
    scale = max(1.0, phi.sup_norm())
    mean, cyc = cycles.karp_max_cycle_mean(adj, w)
    if abs(mean) > 1e-9 * scale:
        kind = "positive" if mean > 0 else "negative"
        raise ValidationError(
            f"sub-action requires zero maximal cycle mean; got {kind} mean {mean:g}"
        )
    f = _bellman_to_targets(adj, w, cyc)
    return {blk: float(v) for blk, v in zip(coder.blocks, f)}


def birkhoff_sup(phi: LocallyConstantPotential) -> float:
    """sup over sequences and n of the n-step Birkhoff sum; +inf iff a cycle is positive."""
    coder, (w,) = _edge_space(phi)
    adj = coder.block.incidence
    scale = max(1.0, phi.sup_norm())
    mean, _ = cycles.karp_max_cycle_mean(adj, w)
    if mean > 1e-12 * scale:
        return math.inf
    h = _bellman_to_targets(adj, w, range(coder.block.n))
    return float(cycles.relax(adj.T, w.T, h)[0].max())
