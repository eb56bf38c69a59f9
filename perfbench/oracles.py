"""Independent references for the distribution functions the cdf-probe workload evaluates."""

from __future__ import annotations

from fractions import Fraction


def bernoulli_dyadic_cdf(x: float, p0: float) -> float:
    """CDF of the Bernoulli(p0, 1 - p0) measure coded by binary digits on [0, 1].

    Digit 0 keeps the left half with probability p0.  The mass of [0, x] is
    the sum, over the 1-digits of x, of p0 times the probability of the digits
    before it.  A float has finitely many binary digits, so this is exact up
    to rounding of the sum.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    frac = Fraction(x)
    acc, weight = 0.0, 1.0
    while frac:
        frac *= 2
        if frac >= 1:
            acc += weight * p0
            weight *= 1.0 - p0
            frac -= 1
        else:
            weight *= p0
    # a dyadic x ends on a digit boundary: the rest of its cylinder lies right of x
    return acc


def self_similar_cdf(x: float, rates, offsets, probs, interval, eps: float) -> float:
    """CDF of a Bernoulli measure pushed through disjoint affine maps, within eps.

    Uses the self-similarity F(x) = sum_{maps left of x} p_a + p_a F(f_a^-1 x)
    with exact rational positions, so only the masses carry rounding.
    """
    u, v = (Fraction(interval[0]), Fraction(interval[1]))
    X = Fraction(x)
    if X < u:
        return 0.0
    if X >= v:
        return 1.0
    maps = sorted((Fraction(o) + Fraction(r) * u, Fraction(r), Fraction(o), p)
                  for r, o, p in zip(rates, offsets, probs))
    acc, mass = 0.0, 1.0
    while mass >= eps:
        inside = None
        for lo, r, o, p in maps:
            hi = r * v + o
            if hi <= X:
                acc += mass * p
            elif lo <= X:
                inside = (r, o, p)
                break
            else:
                break
        if inside is None:
            return acc  # x lies in a gap
        r, o, p = inside
        mass *= p
        X = (X - o) / r
    return acc + mass * float((X - u) / (v - u))
