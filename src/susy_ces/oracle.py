"""Independent numerical checks of the closed-form solutions.

Nothing in this module reuses the hypergeometric evaluator: the three
tools here — an adaptive Taylor-series integrator for the complex
Schrodinger equation, a Frobenius power series grown directly from the
ODE recurrence and summed in the standard library's decimal arithmetic,
and a finite-difference residual — are deliberately separate routes to
the same numbers, so agreement is evidence rather than tautology.

The integrator steps Z'' = q(x) Z, q(x) = m^2/x +- (m/2) x^(-3/2) -
omega^2, by the Taylor series of Z summed to degree ``ORDER`` (Corliss &
Chang, ACM TOMS 8 (1982) 114; Jorba & Zou, Exp. Math. 14 (2005) 99).  q
has closed-form Taylor coefficients, so the series' terms follow a
recurrence from the state (Z, Z') alone, written afresh here in float.
Steps reach at most a quarter of the way to the singular origin; in
the oscillatory zone a step spans about 3 radians and costs 35-65 us
(2-core Xeon, Python 3.11), pure Python on scalar complex pairs.  Every
step is error-controlled: there is no fixed-step mode.  A call returns
only the segment endpoint, which is hit exactly by clamping the final
step; callers that need several points (the phase ladder in
:mod:`susy_ces.scattering`) chain segments.

The potentials are singular at the origin, so integration domains are
floored at ``x >= ORIGIN_FLOOR_COEFF / m**2``; seed data comes from the
closed form (or any caller-supplied values) strictly inside (0, inf).
"""
from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable, NamedTuple

from ._points import flat, shaped
from .errors import (DomainError, DoubleRangeExceeded, InvalidParams,
                     MaxStepsExceeded, NonConvergence, StepSizeUnderflow)
from .potential import Sector

__all__ = [
    "ODEProblem", "ODESolution", "schrodinger_problem",
    "integrate", "frobenius_series_solution", "residual_schrodinger",
    "ORIGIN_FLOOR_COEFF",
]

#: integration domains must satisfy x >= ORIGIN_FLOOR_COEFF / m^2
ORIGIN_FLOOR_COEFF = 1e-3
#: absolute floor of the integrator's per-step error scale
ABS_TOL = 1e-12
#: accepted plus rejected steps one segment may take
MAX_STEPS = 10_000_000

#: degree of the Taylor polynomial one step sums
ORDER = 24
#: 1 / ((n + 1)(n + 2)), n = 0 .. ORDER - 2: the divisors of the recurrence
_INV = tuple(1.0 / ((n + 1) * (n + 2)) for n in range(ORDER - 1))
#: binom(-3/2, k), k = 1 .. ORDER - 2: the Taylor coefficients of (1 + t)^(-3/2)
_BINOM = tuple(math.prod((-1.5 - j) / (j + 1) for j in range(k)) for k in range(1, ORDER - 1))
#: n as floats, n = 0 .. ORDER: the weights of the derivative's sum
_NS = tuple(float(n) for n in range(ORDER + 1))
#: q's expansion is cut, within a step, at the first k whose terms fall
#: below rel_tol times this share of the scale mm/x + |c| x^(-3/2) + ee
_Q_CUT = 2.0 ** -10


@dataclass(frozen=True)
class ODEProblem:
    """Second-order problem Z'' = q(x) Z; the integrator carries (Z, Z').

    ``q(x) = mm/x + c x^(-3/2) - ee`` is V(x) - omega^2 with the constants
    ``coeffs = (mm, c, ee) = (m^2, sign m/2, omega^2)``, built by
    :func:`schrodinger_problem`.
    """

    m: float
    omega: float
    sector: Sector
    x_floor: float
    coeffs: tuple[float, float, float]

    def q(self, x: float) -> float:
        mm, c, ee = self.coeffs
        return mm / x + c / (x * math.sqrt(x)) - ee


def schrodinger_problem(m: float, omega: float, sector: Sector) -> ODEProblem:
    m = float(m)
    omega = float(omega)
    if not (math.isfinite(m) and m > 0.0 and math.isfinite(omega) and omega > 0.0):
        raise InvalidParams(f"m={m!r}, omega={omega!r} must be positive finite reals")
    if not isinstance(sector, Sector):
        raise InvalidParams(f"sector={sector!r} is not a Sector")
    # each product is the one potential.V rounds, so q(x) is the same double
    mm = m * m
    return ODEProblem(m, omega, sector, ORIGIN_FLOOR_COEFF / mm,
                      (mm, sector.sign * (0.5 * m), omega * omega))


class ODESolution(NamedTuple):
    """Endpoint (x, Z, Z') of one integration segment and its step counts."""

    x: float
    value: complex
    derivative: complex
    n_steps: int
    n_rejected: int


def _integrate_rhs(coeffs: tuple[float, float, float], x0: float, x1: float,
                   y0: tuple[complex, complex], *, rel_tol: float = 1e-10) -> ODESolution:
    """Adaptive Taylor core for Z'' = q(x) Z, q(x) = mm/x + c x^(-3/2) - ee.

    A step of length h from x sums the scaled terms w_n = Z^(n)(x) h^n / n!
    up to n = ORDER, w_0 = Z, w_1 = h Z' and

        w_{n+2} = sum_k Q_k w_{n-k} / ((n + 1)(n + 2)),   Q_k = q_k h^(k+2),

    q_k being q's Taylor coefficients at x: q_0 = q(x), and for k >= 1
    mm (-1)^k / x^(k+1) plus c binom(-3/2, k) x^(-3/2-k).  A step reaches
    at most x/4 (q is singular at 0), so the Q_k fall at least 3-fold per
    k, and they are cut at the first k whose terms fall below
    ``rel_tol * _Q_CUT`` of q's scale h^2 (mm/x + |c| x^(-3/2) + ee): the
    cut tail then moves the step by a small share of its tolerance.  With
    mm = c = 0 (the free wave) q is constant and the step is unbounded.
    The step is accepted when its last two terms stay below ``rel_tol``
    times max(|Z|, |Z_new|) plus ``ABS_TOL``.  Since each w_n scales as
    h^n, those terms give the next step length directly.
    """
    if x1 == x0:
        raise InvalidParams("empty integration interval")
    if not 0 < rel_tol < 1:
        raise InvalidParams(f"rel_tol={rel_tol!r} must lie in (0, 1)")
    mm, c, ee = coeffs
    free = mm == 0.0 and c == 0.0
    sqrt, mul, ab, max_steps = math.sqrt, operator.mul, ABS_TOL, MAX_STEPS
    inv, binom, ns = _INV, _BINOM, _NS
    p1, p2 = 1.0 / (ORDER - 1), 1.0 / ORDER
    cut = rel_tol * _Q_CUT
    tiny = 16 * sys.float_info.epsilon
    direction = 1.0 if x1 > x0 else -1.0
    x = x0
    z, dz = complex(y0[0]), complex(y0[1])
    if not (cmath.isfinite(z) and cmath.isfinite(dz)):
        raise InvalidParams(f"initial state ({z!r}, {dz!r}) must be finite")
    h = abs(x1 - x0)  # a first try; its terms size the step if it fails

    n_steps = 0
    n_rej = 0
    while x != x1:
        if n_steps + n_rej >= max_steps:
            raise MaxStepsExceeded(f"exceeded {max_steps} steps at x={x:.6g}")
        if not free:
            h = min(h, 0.25 * abs(x))
        rem = (x1 - x) * direction
        is_last = rem <= h
        hs = x1 - x if is_last else h * direction
        if abs(hs) <= tiny * max(abs(x), 1e-300):
            raise StepSizeUnderflow(f"step underflow at x={x:.6g} (h={h:.3g})")
        h2 = hs * hs
        if free:
            qs = [-ee * h2]
        else:
            # the same expression as ODEProblem.q, so Q_0 rounds q(x) alike
            a, b = mm / x, c / (x * sqrt(x))
            qs = [(a + b - ee) * h2]
            drop = cut * (a + abs(b) + ee) * h2
            r = hs / x
            ta, tb = a * h2, b * h2
            for bk in binom:
                ta *= -r
                tb *= r
                tk = tb * bk
                if abs(ta) + abs(tk) < drop:
                    break
                qs.append(ta + tk)
        w = [z, hs * dz]
        for n, d in enumerate(inv):
            w.append(sum(map(mul, qs, w[n::-1])) * d)
        zn = sum(reversed(w))
        dzn = sum(map(mul, ns, w)) / hs
        if not abs(zn) + abs(dzn) < math.inf:
            raise DoubleRangeExceeded(f"the solution passes the largest double near x={x:.6g}")
        e1, e2 = abs(w[-2]), abs(w[-1])
        u, v = abs(z), abs(zn)
        scale = ab + rel_tol * (v if v > u else u)
        # the step that would put both last terms at the scale
        rho = min((scale / e1) ** p1 if e1 > 0.0 else math.inf,
                  (scale / e2) ** p2 if e2 > 0.0 else math.inf)
        if e1 <= scale and e2 <= scale:
            x = x1 if is_last else x + hs
            z, dz = zn, dzn
            n_steps += 1
        else:
            n_rej += 1
        h = abs(hs) * min(0.9 * rho, 10.0)

    return ODESolution(x, z, dz, n_steps, n_rej)


def integrate(problem: ODEProblem, x0: float, x1: float, z0: complex,
              dz0: complex, *, rel_tol: float = 1e-10) -> ODESolution:
    """Propagate (Z, Z') from x0 to x1 (either direction) adaptively.

    Each step's last two Taylor terms must stay below ``rel_tol`` times
    the state's size plus ``ABS_TOL``.  Returns the state at exactly x1
    with the step counts of the segment.

    Raises DomainError if the segment leaves the singularity-guarded
    domain x >= problem.x_floor.
    """
    lo = min(float(x0), float(x1))
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise DomainError("integration endpoints must be finite")
    if lo < problem.x_floor:
        raise DomainError(
            f"segment reaches x={lo:.3g} below the origin floor {problem.x_floor:.3g}")
    return _integrate_rhs(problem.coeffs, float(x0), float(x1),
                          (complex(z0), complex(dz0)), rel_tol=rel_tol)


# ---------------------------------------------------------------------------
# Frobenius series oracle
#
# Substituting Z = e^{-y/2} f(y), y = -2 i omega x, into the Schrodinger
# equation turns it into y f'' + (1/2 - y) f' - a f = 0, whose Frobenius
# solutions at the regular singular point y = 0 have exponents sigma = 0
# and sigma = 1/2 with the two-term recurrence coded below.  The series
# is summed in the standard library's decimal arithmetic: this module
# must not lean on the evaluator it is meant to check.

#: significant digits of the sum the series resolves: a double's 17 plus
#: 8 guard digits, so the one rounding to complex double is correct
_SAFE_DIGITS = 17 + 8
#: digits added to the predicted cancellation when sizing the precision:
#: the safe digits plus 12 for the n**2 growth of the rounding error
_PREC_GUARD = _SAFE_DIGITS + 12
_LOG10E = math.log10(math.e)


def _exponent(re: Decimal, im: Decimal) -> float:
    """floor(log10) of the larger part of re + i im; -inf for zero."""
    return max(re.adjusted() if re else -math.inf, im.adjusted() if im else -math.inf)


def _frobenius_sum(a: complex, sigma: float, y: complex, prec: int,
                   max_terms: int) -> tuple[Decimal, Decimal, float, int]:
    """(sr, si, peak, n): the sum sr + i si at ``prec`` significant digits,
    the decimal exponent of its largest term and the n terms summed.

    Inputs enter exactly and each operation rounds once, so the error
    stays below ~n**2 * 10**(peak + 1 - prec).  The sum ends once a term
    falls ``_SAFE_DIGITS`` decimal orders below it, twice in a row.
    """
    with localcontext() as ctx:
        ctx.prec = prec
        ar, ai, yr, yi = (Decimal(v) for v in (a.real, a.imag, y.real, y.imag))
        s0, half = Decimal(sigma), Decimal(0.5)
        tr, ti = sr, si = Decimal(1), Decimal(0)
        peak = hits = 0
        for k in range(max_terms):
            # t_{k+1} = t_k (c + a) y / ((c + 1)(c + 1/2)), c = k + sigma exactly
            c = s0 + k
            nr = ar + c
            d = (c + 1) * (c + half)
            rr, ri = (nr * yr - ai * yi) / d, (nr * yi + ai * yr) / d
            tr, ti = tr * rr - ti * ri, tr * ri + ti * rr
            sr += tr
            si += ti
            te = _exponent(tr, ti)
            peak = max(peak, te)
            hits = hits + 1 if te + _SAFE_DIGITS <= _exponent(sr, si) else 0
            if hits >= 2:
                return sr, si, peak, k + 2
    raise NonConvergence(
        f"Frobenius series did not converge within {max_terms} terms "
        f"(a={a!r}, sigma={sigma}, |y|={abs(y):.3g})")


def frobenius_series_solution(a: complex, sigma: float, y: complex, *,
                              max_terms: int = 4000) -> complex:
    """Frobenius solution f_sigma(y) = y^sigma sum_k c_k y^k, c_0 = 1.

    The coefficients obey c_{k+1} = c_k (k + sigma + a) /
    ((k + sigma + 1)(k + sigma + 1/2)), read directly off the ODE
    y f'' + (1/2 - y) f' - a f = 0; sigma must be one of the indicial
    exponents 0 or 1/2.  y^sigma uses the principal branch.

    The sum runs in decimal at a precision sized from the predicted
    cancellation (about |y| log10(e) digits on the imaginary axis), and
    once more, wider, if it stands fewer than ``_SAFE_DIGITS`` digits
    above its error bound: the terms peaked higher, or the sum is small.
    """
    if sigma not in (0.0, 0.5):
        raise InvalidParams(f"sigma={sigma!r} must be 0.0 or 0.5")
    a = complex(a)
    y = complex(y)
    if not (cmath.isfinite(a) and cmath.isfinite(y)):
        raise InvalidParams(f"a={a!r} and y={y!r} must be finite")
    prec = _PREC_GUARD + math.ceil(abs(y) * _LOG10E)
    sr, si, peak, n = _frobenius_sum(a, sigma, y, prec, max_terms)
    # digits the sum stands above the bound; a zero sum counts as one
    # unit in the last digit of the peak term
    above = max(_exponent(sr, si) - peak + prec, 0) - 2 * len(str(n)) - 1
    if above < _SAFE_DIGITS:
        prec += _SAFE_DIGITS - above + 2
        sr, si, _, _ = _frobenius_sum(a, sigma, y, prec, max_terms)
    val = complex(float(sr), float(si))
    return val if sigma == 0.0 else cmath.sqrt(y) * val


# ---------------------------------------------------------------------------
# finite-difference residual

#: stencil spacing of the residual
_STENCIL_H = 1e-3


def residual_schrodinger(zfunc: Callable, vfunc: Callable, energy: float, x):
    """Relative Schrodinger residual |Z'' + (E - V) Z| / (E max(1, |Z|)).

    ``zfunc`` and ``vfunc`` are called with points shaped like ``x`` (a
    float for a scalar ``x``) and must return values of that shape.  The
    second derivative is the five-point central stencil
    (-1, 16, -30, 16, -1) / (12 h^2), so the residual floor is set by
    sample noise amplified by ~5.3/h^2; with analytic samples at 1e-15
    and h = 1e-3 this sits around 1e-8 relative.
    """
    h = _STENCIL_H
    xs, shape = flat(x)
    if any(v - 2 * h <= 0 for v in xs):
        raise DomainError(f"stencil would cross x = 0; need x > {2 * h:g}")
    w = (-1.0, 16.0, -30.0, 16.0, -1.0)
    zs = [flat(zfunc(shaped([v + k * h for v in xs], shape)), complex)[0]
          for k in (-2, -1, 0, 1, 2)]
    vs = flat(vfunc(shaped(xs, shape)))[0]
    res = []
    for j, v in enumerate(vs):
        d2 = sum(wi * zk[j] for wi, zk in zip(w, zs)) / (12.0 * h * h)
        z0 = zs[2][j]
        res.append(abs(d2 + (energy - v) * z0) / (energy * max(1.0, abs(z0))))
    return shaped(res, shape)
