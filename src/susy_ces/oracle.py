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
is real, so the real and imaginary parts of Z are real solutions each,
and the kernel steps them one at a time as real solutions u.  It steps
in s = sqrt(x), where the half-integer power goes away and the equation
has polynomial coefficients,

    s u_ss - u_s = 4 (m^2 s + c - omega^2 s^3) u,   c = +-m/2,

so the Taylor coefficients z_n of u at s0 follow a fixed five-term
recurrence from the state (u, u_s) alone, written afresh here in float:

    s0 (n+1)(n+2) z_{n+2} = -(n+1)(n-1) z_{n+1}
                            + 4 (p0 z_n + p1 z_{n-1} + p2 z_{n-2} + p3 z_{n-3}),

p0 = m^2 s0 + c - omega^2 s0^3, p1 = m^2 - 3 omega^2 s0^2,
p2 = -3 omega^2 s0, p3 = -omega^2, and du/dx = u_s / (2 s).  One step
is :func:`_taylor_step`.  The series' radius is s0 (the origin is
singular), so a step reaches at most min(1/2, (REL_TOL 2^-30)^(1/ORDER))
of s0, about 0.24 s0.  In the oscillatory zone a step of degree 31 spans
about 5 radians of the wave and costs about 10 us (2-core Xeon, Python
3.11), pure Python on floats.  The integrator controls every step
against one fixed tolerance, ``REL_TOL``: there is no fixed-step mode
and no tolerance setting.  A call returns only the segment endpoint: its
last step lands on s1 = sqrt(x1), correctly rounded, whose exact square
lies within sqrt(2) ulp of x1 (2^-52 relative), and the state is
reported at x1.  Callers that need several points chain segments.  The
phase ladder in :mod:`susy_ces.scattering` takes no integrator step; the
``scattering/ladder-routes-agree`` check in :mod:`susy_ces.verify`
chains segments of both sectors out to its rungs, as evidence for the
rungs it reads from the large-|y| closed form alone.

The potentials are singular at the origin, so integration domains are
floored at ``x >= ORIGIN_FLOOR_COEFF / m**2``; seed data comes from the
closed form (or any caller-supplied values) strictly inside (0, inf).
"""
from __future__ import annotations

import cmath
import math
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

from ._points import flat, shaped
from .errors import (DomainError, DoubleRangeExceeded, InvalidParams,
                     MaxStepsExceeded, NonConvergence, StepSizeUnderflow)
from .potential import Sector, _check_sector

if TYPE_CHECKING:
    from decimal import Decimal

__all__ = [
    "ODEProblem", "ODESolution", "schrodinger_problem",
    "integrate", "frobenius_series_solution", "residual_schrodinger",
    "ORIGIN_FLOOR_COEFF",
]

#: integration domains must satisfy x >= ORIGIN_FLOOR_COEFF / m^2
ORIGIN_FLOOR_COEFF = 1e-3
#: the integrator's per-step error scale: REL_TOL times the part's size
#: plus ABS_TOL
REL_TOL = 1e-10
ABS_TOL = 1e-12
#: accepted plus rejected steps one segment may take, over both parts
MAX_STEPS = 10_000_000

#: degree of the Taylor polynomial one step sums; ORDER - 1 is a multiple
#: of 5, since a pass of the kernel's loop makes five terms
ORDER = 31
#: the recurrence's weights for five terms w_{n+2} a pass: -(n + 1)(n - 1),
#: 1 / ((n + 1)(n + 2)) and n + 2, for n = 0 .. ORDER - 2
_REC = tuple(tuple(v for n in range(k, k + 5)
                   for v in (-(n + 1.0) * (n - 1.0), 1.0 / ((n + 1) * (n + 2)), n + 2.0))
             for k in range(0, ORDER - 1, 5))
#: a wave e^(kt) has its degree-ORDER term at REL_TOL where
#: k|t| = (ORDER! REL_TOL)^(1/ORDER); a segment's first trial step takes
#: 0.8 of that, since the wave chirps in s.  On the 60 rung-to-rung
#: segments of verify's ladder check, each a real solution, 2 of the 60
#: first trials fail at 0.8, and 58 at the full length
_FIRST_REACH = 0.8 * math.exp(math.lgamma(ORDER + 1.0) / ORDER) * REL_TOL ** (1.0 / ORDER)
#: share of the reach-to-origin s a step may take, so the singular part
#: of the tail stays far below the tolerance: about 0.24
_REACH = min(0.5, (REL_TOL * 2.0 ** -30) ** (1.0 / ORDER))


class ODEProblem(NamedTuple):
    """Second-order problem Z'' = q(x) Z; the integrator takes and returns (Z, Z').

    ``q(x) = mm/x + c x^(-3/2) - ee`` is V(x) - omega^2 with the constants
    ``coeffs = (mm, c, ee) = (m^2, sign m/2, omega^2)``, built by
    :func:`schrodinger_problem`.
    """

    m: float
    omega: float
    sector: Sector
    x_floor: float
    coeffs: tuple[float, float, float]


def schrodinger_problem(m: float, omega: float, sector: Sector) -> ODEProblem:
    m = float(m)
    omega = float(omega)
    if not (math.isfinite(m) and m > 0.0 and math.isfinite(omega) and omega > 0.0):
        raise InvalidParams(f"m={m!r}, omega={omega!r} must be positive finite reals")
    _check_sector(sector)
    # each product is the one potential.V rounds, so q(x) is the same double
    mm = m * m
    return ODEProblem(m, omega, sector, ORIGIN_FLOOR_COEFF / mm,
                      (mm, sector.sign * (0.5 * m), omega * omega))


class ODESolution(NamedTuple):
    """Endpoint (x, Z, Z') of one integration segment and its step counts,
    added over the parts of Z: each part is a real solution of its own."""

    x: float
    value: complex
    derivative: complex
    n_steps: int
    n_rejected: int


def _taylor_step(mm: float, cm: float, ee: float, s: float, hs: float, u: float,
                 us: float) -> tuple[float, float, float, float]:
    """One Taylor step of length hs in s = sqrt(x) for a real solution u.

    The equation reads s u_ss - u_s = 4 (mm s + cm - ee s^3) u.  The step
    from s sums the scaled terms w_n = z_n hs^n up to n = ORDER, z_n
    being the Taylor coefficients of u at s: w_0 = u, w_1 = hs u_s and

        (n + 1)(n + 2) w_{n+2} = -(n + 1)(n - 1) (hs/s) w_{n+1}
                                 + sum_{k=0..3} Q_k w_{n-k},

    Q_k = 4 p_k hs^(k+2) / s, with p_0 = mm s + cm - ee s^3,
    p_1 = mm - 3 ee s^2, p_2 = -3 ee s and p_3 = -ee.  Returns
    (u, u_s) at s + hs and the last two terms w_{ORDER-1} and w_ORDER.
    """
    g = hs / s
    q0 = 4.0 * hs * g * (mm * s + cm - ee * s * s * s)
    q1 = 4.0 * hs * hs * g * (mm - 3.0 * ee * s * s)
    q2 = -12.0 * ee * hs * hs * hs * hs
    q3 = q2 * hs / (3.0 * s)
    # the window w_{n-3} .. w_{n+1} rotates through the names a .. e; v
    # and t sum the new u and hs times the new u_s
    a = b = c = 0.0
    d, e = u, hs * us
    v, t = d + e, e
    for a0, d0, n0, a1, d1, n1, a2, d2, n2, a3, d3, n3, a4, d4, n4 in _REC:
        a = (a0 * g * e + q0 * d + q1 * c + q2 * b + q3 * a) * d0
        b = (a1 * g * a + q0 * e + q1 * d + q2 * c + q3 * b) * d1
        c = (a2 * g * b + q0 * a + q1 * e + q2 * d + q3 * c) * d2
        d = (a3 * g * c + q0 * b + q1 * a + q2 * e + q3 * d) * d3
        e = (a4 * g * d + q0 * c + q1 * b + q2 * a + q3 * e) * d4
        v += a + b + c + d + e
        t += n0 * a + n1 * b + n2 * c + n3 * d + n4 * e
    return v, t / hs, d, e


def _integrate_rhs(coeffs: tuple[float, float, float], x0: float, x1: float,
                   y0: tuple[complex, complex]) -> ODESolution:
    """Adaptive Taylor core for Z'' = q(x) Z, q(x) = mm/x + c x^(-3/2) - ee.

    q is real, so the real and imaginary parts of Z each solve the
    equation: each part is stepped as a real solution u of its own by
    :func:`_taylor_step`, in s = sqrt(x), and the step counts add.  A
    part whose value and derivative are both exactly 0 stays 0 and takes
    no steps.  The series' radius is s (the origin is singular), so a
    step reaches at most ``_REACH`` of it.  The step is accepted when its
    last two terms stay below ``REL_TOL`` times max(|u|, |u_new|) plus
    ``ABS_TOL``.  Since the n-th term scales as h^n, those terms give the
    next step length; the first trial step comes from q's local
    wavenumber.  u' = u_s / (2 s).
    """
    if x1 == x0:
        raise InvalidParams("empty integration interval")
    if not (0.0 < x0 < math.inf and 0.0 < x1 < math.inf):
        raise InvalidParams(f"segment [{x0!r}, {x1!r}] must lie in 0 < x < inf: "
                            f"the integrator steps in s = sqrt(x)")
    z, dz = complex(y0[0]), complex(y0[1])
    if not (cmath.isfinite(z) and cmath.isfinite(dz)):
        raise InvalidParams(f"initial state ({z!r}, {dz!r}) must be finite")
    mm, cm, ee = coeffs
    max_steps = MAX_STEPS
    p1, p2 = 1.0 / (ORDER - 1), 1.0 / ORDER
    tiny = 16 * sys.float_info.epsilon
    s0, s1 = math.sqrt(x0), math.sqrt(x1)
    direction = 1.0 if s1 > s0 else -1.0
    # the first trial step is sized from q's local wavenumber, 2 s sqrt|q|
    # in s
    k = 2.0 * s0 * math.sqrt(abs(mm / x0 + cm / (x0 * s0) - ee))
    h0 = _FIRST_REACH / k if k > 0.0 else math.inf

    parts = []
    n_steps = 0
    n_rej = 0
    for u, du in ((z.real, dz.real), (z.imag, dz.imag)):
        s, h, us = s0, h0, 2.0 * s0 * du
        while s != s1 and (u != 0.0 or us != 0.0):
            if n_steps + n_rej >= max_steps:
                raise MaxStepsExceeded(f"exceeded {max_steps} steps at x={s * s:.6g}")
            h = min(h, _REACH * s)
            is_last = (s1 - s) * direction <= h
            hs = s1 - s if is_last else h * direction
            if abs(hs) <= tiny * s:
                raise StepSizeUnderflow(
                    f"step underflow at x={s * s:.6g} (h={h:.3g} in sqrt(x))")
            v, t, e1, e2 = _taylor_step(mm, cm, ee, s, hs, u, us)
            if not abs(v) + abs(t) < math.inf:
                raise DoubleRangeExceeded(
                    f"the solution passes the largest double near x={s * s:.6g}")
            e1, e2 = abs(e1), abs(e2)
            scale = ABS_TOL + REL_TOL * max(abs(u), abs(v))
            # the step that would put both last terms at the scale
            rho = min((scale / e1) ** p1 if e1 > 0.0 else math.inf,
                      (scale / e2) ** p2 if e2 > 0.0 else math.inf)
            if e1 <= scale and e2 <= scale:
                s = s1 if is_last else s + hs
                u, us = v, t
                n_steps += 1
            else:
                n_rej += 1
            h = abs(hs) * min(0.9 * rho, 10.0)
        parts.append((u, us / (2.0 * s1)))
    (ur, dur), (ui, dui) = parts
    return ODESolution(x1, complex(ur, ui), complex(dur, dui), n_steps, n_rej)


def integrate(problem: ODEProblem, x0: float, x1: float, z0: complex,
              dz0: complex) -> ODESolution:
    """Propagate (Z, Z') from x0 to x1 (either direction) adaptively.

    The real and imaginary parts of Z are each a real solution, stepped
    on its own; a part that is exactly 0 stays 0 and takes no steps.
    Each step's last two Taylor terms must stay below ``REL_TOL`` times
    that part's size plus ``ABS_TOL``.  Returns the state at exactly x1
    with the step counts of the segment, added over the parts.

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
                          (complex(z0), complex(dz0)))


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
#: term budget of one Frobenius sum; inside the series range of the
#: closed forms (|y| <= 60) a few hundred suffice
FROBENIUS_MAX_TERMS = 4000
_LOG10E = math.log10(math.e)


def _exponent(re: Decimal, im: Decimal) -> float:
    """floor(log10) of the larger part of re + i im; -inf for zero."""
    return max(re.adjusted() if re else -math.inf, im.adjusted() if im else -math.inf)


def _frobenius_sum(a: complex, sigma: float, y: complex,
                   prec: int) -> tuple[Decimal, Decimal, float, int]:
    """(sr, si, peak, n): the sum sr + i si at ``prec`` significant digits,
    the decimal exponent of its largest term and the n terms summed.

    Inputs enter exactly and each operation rounds once, so the error
    stays below ~n**2 * 10**(peak + 1 - prec).  The sum ends once a term
    falls ``_SAFE_DIGITS`` decimal orders below it, twice in a row.
    """
    from decimal import Decimal, localcontext  # here, so loading the module skips decimal

    with localcontext() as ctx:
        ctx.prec = prec
        ar, ai, yr, yi = (Decimal(v) for v in (a.real, a.imag, y.real, y.imag))
        s0, half = Decimal(sigma), Decimal(0.5)
        tr, ti = sr, si = Decimal(1), Decimal(0)
        peak = hits = 0
        for k in range(FROBENIUS_MAX_TERMS):
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
        f"Frobenius series did not converge within {FROBENIUS_MAX_TERMS} terms "
        f"(a={a!r}, sigma={sigma}, |y|={abs(y):.3g})")


def frobenius_series_solution(a: complex, sigma: float, y: complex) -> complex:
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
    sr, si, peak, n = _frobenius_sum(a, sigma, y, prec)
    # digits the sum stands above the bound; a zero sum counts as one
    # unit in the last digit of the peak term
    above = max(_exponent(sr, si) - peak + prec, 0) - 2 * len(str(n)) - 1
    if above < _SAFE_DIGITS:
        prec += _SAFE_DIGITS - above + 2
        sr, si, _, _ = _frobenius_sum(a, sigma, y, prec)
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
    and h = 1e-3 this sits around 1e-8 relative.  ``energy`` scales the
    residual, so it must be finite and > 0 (:class:`InvalidParams`).
    """
    if not 0.0 < energy < math.inf:
        raise InvalidParams(f"energy={energy!r} must be a positive finite real")
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
