"""Independent numerical checks of the closed-form solutions.

Nothing in this module reuses the hypergeometric evaluator: the three
tools here — an adaptive Runge-Kutta integrator for the complex
Schrodinger equation, a Frobenius power series grown directly from the
ODE recurrence and summed in the standard library's decimal arithmetic,
and a finite-difference residual — are deliberately separate routes to
the same numbers, so agreement is evidence rather than tautology.

The integrator is an embedded Dormand-Prince 5(4) pair with PI step
control and first-same-as-last reuse, operating on scalar Python
complex pairs (Z, Z').  It is pure Python with no dependency, so the
step is written out as straight-line code: the six stages and the error
norm are unrolled with the tableau in locals, and q(x) is a closure over
the precomputed constants of the potential.  A step costs about 12 us
(2-core Xeon, Python 3.11), half what a loop over the tableau costs; the
tests check it bit for bit against such a table-driven loop.  Every
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
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DomainError, InvalidParams, MaxStepsExceeded,
                     NonConvergence, StepSizeUnderflow)
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

# Dormand-Prince 5(4) tableau with its zero entries left out: nodes c2..c5
# (c6 = c7 = 1), stage rows a_i1.., fifth-order weights b1, b3..b6 (also
# the last stage's row, hence first-same-as-last) and the error weights
# e = b5 - b4 for stages 1, 3..7
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


@dataclass(frozen=True)
class ODEProblem:
    """Second-order problem Z'' = q(x) Z; the integrator carries (Z, Z').

    ``q(x) = V(x) - omega^2`` is built by :func:`schrodinger_problem`.
    """

    m: float
    omega: float
    sector: Sector
    x_floor: float
    q: Callable[[float], float] = field(compare=False, repr=False)


def schrodinger_problem(m: float, omega: float, sector: Sector) -> ODEProblem:
    m = float(m)
    omega = float(omega)
    if not (math.isfinite(m) and m > 0.0 and math.isfinite(omega) and omega > 0.0):
        raise InvalidParams(f"m={m!r}, omega={omega!r} must be positive finite reals")
    if not isinstance(sector, Sector):
        raise InvalidParams(f"sector={sector!r} is not a Sector")
    # the constants of V(x) - E, computed once; each product is the one
    # potential.V rounds, so q(x) is the same double
    mm, c, ee, sqrt = m * m, sector.sign * (0.5 * m), omega * omega, math.sqrt

    def q(x: float) -> float:
        return mm / x + c / (x * sqrt(x)) - ee

    return ODEProblem(m, omega, sector, ORIGIN_FLOOR_COEFF / mm, q)


class ODESolution(NamedTuple):
    """Endpoint (x, Z, Z') of one integration segment and its step counts."""

    x: float
    value: complex
    derivative: complex
    n_steps: int
    n_rejected: int


def _initial_step(q, x0: float, y0, f0, direction: float, span: float) -> float:
    # standard two-probe heuristic: balance |y|/|f| with a curvature probe
    d0 = max(abs(y0[0]), abs(y0[1]))
    d1 = max(abs(f0[0]), abs(f0[1]))
    h0 = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    h0 = min(h0, span)
    y1 = (y0[0] + direction * h0 * f0[0], y0[1] + direction * h0 * f0[1])
    f1 = (y1[1], q(x0 + direction * h0) * y1[0])
    d2 = max(abs(f1[0] - f0[0]), abs(f1[1] - f0[1])) / h0
    dm = max(d1, d2)
    h1 = (0.01 / dm) ** 0.2 if dm > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1, span)


def _integrate_rhs(q: Callable, x0: float, x1: float,
                   y0: tuple[complex, complex], *, rel_tol: float = 1e-10) -> ODESolution:
    """Adaptive core for Z'' = q(x) Z, carried as the pair (Z, Z').

    The stages are written out: stage i is the pair (f_i, g_i), the
    slopes of Z and Z', summed in tableau order.
    """
    if x1 == x0:
        raise InvalidParams("empty integration interval")
    if not 0 < rel_tol < 1:
        raise InvalidParams(f"rel_tol={rel_tol!r} must lie in (0, 1)")
    c2, c3, c4, c5 = _C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _A
    b1, b3, b4, b5, b6 = _B
    e1, e3, e4, e5, e6, e7 = _E
    sqrt, ab, max_steps = math.sqrt, ABS_TOL, MAX_STEPS
    tiny = 16 * np.finfo(float).eps
    direction = 1.0 if x1 > x0 else -1.0
    span = abs(x1 - x0)
    x = x0
    z, dz = complex(y0[0]), complex(y0[1])
    f1, g1 = dz, q(x) * z
    h = _initial_step(q, x0, (z, dz), (f1, g1), direction, span)

    n_steps = 0
    n_rej = 0
    err_prev = 1.0
    while (x1 - x) * direction > 0:
        if n_steps + n_rej >= max_steps:
            raise MaxStepsExceeded(f"exceeded {max_steps} steps at x={x:.6g}")
        rem = (x1 - x) * direction
        if rem <= 1.05 * h:
            hs = x1 - x  # land exactly on the endpoint
            is_last = True
        else:
            hs = h * direction
            is_last = False
        if abs(hs) <= tiny * max(abs(x), 1e-300):
            raise StepSizeUnderflow(f"step underflow at x={x:.6g} (h={h:.3g})")
        f2 = dz + hs * (a21 * g1)
        g2 = q(x + c2 * hs) * (z + hs * (a21 * f1))
        f3 = dz + hs * (a31 * g1 + a32 * g2)
        g3 = q(x + c3 * hs) * (z + hs * (a31 * f1 + a32 * f2))
        f4 = dz + hs * (a41 * g1 + a42 * g2 + a43 * g3)
        g4 = q(x + c4 * hs) * (z + hs * (a41 * f1 + a42 * f2 + a43 * f3))
        f5 = dz + hs * (a51 * g1 + a52 * g2 + a53 * g3 + a54 * g4)
        g5 = q(x + c5 * hs) * (z + hs * (a51 * f1 + a52 * f2 + a53 * f3 + a54 * f4))
        f6 = dz + hs * (a61 * g1 + a62 * g2 + a63 * g3 + a64 * g4 + a65 * g5)
        g6 = q(x + hs) * (z + hs * (a61 * f1 + a62 * f2 + a63 * f3 + a64 * f4 + a65 * f5))
        zn = z + hs * (b1 * f1 + b3 * f3 + b4 * f4 + b5 * f5 + b6 * f6)
        f7 = dzn = dz + hs * (b1 * g1 + b3 * g3 + b4 * g4 + b5 * g5 + b6 * g6)
        g7 = q(x + hs) * zn
        # weighted RMS of the embedded error over the two components
        u, v = abs(z), abs(zn)
        r0 = abs(hs * (e1 * f1 + e3 * f3 + e4 * f4 + e5 * f5 + e6 * f6 + e7 * f7)) \
            / (ab + rel_tol * (v if v > u else u))
        u, v = abs(dz), abs(dzn)
        r1 = abs(hs * (e1 * g1 + e3 * g3 + e4 * g4 + e5 * g5 + e6 * g6 + e7 * g7)) \
            / (ab + rel_tol * (v if v > u else u))
        err = sqrt(0.5 * (r0 * r0 + r1 * r1))
        if err <= 1.0:
            x = x1 if is_last else x + hs
            z, dz = zn, dzn
            f1, g1 = f7, g7  # FSAL
            n_steps += 1
            fac = 0.9 * err ** -0.17 * err_prev ** 0.04 if err > 0 else 5.0
            h = h * min(5.0, max(0.2, fac))
            err_prev = max(err, 1e-4)
        else:
            n_rej += 1
            h = h * min(1.0, max(0.2, 0.9 * err ** -0.2))

    return ODESolution(x, z, dz, n_steps, n_rej)


def integrate(problem: ODEProblem, x0: float, x1: float, z0: complex,
              dz0: complex, *, rel_tol: float = 1e-10) -> ODESolution:
    """Propagate (Z, Z') from x0 to x1 (either direction) adaptively.

    Each step's error, weighted by ``rel_tol`` times the state's size
    plus ``ABS_TOL``, must stay below one.  Returns the state at exactly
    x1 with the step counts of the segment.

    Raises DomainError if the segment leaves the singularity-guarded
    domain x >= problem.x_floor.
    """
    lo = min(float(x0), float(x1))
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise DomainError("integration endpoints must be finite")
    if lo < problem.x_floor:
        raise DomainError(
            f"segment reaches x={lo:.3g} below the origin floor {problem.x_floor:.3g}")
    return _integrate_rhs(problem.q, float(x0), float(x1),
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

    ``zfunc`` and ``vfunc`` must accept vectorised x.  The second
    derivative is the five-point central stencil
    (-1, 16, -30, 16, -1) / (12 h^2), so the residual floor is set by
    sample noise amplified by ~5.3/h^2; with analytic samples at 1e-15
    and h = 1e-3 this sits around 1e-8 relative.
    """
    h = _STENCIL_H
    xa = np.asarray(x, dtype=float)
    if np.any(xa - 2 * h <= 0):
        raise DomainError(f"stencil would cross x = 0; need x > {2 * h:g}")
    offsets = (-2, -1, 0, 1, 2)
    w = (-1.0, 16.0, -30.0, 16.0, -1.0)
    zs = [zfunc(xa + k * h) for k in offsets]
    d2 = sum(wi * zi for wi, zi in zip(w, zs)) / (12.0 * h * h)
    z0 = zs[2]
    res = d2 + (energy - vfunc(xa)) * z0
    return np.abs(res) / (energy * np.maximum(1.0, np.abs(z0)))
