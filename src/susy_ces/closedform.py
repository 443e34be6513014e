"""Closed-form scattering solutions of the partner potentials.

For energy E = omega^2 > 0 the Schrodinger equation
-Z'' + V_pm Z = E Z admits solutions built from two confluent
hypergeometric pieces in the variable y = -2 i omega x:

    a1 = i eta = i m^2 / (2 omega),   a2 = a1 + 1/2,
    rtilde_1, rtilde_2  =  the 1/2-type and 3/2-type components
    Z_pm = e^{-i pi/4} ( rtilde_1 +- i rtilde_2 )

with the PLUS combination solving V_plus and MINUS solving V_minus.
Two branches (different component parameterisations) give linearly
independent solutions whose Wronskian is an exact constant.  Both come
from the one pair P = M(a2, 1/2; y), Q = M(a2, 3/2; y) through the two
products of :func:`_products`, hP = h P and hR = h R (h = e^{-y/2},
R = 2 sqrt(eta) sqrt(|y|) Q), with c2 each branch's constant:

    branch I :  rtilde_1 = h M(a1, 1/2; y) = conj(hP)
                rtilde_2 = c2 h y^{1/2} M(a1+1, 3/2; y) = i conj(hR)
    branch II:  rtilde_1 = h y^{1/2} Q = conj(c2) hR,   rtilde_2 = c2 h P = c2 hP

Branch I is Kummer's transformation M(a, b; y) = e^y M(b - a, b; -y)
(DLMF 13.2.39), with conj M(a, b; y) = M(conj a, b; conj y) for real b
and conj y = -y on the ray, and c2^I y^{1/2} = 2 i sqrt(eta |y|); branch
II takes conj(c2^II) 2 sqrt(eta |y|) = y^{1/2}.  So

    Z^I_-+ = e^{-i pi/4} conj(hP +- hR),   Z^II_pm = pm c2^II conj(Z^I_pm):

the second branch is the complex conjugate of the first, up to a constant,
as V_pm is real and the conjugate of a solution at the real energy omega^2
solves the same equation.  Multiplying by +-i and conjugating are exact, so
the ladder's samples (:func:`_ladder_sample`) are :func:`solution_Z`'s bit for bit.
No evaluation forms y^{1/2}: its convention, y^{1/2} = sqrt(2 omega x)
e^{-i pi/4} (principal powers of i, i^{1/2} = e^{i pi/4}), only defines
the constants of :func:`coupling_constants`.

Derivatives come from the partners' coupled first-order system (never
from finite differences), so either branch needs only P and Q, from one
call of :func:`susy_ces.specfun.kummer_pair` for any ``x``, assembled point
by point in Python ``complex`` for a lone point and a grid alike
(:mod:`susy_ces._points`), so a point's bits never depend on the grid.  The
public functions refuse |y| = 2 omega x > ``SERIES_ZMAX`` (60), as it does.
"""
from __future__ import annotations

import cmath
import math
import sys
from enum import Enum
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple

from ._points import flat, shaped
from .errors import DoubleRangeExceeded, InvalidParams
from .potential import Sector, _check_sector, _check_x, _w
# chf_1f1, chf_1f1_deriv: only the benchmark tracer looks them up; they go with its wrapping by name
from .specfun import chf_1f1, chf_1f1_deriv, kummer_pair  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

#: e^{-i pi/4}: global prefactor of Z; also the phase of y^{1/2} for x > 0
PHASE_M4 = cmath.exp(-0.25j * math.pi)
#: i^{1/2} (principal)
PHASE_P4 = cmath.exp(0.25j * math.pi)


class Branch(Enum):
    """Which of the two independent closed-form solutions."""

    I = "I"
    II = "II"


class SolutionParams(NamedTuple):
    """Derived constants for one (m, omega) solution family, each formed once.

    ``a1`` = i eta (eta = m^2/(2 omega)) and ``a2`` = a1 + 1/2 are the hypergeometric
    parameters (lambda_j = -4 a_j, :func:`hermite_lambda`); ``sqrt_2w`` = sqrt(2 omega),
    and ``rt_eta`` = sqrt(eta), or m/sqrt(2 omega) where eta is subnormal or 0 (m^2
    underflowed) and sqrt(eta) would keep only its few bits.  Every field is finite.
    """

    m: float
    omega: float
    a1: complex
    a2: complex
    sqrt_2w: float
    rt_eta: float


def _m2_over_omega(m: float, omega: float, k: int) -> float:
    """2^k m^2/omega: the mantissas' rounded quotient times a power of two, or OverflowError."""
    (fm, em), (fw, ew) = math.frexp(m), math.frexp(omega)
    return math.ldexp((fm * fm) / fw, 2 * em - ew + k)


def solution_params(m: float, omega: float) -> SolutionParams:
    """Validate (m, omega) and assemble the solution constants.

    eta = m^2/(2 omega) is formed from the mantissas and exponents of m and
    omega, so m^2 never overflows: it is (0.5 (m m))/omega bit for bit where
    that and 0.5 (m m) are normal.  DoubleRangeExceeded where eta is past the double range.
    """
    m = float(m)
    omega = float(omega)
    if not (math.isfinite(m) and m > 0.0):
        raise InvalidParams(f"m={m!r} must be a positive finite real")
    if not (math.isfinite(omega) and omega > 0.0):
        raise InvalidParams(f"omega={omega!r} must be a positive finite real")
    try:
        a1 = complex(0.0, _m2_over_omega(m, omega, -1))
    except OverflowError:
        raise DoubleRangeExceeded(
            f"eta = m^2/(2 omega) is not a finite double at m={m!r}, omega={omega!r}: "
            f"eta passes the largest double ({sys.float_info.max:.4g})") from None
    # 2 omega and omega / 2 are exact on either side: sqrt(2 omega) correctly
    # rounded, and finite past omega = 8.99e307, where 2 omega is not
    sqrt_2w = math.sqrt(2.0 * omega) if omega <= 1.0 else 2.0 * math.sqrt(0.5 * omega)
    rt_eta = math.sqrt(a1.imag) if a1.imag >= sys.float_info.min else m / sqrt_2w
    return SolutionParams(m=m, omega=omega, a1=a1, a2=a1 + 0.5, sqrt_2w=sqrt_2w,
                          rt_eta=rt_eta)


def y_of_x(x, omega: float):
    """The hypergeometric argument y = -2 i omega x.

    DoubleRangeExceeded where 2 omega x is past the double range.
    """
    xs, shape = flat(x)
    ys = [-2.0 * omega * v for v in xs]
    if any(map(math.isinf, ys)):
        raise DoubleRangeExceeded(
            f"y = -2 i omega x at omega={omega!r} exceeds the double range "
            f"(magnitude above {sys.float_info.max:.4g})")
    return shaped([complex(0.0, v) for v in ys], shape, complex)


def _range_error(p: SolutionParams) -> DoubleRangeExceeded:
    return DoubleRangeExceeded(
        f"closed form at m={p.m:g}, omega={p.omega:g} exceeds the double "
        f"range (magnitude above {sys.float_info.max:.4g})")


class CouplingConstants(NamedTuple):
    """Coefficients (c1, c2) of the two components rtilde_1, rtilde_2."""

    c1: complex
    c2: complex


def coupling_constants(p: SolutionParams, branch: Branch) -> CouplingConstants:
    """Relative normalisation locking the two components of a branch.

    Any common rescaling of (c1, c2) is immaterial, but their *ratio* is
    fixed by requiring that the pair satisfies the coupled first-order
    system (equivalently, that Z_pm obey the intertwining relations).
    DoubleRangeExceeded where c2 is past the double range.
    """
    if branch is Branch.I:
        c2 = 2.0 * p.sqrt_2w * PHASE_P4 * p.a1 / p.m
    elif branch is Branch.II:
        c2 = p.sqrt_2w * PHASE_P4 / (2.0 * p.m)
    else:
        raise InvalidParams(f"branch={branch!r} is not a Branch")
    _finite(p, [[c2]])
    return CouplingConstants(1.0 + 0j, c2)


def _products(rt_eta: float, s: float, pp: complex, qq: complex) -> tuple[complex, complex]:
    """(h P, h R) at |y| = s from P, Q there: h = e^{-y/2}, R = 2 sqrt(eta) sqrt(s) Q,
    ``rt_eta`` = sqrt(eta), a product of roots as eta s can pass the largest double."""
    h = cmath.exp(complex(0.0, 0.5 * s))            # y = -i s
    return h * pp, h * ((2.0 * (rt_eta * math.sqrt(s))) * qq)


def _components(p: SolutionParams, branches: tuple[Branch, ...],
                xs: list[float]) -> list[list[tuple[complex, complex, complex, complex]]]:
    """(rtilde_1, rtilde_2, d rtilde_1/dx, d rtilde_2/dx) at each checked
    point, for each of ``branches``, all from one call of :func:`kummer_pair`.

    Unchecked: a value past the double range comes out non-finite, and so
    does every value assembled from it, so callers check what they return.
    """
    w, m = p.omega, p.m
    ys = [2.0 * w * v for v in xs]                  # |y|, y = -i |y|
    pair, out = kummer_pair(p.a1.imag, ys), []
    try:
        hs = list(map(_products, repeat(p.rt_eta), ys, *pair))
        wxs = [-m / math.sqrt(v) for v in xs]       # W(x)
        for branch in branches:
            if branch is Branch.I:                  # (conj hP, i conj hR)
                rs = [(hp.conjugate(), 1j * hr.conjugate()) for hp, hr in hs]
            else:                                   # (conj(c2) hR, c2 hP)
                c2 = coupling_constants(p, branch).c2
                cc = c2.conjugate()
                rs = [(cc * hr, c2 * hp) for hp, hr in hs]
            out.append([(r1, r2, 1j * (w * r1 + wx * r2), -1j * (w * r2 + wx * r1))
                        for (r1, r2), wx in zip(rs, wxs)])
    except OverflowError as e:   # cmath and math raise; arithmetic gives inf
        raise _range_error(p) from e
    return out


def _finite(p: SolutionParams, cols) -> None:
    """Raise DoubleRangeExceeded unless every value in ``cols`` is finite."""
    if not all(all(map(cmath.isfinite, col)) for col in cols):
        raise _range_error(p)


def components(p: SolutionParams, branch: Branch, x):
    """(rtilde_1, rtilde_2, d rtilde_1/dx, d rtilde_2/dx), each shaped like ``x``.

    The one accessor for them, all from one :func:`specfun.kummer_pair`
    call; a point's bits do not depend on how many it is sent with.  A
    scalar ``x`` gives Python ``complex`` values, an array ndarrays.

    Recipe (h = e^{-y/2}, W = -m/sqrt(x), c2 the branch's own constant):

        P = M(a2, 1/2; y), Q = M(a2, 3/2; y), R = 2 sqrt(eta) sqrt(|y|) Q
        branch I :  r1 = conj(h P)                 r2 = i conj(h R)
        branch II:  r1 = conj(c2) h R              r2 = c2 h P
        system   :  r1' = i (omega r1 + W r2)      r2' = -i (omega r2 + W r1)
    """
    xs, shape = _check_x(x)
    cols = list(zip(*_components(p, (branch,), xs)[0])) or [()] * 4
    _finite(p, cols)
    return tuple(shaped(list(col), shape, complex) for col in cols)


class SolutionSample(NamedTuple):
    """A solution evaluated together with its first derivative.

    Each field is a ``float``/``complex`` for a scalar ``x`` and an
    ndarray of its shape otherwise.
    """

    x: float | np.ndarray
    value: complex | np.ndarray
    derivative: complex | np.ndarray


def _sectors(p: SolutionParams, rows, sectors: tuple[Sector, ...]
             ) -> list[tuple[list[complex], list[complex]]]:
    """Z_pm = e^{-i pi/4} (rtilde_1 +- i rtilde_2) and its derivative at each
    point, for each of ``sectors``, from component rows (r1, r2, dr1, dr2)."""
    out = []
    for sector in sectors:
        sg = 1j * _check_sector(sector).sign
        z = [PHASE_M4 * (r1 + sg * r2) for r1, r2, _, _ in rows]
        dz = [PHASE_M4 * (dr1 + sg * dr2) for _, _, dr1, dr2 in rows]
        _finite(p, (z, dz))
        out.append((z, dz))
    return out


def _solution(p: SolutionParams, branches: tuple[Branch, ...], sectors: tuple[Sector, ...],
              xs: list[float]) -> list[list[tuple[list[complex], list[complex]]]]:
    """Z and dZ/dx at each checked point, for each of ``branches`` and,
    in each, for each of ``sectors``, all from one call of :func:`kummer_pair`."""
    return [_sectors(p, rows, sectors) for rows in _components(p, branches, xs)]


def solution_Z(p: SolutionParams, branch: Branch, sector: Sector, x) -> SolutionSample:
    """Closed-form solution Z and dZ/dx at the points ``x``.

    Z_pm = e^{-i pi/4} (rtilde_1 +- i rtilde_2); PLUS solves V_plus,
    MINUS solves V_minus, at energy omega^2.
    """
    xs, shape = _check_x(x)
    [(z, dz)], = _solution(p, (branch,), (sector,), xs)
    return SolutionSample(shaped(xs, shape), shaped(z, shape, complex),
                          shaped(dz, shape, complex))


def _ladder_sample(p: SolutionParams, s: float, w: float, pp: complex,
                   qq: complex) -> tuple[float, float, float, float]:
    """(u, u'/omega, v, v'/omega) at one x: u = Re Z^I_- and its real SUSY image v = -Im Z^I_+.

    ``s`` is |y| = 2 omega x and ``w`` is W(x)/omega, formed once a rung; ``pp``, ``qq``
    are P and Q at s, from :func:`kummer_pair` or, past the series range,
    :func:`specfun.asymptotic_pair`.  Z^I_-+ = e^{-i pi/4} conj(hP +- hR) from
    :func:`_products`, :func:`solution_Z`'s values on the same pair bit for bit, and the
    first-order system gives u'/omega = v - w u and v'/omega = w v - u: the four values
    stay doubles where omega u' does not.  Raises DoubleRangeExceeded where one is not finite.
    """
    hp, hr = _products(p.rt_eta, s, pp, qq)
    u = (PHASE_M4 * (hp + hr).conjugate()).real
    v = -(PHASE_M4 * (hp - hr).conjugate()).imag
    out = (u, v - w * u, v, w * v - u)
    if not all(map(math.isfinite, out)):
        raise _range_error(p)
    return out


def wronskian_Z(p: SolutionParams, sector: Sector, x):
    """W_x[Z^I, Z^II] = Z^I dZ^II/dx - Z^II dZ^I/dx, evaluated pointwise."""
    xs, shape = _check_x(x)
    [(zi, dzi)], [(zii, dzii)] = _solution(p, (Branch.I, Branch.II), (sector,), xs)
    wr = [a * d - b * c for a, c, b, d in zip(zi, dzi, zii, dzii)]
    _finite(p, (wr,))
    return shaped(wr, shape, complex)


def wronskian_exact(p: SolutionParams, sector: Sector) -> complex:
    """The constant the Wronskian must equal, -+ omega i^{3/2} sqrt(2 omega)/m;
    DoubleRangeExceeded where it is past the double range."""
    wr = -_check_sector(sector).sign * p.omega * (1j * PHASE_P4) * p.sqrt_2w / p.m
    _finite(p, [[wr]])
    return wr


def hermite_lambda(p: SolutionParams, j: int) -> complex:
    """Eigenvalue parameter of the equivalent Hermite-type equation.

    lambda_j = -(1 - eps_j) - 2 i m^2 / omega with eps_1 = +1, eps_2 = -1;
    algebraically lambda_j = -4 a_j, and bit for bit wherever eta is normal, as both
    routes scale the one rounded quotient m^2/omega (:func:`_m2_over_omega`) by
    powers of two.  DoubleRangeExceeded where 4 eta passes the double range.
    """
    if j not in (1, 2):
        raise InvalidParams(f"j={j!r} must be 1 or 2")
    eps = 1.0 if j == 1 else -1.0
    try:
        return complex(-(1.0 - eps), -_m2_over_omega(p.m, p.omega, 1))
    except OverflowError:
        raise _range_error(p) from None


def susy_map(p: SolutionParams, sample: SolutionSample,
             from_sector: Sector) -> SolutionSample:
    """Map a solution of one sector to its partner via the first-order ladder.

    From sector +- to -+, with sg = -+1 (+1 from MINUS):
        Z_-+ = (Z_+-' + sg W Z_+-) / (i omega),   Z_-+' = i omega Z_+- + sg W Z_-+

    The derivative formulas use the Schrodinger equation once, so the mapped sample is
    again a (value, derivative) pair on the same grid and the map is an exact involution
    up to rounding.  DoubleRangeExceeded where a mapped value is past the double range.
    """
    sg = -_check_sector(from_sector, "from_sector").sign
    xs, shape = _check_x(sample.x)
    iw = 1j * p.omega
    val, der = [], []
    for x, z, dz in zip(xs, flat(sample.value, complex)[0], flat(sample.derivative, complex)[0]):
        wx = sg * _w(p.m, x)
        val.append(v := (dz + wx * z) / iw)
        der.append(iw * z + wx * v)
    _finite(p, (val, der))
    return SolutionSample(sample.x, shaped(val, shape, complex), shaped(der, shape, complex))
