"""Closed-form scattering solutions of the partner potentials.

For energy E = omega^2 > 0 the Schrodinger equation
-Z'' + V_pm Z = E Z admits solutions built from two confluent
hypergeometric pieces in the variable y = -2 i omega x:

    a1 = i m^2 / (2 omega),   a2 = a1 + 1/2,
    rtilde_1, rtilde_2  =  the 1/2-type and 3/2-type components
    Z_pm = e^{-i pi/4} ( rtilde_1 +- i rtilde_2 )

with the PLUS combination solving V_plus and MINUS solving V_minus.
Two branches (different component parameterisations) give linearly
independent solutions whose Wronskian is an exact constant:

    branch I :  rtilde_1 = h M(a1, 1/2; y)       rtilde_2 = c2 h s M(a1+1, 3/2; y)
    branch II:  rtilde_1 = h s M(a2, 3/2; y)     rtilde_2 = c2 h M(a2, 1/2; y)

with h = e^{-y/2} and s = y^{1/2}.  Both come from the one pair
P = M(a2, 1/2; y), Q = M(a2, 3/2; y).  Kummer's transformation
M(a, b; y) = e^y M(b - a, b; -y) (DLMF 13.2.39), with conj M(a, b; y) =
M(conj a, b; conj y) for real b and conj y = -y on the ray, gives
h M(a1, 1/2; y) = conj(h P) and h M(a1+1, 3/2; y) = conj(h Q).  As
c2^II conj(c2^I s) = s for eta = m^2 / (2 omega), this makes

    Z^II_pm = pm c2^II conj(Z^I_pm):

the second branch is the complex conjugate of the first, up to a
constant.  It holds because V_pm is real, so the conjugate of a
solution at the real energy omega^2 solves the same equation.

All square roots of y follow one fixed convention,
y^{1/2} = sqrt(2 omega x) e^{-i pi/4}, consistent with principal powers
of i (i^{1/2} = e^{i pi/4}); mixing conventions flips relative signs
between the components, which is the single easiest way to break every
identity downstream, so the convention lives in exactly one place here.

Derivatives come from the partners' coupled first-order system (never
from finite differences), so either branch needs only P and Q, from one
call of :func:`susy_ces.specfun.kummer_pair` for any ``x``, assembled by
one loop in Python ``complex`` for a lone point and a grid alike
(:mod:`susy_ces._points`), so a point's bits never depend on the grid.
The public functions refuse |y| = 2 omega x > ``SERIES_ZMAX`` (60), as
``kummer_pair`` does; :func:`_ladder_sample` reads the phase ladder's
real samples from any pair function, in real arithmetic and with no c2.
"""
from __future__ import annotations

import cmath
import math
import sys
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from ._points import flat, shaped
from .errors import DoubleRangeExceeded, InvalidParams
from .potential import Sector, _check_x, _w
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
    """Derived constants for one (m, omega) solution family.

    ``a1``/``a2`` are the hypergeometric parameters; ``hermite lambda``
    values are recoverable as -4 a_j (see :func:`hermite_lambda`).
    """

    m: float
    omega: float
    a1: complex
    a2: complex
    b: float
    energy: float

    @property
    def sqrt_2w(self) -> float:
        return math.sqrt(2.0 * self.omega)


def solution_params(m: float, omega: float) -> SolutionParams:
    """Validate (m, omega) and assemble the solution constants.

    DoubleRangeExceeded where m^2 or eta = m^2/(2 omega) is past the double range.
    """
    m = float(m)
    omega = float(omega)
    if not (math.isfinite(m) and m > 0.0):
        raise InvalidParams(f"m={m!r} must be a positive finite real")
    if not (math.isfinite(omega) and omega > 0.0):
        raise InvalidParams(f"omega={omega!r} must be a positive finite real")
    a1 = complex(0.0, (0.5 * (m * m)) / omega)
    if not cmath.isfinite(a1):
        raise DoubleRangeExceeded(
            f"eta = m^2/(2 omega) is not a finite double at m={m!r}, omega={omega!r}: "
            f"m^2 or eta passes the largest double ({sys.float_info.max:.4g})")
    return SolutionParams(m=m, omega=omega, a1=a1, a2=a1 + 0.5, b=0.5,
                          energy=omega * omega)


def y_of_x(x, omega: float):
    """The hypergeometric argument y = -2 i omega x."""
    xs, shape = flat(x)
    return shaped([complex(0.0, -2.0 * omega * v) for v in xs], shape, complex)


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
    """
    if branch is Branch.I:
        return CouplingConstants(1.0 + 0j,
                                 2.0 * p.sqrt_2w * PHASE_P4 * p.a1 / p.m)
    if branch is Branch.II:
        return CouplingConstants(1.0 + 0j,
                                 p.sqrt_2w * PHASE_P4 / (2.0 * p.m))
    raise InvalidParams(f"branch={branch!r} is not a Branch")


def _components(p: SolutionParams, branches: tuple[Branch, ...],
                xs: list[float]) -> list[list[tuple[complex, complex, complex, complex]]]:
    """(rtilde_1, rtilde_2, d rtilde_1/dx, d rtilde_2/dx) at each checked
    point, for each of ``branches``, all from one call of :func:`kummer_pair`.

    Unchecked: a value past the double range comes out non-finite, and
    so does every value assembled from it, so callers check what they
    return.
    """
    w, m = p.omega, p.m
    c2s = [coupling_constants(p, branch).c2 for branch in branches]
    ys = [2.0 * w * v for v in xs]                  # |y|, y = -i |y|
    m_half, m_3half = kummer_pair(p.a1.imag, ys)
    exp, sqrt = cmath.exp, math.sqrt
    ph_re, ph_im = PHASE_M4.real, PHASE_M4.imag
    out = []
    try:
        for branch, c2 in zip(branches, c2s):
            conj = branch is Branch.I               # branch I is conj(h P), conj(h Q)
            rows = []
            for v, y, mh, m3 in zip(xs, ys, m_half, m_3half):
                h = exp(complex(0.0, 0.5 * y))      # e^{-y/2}
                r = sqrt(y)
                s = complex(r * ph_re, r * ph_im)   # y^{1/2}
                if conj:
                    r1 = (h * mh).conjugate()
                    r2 = c2 * (s * (h * m3).conjugate())
                else:
                    r1 = (h * s) * m3
                    r2 = c2 * (h * mh)
                wx = -m / sqrt(v)                   # W(x)
                rows.append((r1, r2, 1j * (w * r1 + wx * r2), -1j * (w * r2 + wx * r1)))
            out.append(rows)
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

    Recipe (h = e^{-y/2}, s = y^{1/2} = sqrt(2 omega x) e^{-i pi/4}, W = -m/sqrt(x)):

        P = M(a2, 1/2; y), Q = M(a2, 3/2; y)
        branch I :  r1 = h M(a1, 1/2; y) = conj(h P)
                    r2 = c2 h s M(a1+1, 3/2; y) = c2 s conj(h Q)
        branch II:  r1 = h s Q                     r2 = c2 h P
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
        if not isinstance(sector, Sector):
            raise InvalidParams(f"sector={sector!r} is not a Sector")
        sg = 1j * sector.sign
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


def _ladder_sample(p: SolutionParams, x: float, w: float,
                   pair) -> tuple[float, float, float, float]:
    """(u, u'/omega, v, v'/omega) at one x: u = Re Z^I_- and its real SUSY image v = -Im Z^I_+.

    ``w`` is W(x)/omega, and ``pair`` (eta, [|y|]) gives P and Q at x:
    :func:`kummer_pair`, or past the series range the function
    :func:`specfun.asymptotic_pair_for` builds.  As c2 y^{1/2} = 2 i sqrt(eta s),
    s = |y|, Z^I_-+ = e^{-i pi/4} conj(h (P +- R)) with R = 2 sqrt(eta) sqrt(s) Q
    (eta s alone can pass the largest double), and the first-order system
    gives u'/omega = v - w u and v'/omega = w v - u: the four values stay
    doubles where omega u' does not.  Raises DoubleRangeExceeded where one is not finite.
    """
    s = 2.0 * p.omega * x
    (pp,), (qq,) = pair(p.a1.imag, [s])
    h = cmath.exp(complex(0.0, 0.5 * s))            # e^{-y/2}, y = -i s
    r = (2.0 * (math.sqrt(p.a1.imag) * math.sqrt(s))) * qq
    u = (PHASE_M4 * (h * (pp + r)).conjugate()).real
    v = -(PHASE_M4 * (h * (pp - r)).conjugate()).imag
    out = (u, v - w * u, v, w * v - u)
    if not all(map(math.isfinite, out)):
        raise _range_error(p)
    return out


def wronskian_Z(p: SolutionParams, sector: Sector, x):
    """W_x[Z^I, Z^II] = Z^I dZ^II/dx - Z^II dZ^I/dx, evaluated pointwise."""
    xs, shape = _check_x(x)
    [(zi, dzi)], [(zii, dzii)] = _solution(p, (Branch.I, Branch.II), (sector,), xs)
    return shaped([a * d - b * c for a, c, b, d in zip(zi, dzi, zii, dzii)], shape, complex)


def wronskian_exact(p: SolutionParams, sector: Sector) -> complex:
    """The constant the Wronskian must equal: -+ omega i^{3/2} sqrt(2 omega)/m."""
    return -sector.sign * p.omega * (1j * PHASE_P4) * p.sqrt_2w / p.m


def hermite_lambda(p: SolutionParams, j: int) -> complex:
    """Eigenvalue parameter of the equivalent Hermite-type equation.

    lambda_j = -(1 - eps_j) - 2 i m^2 / omega with eps_1 = +1,
    eps_2 = -1; algebraically lambda_j = -4 a_j, and the floating-point
    evaluations here match that product bit for bit (both routes scale
    the one rounded quotient m^2/omega by powers of two).
    """
    if j not in (1, 2):
        raise InvalidParams(f"j={j!r} must be 1 or 2")
    eps = 1.0 if j == 1 else -1.0
    return complex(-(1.0 - eps), -(2.0 * (p.m * p.m)) / p.omega)


def susy_map(p: SolutionParams, sample: SolutionSample,
             from_sector: Sector) -> SolutionSample:
    """Map a solution of one sector to its partner via the first-order ladder.

    From MINUS:  Z_+ = (Z_-' + W Z_-) / (i omega),  Z_+' = i omega Z_- + W Z_+
    From PLUS :  Z_- = (Z_+' - W Z_+) / (i omega),  Z_-' = i omega Z_+ - W Z_-

    The derivative formulas use the Schrodinger equation once, so the
    mapped sample is again a (value, derivative) pair on the same grid
    and the map is an exact involution up to rounding.
    """
    if not isinstance(from_sector, Sector):
        raise InvalidParams(f"from_sector={from_sector!r} is not a Sector")
    xs, shape = _check_x(sample.x)
    iw = 1j * p.omega
    val, der = [], []
    for x, z, dz in zip(xs, flat(sample.value, complex)[0], flat(sample.derivative, complex)[0]):
        wx = _w(p.m, x)
        if from_sector is Sector.MINUS:
            v = (dz + wx * z) / iw
            der.append(iw * z + wx * v)
        else:
            v = (dz - wx * z) / iw
            der.append(iw * z - wx * v)
        val.append(v)
    return SolutionSample(sample.x, shaped(val, shape, complex), shaped(der, shape, complex))
