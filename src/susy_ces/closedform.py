"""Closed-form scattering solutions of the partner potentials.

For energy E = omega^2 > 0 the Schrodinger equation
-Z'' + V_pm Z = E Z admits solutions built from two confluent
hypergeometric pieces in the variable y = -2 i omega x:

    a1 = i m^2 / (2 omega),   a2 = a1 + 1/2,
    rtilde_1, rtilde_2  =  the 1/2-type and 3/2-type components
    Z_pm = e^{-i pi/4} ( rtilde_1 +- i rtilde_2 )

with the PLUS combination solving V_plus and MINUS solving V_minus.
Two independent branches (different component parameterisations) give
linearly independent solutions whose Wronskian is an exact constant.

All square roots of y follow one fixed convention,
y^{1/2} = sqrt(2 omega x) e^{-i pi/4}, consistent with principal powers
of i (i^{1/2} = e^{i pi/4}); mixing conventions flips relative signs
between the components, which is the single easiest way to break every
identity downstream, so the convention lives in exactly one place here.

Derivatives come from the partners' coupled first-order system (never
from finite differences), so each point sums only two series.  Closed-form
evaluation is viable for |y| = 2 omega x <= the series bound; beyond that
use ODE propagation (:mod:`susy_ces.oracle`).
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DoubleRangeExceeded, InvalidParams
from .potential import Sector, _check_x, superpotential
# chf_1f1_deriv: only the benchmark tracer looks it up; it goes with its wrapping by name
from .specfun import CHFParams, chf_1f1, chf_1f1_deriv  # noqa: F401

#: e^{-i pi/4}: global prefactor of Z; also the phase of y^{1/2} for x > 0
PHASE_M4 = cmath.exp(-0.25j * math.pi)
#: i^{1/2} (principal)
PHASE_P4 = cmath.exp(0.25j * math.pi)


class Branch(Enum):
    """Which of the two independent closed-form solutions."""

    I = "I"
    II = "II"


@dataclass(frozen=True)
class SolutionParams:
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
    """Validate (m, omega) and assemble the solution constants."""
    m = float(m)
    omega = float(omega)
    if not (math.isfinite(m) and m > 0.0):
        raise InvalidParams(f"m={m!r} must be a positive finite real")
    if not (math.isfinite(omega) and omega > 0.0):
        raise InvalidParams(f"omega={omega!r} must be a positive finite real")
    a1 = complex(0.0, (0.5 * (m * m)) / omega)
    return SolutionParams(m=m, omega=omega, a1=a1, a2=a1 + 0.5, b=0.5,
                          energy=omega * omega)


def y_of_x(x, omega: float):
    """The hypergeometric argument y = -2 i omega x."""
    return -2j * omega * np.asarray(x, dtype=float)


def _in_double_range(p: SolutionParams, *vals):
    """Return ``vals``, or raise if any entry is not a finite double."""
    if not all(np.all(np.isfinite(v)) for v in vals):
        raise DoubleRangeExceeded(
            f"closed form at m={p.m:g}, omega={p.omega:g} exceeds the double "
            f"range (magnitude above {sys.float_info.max:.4g})")
    return vals


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


def components(p: SolutionParams, branch: Branch, x):
    """(rtilde_1, rtilde_2, d rtilde_1/dx, d rtilde_2/dx), each shaped like ``x``.

    Sums two series per point, one M per component, and returns every
    component at once: it is the one accessor for them.  Every point, a
    lone one included, goes through the same 1-d numpy loops, so a
    point's bits do not depend on how many it is sent with.

    Recipe (h = e^{-y/2}, s = y^{1/2} = sqrt(2 omega x) e^{-i pi/4}, W = -m/sqrt(x)):

        branch I :  r1 = h M(a1, 1/2; y)           r2 = c2 h s M(a1+1, 3/2; y)
        branch II:  r1 = h s M(a1+1/2, 3/2; y)     r2 = c2 h M(a2, 1/2; y)
        system   :  r1' = i (omega r1 + W r2)      r2' = -i (omega r2 + W r1)
    """
    shape = np.shape(x)
    xa = _check_x(x).ravel()
    w = p.omega
    y = y_of_x(xa, w)
    h = np.exp(-0.5 * y)
    s = np.sqrt(2.0 * w * xa) * PHASE_M4
    c = coupling_constants(p, branch)
    wx = superpotential(xa, p.m)

    # an overflow here is reported once, as DoubleRangeExceeded
    with np.errstate(over="ignore", invalid="ignore"):
        if branch is Branch.I:
            r1 = h * chf_1f1(CHFParams(p.a1, 0.5), y)
            r2 = c.c2 * (h * s * chf_1f1(CHFParams(p.a1 + 1.0, 1.5), y))
        else:
            r1 = h * s * chf_1f1(CHFParams(p.a1 + 0.5, 1.5), y)
            r2 = c.c2 * (h * chf_1f1(CHFParams(p.a2, 0.5), y))
        out = _in_double_range(p, r1, r2, 1j * (w * r1 + wx * r2), -1j * (w * r2 + wx * r1))
    # [()] turns a 0-d result into a numpy scalar and leaves arrays as they are
    return tuple(v.reshape(shape)[()] for v in out)


class SolutionSample(NamedTuple):
    """A solution evaluated together with its first derivative."""

    x: np.ndarray
    value: np.ndarray
    derivative: np.ndarray


def solution_Z(p: SolutionParams, branch: Branch, sector: Sector, x) -> SolutionSample:
    """Closed-form solution Z and dZ/dx at the points ``x``.

    Z_pm = e^{-i pi/4} (rtilde_1 +- i rtilde_2); PLUS solves V_plus,
    MINUS solves V_minus, at energy omega^2.
    """
    if not isinstance(sector, Sector):
        raise InvalidParams(f"sector={sector!r} is not a Sector")
    xa = np.asarray(x, dtype=float)  # components checks the domain
    r1, r2, dr1, dr2 = components(p, branch, xa.ravel())
    sg = 1j * sector.sign
    with np.errstate(over="ignore", invalid="ignore"):
        z, dz = _in_double_range(p, PHASE_M4 * (r1 + sg * r2), PHASE_M4 * (dr1 + sg * dr2))
    return SolutionSample(xa, z.reshape(xa.shape)[()], dz.reshape(xa.shape)[()])


def wronskian_Z(p: SolutionParams, sector: Sector, x):
    """W_x[Z^I, Z^II] = Z^I dZ^II/dx - Z^II dZ^I/dx, evaluated pointwise."""
    zi = solution_Z(p, Branch.I, sector, x)
    zii = solution_Z(p, Branch.II, sector, x)
    return zi.value * zii.derivative - zii.value * zi.derivative


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
    wx = superpotential(sample.x, p.m)
    iw = 1j * p.omega
    if from_sector is Sector.MINUS:
        val = (sample.derivative + wx * sample.value) / iw
        der = iw * sample.value + wx * val
    else:
        val = (sample.derivative - wx * sample.value) / iw
        der = iw * sample.value - wx * val
    return SolutionSample(sample.x, val, der)
