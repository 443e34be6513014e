"""The partner pair of inverse-power-law potentials.

Both members derive from the superpotential W(x) = -m / sqrt(x) on
x in (0, inf):

    V_pm(x) = W(x)^2 +- W'(x) = m^2 / x +- (m / 2) x^(-3/2)

The coefficient lock between the 1/x and x^(-3/2) terms (the square of
the second equals a quarter of the first) is exactly what makes the
spectral problem solvable in closed form; :func:`ces_residual` measures
it and is identically zero here by construction.

The pair is shape invariant in the strong sense that V_plus at
parameter m equals V_minus at parameter -m.  :func:`V` is written so
that both evaluations run through one expression tree and the identity
holds bit-for-bit, not merely to rounding.
"""
from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

from ._points import flat, shaped
from .errors import DomainError, DoubleRangeExceeded, InvalidParams


class Sector(Enum):
    """Which partner: PLUS carries +W', MINUS carries -W'."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def sign(self) -> float:
        return 1.0 if self is Sector.PLUS else -1.0


def _check_sector(sector, name: str = "sector") -> Sector:
    """``sector``, checked: InvalidParams naming the argument ``name`` unless it is a Sector."""
    if not isinstance(sector, Sector):
        raise InvalidParams(f"{name}={sector!r} is not a Sector")
    return sector


def _check_m(m: float, *, allow_negative: bool = True) -> float:
    m = float(m)
    if not math.isfinite(m) or m == 0.0:
        raise InvalidParams(f"m={m!r} must be finite and non-zero")
    if m < 0.0 and not allow_negative:
        raise InvalidParams(f"m={m!r} must be positive")
    return m


def _check_x(x) -> tuple[list[float], tuple | None]:
    """The points of ``x`` and its shape (:func:`susy_ces._points.flat`), checked."""
    xs, shape = flat(x)
    if not all(map(math.isfinite, xs)):
        raise DomainError("x contains non-finite values")
    if min(xs, default=1.0) <= 0.0:
        raise DomainError("potentials are defined on x > 0 only")
    return xs, shape


def _pointwise(f, x, m: float, *args):
    """f(m, *args, v) at each point v of ``x``, shaped like it.

    Raises DoubleRangeExceeded where a value is not a finite double: its
    magnitude passes the largest double, or x sqrt(x) or x**2 underflows to
    0 at tiny x.
    """
    m = _check_m(m)
    xs, shape = _check_x(x)
    try:
        out = [f(m, *args, v) for v in xs]
        if all(map(math.isfinite, out)):
            return shaped(out, shape)
    except ZeroDivisionError:
        pass
    raise DoubleRangeExceeded(
        f"a potential value at m={m!r} and x in [{min(xs)!r}, {max(xs)!r}] is not a finite "
        f"double (magnitude above {sys.float_info.max:.4g}, or x^(3/2) or x^2 "
        f"underflows to 0)")


def _v(m: float, s: float, x: float) -> float:
    # the one expression V evaluates, for both sectors
    return (m * m) / x + s * (0.5 * m) / (x * math.sqrt(x))


def _w(m: float, x: float) -> float:
    return -m / math.sqrt(x)


def _dw(m: float, x: float) -> float:
    return (0.5 * m) / (x * math.sqrt(x))


def superpotential(x, m: float):
    """W(x) = -m / sqrt(x)."""
    return _pointwise(_w, x, m)


def superpotential_deriv(x, m: float):
    """W'(x) = (m / 2) x^(-3/2)."""
    return _pointwise(_dw, x, m)


def V(x, m: float, sector: Sector):
    """Partner potential V_pm(x) = m^2/x +- (m/2) x^(-3/2).

    The sector enters only through a sign constant, so V(x, m, PLUS) and
    V(x, -m, MINUS) evaluate the same floating-point expression and agree
    to the last bit.
    """
    return _pointwise(_v, x, m, _check_sector(sector).sign)


def _v_from_w(m: float, s: float, x: float) -> float:
    w = _w(m, x)
    return w * w + s * _dw(m, x)


def V_from_superpotential(x, m: float, sector: Sector):
    """Same potential assembled as W^2 +- W', kept as an independent route."""
    return _pointwise(_v_from_w, x, m, _check_sector(sector).sign)


def _dv(m: float, s: float, x: float) -> float:
    return -(m / (x * x)) * (m + s * 0.75 / math.sqrt(x))


def V_deriv(x, m: float, sector: Sector):
    """dV_pm/dx = -(m/x^2) (m +- (3/4) x^(-1/2))."""
    return _pointwise(_dv, x, m, _check_sector(sector).sign)


def ces_residual(m: float) -> float:
    """Coefficient-lock defect of the pair, identically 0.0.

    For a general two-term potential A/x + B x^(-3/2) closed-form
    solvability requires B^2 = A/4.  Here A = m^2, B = m/2, and the
    expression below is exactly zero in floating point as well (halving
    and squaring commute with the rounding of m*m).
    """
    m = _check_m(m)
    return (0.5 * m) ** 2 - (m * m) / 4.0


def _gap(m: float, x: float) -> float:
    return _v(m, 1.0, x) - _v(-m, -1.0, x)


def shape_invariance_gap(x, m: float):
    """V_plus(x, m) - V_minus(x, -m), elementwise; exactly zero."""
    return _pointwise(_gap, x, m)


class CriticalStructure(NamedTuple):
    """Landmarks of the MINUS-sector potential for m > 0.

    V_minus rises from -inf, crosses zero at ``zero_x`` = 1/(4 m^2),
    peaks at ``max_x`` = 9/(16 m^2) with height ``max_value`` =
    16 m^4 / 27, then decays like m^2/x.
    """

    zero_x: float
    max_x: float
    max_value: float


def critical_structure(m: float) -> CriticalStructure:
    """Zero and maximum of V_minus; requires m > 0."""
    m = _check_m(m, allow_negative=False)
    m2 = m * m
    return CriticalStructure(
        zero_x=0.25 / m2,
        max_x=0.5625 / m2,
        max_value=(16.0 / 27.0) * m2 * m2,
    )
