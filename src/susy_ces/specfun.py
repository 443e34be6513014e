"""Confluent hypergeometric machinery for complex arguments.

Everything the closed-form solutions and their checks need: the Kummer
function 1F1(a, b; z) for complex ``a``/``z`` and real ``b``, its
derivative, a principal-branch complex log-gamma, and two routes kept
solely as cross-checks: the Kummer transformation and a large-|z|
asymptotic expansion.

The evaluator sums the defining series directly at every z.  On the
physically relevant ray (purely imaginary z) the series loses roughly
log10(e^|z|) digits to cancellation, so plain double precision is dead
by |z| ~ 30.  Every point is therefore summed by the one kernel
:func:`susy_ces.highprec.chf_series_fixed`, in exact integer fixed point
at a width sized from that predicted cancellation and checked against
the truncation bound afterwards, then rounded once to complex double.
Values past the largest double raise ``DoubleRangeExceeded``.  It refuses
|z| > ``SERIES_ZMAX`` outright: callers needing the far region seed
inside the bound and carry the solution outward by ODE propagation
(:func:`susy_ces.oracle.integrate`), as
:func:`susy_ces.scattering.phase_difference` does.
"""
from __future__ import annotations

import cmath
import csv
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (ArgumentTooSmall, DoubleRangeExceeded, InvalidParams,
                     NonConvergence, PoleAtNonPositiveInteger,
                     SeriesRangeExceeded)
from .highprec import chf_series_fixed

# only the benchmark tracer looks this up; it goes with its highprec.dd boundary
chf_series_dd = None

#: refusal bound for the series evaluator.  At |z| = 60 the cancellation
#: ratio reaches ~1e26, which the fixed-point sum absorbs with tens of
#: digits to spare; past it the contract sends callers to ODE propagation.
SERIES_ZMAX = 60.0
#: below this |z| the asymptotic expansion's optimal truncation is too loose
ASYMPTOTIC_MIN_ABS_Z = 25.0

_GOLDEN_ENV = "SUSY_CES_GOLDEN_DIR"


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and float(x).is_integer()


@dataclass(frozen=True)
class CHFParams:
    """Parameters (a, b) of 1F1(a, b; z); ``b`` must avoid the poles at 0, -1, -2, ..."""

    a: complex
    b: float

    def __post_init__(self):
        a = complex(self.a)
        b = float(self.b)
        if not (cmath.isfinite(a) and math.isfinite(b)):
            raise InvalidParams(f"non-finite CHF parameters a={self.a!r}, b={self.b!r}")
        if _is_nonpositive_integer(b):
            raise InvalidParams(f"b={b} is a non-positive integer (series pole)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def _series(a: complex, b: float, z: np.ndarray) -> np.ndarray:
    """Direct series over a flat complex array, one fixed-point sum per point."""
    return np.array([chf_series_fixed(a, b, zi) for zi in z.tolist()], dtype=complex)


def _flat_z(z) -> np.ndarray:
    """``z`` as a flat complex array, refused if non-finite or out of range."""
    zf = np.asarray(z, dtype=complex).ravel()
    if not np.all(np.isfinite(zf)):
        raise InvalidParams("z contains non-finite values")
    if np.any(np.abs(zf) > SERIES_ZMAX):
        raise SeriesRangeExceeded(
            f"max|z| = {float(np.max(np.abs(zf))):.4g} exceeds the series bound "
            f"{SERIES_ZMAX:g}; seed inside it and use ODE propagation "
            f"(oracle.integrate) for the far region")
    return zf


def _shaped_like(out: np.ndarray, z, p: CHFParams):
    """``out`` back in the shape of ``z``: a complex for a scalar ``z``."""
    if not np.all(np.isfinite(out)):
        raise NonConvergence(f"series produced non-finite values for a={p.a!r}, b={p.b!r}")
    if np.ndim(z) == 0:
        return complex(out[0])
    return out.reshape(np.shape(z))


def chf_1f1(p: CHFParams, z):
    """Kummer's function 1F1(a, b; z) for complex a, z and real b.

    Accepts a complex scalar or ndarray ``z`` with |z| <= SERIES_ZMAX and
    sums the defining series at every point.  The fixed-point sum sizes
    its width from the cancellation, so no argument needs the Kummer
    transformation for conditioning.

    Raises
    ------
    SeriesRangeExceeded
        if any |z| exceeds the series viability bound.
    NonConvergence
        if the series fails to meet its tolerance within the term budget.
    """
    return _shaped_like(_series(p.a, p.b, _flat_z(z)), z, p)


def kummer_transform(p: CHFParams, z):
    """Evaluate 1F1(a, b; z) as e^z 1F1(b-a, b; -z).

    A different sum from the one :func:`chf_1f1` runs, so it provides an
    independent value to compare against it.
    """
    zf = _flat_z(z)
    return _shaped_like(np.exp(zf) * _series(p.b - p.a, p.b, -zf), z, p)


def chf_1f1_deriv(p: CHFParams, z):
    """d/dz 1F1(a, b; z) = (a/b) 1F1(a+1, b+1; z).

    Raises
    ------
    DoubleRangeExceeded
        if the derivative's magnitude is above the largest double.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = (p.a / p.b) * chf_1f1(CHFParams(p.a + 1, p.b + 1), z)
    if not np.all(np.isfinite(d)):
        raise DoubleRangeExceeded(
            f"1F1'({p.a!r}, {p.b!r}; z) exceeds the double range "
            f"(magnitude above {sys.float_info.max:.4g})")
    return d


# ---------------------------------------------------------------------------
# complex log-gamma (Stirling class)

# Bernoulli numbers B_2 .. B_20 for the Stirling tail
_BERNOULLI = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
    -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0,
    -174611.0 / 330.0,
)
_LOG_2PI = math.log(2.0 * math.pi)
_STIRLING_RADIUS = 12.0


def _stirling(w: complex) -> complex:
    # requires |w| >= _STIRLING_RADIUS and re(w) > 0
    s = (w - 0.5) * cmath.log(w) - w + 0.5 * _LOG_2PI
    w2 = w * w
    p = w
    for j, b2j in enumerate(_BERNOULLI, start=1):
        s += b2j / (2 * j * (2 * j - 1)) / p
        p *= w2
    return s


def _logsinpi(z: complex) -> complex:
    """A logarithm of sin(pi z), overflow-safe, continuous off the real axis."""
    if z.imag >= 0:
        # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z})
        return (1j * math.pi / 2 - math.log(2.0) - 1j * math.pi * z
                + cmath.log(1.0 - cmath.exp(2j * math.pi * z)))
    return (-1j * math.pi / 2 - math.log(2.0) + 1j * math.pi * z
            + cmath.log(1.0 - cmath.exp(-2j * math.pi * z)))


def log_gamma(z) -> complex:
    """Principal-branch log Gamma(z) for complex z.

    Stirling's series after an upward shift to |z| >= 12, with the
    reflection formula for re(z) < 1/2.  Relative accuracy is better than
    1e-12 for |z| <= 100 (in practice near machine precision).

    Raises
    ------
    PoleAtNonPositiveInteger
        at z = 0, -1, -2, ...
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise InvalidParams(f"non-finite argument {z!r}")
    if z.imag == 0.0 and _is_nonpositive_integer(z.real):
        raise PoleAtNonPositiveInteger(f"log_gamma pole at z={z.real}")
    if z.real < 0.5:
        return math.log(math.pi) - _logsinpi(z) - log_gamma(1.0 - z)
    w = z
    acc = 0j
    while abs(w) < _STIRLING_RADIUS:
        acc += cmath.log(w)
        w += 1.0
    return _stirling(w) - acc


def _rgamma_is_zero(z: complex) -> bool:
    # 1/Gamma vanishes exactly at the poles of Gamma
    return z.imag == 0.0 and _is_nonpositive_integer(z.real)


class AsymptoticResult(NamedTuple):
    """Truncated asymptotic value plus an absolute error estimate."""

    value: complex
    error_estimate: float


def chf_asymptotic(p: CHFParams, z: complex) -> AsymptoticResult:
    """Large-|z| two-branch expansion of 1F1(a, b; z), cross-check only.

    Sums both formal series to their optimal truncation, or until a term
    falls below eps of the sum; ``error_estimate`` bounds the absolute
    error, rounding of the coefficients included.  The recessive
    z^{-a} branch carries the factor e^{+i pi a} for arg z > -pi/2 and
    e^{-i pi a} otherwise (the boundary ray arg z = -pi/2 belongs to the
    lower sector).  Never used by the primary evaluator: its role is to
    corroborate series and ODE values in the overlap region.

    Raises
    ------
    ArgumentTooSmall
        if |z| < ASYMPTOTIC_MIN_ABS_Z, where optimal truncation is too loose.
    """
    z = complex(z)
    if abs(z) < ASYMPTOTIC_MIN_ABS_Z:
        raise ArgumentTooSmall(f"|z| = {abs(z):.4g} < {ASYMPTOTIC_MIN_ABS_Z:g}")
    a, b = p.a, p.b
    eps = sys.float_info.epsilon

    def opt_sum(p1: complex, p2: complex, zz: complex) -> tuple[complex, float]:
        t = 1.0 + 0j
        s = t
        best = abs(t)
        for k in range(2 * int(abs(zz)) + 30):
            t = t * (p1 + k) * (p2 + k) / ((k + 1) * zz)
            # optimal truncation, or the last term added fell below eps |s|
            if abs(t) >= best or best < eps * abs(s):
                break
            s += t
            best = abs(t)
        return s, best

    sgn = 1.0 if cmath.phase(z) > -math.pi / 2 else -1.0
    logz = cmath.log(z)
    # (sum, truncation error, prefactor, log terms of the coefficient); e^z
    # stands apart, as its |z|-sized phase would cost |z| eps in a sum
    branches = []
    if not _rgamma_is_zero(b - a):
        branches.append((*opt_sum(a, a - b + 1.0, -z), 1.0, (
            log_gamma(b), -log_gamma(b - a), sgn * 1j * math.pi * a, -a * logz)))
    if not _rgamma_is_zero(a):
        branches.append((*opt_sum(b - a, 1.0 - a, z), cmath.exp(z), (
            log_gamma(b), -log_gamma(a), (a - b) * logz)))
    value = 0j
    err = 0.0
    for s, e, lead, logs in branches:
        # relative error of c: eps of each log term's size, 40 eps for each
        # log_gamma (its measured accuracy), and 16 eps for the sum s
        c = lead * cmath.exp(sum(logs))
        value += c * s
        err += abs(c) * (e + eps * (96.0 + sum(map(abs, logs))) * abs(s))
    return AsymptoticResult(value, err)


# ---------------------------------------------------------------------------
# golden reference table


class GoldenRow(NamedTuple):
    a: complex
    b: float
    z: complex
    f: complex


def golden_dir() -> Path:
    """Directory holding the golden reference tables.

    Defaults to the ``golden/`` data directory shipped with the package;
    the environment variable ``SUSY_CES_GOLDEN_DIR`` overrides it.
    """
    env = os.environ.get(_GOLDEN_ENV)
    if env:
        return Path(env)
    return Path(str(resources.files("susy_ces") / "golden"))


def load_golden_chf(path: Path | None = None) -> list[GoldenRow]:
    """Read the frozen 1F1 reference values (columns a_re,a_im,b,z_re,z_im,f_re,f_im)."""
    path = path or golden_dir() / "chf.csv"
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(GoldenRow(
                a=complex(float(rec["a_re"]), float(rec["a_im"])),
                b=float(rec["b"]),
                z=complex(float(rec["z_re"]), float(rec["z_im"])),
                f=complex(float(rec["f_re"]), float(rec["f_im"])),
            ))
    if not rows:
        raise InvalidParams(f"golden table {path} is empty")
    return rows
