"""Confluent hypergeometric machinery for complex arguments.

Everything the closed-form solutions and their checks need: the Kummer
function 1F1(a, b; z) for complex ``a``/``z`` and real ``b``, its
derivative, a principal-branch complex log-gamma, the Kummer
transformation (kept solely as a cross-check) and a large-|z| asymptotic
expansion, which serves the far region of the ray.

The evaluator sums the defining series directly at every z.  On the
physically relevant ray (purely imaginary z) the series loses roughly
log10(e^|z|) digits to cancellation, so plain double precision is dead
by |z| ~ 30.  Every point is therefore summed by the one kernel
:func:`susy_ces.highprec.chf_series_fixed`, in exact integer fixed point
at a width sized from that predicted cancellation and checked against
the truncation bound afterwards, then rounded once to complex double.
:func:`kummer_pair` returns the same bits for M(1/2 + i eta, 1/2; z) and
M(1/2 + i eta, 3/2; z), the one pair both closed-form branches are built
from, at any number of points on the ray: it hands them to
:func:`susy_ces.highprec.kummer_walk`, which carries the pair along the
grid and sums the series only at points out of a Taylor step's reach
(a quarter of the way to z = 0) or where the rounding cannot be
certified.  A lone point is one series loop: the partner with
b = 3/2 is divided out of the terms of M(a, 1/2).
A scalar z gives a Python ``complex``, an array of them an ndarray of
its shape; every value is computed in Python, point by point.
Values past the largest double raise ``DoubleRangeExceeded``.  It refuses
|z| > ``SERIES_ZMAX`` outright.  Past the bound the same pair comes from
:func:`asymptotic_pair_for`, the large-|z| expansion (DLMF 13.7.2),
certified to ``FAR_TOL`` up to one exact factor per branch and a shared
power of two, at the points where its error estimate allows (|z| past
about eta^2); :func:`susy_ces.scattering.phase_difference` reads every
rung that way.  :func:`chf_asymptotic` is the same expansion for any
(a, b), certified as it stands.
"""
from __future__ import annotations

import cmath
import csv
import math
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

from ._points import flat, shaped
from .errors import (ArgumentTooSmall, DoubleRangeExceeded, InvalidParams,
                     PoleAtNonPositiveInteger, SeriesRangeExceeded)
from .highprec import chf_series_fixed, kummer_walk

# only the benchmark tracer looks this up; it goes with its highprec.dd boundary
chf_series_dd = None

#: refusal bound for the series evaluator.  At |z| = 60 the cancellation
#: ratio reaches ~1e26, which the fixed-point sum absorbs with tens of
#: digits to spare; past it callers take :func:`asymptotic_pair_for`.
SERIES_ZMAX = 60.0
#: below this |z| the asymptotic expansion's optimal truncation is too loose
ASYMPTOTIC_MIN_ABS_Z = 25.0
#: relative error bound :func:`asymptotic_pair_for` certifies its values to
FAR_TOL = 2.0 ** -40
#: past e^700 (the largest double is about e^709.8) the pair's shared factors are scaled
_LOG_BIG = 700.0
_LOG_2 = math.log(2.0)
_SQRT_PI = math.sqrt(math.pi)

_GOLDEN_ENV = "SUSY_CES_GOLDEN_DIR"
_EPS = sys.float_info.epsilon


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and float(x).is_integer()


def _params(a, b) -> tuple[complex, float]:
    """(a, b) of 1F1(a, b; z) as complex and float; ``b`` must avoid the poles at 0, -1, -2, ..."""
    ca, fb = complex(a), float(b)
    if not (cmath.isfinite(ca) and math.isfinite(fb)):
        raise InvalidParams(f"non-finite CHF parameters a={a!r}, b={b!r}")
    if _is_nonpositive_integer(fb):
        raise InvalidParams(f"b={fb} is a non-positive integer (series pole)")
    return ca, fb


def _series(a: complex, b: float, zs: list[complex]) -> list[complex]:
    """Direct series at each point, one fixed-point sum per point."""
    return [chf_series_fixed(a, b, z) for z in zs]


def _refuse_past(zmax: float) -> None:
    """Refuse a largest |z| past the series bound."""
    if zmax > SERIES_ZMAX:
        raise SeriesRangeExceeded(
            f"max|z| = {zmax:.4g} exceeds the series bound "
            f"{SERIES_ZMAX:g}; seed inside it and use ODE propagation "
            f"(oracle.integrate) for the far region")


def _flat_z(z) -> tuple[list[complex], tuple | None]:
    """The points of ``z`` and its shape, refused if non-finite or out of range."""
    zs, shape = flat(z, complex)
    if not all(map(cmath.isfinite, zs)):
        raise InvalidParams("z contains non-finite values")
    try:
        zmax = max(map(abs, zs), default=0.0)
    except OverflowError:   # |z| itself is past the largest double
        zmax = math.inf
    _refuse_past(zmax)
    return zs, shape


def _range_error(what: str) -> DoubleRangeExceeded:
    return DoubleRangeExceeded(
        f"{what} exceeds the double range (magnitude above {sys.float_info.max:.4g})")


def _in_double_range(vals: list[complex], what: str) -> list[complex]:
    """``vals``, unless a product of series values left the double range."""
    if not all(map(cmath.isfinite, vals)):
        raise _range_error(what)
    return vals


def chf_1f1(a: complex, b: float, z):
    """Kummer's function 1F1(a, b; z) for complex a, z and real b.

    Accepts a complex scalar ``z``, which gives a ``complex``, or an
    array of them, which gives an ndarray of its shape; every |z| must
    be at most SERIES_ZMAX.  The defining series is summed at every
    point.  The fixed-point sum sizes its width from the cancellation,
    so no argument needs the Kummer transformation for conditioning.

    Raises
    ------
    SeriesRangeExceeded
        if any |z| exceeds the series viability bound.
    NonConvergence
        if the series fails to meet its tolerance within the term budget.
    DoubleRangeExceeded
        if a value's magnitude is above the largest double.
    """
    a, b = _params(a, b)
    zs, shape = _flat_z(z)
    return shaped(_series(a, b, zs), shape, complex)


def kummer_pair(eta: float, s: list[float]) -> tuple[list[complex], list[complex]]:
    """M(1/2 + i eta, 1/2; y) and M(1/2 + i eta, 3/2; y) at the points y = -i s of the ray.

    Both returned lists follow ``s`` (s >= 0, any order, repeats
    allowed).  The distinct s go to :func:`susy_ces.highprec.kummer_walk`
    in ascending order, so a point's bits do not depend on what it is sent
    with: a lone point is a one-point walk, one series loop for both
    functions.

    Raises
    ------
    SeriesRangeExceeded
        if any s exceeds the series viability bound.
    """
    _refuse_past(max(s, default=0.0))
    grid = sorted(set(s))
    walk = kummer_walk(eta, grid)
    at = {v: k for k, v in enumerate(grid)}
    idx = [at[v] for v in s]
    return [walk.p[k] for k in idx], [walk.q[k] for k in idx]


def asymptotic_pair_for(eta: float) -> Callable[[float, list[float]],
                                                 tuple[list[complex], list[complex]]]:
    """M(1/2 + i eta, 1/2 and 3/2; y) past the series range, from the large-|y| expansion.

    Returns ``pair(eta, s)``, the pair (P, Q) at y = -i s for each s, as
    :func:`kummer_pair` gives it inside its range, for the ``eta`` given
    here (its own ``eta`` is not read).

    Each (P, Q) is certified to ``FAR_TOL`` up to one exact factor per
    branch and a shared power of two: to ``FAR_TOL`` of each value, it is
    2^-e (f_r R + f_d D), with R and D the exact recessive and dominant
    branch pairs of DLMF 13.2.41/13.7.2, and f_r, f_d within eps times the
    size of their branch's shared log terms of 1 (about 1e3 eps at
    eta = 200).  Each branch alone satisfies the pair relation
    Q = (P' - P)/(2 i eta), so (P, Q) is exactly the pair of another
    solution, which is all the phase ladder reads.  e is 0 wherever the
    shared factors stay below e^700 (eta up to about 223); up to eta = 200
    the values are within ``FAR_TOL`` of M itself as well, as the tests
    check against mpmath for s up to 1.8e8.

    The factor a branch shares between b = 1/2 and 3/2, the sector term and
    z^{-a} over Gamma(1 - i eta) (recessive) or e^z z^{i eta} over Gamma(a)
    (dominant), is formed once a point and multiplied into both b.  What
    differs between them, Gamma(b), -i eta (1/Gamma(-i eta) =
    -i eta/Gamma(1 - i eta)), 1/z and the sums, is charged to the error
    estimate, and a value is kept only where that estimate is at most
    ``FAR_TOL`` of it.  This call computes the two log-Gamma terms; a
    ladder solve builds one ``pair`` and reads every rung from it.

    Raises
    ------
    InvalidParams
        if ``eta``, or (from ``pair``) an s, is not finite.
    SeriesRangeExceeded
        from ``pair``, for a value not certified: s not far enough past eta^2.
    ArgumentTooSmall
        from ``pair``, if an s is below ASYMPTOTIC_MIN_ABS_Z.
    """
    a, _ = _params(complex(0.5, eta), 0.5)
    eta, ieta = a.imag, a - 0.5
    lg_r, lg_d = log_gamma(1.0 - ieta), log_gamma(a)
    # per b: b, Gamma(b), the recessive sum's (p1, p2) and factor, and the
    # dominant sum's (p1, p2); the dominant factor is 1 or 1/z
    parts = ((0.5, _SQRT_PI, (a, 1.0 + ieta), -ieta, (-ieta, 0.5 - ieta)),
             (1.5, 0.5 * _SQRT_PI, (a, ieta), 1.0, (1.0 - ieta, 0.5 - ieta)))

    def pair(_eta: float, s: list[float]) -> tuple[list[complex], list[complex]]:
        out: tuple[list[complex], list[complex]] = ([], [])
        for v in s:
            z, terms, sgn, logz = _z_part(complex(0.0, -v))
            # the logs of the shared factors, their parts summed exactly
            lr, li = logz.real, logz.imag
            log_r = complex(math.fsum((-sgn * math.pi * eta, -0.5 * lr, eta * li, -lg_r.real)),
                            math.fsum((0.5 * sgn * math.pi, -0.5 * li, -eta * lr, -lg_r.imag)))
            log_d = complex(-eta * li - lg_d.real, eta * lr - lg_d.imag)
            # past e^700, 2^n with n = round(big / ln 2) is divided out; the
            # remainder is exact, so the larger factor keeps a modulus near 1
            big = max(log_r.real, log_d.real)
            scale = big - math.remainder(big, _LOG_2) if big > _LOG_BIG else 0.0
            f_r = cmath.exp(log_r - scale)
            # e^z apart: its phase, exact as z is, would cost |z| eps in a sum
            f_d = cmath.exp(z) * cmath.exp(log_d - scale)
            for (b, g, rec, x_r, dom), x_d, vals in zip(parts, (1.0, 1.0 / z), out):
                c_r, c_d = f_r * (g * x_r), f_d * (g * x_d)
                s_r, t_r = _opt_sum(*rec, -z, terms)
                s_d, t_d = _opt_sum(*dom, z, terms)
                value = c_r * s_r + c_d * s_d
                # 16 eps for each sum, 8 for its factor and product
                err = (abs(c_r) * (t_r + 24.0 * _EPS * abs(s_r))
                       + abs(c_d) * (t_d + 24.0 * _EPS * abs(s_d)))
                if not err <= FAR_TOL * abs(value):
                    raise SeriesRangeExceeded(
                        f"|y| = {v:.4g} at eta = {eta:.4g}: the large-|y| expansion of "
                        f"1F1(a, {b:g}; y) is not certified to FAR_TOL = {FAR_TOL:.3g}")
                vals.append(value)
        return out

    return pair


def kummer_transform(a: complex, b: float, z):
    """Evaluate 1F1(a, b; z) as e^z 1F1(b-a, b; -z).

    A different sum from the one :func:`chf_1f1` runs, so it provides an
    independent value to compare against it.

    Raises
    ------
    DoubleRangeExceeded
        if the sum or its product with e^z is above the largest double.
    """
    a, b = _params(a, b)
    zs, shape = _flat_z(z)
    vals = _series(b - a, b, [-v for v in zs])
    # |z| <= SERIES_ZMAX keeps e^z itself far inside the double range
    out = [cmath.exp(v) * f for v, f in zip(zs, vals)]
    return shaped(_in_double_range(out, f"1F1({a!r}, {b!r}; z)"), shape, complex)


def chf_1f1_deriv(a: complex, b: float, z):
    """d/dz 1F1(a, b; z) = (a/b) 1F1(a+1, b+1; z).

    Raises
    ------
    DoubleRangeExceeded
        if the derivative's magnitude is above the largest double.
    """
    a, b = _params(a, b)
    zs, shape = _flat_z(z)
    c = a / b
    d = [c * v for v in _series(a + 1, b + 1, zs)]
    return shaped(_in_double_range(d, f"1F1'({a!r}, {b!r}; z)"), shape, complex)


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
        if not cmath.isfinite(p):   # |w| past ~1e16: this term and the rest are 0
            break
        s += b2j / (2 * j * (2 * j - 1)) / p
        p *= w2
    return s


def _one_minus_exp(u: float, v: float) -> complex:
    """1 - e^(u + i v) for u <= 0, without cancellation.

    The real part is 1 - e^u cos v = -expm1(u) cos v + 2 sin^2(v/2): while
    u <= 0 it is at least a third of the two terms' sizes, so it keeps its
    relative accuracy where 1 - e^(u + i v) itself rounds to 0 (u + i v
    within 2^-53 of 0).
    """
    h = math.sin(0.5 * v)
    return complex(2.0 * h * h - math.expm1(u) * math.cos(v), -math.exp(u) * math.sin(v))


def _logsinpi(z: complex) -> complex:
    """A logarithm of sin(pi z), overflow-safe, continuous off the real axis."""
    # e^{+-2 i pi z} depends on re z mod 1 only; reduced to [-1/2, 1/2],
    # its distance to the nearest integer is exact
    f = 2.0 * math.pi * math.remainder(z.real, 1.0)
    if z.imag >= 0:
        # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z})
        return (1j * math.pi / 2 - math.log(2.0) - 1j * math.pi * z
                + cmath.log(_one_minus_exp(-2.0 * math.pi * z.imag, f)))
    return (-1j * math.pi / 2 - math.log(2.0) + 1j * math.pi * z
            + cmath.log(_one_minus_exp(2.0 * math.pi * z.imag, -f)))


def log_gamma(z) -> complex:
    """Principal-branch log Gamma(z) for complex z.

    Stirling's series after an upward shift to |z| >= 12, with the
    reflection formula for re(z) < 1/2.  For |z| <= 100 the error is at
    most 2e-14 of max(1, |log Gamma(z)|) against mpmath, next to the poles
    too (n + i 10^-k, down to k = 300): relative to |log Gamma(z)| itself
    it grows near its zeros z = 1, 2.

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


def _z_part(z) -> tuple[complex, int, float, complex]:
    """The checked z of the large-|z| expansion, the term budget of each
    sum, the sector sign (+1 for arg z > -pi/2, else -1) and log z."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise InvalidParams(f"z={z!r} is not finite")
    r = abs(z)
    if r < ASYMPTOTIC_MIN_ABS_Z:
        raise ArgumentTooSmall(f"|z| = {r:.4g} < {ASYMPTOTIC_MIN_ABS_Z:g}")
    sgn = 1.0 if cmath.phase(z) > -math.pi / 2 else -1.0
    return z, 2 * int(r) + 30, sgn, cmath.log(z)


def _opt_sum(p1: complex, p2: complex, zz: complex, terms: int) -> tuple[complex, float]:
    """The formal series in 1/zz to its optimal truncation, and the size of its last term."""
    t = 1.0 + 0j
    s = t
    best = abs(t)
    for k in range(terms):
        t = t * (p1 + k) * (p2 + k) / ((k + 1) * zz)
        # optimal truncation, or the last term added fell below eps |s|
        if abs(t) >= best or best < _EPS * abs(s):
            break
        s += t
        best = abs(t)
    return s, best


def chf_asymptotic(a: complex, b: float, z: complex) -> AsymptoticResult:
    """Large-|z| two-branch expansion of 1F1(a, b; z).

    Sums both formal series to their optimal truncation, or until a term
    falls below eps of the sum; ``error_estimate`` bounds the absolute
    error, rounding of the coefficients included.  The recessive
    z^{-a} branch carries the factor e^{+i pi a} for arg z > -pi/2 and
    e^{-i pi a} otherwise (the boundary ray arg z = -pi/2 belongs to the
    lower sector).  At smaller |z| it corroborates series and ODE values in
    the overlap region; :func:`asymptotic_pair_for` is the same expansion
    for the closed form's pair, certified per branch.

    Raises
    ------
    InvalidParams
        if a, b or z is not finite, or b is a series pole.
    ArgumentTooSmall
        if |z| < ASYMPTOTIC_MIN_ABS_Z, where optimal truncation is too loose.
    DoubleRangeExceeded
        if a branch's prefactor or the value is above the largest double.
    """
    a, b = _params(a, b)
    z, terms, sgn, logz = _z_part(z)
    lg_b = log_gamma(b)
    # (sum, truncation error, exponent of the prefactor, log of the
    # coefficient, the sum of its terms' magnitudes); e^z stands apart, as
    # its |z|-sized phase would cost |z| eps in a sum
    branches = []
    if not _rgamma_is_zero(b - a):
        lg = -log_gamma(b - a)
        t_sector, t_power = sgn * 1j * math.pi * a, -a * logz
        branches.append((*_opt_sum(a, a - b + 1.0, -z, terms), 0j,
                         lg_b + lg + t_sector + t_power,
                         abs(lg_b) + abs(lg) + abs(t_sector) + abs(t_power)))
    if not _rgamma_is_zero(a):
        lg = -log_gamma(a)
        t_power = (a - b) * logz
        branches.append((*_opt_sum(b - a, 1.0 - a, z, terms), z, lg_b + lg + t_power,
                         abs(lg_b) + abs(lg) + abs(t_power)))
    value = 0j
    err = 0.0
    for s, trunc, lead, log_c, log_c_abs in branches:
        try:
            c = cmath.exp(lead) * cmath.exp(log_c)
        except OverflowError:   # a factor of c alone is past the largest double
            raise _range_error(f"1F1({a!r}, {b!r}; {z!r})") from None
        # relative error of c: eps of each log term's size, 40 eps for each
        # log_gamma (its measured accuracy), and 16 eps for the sum s
        value += c * s
        err += abs(c) * (trunc + _EPS * (96.0 + log_c_abs) * abs(s))
    if not cmath.isfinite(value):
        raise _range_error(f"1F1({a!r}, {b!r}; {z!r})")
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
