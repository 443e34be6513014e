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
:func:`asymptotic_pair_for`, the large-|z| expansion (DLMF 13.7.2) at
the points where its own error estimate certifies it to ``FAR_TOL``;
where it does not, callers seed inside the bound and carry the solution
outward by ODE propagation (:func:`susy_ces.oracle.integrate`).
:func:`susy_ces.scattering.phase_difference` reads its rungs that way.
The expansion (:func:`chf_asymptotic`) is computed in two parts: the
checks and log-Gamma terms of its coefficients once per (a, b), the sums
and exponentials once per point.  :func:`asymptotic_pair_for` computes
the first part once for both b at one eta, so once per ladder solve,
and shares each point's z and log z between the two b.
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
#: digits to spare; past it callers take :func:`asymptotic_pair_for` where
#: that certifies the pair, ODE propagation elsewhere.
SERIES_ZMAX = 60.0
#: below this |z| the asymptotic expansion's optimal truncation is too loose
ASYMPTOTIC_MIN_ABS_Z = 25.0
#: relative error bound :func:`asymptotic_pair_for` certifies its values to
FAR_TOL = 2.0 ** -40

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

    Returns ``pair(eta, s)``, the pair at y = -i s for each s, as
    :func:`kummer_pair` gives it inside its range, for the ``eta`` given
    here (its own ``eta`` is not read).  Each value is that of
    :func:`chf_asymptotic`, bit for bit, kept only where its error estimate
    is at most ``FAR_TOL`` times its magnitude.  This call computes the
    checks and log-Gamma terms for both b, ``pair`` z and log z once per
    point; a ladder solve builds one and reads every rung from it.

    Raises
    ------
    InvalidParams
        if ``eta``, or (from ``pair``) an s, is not finite.
    SeriesRangeExceeded
        from ``pair``, for a value not certified: s not far enough past eta^2.
    ArgumentTooSmall
        from ``pair``, if an s is below ASYMPTOTIC_MIN_ABS_Z.
    DoubleRangeExceeded
        from ``pair``, if a value or a prefactor is above the largest double.
    """
    a = complex(0.5, eta)
    bs = (0.5, 1.5)
    parts = [_ab_part(a, b) for b in bs]

    def pair(_eta: float, s: list[float]) -> tuple[list[complex], list[complex]]:
        out: tuple[list[complex], list[complex]] = ([], [])
        for v in s:
            at = _z_part(complex(0.0, -v))
            for b, part, vals in zip(bs, parts, out):
                r = _expand(part, at)
                if not r.error_estimate <= FAR_TOL * abs(r.value):
                    raise SeriesRangeExceeded(
                        f"|y| = {v:.4g} at eta = {eta:.4g}: the large-|y| expansion of "
                        f"1F1(a, {b:g}; y) is not certified to FAR_TOL = {FAR_TOL:.3g}")
                vals.append(r.value)
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


def _ab_part(a, b) -> tuple:
    """The part of :func:`chf_asymptotic` that (a, b) fix: the checked a and
    b, then for each branch, recessive and dominant, (p1, p2, log_c,
    log_c_abs), or None where its 1/Gamma factor vanishes.  Its series is
    sum_k (p1)_k (p2)_k / (k! zz^k); log_c is the sum of its coefficient's
    log-Gamma terms and log_c_abs the sum of their magnitudes, for the error
    estimate.  A plain tuple: a NamedTuple class would add its creation to
    every import."""
    a, b = _params(a, b)
    lg_b = log_gamma(b)
    recessive = dominant = None
    # each coefficient's log terms are summed from 0 in the order _expand
    # continues the sum, so that the split changes no bit
    if not _rgamma_is_zero(b - a):
        lg = -log_gamma(b - a)
        recessive = (a, a - b + 1.0, sum((lg_b, lg)), abs(lg_b) + abs(lg))
    if not _rgamma_is_zero(a):
        lg = -log_gamma(a)
        dominant = (b - a, 1.0 - a, sum((lg_b, lg)), abs(lg_b) + abs(lg))
    return a, b, recessive, dominant


def _z_part(z) -> tuple[complex, int, float, complex]:
    """The part of :func:`chf_asymptotic` that z fixes: z, the term budget of
    each sum, the sector sign (+1 for arg z > -pi/2, else -1) and log z."""
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


def _expand(ab: tuple, at: tuple[complex, int, float, complex]) -> AsymptoticResult:
    """:func:`chf_asymptotic` from its per-(a, b) and per-z parts."""
    a, b, recessive, dominant = ab
    z, terms, sgn, logz = at
    # (sum, truncation error, exponent of the prefactor, log of the
    # coefficient, the sum of its terms' magnitudes); e^z stands apart, as
    # its |z|-sized phase would cost |z| eps in a sum
    branches = []
    if recessive is not None:
        p1, p2, log_c, log_c_abs = recessive
        t_sector, t_power = sgn * 1j * math.pi * a, -a * logz
        branches.append((*_opt_sum(p1, p2, -z, terms), 0j, log_c + t_sector + t_power,
                         log_c_abs + abs(t_sector) + abs(t_power)))
    if dominant is not None:
        p1, p2, log_c, log_c_abs = dominant
        t_power = (a - b) * logz
        branches.append((*_opt_sum(p1, p2, z, terms), z, log_c + t_power,
                         log_c_abs + abs(t_power)))
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


def chf_asymptotic(a: complex, b: float, z: complex) -> AsymptoticResult:
    """Large-|z| two-branch expansion of 1F1(a, b; z).

    Sums both formal series to their optimal truncation, or until a term
    falls below eps of the sum; ``error_estimate`` bounds the absolute
    error, rounding of the coefficients included.  The recessive
    z^{-a} branch carries the factor e^{+i pi a} for arg z > -pi/2 and
    e^{-i pi a} otherwise (the boundary ray arg z = -pi/2 belongs to the
    lower sector).  :func:`asymptotic_pair_for` reads the closed form's pair
    from it past the series range; at smaller |z| it corroborates series
    and ODE values in the overlap region.

    The work splits in two parts, computed in that order: one fixed by
    (a, b), which checks them and takes the log-Gamma terms of both
    branches' coefficients, log Gamma of b, b - a and a, and one fixed by z,
    which checks it, takes its sector and log z, sums both series and
    forms the exponentials.  :func:`asymptotic_pair_for` keeps the first
    part for many points.

    Raises
    ------
    InvalidParams
        if a, b or z is not finite, or b is a series pole.
    ArgumentTooSmall
        if |z| < ASYMPTOTIC_MIN_ABS_Z, where optimal truncation is too loose.
    DoubleRangeExceeded
        if a branch's prefactor or the value is above the largest double.
    """
    return _expand(_ab_part(a, b), _z_part(z))


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
