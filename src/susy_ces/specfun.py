"""Confluent hypergeometric machinery for complex arguments.

Everything the closed-form solutions and their checks need: the Kummer
function 1F1(a, b; z) for complex ``a``/``z`` and real ``b``, its
derivative, a principal-branch complex log-gamma, the Kummer
transformation (kept solely as a cross-check) and, for the far region
of the ray, the large-|z| asymptotic expansion of the closed form's pair.

The evaluator sums the defining series directly at every z.  On the
physically relevant ray (purely imaginary z) the series loses roughly
log10(e^|z|) digits to cancellation, so plain double precision is dead
by |z| ~ 30.  Every point is therefore summed by the one kernel
:func:`susy_ces.highprec.chf_series_fixed`, in exact integer fixed point
at a width sized from that predicted cancellation and checked against
the truncation bound afterwards, then rounded once to complex double.
:func:`kummer_pair` gives M(1/2 + i eta, 1/2; z) and M(1/2 + i eta, 3/2; z),
the one pair both closed-form branches are built from, each component the
double nearest its exact value, at any number of points on the ray, from
:func:`susy_ces.highprec.kummer_walk`: it carries the pair along the grid
and sums the pair's series only at points out of a Taylor step's reach (a
quarter of the way to z = 0) or, wider, where the rounding cannot be
certified.  A lone point is one series loop: M(a, 1/2) is formed exactly
from the terms of its partner with b = 3/2.
A scalar z gives a Python ``complex``, an array of them an ndarray of
its shape; every value is computed in Python, point by point.
Values past the largest double raise ``DoubleRangeExceeded``.  It refuses
|z| > ``SERIES_ZMAX`` outright.  Past the bound the same pair comes from
:func:`asymptotic_pair`, the large-|z| expansion (DLMF 13.7.2), with
:func:`kummer_pair`'s signature, certified to ``FAR_TOL`` up to one exact
factor per branch and a shared power of two, at the points where its
error estimate allows (|z| past about eta^2, and never below 25), from
one series loop a point; :func:`susy_ces.scattering.phase_difference`
reads every rung from one call of it.
"""
from __future__ import annotations

import cmath
import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from ._points import flat, shaped
from .errors import (DoubleRangeExceeded, InvalidParams, PoleAtNonPositiveInteger,
                     SeriesRangeExceeded)
from .highprec import chf_series_fixed, kummer_walk

if TYPE_CHECKING:
    from pathlib import Path

# only the benchmark tracer looks this up; it goes with its highprec.dd boundary
chf_series_dd = None

#: refusal bound for the series evaluator.  At |z| = 60 the cancellation
#: ratio reaches ~1e26, which the fixed-point sum absorbs with tens of
#: digits to spare; past it callers take :func:`asymptotic_pair`.
SERIES_ZMAX = 60.0
#: relative error bound :func:`asymptotic_pair` certifies its values to
FAR_TOL = 2.0 ** -40
#: past e^700 (the largest double is about e^709.8) the pair's shared factors are scaled
_LOG_BIG = 700.0
_LOG_2 = math.log(2.0)
_SQRT_PI = math.sqrt(math.pi)

_GOLDEN_ENV = "SUSY_CES_GOLDEN_DIR"
_EPS = sys.float_info.epsilon
_EPS24 = 24.0 * _EPS


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
            f"max|z| = {zmax!r} exceeds the series bound "
            f"{SERIES_ZMAX:g}; past it, phase_difference reads the pair "
            f"through the large-|y| expansion (asymptotic_pair)")


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


def _in_double_range(vals: list[complex], what: str) -> list[complex]:
    """``vals``, unless a product of series values left the double range."""
    if not all(map(cmath.isfinite, vals)):
        raise DoubleRangeExceeded(
            f"{what} exceeds the double range (magnitude above {sys.float_info.max:.4g})")
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
    allowed), each component the double nearest its exact value, so a
    point's bits do not depend on what it is sent with.  The distinct s go
    to :func:`susy_ces.highprec.kummer_walk` in ascending order: a lone
    point is a one-point walk, one series loop for both functions.

    Raises
    ------
    InvalidParams
        if ``eta`` is not finite and >= 0, or an s is NaN or negative.
    SeriesRangeExceeded
        if any s exceeds the series viability bound, s = inf included.
    """
    if not (math.isfinite(eta) and eta >= 0.0):
        raise InvalidParams(f"eta={eta!r} is not finite and >= 0")
    for v in s:
        if not v >= 0.0:
            raise InvalidParams(f"s={v!r} is not finite and >= 0")
    _refuse_past(max(s, default=0.0))
    grid = sorted(set(s))
    walk = kummer_walk(eta, grid)
    at = {v: k for k, v in enumerate(grid)}
    idx = [at[v] for v in s]
    return [walk.p[k] for k in idx], [walk.q[k] for k in idx]


def _recessive_sums(a: complex, zz: complex, terms: int) -> tuple[tuple[complex, float], ...]:
    """(R_1/2, size of its last term) and (R_3/2, size of its last term), the
    recessive sums in 1/zz, each to its optimal truncation or until its last
    term falls below eps of it.  With w_k = (a)_k (1 + i eta)_{k-1} / (k! zz^k)
    and (1 + i eta)_k = (i eta)_k (i eta + k) / (i eta), their k-th terms are
    (i eta + k) w_k and i eta w_k: one loop, with no division by eta, that
    takes one modulus of each term a sum still runs."""
    ieta = a - 0.5
    t = s1 = s3 = 1.0 + 0j
    best1 = best3 = 1.0
    go1 = go3 = True
    for k in range(terms):
        w = t * (a + k) / ((k + 1) * zz)
        t = w * (ieta + (k + 1))
        if go1 and not ((size := abs(t)) >= best1 or best1 < _EPS * abs(s1)):
            s1 += t
            best1 = size
        else:
            go1 = False
        u = w * ieta
        if go3 and not ((size := abs(u)) >= best3 or best3 < _EPS * abs(s3)):
            s3 += u
            best3 = size
        else:
            go3 = False
        if not (go1 or go3):
            break
    return (s1, best1), (s3, best3)


def asymptotic_pair(eta: float, s: list[float]) -> tuple[list[complex], list[complex]]:
    """M(1/2 + i eta, 1/2 and 3/2; y) past the series range, from the large-|y| expansion.

    The pair (P, Q) at y = -i s for each s, as :func:`kummer_pair` gives it
    inside its range.  Each (P, Q) is certified to ``FAR_TOL`` up to one
    exact factor per branch and a shared power of two: to ``FAR_TOL`` of
    each value, it is 2^-e (f_r R + f_d D), with R and D the exact recessive
    and dominant branch pairs of DLMF 13.2.41/13.7.2, and f_r, f_d within
    eps times the size of their branch's shared log terms of 1 (about
    1e3 eps at eta = 200).  Each branch alone satisfies the pair relation
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
    ``FAR_TOL`` of it.  What depends on eta alone, the log-Gamma terms, the
    log terms holding arg z = -pi/2 and Gamma(b) times the factors but 1/z,
    is formed once a call, so a ladder solve reads every rung in one call.
    As eta and s are real, z = conj(-z) and each b's dominant sum is the
    other b's recessive sum conjugated, term by term: a point runs one loop
    (:func:`_recessive_sums`) and forms each sum's error share once.

    Raises
    ------
    InvalidParams
        if ``eta`` is not finite, or an s is not finite and positive.
    DoubleRangeExceeded
        if |eta| ln(largest double) passes the largest double (|eta| above
        about 2.5e305), where the log terms cannot be formed.
    SeriesRangeExceeded
        for a value not certified: s not far enough past eta^2, which
        takes in every s below 25.
    """
    a, _ = _params(complex(0.5, eta), 0.5)
    eta, ieta = a.imag, a - 0.5
    # the log terms eta ln eta, eta ln s and pi eta stay finite for every
    # finite s only while |eta| ln(largest double) does
    top = sys.float_info.max / math.log(sys.float_info.max)
    if abs(eta) > top:
        raise DoubleRangeExceeded(
            f"eta = {eta:.4g}: the large-|y| expansion's log terms (eta ln eta, "
            f"eta ln |y|, pi eta) pass the largest double past |eta| = {top:.4g}")
    lg_r, lg_d = log_gamma(1.0 - ieta), log_gamma(a)
    # the logs' terms in eta alone: on the ray arg z = -pi/2 (-pi/2 - arg(z)/2
    # = -pi/4 exactly), and the recessive sector term is e^{-i pi a}
    r_re, r_eli = math.pi * eta, eta * (-0.5 * math.pi)
    d_re = -r_eli - lg_d.real
    # Gamma(b) times the part of the recessive factor that differs: -i eta at b = 1/2
    g_half, g_3half = _SQRT_PI * -ieta, 0.5 * _SQRT_PI
    out: tuple[list[complex], list[complex]] = ([], [])
    for v in s:
        if not (math.isfinite(v) and v > 0.0):
            raise InvalidParams(f"s={v!r} is not finite and positive")
        z = complex(0.0, -v)
        terms, lr = 2 * int(v) + 30, cmath.log(z).real
        # the logs of the shared factors, their parts summed exactly
        log_r = complex(math.fsum((r_re, -0.5 * lr, r_eli, -lg_r.real)),
                        math.fsum((-0.25 * math.pi, -eta * lr, -lg_r.imag)))
        log_d = complex(d_re, eta * lr - lg_d.imag)
        # past e^700, 2^n with n = round(big / ln 2) is divided out; the
        # remainder is exact, so the larger factor keeps a modulus near 1
        big = max(log_r.real, log_d.real)
        scale = big - math.remainder(big, _LOG_2) if big > _LOG_BIG else 0.0
        f_r = cmath.exp(log_r - scale)
        # e^z apart: its phase, exact as z is, would cost |z| eps in a sum
        f_d = cmath.exp(z) * cmath.exp(log_d - scale)
        (s1, t1), (s3, t3) = _recessive_sums(a, -z, terms)
        # each sum's error share: 16 eps for the sum, 8 for its factor and product
        e1, e3 = t1 + _EPS24 * abs(s1), t3 + _EPS24 * abs(s3)
        # per b: the factors (the dominant one's differing part is 1 or 1/z), then the sums
        for b, c_r, c_d, s_r, e_r, s_d, e_d, vals in (
                (0.5, f_r * g_half, f_d * _SQRT_PI, s1, e1, s3, e3, out[0]),
                (1.5, f_r * g_3half, f_d * (g_3half * (1.0 / z)), s3, e3, s1, e1, out[1])):
            value = c_r * s_r + c_d * s_d.conjugate()
            err = abs(c_r) * e_r + abs(c_d) * e_d
            if not err <= FAR_TOL * abs(value):
                raise SeriesRangeExceeded(
                    f"|y| = {v:.4g} at eta = {eta:.4g}: the large-|y| expansion of "
                    f"1F1(a, {b:g}; y) is not certified to FAR_TOL = {FAR_TOL:.3g}")
            vals.append(value)
    return out


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

# the Stirling tail's coefficients B_2j / (2j (2j - 1)), from the Bernoulli numbers B_2 .. B_20
_STIRLING = tuple(b2j / (2 * j * (2 * j - 1)) for j, b2j in enumerate((
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
    -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0, 43867.0 / 798.0,
    -174611.0 / 330.0), start=1))
_LOG_2PI = math.log(2.0 * math.pi)
_STIRLING_RADIUS = 12.0


def _stirling(w: complex) -> complex:
    # requires |w| >= _STIRLING_RADIUS and re(w) > 0
    s = (w - 0.5) * cmath.log(w) - w + 0.5 * _LOG_2PI
    w2 = w * w
    p = w
    for c in _STIRLING:
        if not cmath.isfinite(p):   # |w| past ~1e16: this term and the rest are 0
            break
        s += c / p
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
    # here, not at module level: only the golden tables need these modules
    import os
    from importlib import resources
    from pathlib import Path

    env = os.environ.get(_GOLDEN_ENV)
    if env:
        return Path(env)
    return Path(str(resources.files("susy_ces") / "golden"))


def load_golden_chf(path: Path | None = None) -> list[GoldenRow]:
    """Read the frozen 1F1 reference values (columns a_re,a_im,b,z_re,z_im,f_re,f_im)."""
    import csv

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
