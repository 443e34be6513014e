"""Compensated arithmetic used by the series evaluators.

Two independent precision ladders live here:

* ``chf_series_fixed`` — an exact integer fixed-point evaluation of the
  confluent-hypergeometric series, one point at a time.  Term ratios are
  formed from the *exact* binary rationals underlying the float inputs,
  so the only rounding is one controlled rounding per term at a number
  of fractional bits sized from the predicted cancellation and checked
  against the truncation bound after the sum.  Its cost is a few
  microseconds per term, and it is the evaluator ``specfun`` uses for
  every point.

* ``DD`` — double-double numbers (an unevaluated sum ``hi + lo`` of two
  floats, ~32 significant digits) vectorised over numpy arrays, and the
  series summed in them, ``chf_series_dd``, good for |z| up to about 40.
  Each term costs about 40 numpy calls whatever the batch size, so it
  only overtakes the fixed-point series for batches of several hundred
  points.  The tests keep it as an independent reference for the
  fixed-point series.

Neither ladder depends on any third-party extended-precision library.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import DoubleRangeExceeded, NonConvergence

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
#: term budget of one series sum, in either ladder; inside
#: specfun.SERIES_ZMAX a few hundred suffice
MAX_TERMS = 10000


def _two_sum(a, b):
    """Error-free sum: a + b = s + err exactly."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _quick_two_sum(a, b):
    # valid only for |a| >= |b|
    s = a + b
    return s, b - (s - a)


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    """Error-free product: a * b = p + err exactly."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


class DD(NamedTuple):
    """Double-double value(s): the exact sum ``hi + lo`` with |lo| <= ulp(hi)/2.

    Components may be scalars or numpy arrays of equal shape; all
    operations are elementwise.
    """

    hi: np.ndarray
    lo: np.ndarray

    @staticmethod
    def from_float(x) -> "DD":
        x = np.asarray(x, dtype=float)
        return DD(x, np.zeros_like(x))

    def to_float(self) -> np.ndarray:
        return self.hi + self.lo

    def __add__(self, other: "DD") -> "DD":
        s, e = _two_sum(self.hi, other.hi)
        t, f = _two_sum(self.lo, other.lo)
        e = e + t
        s, e = _quick_two_sum(s, e)
        e = e + f
        return DD(*_quick_two_sum(s, e))

    def __sub__(self, other: "DD") -> "DD":
        return self + DD(-other.hi, -other.lo)

    def __mul__(self, other: "DD") -> "DD":
        p, e = _two_prod(self.hi, other.hi)
        e = e + (self.hi * other.lo + self.lo * other.hi)
        return DD(*_quick_two_sum(p, e))

    def mul_d(self, d) -> "DD":
        p, e = _two_prod(self.hi, d)
        e = e + self.lo * d
        return DD(*_quick_two_sum(p, e))

    def div_d(self, d) -> "DD":
        q1 = self.hi / d
        p, pe = _two_prod(q1, d)
        s, se = _two_sum(self.hi, -p)
        q2 = (s + (se - pe + self.lo)) / d
        return DD(*_quick_two_sum(q1, q2))

    def div_dd(self, other: "DD") -> "DD":
        q1 = self.hi / other.hi
        r = self - other.mul_d(q1)
        q2 = r.hi / other.hi
        r = r - other.mul_d(q2)
        q3 = r.hi / other.hi
        q, e = _quick_two_sum(q1, q2)
        return DD(q, e) + DD.from_float(q3)


class CDD(NamedTuple):
    """Complex double-double: independent DD real and imaginary parts."""

    re: DD
    im: DD

    @staticmethod
    def from_complex(z) -> "CDD":
        z = np.asarray(z, dtype=complex)
        return CDD(DD.from_float(z.real), DD.from_float(z.imag))

    def to_complex(self) -> np.ndarray:
        return self.re.to_float() + 1j * self.im.to_float()

    def __add__(self, other: "CDD") -> "CDD":
        return CDD(self.re + other.re, self.im + other.im)

    def mul(self, other: "CDD") -> "CDD":
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        return CDD(re, im)

    def div_dd(self, d: DD) -> "CDD":
        return CDD(self.re.div_dd(d), self.im.div_dd(d))

    def mag_hi(self) -> np.ndarray:
        return np.hypot(self.re.hi, self.im.hi)


def chf_series_dd(a: complex, b: float, z: np.ndarray, *,
                  rel_tol: float = 1e-14) -> np.ndarray:
    """Sum the confluent-hypergeometric series in double-double precision.

    Evaluates sum_k (a)_k / ((b)_k k!) z^k elementwise over ``z`` with the
    term recurrence t_{k+1} = t_k (a+k) z / ((b+k)(k+1)), stopping once
    |t| < rel_tol * |sum| for two consecutive terms in every lane.

    Parameters
    ----------
    a : complex
    b : float
        Must not be a non-positive integer (caller checks).
    z : complex scalar or ndarray

    Returns
    -------
    ndarray of complex (same shape as ``z``)
    """
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    zf = z.ravel()
    zr = DD.from_float(np.asarray(zf.real, dtype=float))
    zi = DD.from_float(np.asarray(zf.imag, dtype=float))
    t = CDD.from_complex(np.ones_like(zf))
    s = t
    ar, ai = float(a.real), float(a.imag)
    hits = np.zeros(zf.shape, dtype=np.int64)
    for k in range(MAX_TERMS):
        # a + k and (b + k)(k + 1) carried in double-double: when a or b has
        # a non-representable part, the half-ulp rounding of a plain float
        # sum would be amplified by the series cancellation into the result
        fr = DD(*_two_sum(ar, float(k)))
        t = CDD(t.re * fr - t.im.mul_d(ai), t.re.mul_d(ai) + t.im * fr)
        t = CDD(t.re * zr - t.im * zi, t.re * zi + t.im * zr)
        den = DD(*_two_sum(b, float(k))).mul_d(k + 1.0)
        t = t.div_dd(den)
        s = s + t
        small = t.mag_hi() <= rel_tol * s.mag_hi()
        hits = np.where(small, hits + 1, 0)
        if np.all(hits >= 2):
            return s.to_complex().reshape(shape)
    raise NonConvergence(
        f"series did not converge within {MAX_TERMS} terms "
        f"(a={a!r}, b={b!r}, max|z|={float(np.max(np.abs(zf))):.3g})")


# ---------------------------------------------------------------------------
# exact integer fixed-point ladder


def _dyadic(x: float) -> tuple[int, int]:
    """Return (n, s) with x == n / 2**s exactly."""
    num, den = float(x).as_integer_ratio()
    return num, den.bit_length() - 1


def _round_div(n: int, d: int) -> int:
    """Round-half-away-from-zero integer division, d > 0."""
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def _int_to_float(n: int, shift: int) -> float:
    """Return the float nearest n * 2**shift without intermediate overflow."""
    if n == 0:
        return 0.0
    drop = n.bit_length() - 53
    if drop <= 0:
        return math.ldexp(float(n), shift)
    return math.ldexp(float(_round_div(n, 1 << drop)), shift + drop)


#: bits of the sum the fixed-point route resolves: a double's 53 plus 16
#: guard bits, so the final rounding to complex double is exact
SAFE_BITS = 53 + 16
#: bits added to the predicted cancellation when sizing the width; they pay
#: for the safe bits and the n**2 growth of the truncation bound (n ~ 2**8)
_WIDTH_GUARD = SAFE_BITS + 16
_LOG2E = 1.0 / math.log(2.0)


def _fixed_sum(a: complex, b: float, z: complex, bits: int) -> tuple[int, int, int, int]:
    """Fixed-point confluent-hypergeometric series, raw scaled integers.

    Returns (sr, si, peak, n): the series value is (sr + i si) / 2**bits
    up to the truncation error, which stays below ~n**2 * 2**(peak - bits)
    absolute for the n terms summed, whose largest has magnitude
    2**peak.  Summation stops once the term magnitude drops ``SAFE_BITS``
    binary orders below the running sum, twice in a row.

    Terms are carried as integer pairs scaled by 2**bits; the per-term
    ratio (a+k) z / ((b+k)(k+1)) is formed from the exact dyadic rationals
    of the float inputs, so each term suffers a single half-ulp rounding
    at the fixed-point scale.  This makes the routine accurate even when
    intermediate terms exceed the result by dozens of orders of magnitude.
    """
    anr, asr = _dyadic(float(a.real))
    ani, asi = _dyadic(float(a.imag))
    sa = max(asr, asi)
    anr <<= sa - asr
    ani <<= sa - asi
    da = 1 << sa

    znr, zsr = _dyadic(float(z.real))
    zni, zsi = _dyadic(float(z.imag))
    sz = max(zsr, zsi)
    znr <<= sz - zsr
    zni <<= sz - zsi

    bn, bs = _dyadic(float(b))
    bd = 1 << bs

    # rho_k = (a + k) z / ((b + k)(k + 1)) = (pr + i pi) / q, all ints; the
    # numerator is linear in k, so it advances by (dpr, dpi) per term
    pr = (anr * znr - ani * zni) * bd
    pi = (anr * zni + ani * znr) * bd
    dpr = da * znr * bd
    dpi = da * zni * bd
    dq = da << sz
    one = 1 << bits
    tr, ti = one, 0
    sr, si = one, 0
    peak = one.bit_length()
    hits = 0
    for k in range(MAX_TERMS):
        q = dq * (bn + k * bd) * (k + 1)
        half = q >> 1
        # floor((x + q/2) / q): round to nearest, one half-unit error per term
        tr, ti = (tr * pr - ti * pi + half) // q, (tr * pi + ti * pr + half) // q
        pr += dpr
        pi += dpi
        sr += tr
        si += ti
        tbits = (abs(tr) | abs(ti)).bit_length()
        if tbits > peak:
            peak = tbits
        if tbits == 0 or tbits + SAFE_BITS <= (abs(sr) | abs(si)).bit_length():
            hits += 1
            if hits >= 2:
                return sr, si, peak, k + 2
        else:
            hits = 0
    raise NonConvergence(
        f"fixed-point series did not converge within {MAX_TERMS} terms "
        f"(a={a!r}, b={b!r}, z={z!r})")


def chf_series_fixed(a: complex, b: float, z: complex, *,
                     bits: int | None = None) -> complex:
    """Fixed-point confluent-hypergeometric series rounded to complex double.

    Sums at ``bits`` fractional bits, by default sized from the predicted
    cancellation: on the imaginary axis the largest term is about e^|z|
    while the sum stays of order one, which costs about |z| log2(e) bits.
    Then it checks the width: the sum must stand at least ``SAFE_BITS``
    bits above the truncation bound n**2 * 2**(peak - bits) of
    :func:`_fixed_sum`.  If it does not, because the parameters make the
    terms peak higher than predicted or the sum lies near a zero, the
    series is summed again at the width the bound asks for.
    """
    if bits is None:
        bits = math.ceil(abs(z) * _LOG2E) + _WIDTH_GUARD
    sr, si, peak, n = _fixed_sum(a, b, z, bits)
    # bits the sum stands above the bound; they grow one for one with the
    # width, and 8 more cover the rounding of the bit lengths
    above = (abs(sr) | abs(si)).bit_length() - (peak - bits) - 2 * n.bit_length()
    if above < SAFE_BITS:
        bits += SAFE_BITS - above + 8
        sr, si, _, _ = _fixed_sum(a, b, z, bits)
    try:
        return complex(_int_to_float(sr, -bits), _int_to_float(si, -bits))
    except OverflowError:
        raise DoubleRangeExceeded(
            f"1F1({a!r}, {b!r}; {z!r}) exceeds the double range "
            f"(magnitude above {sys.float_info.max:.4g})") from None
